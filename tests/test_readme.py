"""The Python examples of README.md run as written.

Each ```python block is one doctest, cut at its fences, so that a closing
fence is never read as expected output.
"""

import doctest
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text()
# (line of the block's first line, the block's text)
BLOCKS = [(TEXT.count("\n", 0, m.start(1)) + 1, m.group(1))
          for m in re.finditer(r"^```python\n(.*?)^```$", TEXT, re.DOTALL | re.MULTILINE)]


def test_readme_has_python_examples():
    assert len(BLOCKS) >= 3


@pytest.mark.parametrize("line, source", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_example_runs(line, source):
    test = doctest.DocTestParser().get_doctest(source, {}, f"README.md:{line}",
                                               str(README), line - 1)
    assert doctest.DocTestRunner().run(test).failed == 0
