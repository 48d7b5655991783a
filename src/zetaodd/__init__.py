"""Fast Lambert-series evaluation of zeta(2k+1), odd powers of pi, and
logs of small primes, with exact coefficient generation and certified
error bounds."""

from .coefficients import (
    BasisTerm,
    CoefficientTable,
    assemble_detailed,
    coeffs_log,
    coeffs_pi,
    format_coefficient,
    negative_q_rewrite,
    parse_coefficient,
)
from .core import (
    ConvergenceError,
    DomainError,
    PrecisionContext,
    Surd,
    bernoulli,
    make_context,
)
from .engine import (
    ConstantResult,
    ConvergenceProfile,
    convergence_profile,
    log_prime,
    pi_power,
    zeta3_first_order,
    zeta_odd,
)
from .identities import (
    Residual,
    check_lemma_p4,
    check_lemma_sech,
    check_multisection,
    check_t1_case1,
    check_t1_case2,
    check_t1_case3,
    check_zeta_free,
)
from .oracles import oracle_zeta
from .series import (
    QSymbolic,
    SeriesResult,
    lambert_eval,
    lambert_q_expansion,
    sech_series,
)

__version__ = "0.1.0"

__all__ = [
    "BasisTerm",
    "CoefficientTable",
    "ConstantResult",
    "ConvergenceError",
    "ConvergenceProfile",
    "DomainError",
    "PrecisionContext",
    "QSymbolic",
    "Residual",
    "SeriesResult",
    "Surd",
    "assemble_detailed",
    "bernoulli",
    "check_lemma_p4",
    "check_lemma_sech",
    "check_multisection",
    "check_t1_case1",
    "check_t1_case2",
    "check_t1_case3",
    "check_zeta_free",
    "coeffs_log",
    "coeffs_pi",
    "convergence_profile",
    "format_coefficient",
    "lambert_eval",
    "lambert_q_expansion",
    "log_prime",
    "make_context",
    "negative_q_rewrite",
    "oracle_zeta",
    "parse_coefficient",
    "pi_power",
    "sech_series",
    "zeta3_first_order",
    "zeta_odd",
    "__version__",
]
