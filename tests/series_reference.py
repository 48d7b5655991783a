"""Term-by-term basis series, the reference for the series kernel.

Independent of ``zetaodd``: each series is summed one term at a time from
its defining formula, in mpmath at the precision the caller sets, whereas
the kernel sums exact power-series coefficients in fixed point.

    lambert             sum n^s q^n / (1 - q^n)
    lambert_derivative  sum n^(s+1) q^(n-1) / (1 - q^n)^2
    sech_series         sum (-1)^n (2n-1)^s sech((n-1/2)|log q|), 0 < q < 1
"""

from mpmath import mp


def prefix_sums(kind: str, q, s: int, n_terms: int) -> list:
    """The sums of the first 1..n_terms terms of a basis series at q."""
    q = mp.mpmathify(q)
    if kind == "sech_series":  # e^(-|log q|/2), times itself squared per term
        u = mp.exp(-abs(mp.log(q)) / 2)
        un, u2 = 1 / u, u * u
    acc, qn, out = 0, 1, []
    for n in range(1, n_terms + 1):
        if kind == "lambert":
            qn *= q  # q^n
            acc += mp.power(n, s) * qn / (1 - qn)
        elif kind == "lambert_derivative":
            acc += mp.power(n, s + 1) * qn / (1 - qn * q) ** 2  # qn = q^(n-1)
            qn *= q
        else:
            un *= u2  # e^(-(n-1/2)|log q|); sech x = 2 / (e^x + e^-x)
            acc += (-1) ** n * mp.power(2 * n - 1, s) * 2 / (1 / un + un)
        out.append(acc)
    return out


def series_sum(kind: str, q, s: int, n_terms: int):
    """The sum of the first n_terms terms of a basis series at q."""
    return prefix_sums(kind, q, s, n_terms)[-1]
