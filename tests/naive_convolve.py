"""The all-pairs convolution kernel that `gpd.algebra.convolve` used before
it indexed the second factor by range, kept only as a reference for the
differential test in test_algebra.py. It visits every pair of support
arrows and skips the ones that do not compose; `convolve` must return
exactly the same coefficients, in the same order, while visiting only the
composable pairs."""

from __future__ import annotations

from gpd.algebra import AlgebraElement, Cocycle
from gpd.groupoid import HaarSystem
from gpd.qlin import QC, ZERO, qc


def convolve(
    f: AlgebraElement,
    g: AlgebraElement,
    haar: HaarSystem | None = None,
    sigma: Cocycle | None = None,
) -> AlgebraElement:
    gpd = f.groupoid
    w = haar.weight if haar is not None else None
    out: dict[str, QC] = {}
    for alpha, fa in f.coeffs.items():
        for beta, gb in g.coeffs.items():
            if gpd.s[alpha] != gpd.r[beta]:
                continue
            term = fa * gb
            if w is not None:
                term = term * qc(w[gpd.inv[beta]])
            if sigma is not None:
                term = term * sigma.value(alpha, beta)
            gamma = gpd.comp[(alpha, beta)]
            out[gamma] = out.get(gamma, ZERO) + term
    return AlgebraElement(gpd, {a: v for a, v in out.items() if v})
