"""Nelder–Mead simplex minimiser for the benchmark-profile fits.

:func:`repro.workloads.profiles.derive_workload` inverts the paper's
overhead bars with this minimiser. It ports the one configuration of
SciPy's ``_minimize_neldermead`` that the fit uses — non-adaptive
coefficients, no bounds, SciPy's initial simplex (each coordinate
scaled by 1.05, or set to 0.00025 where it is zero), termination on
``maxiter`` or on both ``fatol`` and ``xatol`` — and follows SciPy's
trajectory step for step on plain Python floats. A fit therefore
returns the same ``x``, ``nit`` and ``nfev`` to the bit;
``tests/workloads/test_fit.py`` checks that against SciPy when SciPy is
installed. Four details carry the identity:

* **The objective keeps ``numpy.expm1``/``numpy.log1p``.** On AVX-512
  hosts numpy's SIMD kernels and ``math.expm1`` disagree by one ulp on
  about one draw in ten (19,680 of 200,000 uniform draws on [0, 20]).
* **The simplex is ordered with ``numpy.argsort``**, as SciPy orders
  it. Its default sort is not stable, and a stable sort moves the
  ferret, x264, fmm and water_spatial fits, whose simplex values tie.
* **The centroid sums the rows left to right from 0.0**, as
  ``np.add.reduce(sim, 0)`` does. Builtin ``sum()`` uses compensated
  summation on Python >= 3.12, which changes the bits.
* **Termination needs both the ``fatol`` and the ``xatol`` test**, so
  their order cannot change the result; ``all(d <= xatol)`` equals
  SciPy's ``max(d) <= xatol`` for NaN-free ``d``.
"""

from __future__ import annotations

from typing import Callable, List, NamedTuple, Sequence

import numpy as np

#: SciPy's non-adaptive reflection, expansion, contraction and shrink
#: coefficients.
RHO, CHI, PSI, SIGMA = 1, 2, 0.5, 0.5


class Fit(NamedTuple):
    x: List[float]
    fun: float
    nit: int
    nfev: int


def _ordered(sim, fsim):
    """Sort the simplex by value, breaking ties like SciPy does."""
    order = np.argsort(fsim).tolist()
    return [sim[i] for i in order], [fsim[i] for i in order]


def minimize(
    func: Callable[[List[float]], float],
    x0: Sequence[float],
    *,
    maxiter: int,
    xatol: float,
    fatol: float,
) -> Fit:
    """Minimise ``func`` from ``x0``; ``func`` must not modify its argument."""
    n = len(x0)
    sim = [[float(v) for v in x0]]
    for k in range(n):
        y = list(sim[0])
        y[k] = (1 + 0.05) * y[k] if y[k] != 0 else 0.00025
        sim.append(y)
    fsim = [func(x) for x in sim]
    nfev = n + 1
    # SciPy sorts the initial simplex twice; with ties the second,
    # unstable argsort may permute it again.
    sim, fsim = _ordered(*_ordered(sim, fsim))

    nit = 1
    while nit < maxiter:
        best, worst = sim[0], sim[-1]
        # fsim is sorted and rounding is monotone, so the largest
        # |fsim[0] - f| is the last one.
        if fsim[-1] - fsim[0] <= fatol and all(
            abs(v - b) <= xatol for row in sim[1:] for v, b in zip(row, best)
        ):
            break

        xbar = []
        for column in zip(*sim[:-1]):
            total = 0.0
            for v in column:
                total += v
            xbar.append(total / n)

        xr = [(1 + RHO) * b - RHO * w for b, w in zip(xbar, worst)]
        fxr = func(xr)
        nfev += 1
        shrink = False
        if fxr < fsim[0]:
            xe = [(1 + RHO * CHI) * b - RHO * CHI * w for b, w in zip(xbar, worst)]
            fxe = func(xe)
            nfev += 1
            sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        elif fxr < fsim[-1]:
            xc = [(1 + PSI * RHO) * b - PSI * RHO * w for b, w in zip(xbar, worst)]
            fxc = func(xc)
            nfev += 1
            if fxc <= fxr:
                sim[-1], fsim[-1] = xc, fxc
            else:
                shrink = True
        else:
            xcc = [(1 - PSI) * b + PSI * w for b, w in zip(xbar, worst)]
            fxcc = func(xcc)
            nfev += 1
            if fxcc < fsim[-1]:
                sim[-1], fsim[-1] = xcc, fxcc
            else:
                shrink = True
        if shrink:
            for j in range(1, n + 1):
                sim[j] = [b + SIGMA * (v - b) for b, v in zip(best, sim[j])]
                fsim[j] = func(sim[j])
            nfev += n
        nit += 1
        sim, fsim = _ordered(sim, fsim)

    return Fit(list(sim[0]), min(fsim), nit, nfev)
