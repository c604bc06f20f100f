"""The in-tree Nelder–Mead (repro.workloads.fit) against SciPy's, bit for bit.

The profile fits must not move when the minimiser changes: each of the
33 paper benchmarks' fits, and the minimiser on random objectives with
ties, must follow SciPy's trajectory to the same ``x``, ``nit`` and
``nfev``. SciPy is only the reference here; the library never imports
it, and the tests that call it skip where it is not installed.

The Rosenbrock pins need no SciPy: their values were taken from SciPy's
minimiser once. The objective is plain float arithmetic and its simplex
values never tie, so the trajectory, and the pinned bits, are the same
on every IEEE-754 host.
"""

import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads import fit
from repro.workloads.calibrate import calibrate
from repro.workloads.profiles import (
    FIT_OPTIONS,
    PARSEC_BENCHMARKS,
    PHORONIX_BENCHMARKS,
    SPLASH_BENCHMARKS,
    fit_problem,
)

try:
    from scipy import optimize as scipy_optimize
except ImportError:
    scipy_optimize = None

needs_scipy = pytest.mark.skipif(
    scipy_optimize is None, reason="SciPy (the reference) is not installed"
)

ALL_BENCHMARKS = PARSEC_BENCHMARKS + SPLASH_BENCHMARKS + PHORONIX_BENCHMARKS


def _scipy_fit(func, x0, **options):
    return scipy_optimize.minimize(func, np.array(x0), method="Nelder-Mead", options=options)


def _assert_same(ours, ref):
    assert ours.x == ref.x.tolist()
    assert (ours.nit, ours.nfev) == (ref.nit, ref.nfev)
    assert ours.fun == ref.fun


@needs_scipy
@pytest.mark.parametrize("bench", ALL_BENCHMARKS, ids=lambda b: b.name)
def test_profile_fit_matches_scipy(bench):
    objective, theta0, _unpack = fit_problem(bench, calibrate())
    _assert_same(
        fit.minimize(objective, theta0, **FIT_OPTIONS),
        _scipy_fit(objective, theta0, **FIT_OPTIONS),
    )


def _rosenbrock(x):
    total = 0.0
    for a, b in zip(x[:-1], x[1:]):
        d = b - a * a
        e = 1.0 - a
        total += 100.0 * d * d + e * e
    return total


#: ``(x0, x, nit, nfev, fun)`` of SciPy 1.17 ``minimize(_rosenbrock, x0,
#: method="Nelder-Mead", options=FIT_OPTIONS)``; both runs converge.
ROSENBROCK_PINS = [
    (
        [-1.2, 1.0, 0.5],
        [0.9999999208735275, 0.9999998626603102, 0.9999997527083662],
        233,
        421,
        1.4386834593974969e-13,
    ),
    (
        [-1.2, 1.0, 0.5, -0.3, 0.8, 1.5, 0.0],
        [
            0.9999999957088355,
            0.9999999446115277,
            0.9999999646544289,
            0.9999999147262149,
            0.9999998385231281,
            0.9999996542880133,
            0.9999992797253187,
        ],
        1622,
        2414,
        1.1097934491299355e-12,
    ),
]


@pytest.mark.parametrize("pin", ROSENBROCK_PINS, ids=lambda p: "dim%d" % len(p[0]))
def test_minimize_reproduces_pinned_scipy_rosenbrock(pin):
    x0, x, nit, nfev, fun = pin
    assert tuple(fit.minimize(_rosenbrock, x0, **FIT_OPTIONS)) == (x, fun, nit, nfev)


def _clipped_quadratic(centre, weights, cap):
    """A bowl cut flat at ``cap``: every point outside it ties."""

    def f(x):
        total = 0.0
        for v, c, w in zip(x, centre, weights):
            total += w * (v - c) ** 2
        return min(total, cap)

    return f


_coord = st.floats(min_value=-4.0, max_value=4.0, allow_nan=False)


@st.composite
def _problems(draw):
    n = draw(st.integers(min_value=2, max_value=7))
    vector = st.lists(_coord, min_size=n, max_size=n)
    centre = draw(vector)
    x0 = draw(vector)
    weights = draw(st.lists(st.floats(min_value=0.1, max_value=10.0), min_size=n, max_size=n))
    cap = draw(st.floats(min_value=0.01, max_value=50.0))
    return _clipped_quadratic(centre, weights, cap), x0


@needs_scipy
@settings(max_examples=60, deadline=None)
@given(_problems())
def test_minimize_matches_scipy_on_clipped_quadratics(problem):
    func, x0 = problem
    options = {"maxiter": 400, "xatol": 1e-6, "fatol": 1e-10}
    _assert_same(fit.minimize(func, x0, **options), _scipy_fit(func, x0, **options))


def test_fitting_parsec_does_not_import_scipy():
    code = (
        "import sys\n"
        "from repro.workloads.profiles import PARSEC_BENCHMARKS, workloads_for\n"
        "workloads_for(PARSEC_BENCHMARKS)\n"
        "assert 'scipy' not in sys.modules, sorted(m for m in sys.modules if 'scipy' in m)\n"
    )
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
