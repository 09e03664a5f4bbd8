import heapq
import math

import numpy as np
import pytest
import scipy.integrate

from monospan import NumericalError, integrate
from monospan.quadrature import _G7_WEIGHTS, _K15_NODES, _K15_WEIGHTS, _gk15


def test_polynomial_is_exact():
    # G7/K15 integrates degree <= 13 exactly on a single cell
    res = integrate(lambda x: x**7 - 3 * x**4 + 2, 0.0, 1.0)
    assert abs(res.value - (1 / 8 - 3 / 5 + 2)) < 1e-15
    assert res.error < 1e-12


def test_endpoint_singularity_x_power():
    # integral of x^p over [0,1] with p just inside the admissible range
    p = -0.49
    res = integrate(lambda x: x**p, 0.0, 1.0)
    assert abs(res.value - 1 / (p + 1)) < 1e-9


def test_complex_oscillatory_against_scipy():
    s = 0.3 + 7.0j

    def f(x):
        return x**s

    res = integrate(f, 0.0, 1.0)
    re, _ = scipy.integrate.quad(lambda x: (x**s).real, 0, 1, limit=200)
    im, _ = scipy.integrate.quad(lambda x: (x**s).imag, 0, 1, limit=200)
    assert abs(res.value - complex(re, im)) < 1e-10
    assert abs(res.value - 1 / (s + 1)) < 1e-10


def test_breakpoints_handle_jump():
    f = lambda x: np.where(x >= 0.5, 1.0, 0.0)
    res = integrate(f, 0.0, 1.0, breakpoints=(0.5,))
    assert abs(res.value - 0.5) < 1e-13


def test_log_powers():
    # integral of (ln x)^4 over [0,1] is 4! = 24
    res = integrate(lambda x: np.log(x) ** 4, 0.0, 1.0)
    assert abs(res.value - 24.0) < 1e-9


def test_cell_limit_raises():
    with pytest.raises(NumericalError):
        integrate(lambda x: x**-0.4999, 0.0, 1.0, tol=1e-300, limit=50)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_nonfinite_integrand_raises():
    with pytest.raises(NumericalError):
        integrate(lambda x: 1.0 / (x - 0.3), 0.0, 1.0, breakpoints=(0.3,))


def test_reproducible_summation():
    f = lambda x: x**-0.3 * np.cos(40 * x)
    a = integrate(f, 0.0, 1.0)
    b = integrate(f, 0.0, 1.0)
    assert a.value == b.value


def _reference_gk15(f, lo, hi):
    """One cell, one integrand call: the K15 value and the |K15 - G7| error."""
    h = 0.5 * (hi - lo)
    y = np.asarray(f(0.5 * (lo + hi) + h * _K15_NODES), dtype=complex)
    if not np.all(np.isfinite(y.view(float))):
        raise NumericalError(f"integrand not finite on [{lo}, {hi}]")
    k = h * np.sum(_K15_WEIGHTS * y)
    g = h * np.sum(_G7_WEIGHTS * y[[1, 3, 5, 7, 9, 11, 13]])
    return complex(k), abs(k - g)


def _reference_integrate(f, a, b, *, tol=1e-11, limit=20000, breakpoints=()):
    """The adaptive scheme with one integrand call per cell, as the oracle."""
    gk15 = lambda lo, hi: _reference_gk15(f, lo, hi)
    points = sorted({float(a), float(b), *(float(p) for p in breakpoints if a < p < b)})
    heap, count, total_err = [], 0, 0.0
    for lo, hi in zip(points[:-1], points[1:]):
        val, err = gk15(lo, hi)
        heapq.heappush(heap, (-err, count, lo, hi, val))
        total_err += err
        count += 1
    while total_err > tol:
        assert count < limit
        neg_err, _, lo, hi, _ = heapq.heappop(heap)
        total_err += neg_err
        mid = 0.5 * (lo + hi)
        for l2, h2 in ((lo, mid), (mid, hi)):
            val, err = gk15(l2, h2)
            heapq.heappush(heap, (-err, count, l2, h2, val))
            total_err += err
            count += 1
    cells = sorted(heap, key=lambda cell: cell[2])
    return complex(sum(c[4] for c in cells)), float(sum(-c[0] for c in cells))


def test_gk15_cell_list_equals_one_cell_calls():
    rng = np.random.default_rng(11)
    lo = np.sort(rng.uniform(0.0, 1.0, 64))
    cells = [(float(a), float(a + w)) for a, w in zip(lo, 10.0 ** rng.uniform(-12, -0.5, 64))]
    for f in (lambda x: np.exp(-x) * np.cos(20 * x), lambda x: np.log(x) ** 3 * x ** (0.2 + 3j)):
        assert _gk15(f, cells) == [_reference_gk15(f, a, b) for a, b in cells]


@pytest.mark.parametrize(
    "f, breakpoints",
    [
        (lambda x: np.exp(-x) * np.cos(20 * x), ()),  # smooth, needs bisection
        (lambda x: x**-0.3 * np.cos(40 * x), ()),
        (lambda x: np.log(x) ** 3 * x ** (0.2 + 3j), ()),  # log-singular at 0
        (lambda x: np.where(x >= 0.3, np.abs(x - 0.6), 0.0) * x ** (0.5j), (0.3, 0.6)),
        (lambda x: np.where(x < 0.25, 1.0, x**2) + 0j, (0.25, 0.5, 0.75)),
    ],
)
def test_batched_cells_equal_per_cell_loop(f, breakpoints):
    # grouping the cells into one integrand call changes no bit of the result
    res = integrate(f, 0.0, 1.0, breakpoints=breakpoints)
    value, error = _reference_integrate(f, 0.0, 1.0, breakpoints=breakpoints)
    assert res.value == value and res.error == error


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize(
    "f, breakpoints",
    [
        # 0.25 and 0.75 are the middle nodes of both initial cells
        (lambda x: 1.0 / ((x - 0.25) * (x - 0.75)), (0.5,)),
        (lambda x: 1.0 / (x - 0.3) + 1.0 / (x - 0.8), (0.1, 0.3, 0.8)),  # found by bisection
    ],
)
def test_nonfinite_message_names_first_bad_cell(f, breakpoints):
    with pytest.raises(NumericalError) as ref:
        _reference_integrate(f, 0.0, 1.0, breakpoints=breakpoints)
    with pytest.raises(NumericalError) as got:
        integrate(f, 0.0, 1.0, breakpoints=breakpoints)
    assert str(got.value) == str(ref.value)
