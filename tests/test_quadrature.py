import heapq
import math

import numpy as np
import pytest
import scipy.integrate

from monospan import NumericalError, integrate
from monospan.quadrature import _G7_WEIGHTS, _K15_NODES, _K15_WEIGHTS, _gk15, integrate_family


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
        if count >= limit:
            raise NumericalError(
                f"quadrature did not converge: error estimate {total_err:.3e} "
                f"above tolerance {tol:.1e} after {count} cells"
            )
        neg_err, _, lo, hi, _ = heapq.heappop(heap)
        total_err += neg_err
        mid = 0.5 * (lo + hi)
        if not (lo < mid < hi):
            raise NumericalError(
                f"quadrature cell [{lo}, {hi}] cannot be bisected further "
                f"(error estimate {-neg_err:.3e})"
            )
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


def _family(members):
    """f(x, k) of integrate_family for the list of one-argument members."""

    def f(x, k):
        k = np.broadcast_to(k, x.shape)
        out = np.empty(x.shape, dtype=complex)
        for m, g in enumerate(members):
            out[k == m] = g(x[k == m])
        return out

    return f


def _message(run):
    with pytest.raises(NumericalError) as err:
        run()
    return str(err.value)


def test_family_members_equal_their_single_integrals():
    # from 1 cell (the polynomial) to over 100 (the endpoint singularities),
    # each member with breakpoints of its own
    members = [
        (lambda x: x**7 - 3 * x**4 + 2 + 0j, ()),
        (lambda x: np.exp(-x) * np.cos(20 * x), ()),
        (lambda x: x**-0.3 * np.cos(40 * x), (0.5,)),
        (lambda x: np.log(x) ** 3 * x ** (0.2 + 3j), ()),
        (lambda x: np.where(x >= 0.3, np.abs(x - 0.6), 0.0) * x ** (0.5j), (0.3, 0.6)),
        (lambda x: np.where(x < 0.25, 1.0, x**2) + 0j, (0.25, 0.5, 0.75)),
    ]
    got = integrate_family(_family([g for g, _ in members]), 0.0, 1.0, [bp for _, bp in members])
    for (g, bp), res in zip(members, got):
        assert (res.value, res.error) == _reference_integrate(g, 0.0, 1.0, breakpoints=bp)
        assert res == integrate(g, 0.0, 1.0, breakpoints=bp)


def _reciprocal(c):
    return lambda x: 1.0 / (x - c)


# [0.5, 0.5 + ulp] holds no float to split at; all its nodes round to one float,
# where 1e30 makes the K15 and G7 weight sums (2 and 2 - 2^-52) disagree
_ULP_CELL = (0.5, float(np.nextafter(0.5, 1.0)))
_on_ulp_cell = lambda x: np.where((x >= _ULP_CELL[0]) & (x <= _ULP_CELL[1]), 1e30, 0.0)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize(
    "g, breakpoints, limit",
    [
        (lambda x: x**-0.4999, (), 50),  # the cell limit
        (_on_ulp_cell, _ULP_CELL, 20000),  # a cell that cannot be bisected
        (lambda x: 1.0 / (x - 0.3) + 1.0 / (x - 0.8), (0.1, 0.3, 0.8), 20000),  # not finite
    ],
)
def test_failing_member_raises_its_single_integral_error(g, breakpoints, limit):
    smooth = lambda x: np.exp(-x) * np.cos(20 * x)
    alone = _message(lambda: _reference_integrate(g, 0.0, 1.0, limit=limit, breakpoints=breakpoints))
    family = _family([smooth, g, smooth])
    got = _message(lambda: integrate_family(family, 0.0, 1.0, [(), breakpoints, (0.5,)], limit=limit))
    assert got == alone


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_first_failure_met_wins():
    # Of two failing members the error is the one the lockstep loop meets first:
    # an earlier round beats a later one, whatever the member order; in one round
    # the cell-limit and bisection checks (in member order) come before the
    # round's one evaluation; of non-finite cells in one evaluation, the first
    # in member order is named.
    def first(members, breakpoints, limit=20000):
        f = _family(members)
        return _message(lambda: integrate_family(f, 0.0, 1.0, breakpoints, limit=limit))

    def alone(g, breakpoints, limit=20000):
        return _message(lambda: _reference_integrate(g, 0.0, 1.0, limit=limit, breakpoints=breakpoints))

    # non-finite on the initial mesh (round 0) against a cell found unsplittable in round 1
    early = lambda x: 1.0 / ((x - 0.25) * (x - 0.75))
    assert "cannot be bisected" in alone(_on_ulp_cell, _ULP_CELL)
    assert first([_on_ulp_cell, early], [_ULP_CELL, (0.5,)]) == alone(early, (0.5,))
    # both non-finite on the initial mesh: the lower member names its cell
    a, b = _reciprocal(0.25), _reciprocal(0.75)
    assert first([a, b], [(0.5,), (0.5,)]) == alone(a, (0.5,))
    assert first([b, a], [(0.5,), (0.5,)]) == alone(b, (0.5,))
    # both over the cell limit of 1 in round 1: the lower member's check comes first
    a, b = lambda x: x**-0.4999, lambda x: np.log(x) ** 3
    assert first([a, b], [(), (0.5,)], limit=1) == alone(a, (), limit=1)
    assert first([b, a], [(0.5,), ()], limit=1) == alone(b, (0.5,), limit=1) != alone(a, (), limit=1)
    # round 2: member 0 bisects [0, 0.5], whose half [0, 0.25] has the node 0.125,
    # but member 1 reaches the cell limit of 4 in the same round, before that evaluation
    a, b = _reciprocal(0.125), lambda x: x**-0.4999
    assert "[0.0, 0.25]" in alone(a, (), limit=4)
    assert first([a, b], [(), (0.5,)], limit=4) == alone(b, (0.5,), limit=4)
