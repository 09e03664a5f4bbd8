"""Adaptive Gauss-Kronrod quadrature for complex integrands on finite intervals.

A 7/15 Gauss-Kronrod pair is applied on an adaptively bisected mesh.  All
nodes are interior, so integrable endpoint singularities (|f(x)| ~ x^p with
p > -1 near 0) are handled by the bisection drilling a geometric mesh toward
the endpoint; no endpoint evaluation ever happens.  The per-cell error is the
conservative |K15 - G7| difference.

The integrand is called once per list of cells, not once per cell: once on
the nodes of every initial cell, then once on both halves of each bisected
cell, as one flat array of 15 nodes per cell.  It must therefore act
elementwise; each cell's K15 and G7 sums are still taken over its own 15
values, so the result does not depend on how cells are grouped.  Cell
contributions are summed in ascending order of the left endpoint, so
results are reproducible bit for bit.
"""

from __future__ import annotations

import heapq
from typing import Callable, Iterable, NamedTuple

import numpy as np

from .errors import NumericalError

# 15-point Kronrod nodes on [-1, 1] and the matching weights; the embedded
# 7-point Gauss rule lives on the odd-index nodes.
_K15_NODES = np.array([
    -0.9914553711208126, -0.9491079123427585, -0.8648644233597691,
    -0.7415311855993944, -0.5860872354676911, -0.4058451513773972,
    -0.2077849550078985, 0.0, 0.2077849550078985, 0.4058451513773972,
    0.5860872354676911, 0.7415311855993944, 0.8648644233597691,
    0.9491079123427585, 0.9914553711208126,
])
_K15_WEIGHTS = np.array([
    0.022935322010529225, 0.06309209262997855, 0.10479001032225018,
    0.14065325971552592, 0.1690047266392679, 0.19035057806478542,
    0.20443294007529889, 0.20948214108472782, 0.20443294007529889,
    0.19035057806478542, 0.1690047266392679, 0.14065325971552592,
    0.10479001032225018, 0.06309209262997855, 0.022935322010529225,
])
_G7_WEIGHTS = np.array([
    0.12948496616886969, 0.27970539148927664, 0.3818300505051189,
    0.41795918367346936, 0.3818300505051189, 0.27970539148927664,
    0.12948496616886969,
])
# A slice, not an index array: y[:, [1, 3, ...]] is laid out column-major,
# and np.sum would then add each row's values in another order.
_G7_NODES = slice(1, None, 2)


class QuadResult(NamedTuple):
    value: complex
    error: float


def _gk15(
    f: Callable[[np.ndarray], np.ndarray], cells: list[tuple[float, float]]
) -> list[tuple[complex, float]]:
    """K15 values and |K15 - G7| errors of the cells, from one call of f on all their nodes."""
    lo, hi = np.array(cells).T
    h = 0.5 * (hi - lo)
    x = (0.5 * (lo + hi))[:, None] + h[:, None] * _K15_NODES
    y = np.asarray(f(x.ravel()), dtype=complex).reshape(x.shape)
    finite = np.isfinite(y.view(float))
    if not finite.all():
        a, b = cells[int(np.argmin(finite.all(axis=1)))]
        raise NumericalError(f"integrand not finite on [{a}, {b}]")
    # one cell per row: each row sums in the order np.sum gives 15 values alone
    k = h * (_K15_WEIGHTS * y).sum(axis=1)
    d = k - h * (_G7_WEIGHTS * y[:, _G7_NODES]).sum(axis=1)
    # np.abs on a complex array rounds differently from the scalar abs; hypot does not
    return list(zip(k.tolist(), np.hypot(d.real, d.imag).tolist()))


def integrate(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    *,
    tol: float = 1e-11,
    limit: int = 20000,
    breakpoints: Iterable[float] = (),
) -> QuadResult:
    """Integrate a vectorized complex-valued f over [a, b].

    `breakpoints` seeds the initial mesh (useful for kinks and jumps the
    adaptive search would otherwise have to discover).  Raises
    NumericalError when the accumulated error estimate cannot be pushed
    below `tol` within `limit` cells.
    """
    if not b > a:
        raise ValueError(f"empty or reversed interval [{a}, {b}]")
    points = sorted({float(a), float(b), *(float(p) for p in breakpoints if a < p < b)})
    heap: list[tuple[float, int, float, float, complex]] = []
    count = 0
    total_err = 0.0
    initial = list(zip(points[:-1], points[1:]))
    for (lo, hi), (val, err) in zip(initial, _gk15(f, initial)):
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
        total_err += neg_err  # neg_err is -err
        mid = 0.5 * (lo + hi)
        if not (lo < mid < hi):
            raise NumericalError(
                f"quadrature cell [{lo}, {hi}] cannot be bisected further "
                f"(error estimate {-neg_err:.3e})"
            )
        halves = [(lo, mid), (mid, hi)]
        for (l2, h2), (val, err) in zip(halves, _gk15(f, halves)):
            heapq.heappush(heap, (-err, count, l2, h2, val))
            total_err += err
            count += 1
    cells = sorted(heap, key=lambda cell: cell[2])
    value = complex(sum(c[4] for c in cells))
    error = float(sum(-c[0] for c in cells))
    return QuadResult(value, error)
