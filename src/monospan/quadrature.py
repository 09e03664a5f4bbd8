"""Adaptive Gauss-Kronrod quadrature for complex integrands on finite intervals.

A 7/15 Gauss-Kronrod pair is applied on an adaptively bisected mesh.  All
nodes are interior, so integrable endpoint singularities (|f(x)| ~ x^p with
p > -1 near 0) are handled by the bisection drilling a geometric mesh toward
the endpoint; no endpoint evaluation ever happens.  The per-cell error is the
conservative |K15 - G7| difference.

One adaptive loop (integrate_family) runs a family of integrals over [a, b]
in lockstep; integrate is its one-member case.  Each round calls the
integrand once, elementwise, on 15 nodes per cell: the initial cells, then
both halves of each unconverged member's worst cell.  Each member keeps its
own heap, cell count and error total, and each cell sums its own 15 values,
so no result depends on how cells or members are grouped.  Cells are summed
in ascending order of the left endpoint, so results are reproducible bit for bit.
"""

from __future__ import annotations

import heapq
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .errors import NumericalError

# 15-point Kronrod nodes on [-1, 1] and the matching weights; the embedded
# 7-point Gauss rule lives on the odd-index nodes.  The weights are stored
# complex: a product with real weights would cast them on every call.
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
], dtype=complex)
_G7_WEIGHTS = np.array([
    0.12948496616886969, 0.27970539148927664, 0.3818300505051189,
    0.41795918367346936, 0.3818300505051189, 0.27970539148927664,
    0.12948496616886969,
], dtype=complex)
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
    finite = np.isfinite(y)
    if np.count_nonzero(finite) < finite.size:  # faster than finite.all() on a few cells
        a, b = cells[int(np.argmin(finite.all(axis=1)))]
        raise NumericalError(f"integrand not finite on [{a}, {b}]")
    # one cell per row: each row sums in the order np.sum gives 15 values alone
    k = h * np.add.reduce(_K15_WEIGHTS * y, axis=1)
    d = k - h * np.add.reduce(_G7_WEIGHTS * y[:, _G7_NODES], axis=1)
    # np.abs on a complex array rounds differently from the scalar abs; hypot does not
    return list(zip(k.tolist(), np.hypot(d.real, d.imag).tolist()))


def integrate(f: Callable[[np.ndarray], np.ndarray], a: float, b: float, *, tol: float = 1e-11,
              limit: int = 20000, breakpoints: Iterable[float] = ()) -> QuadResult:
    """Integrate a vectorized complex-valued f over [a, b]: the one-member integrate_family.

    `breakpoints` seeds the initial mesh (useful for kinks and jumps the
    adaptive search would otherwise have to discover).  Raises
    NumericalError when the accumulated error estimate cannot be pushed
    below `tol` within `limit` cells.
    """
    return integrate_family(lambda x, _: f(x), a, b, [breakpoints], tol=tol, limit=limit)[0]


def integrate_family(f: Callable[[np.ndarray, np.ndarray | int], np.ndarray], a: float, b: float,
                     breakpoints: Sequence[Iterable[float]], *, tol: float = 1e-11, limit: int = 20000) -> list[QuadResult]:
    """Integrate f(., k) over [a, b] for each member k in lockstep, its mesh seeded by breakpoints[k].

    k is the member index of each node, an int array, or 0 for one member.  A failing
    member raises the error it raises alone.  Of two, the one met first wins: an earlier
    round's; in one round, the cell-limit and bisection checks in member order, then the
    round's evaluation, which names its first non-finite cell.
    """
    if not b > a:
        raise ValueError(f"empty or reversed interval [{a}, {b}]")
    n = len(breakpoints)
    heaps, counts, errors = [[] for _ in range(n)], [0] * n, [0.0] * n
    cells, owners = [], []  # the cells a round evaluates and the member of each
    for m, bp in enumerate(breakpoints):
        points = sorted({float(a), float(b), *(float(p) for p in bp if a < p < b)})
        cells += zip(points[:-1], points[1:])
        owners += [m] * (len(points) - 1)
    push, pop, one = heapq.heappush, heapq.heappop, lambda x: f(x, 0)
    while cells:
        k = np.repeat(owners, len(_K15_NODES)) if n > 1 else 0
        for m, (lo, hi), (val, err) in zip(owners, cells, _gk15(one if n == 1 else lambda x: f(x, k), cells)):
            push(heaps[m], (-err, counts[m], lo, hi, val))
            errors[m] += err
            counts[m] += 1
        cells, owners = [], []
        for m in range(n):
            if not errors[m] > tol:
                continue
            if counts[m] >= limit:
                raise NumericalError(f"quadrature did not converge: error estimate {errors[m]:.3e} "
                                     f"above tolerance {tol:.1e} after {counts[m]} cells")
            neg_err, _, lo, hi, _ = pop(heaps[m])
            errors[m] += neg_err  # neg_err is -err
            mid = 0.5 * (lo + hi)
            if not (lo < mid < hi):
                raise NumericalError(f"quadrature cell [{lo}, {hi}] cannot be bisected further "
                                     f"(error estimate {-neg_err:.3e})")
            cells += (lo, mid), (mid, hi)
            owners += m, m
    heaps = [sorted(heap, key=lambda cell: cell[2]) for heap in heaps]
    return [QuadResult(complex(sum(c[4] for c in h)), float(sum(-c[0] for c in h))) for h in heaps]
