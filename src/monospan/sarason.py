"""The unitary transform between L2[0,1] and the Hardy space of the disk.

The forward transform sends f to Uf(z) = (1/(1-z)) * integral of
f(x) x^(z/(1-z)) over [0,1]; monomials go to reproducing-kernel multiples,

    U x^beta = (1/(beta+1)) k_alpha,   alpha = conj(beta)/(conj(beta)+1),

held as a DiskFunction (a finite sum of Szego kernels), and indicators of
[0, s] go to sqrt(s) times the singular inner function with one atom at 1 of
mass -ln(s)/2, held as an atomic.InnerFunction with scale sqrt(s); the
inverse carries kernels back to monomials.  The module provides those closed
forms, an adaptive-quadrature route for a SampledFunction (a
core.PiecewiseMonomial through SampledFunction.of, or a table), and the
inverse power series from derivatives at 1.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .atomic import AtomicMeasure, DiskPoint, InnerFunction, as_disk
from .core import ExponentLike, PiecewiseMonomial, as_exponent
from .errors import DomainError, SeriesWarning
from .quadrature import QuadResult, integrate, integrate_family

DEFAULT_TAYLOR_N = 512


@dataclass(frozen=True)
class DiskFunction:
    """A finite combination sum c_i k_{alpha_i} of Szego kernels in the Hardy space.

    k_alpha(z) = 1/(1 - conj(alpha) z); the terms are (c_i, alpha_i) pairs
    with |alpha_i| < 1.  Closed forms are always preferred; Taylor
    coefficients are derived on demand.
    """

    terms: tuple[tuple[complex, complex], ...] = ()

    def __post_init__(self) -> None:
        clean = tuple((complex(c), complex(a)) for c, a in self.terms)
        for _, a in clean:
            if not abs(a) < 1:
                raise DomainError(f"kernel parameter |alpha| = {abs(a)} not in the disk")
        object.__setattr__(self, "terms", clean)

    def evaluate(self, z: DiskPoint | complex) -> complex:
        zv = as_disk(z)
        return sum(c / (1 - a.conjugate() * zv) for c, a in self.terms)

    def taylor(self, N: int = DEFAULT_TAYLOR_N) -> np.ndarray:
        """First N Taylor coefficients at 0 (length-N array)."""
        if N < 1:
            raise DomainError("need at least one Taylor coefficient")
        out = np.zeros(N, dtype=complex)
        for c, a in self.terms:
            out += c * np.conj(a) ** np.arange(N)
        return out


def h2_inner(F, G, N: int = DEFAULT_TAYLOR_N) -> complex:
    """Hardy-space inner product via Taylor truncation at N terms, for any F and G with taylor(N)."""
    f, g = F.taylor(N), G.taylor(N)
    return complex(np.vdot(g, f))  # vdot conjugates its first argument


@dataclass(frozen=True)
class SampledFunction:
    """A concrete function on (0,1] given by a pointwise evaluator.

    The evaluator must accept numpy arrays of points in (0,1] and be
    reentrant.  breakpoints list interior points where smoothness fails
    (jumps, kinks), which the quadrature respects.  A non-square-integrable
    blowup at 0 is not representable.
    """

    evaluator: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    breakpoints: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        bp = tuple(sorted(float(b) for b in self.breakpoints))
        if any(not 0 < b < 1 for b in bp):
            raise DomainError("breakpoints must lie strictly inside (0, 1)")
        object.__setattr__(self, "breakpoints", bp)

    @classmethod
    def of(cls, f: PiecewiseMonomial) -> SampledFunction:
        """f sampled by PiecewiseMonomial.evaluate, with its nonzero cutoffs as breakpoints."""
        return cls(f.evaluate, tuple({a for _, _, a, _ in f.terms if a > 0}))


def forward_monomial(beta: ExponentLike) -> DiskFunction:
    """U x^beta as a single Szego-kernel multiple.

    Log-weighted monomials have no kernel-combination image in this
    representation (their transforms are kernel derivatives) and are
    rejected; route them through forward_quadrature instead.
    """
    eb = as_exponent(beta)
    if eb.logpow != 0:
        raise DomainError(
            "forward closed form requires logpow = 0; use forward_quadrature for log weights"
        )
    b = eb.s
    alpha = b.conjugate() / (b.conjugate() + 1)
    return DiskFunction(((1 / (b + 1), alpha),))


def forward_indicator(s: float) -> InnerFunction:
    """U of the indicator of [0, s]: sqrt(s) times the singular inner function of one atom at 1.

    The atom's mass is -ln(s)/2; at s = 1 it is 0, and the measure has no atoms.
    """
    s = float(s)
    if not 0 < s <= 1:
        raise DomainError(f"indicator endpoint must lie in (0, 1], got {s}")
    atoms = ((1.0, -0.5 * math.log(s)),) if s < 1 else ()
    return InnerFunction(AtomicMeasure(atoms), math.sqrt(s))


def forward_quadrature(f: SampledFunction, z) -> QuadResult | list[QuadResult]:
    """Uf(z) = (1/(1-z)) * integral of f(x) x^(z/(1-z)) dx, adaptively.

    Returns the value together with a conservative error estimate; raises
    when the adaptive scheme cannot meet its tolerance.  A list of points gives the
    list of their results, each bit for bit its point's, from one integrate_family.
    """
    many = isinstance(z, list)
    zs = [as_disk(v) for v in (z if many else [z])]
    wexp = np.array([v / (1 - v) for v in zs])
    integrand = lambda x, k: f.evaluator(x) * x ** wexp[k]
    res = integrate_family(integrand, 0.0, 1.0, [f.breakpoints] * len(zs)) if many else [
        integrate(lambda x: integrand(x, 0), 0.0, 1.0, breakpoints=f.breakpoints)]
    out = [QuadResult(c * r.value, abs(c) * r.error) for c, r in zip([1 / (1 - v) for v in zs], res)]
    return out if many else out[0]


def analytic_series(derivs_at_1: Sequence[complex], w: complex) -> complex:
    """Evaluate sum_j d_j w^j / (j!)^2 from the given derivative list.

    The full series is entire whenever the derivatives grow slower than
    (j!)^2, so the truncation error is governed by the last terms; a
    SeriesWarning is issued when they are still growing at the cut.
    """
    d = [complex(v) for v in derivs_at_1]
    if not d:
        raise DomainError("need at least one derivative value")
    acc = 0j
    term_mags = []
    wp = 1.0 + 0j
    for j, dj in enumerate(d):
        if j > 0:
            wp *= w / (j * j)
        term = dj * wp
        acc += term
        term_mags.append(abs(term))
    if len(term_mags) >= 3 and term_mags[-1] > term_mags[-2] > term_mags[-3] and term_mags[-1] > 1e-14 * max(1.0, abs(acc)):
        warnings.warn(
            "series terms still growing at the truncation cap; "
            f"last |term| = {term_mags[-1]:.3g}",
            SeriesWarning,
            stacklevel=2,
        )
    return acc


def inverse_analytic(derivs_at_1: Sequence[complex], x) -> complex:
    """U* of an analytic-at-1 function from its derivatives: sum at w = ln x.

    Real x must lie in (0, 1].  Complex x off the cut (-infinity, 0] is
    accepted, where the principal logarithm continues the same function.
    """
    xv = complex(x)
    if xv.imag == 0:
        if not 0 < xv.real <= 1:
            raise DomainError(f"real evaluation points must lie in (0, 1], got {xv.real}")
        return analytic_series(derivs_at_1, math.log(xv.real))
    return analytic_series(derivs_at_1, cmath.log(xv))

