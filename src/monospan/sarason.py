"""The unitary transform between L2[0,1] and the Hardy space of the disk.

The forward transform sends f to Uf(z) = (1/(1-z)) * integral of
f(x) x^(z/(1-z)) over [0,1]; monomials go to reproducing-kernel multiples,

    U x^beta = (1/(beta+1)) k_alpha,   alpha = conj(beta)/(conj(beta)+1),

indicators of [0, s] go to sqrt(s) times a singular inner function with
atom at 1, and the inverse carries kernels back to monomials.  The module
provides those closed forms, an adaptive-quadrature route for general
functions, the moment/value dictionary on the interpolation points
n/(n+1), and the inverse power series from derivatives at 1.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .core import Exponent, ExponentLike, as_exponent
from .errors import DomainError, SeriesWarning
from .quadrature import QuadResult, integrate, integrate_family

DEFAULT_TAYLOR_N = 512


@dataclass(frozen=True)
class DiskPoint:
    """A point of the open unit disk."""

    z: complex

    def __post_init__(self) -> None:
        object.__setattr__(self, "z", complex(self.z))
        if not abs(self.z) < 1:
            raise DomainError(f"|z| = {abs(self.z)} is not inside the open disk")


def as_disk(z) -> complex:
    """z as a complex number in the open unit disk, checked as DiskPoint checks it."""
    return z.z if isinstance(z, DiskPoint) else DiskPoint(z).z


@dataclass(frozen=True)
class DiskFunction:
    """A Hardy-space function in one of two representations.

    kind "kernel": a finite combination sum c_i k_{alpha_i} of Szego
    kernels k_alpha(z) = 1/(1 - conj(alpha) z), stored as (c_i, alpha_i)
    pairs with |alpha_i| < 1.  kind "inner-singular":
    scale * exp(-w (tau + z)/(tau - z)), a constant multiple of the singular
    inner function with a single boundary atom at tau of mass w.  Closed
    forms are always preferred; Taylor coefficients are derived on demand.
    """

    kind: str
    terms: tuple[tuple[complex, complex], ...] = ()
    tau: complex = 1.0
    w: float = 0.0
    scale: complex = 1.0

    def __post_init__(self) -> None:
        if self.kind == "kernel":
            clean = tuple((complex(c), complex(a)) for c, a in self.terms)
            for _, a in clean:
                if not abs(a) < 1:
                    raise DomainError(f"kernel parameter |alpha| = {abs(a)} not in the disk")
            object.__setattr__(self, "terms", clean)
        elif self.kind == "inner-singular":
            object.__setattr__(self, "tau", complex(self.tau))
            object.__setattr__(self, "scale", complex(self.scale))
            if abs(abs(self.tau) - 1) > 1e-12:
                raise DomainError("singular inner atom must sit on the unit circle")
            if self.w < 0:
                raise DomainError("singular inner mass must be nonnegative")
        else:
            raise DomainError(f"unknown representation kind {self.kind!r}")

    def evaluate(self, z) -> complex:
        zv = as_disk(z)
        if self.kind == "kernel":
            return sum(c / (1 - a.conjugate() * zv) for c, a in self.terms)
        return self.scale * cmath.exp(-self.w * (self.tau + zv) / (self.tau - zv))

    def taylor(self, N: int = DEFAULT_TAYLOR_N) -> np.ndarray:
        """First N Taylor coefficients at 0 (length-N array)."""
        if N < 1:
            raise DomainError("need at least one Taylor coefficient")
        if self.kind == "kernel":
            out = np.zeros(N, dtype=complex)
            for c, a in self.terms:
                out += c * np.conj(a) ** np.arange(N)
            return out
        from .atomic import singular_inner_taylor

        return self.scale * singular_inner_taylor(self.tau, self.w, N)


def h2_inner(F: DiskFunction, G: DiskFunction, N: int = DEFAULT_TAYLOR_N) -> complex:
    """Hardy-space inner product via Taylor truncation at N terms."""
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


def monomial_function(s: ExponentLike) -> SampledFunction:
    es = as_exponent(s)

    def ev(x):
        out = np.asarray(x, dtype=complex) ** es.s
        if es.logpow:
            out = out * np.log(np.asarray(x, dtype=float)) ** es.logpow
        return out

    return SampledFunction(ev)


def indicator_function(s: float) -> SampledFunction:
    s = float(s)
    if not 0 < s <= 1:
        raise DomainError(f"indicator endpoint must lie in (0, 1], got {s}")
    ev = lambda x: np.where(np.asarray(x, dtype=float) <= s, 1.0 + 0j, 0.0 + 0j)
    bp = (s,) if s < 1 else ()
    return SampledFunction(ev, bp)


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
    return DiskFunction("kernel", terms=((1 / (b + 1), alpha),))


def forward_indicator(s: float) -> DiskFunction:
    """U of the indicator of [0, s]: sqrt(s) times a singular inner function."""
    s = float(s)
    if not 0 < s <= 1:
        raise DomainError(f"indicator endpoint must lie in (0, 1], got {s}")
    return DiskFunction("inner-singular", tau=1.0, w=-0.5 * math.log(s), scale=math.sqrt(s))


def forward_quadrature(f: SampledFunction, z, *, tol: float = 1e-11) -> QuadResult | list[QuadResult]:
    """Uf(z) = (1/(1-z)) * integral of f(x) x^(z/(1-z)) dx, adaptively.

    Returns the value together with a conservative error estimate; raises
    when the adaptive scheme cannot meet its tolerance.  A list of points gives the
    list of their results, each bit for bit its point's, from one integrate_family.
    """
    many = isinstance(z, list)
    zs = [as_disk(v) for v in (z if many else [z])]
    wexp = np.array([v / (1 - v) for v in zs])
    integrand = lambda x, k: f.evaluator(x) * x ** wexp[k]
    res = integrate_family(integrand, 0.0, 1.0, [f.breakpoints] * len(zs), tol=tol) if many else [
        integrate(lambda x: integrand(x, 0), 0.0, 1.0, tol=tol, breakpoints=f.breakpoints)]
    out = [QuadResult(c * r.value, abs(c) * r.error) for c, r in zip([1 / (1 - v) for v in zs], res)]
    return out if many else out[0]


def inverse_kernel(alpha) -> tuple[complex, Exponent]:
    """U* k_alpha = (1/(1-conj(alpha))) x^(conj(alpha)/(1-conj(alpha)))."""
    av = as_disk(alpha)
    ac = av.conjugate()
    const = 1 / (1 - ac)
    expo = ac / (1 - ac)
    return const, Exponent(expo.real, expo.imag)


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


def moment_interpolation(w: Sequence[complex], direction: str) -> list[complex]:
    """Dictionary between moments w_n and the values Uf(n/(n+1)).

    direction "moments-to-values" sends w_n to (n+1) w_n; direction
    "values-to-moments" sends v_n to v_n/(n+1).
    """
    vals = [complex(v) for v in w]
    if direction == "moments-to-values":
        return [(n + 1) * v for n, v in enumerate(vals)]
    if direction == "values-to-moments":
        return [v / (n + 1) for n, v in enumerate(vals)]
    raise DomainError(
        f"unknown direction {direction!r}; expected 'moments-to-values' or 'values-to-moments'"
    )


def reflected_inverse_as_stated(alpha, x, *, as_stated_suspect: bool = False):
    """Inverse transform of z -> k_alpha(-z), two candidate routes.

    The reliable route composes the inverse with the coordinate involution
    J (so the result is a monomial with exponent -conj(alpha)/(1+conj(alpha))),
    and is what this function returns by default.  The alternative reading,
    "substitute 1/x in the plain inverse", disagrees with the worked kernel
    case and with the reflection identity; it is kept reachable behind
    as_stated_suspect=True for side-by-side comparison, and nothing else in
    the package uses it.
    """
    from .laguerre import apply_J_monomial

    av = as_disk(alpha)
    c0, e0 = inverse_kernel(DiskPoint(av))
    xv = np.asarray(x, dtype=float)
    if as_stated_suspect:
        return c0 * (1.0 / xv) ** e0.s
    jc, jexp = apply_J_monomial(e0)
    return c0 * jc * xv**jexp.s
