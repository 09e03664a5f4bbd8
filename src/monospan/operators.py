"""The averaging, multiplication, and Volterra operators, and their relatives.

H f(x) = (1/x) * integral of f over [0, x] acts diagonally on monomials,
H x^s = x^s/(s+1); X is multiplication by x; V = XH is the Volterra
integral.  In Laguerre coordinates (equivalently, Taylor coordinates on
the disk side) they become

    H-hat = I - S*,   X-hat = S* C*,   V-hat = (I - S*) C*,

where S* is the backward coefficient shift and C is composition with
gamma(z) = 1/(2-z).  hat_matrix builds these as N x N matrices; apply_hat
applies them to a coefficient vector in O(N) memory, streaming the Taylor
coefficients of the powers of gamma in blocks of rows.

Monomial operators T x^s = c(s) x^tau(s) built from half-plane
automorphisms are unitary exactly when c follows the rigid form
c(s) = c_0 (1 + conj(tau(0)) + tau(s))/(1+s) with |c_0|^2 (1+2 Re tau(0)) = 1;
the free phase of c_0 is a genuine parameter and is exposed as one.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import Exponent, ExponentLike, as_exponent, as_monomial_set
from .errors import (
    DomainError,
    IllConditioningWarning,
    NumericalError,
    RepresentationError,
    SizeLimitError,
    TruncationWarning,
)
from .laguerre import LaguerreExpansion
from .quadrature import integrate
from .sarason import SampledFunction

_HAT_N_MAX = 2048
_ROW_BLOCK = 64  # rows of the C* recurrence generated at once
_OPS = ("H", "X", "V")


# --- monomial actions ---------------------------------------------------------


def _monomial_action(op: str, coeff: complex, e: Exponent) -> tuple[complex, Exponent]:
    if op == "X":
        return coeff, Exponent(e.re + 1, e.im, e.logpow)
    if e.logpow != 0:
        raise RepresentationError(
            f"{op} maps a log-weighted monomial to a two-term combination, "
            "which a single monomial cannot represent; use the sampled route"
        )
    s = e.s
    if op == "H":
        return coeff / (s + 1), e
    if op == "V":
        return coeff / (s + 1), Exponent(e.re + 1, e.im, 0)
    raise DomainError(f"unknown operator {op!r}; expected one of {_OPS}")


# --- coefficient-space (hat) matrices -----------------------------------------


def _gamma_row_blocks(N: int):
    """Rows of g[m, n] = m-th Taylor coefficient of gamma(z)^n, gamma(z) = 1/(2-z).

    Yields (m0, rows, exps) for m0 = 0, _ROW_BLOCK, ..., where
    rows[k, n] * 2^exps[n] = g[m0 + k, n]; `rows` is overwritten by the next
    block.  The ratio recurrence g[m, n] = g[m-1, n] (n+m-1)/(2m) runs from
    g[0, n] = 2^-n, one row at a time, multiplying before dividing as the
    scalar loop did, on rows that carry a power-of-two scale per column; at
    each block boundary frexp moves every column back into [1/2, 1).  Scaling
    by powers of two is exact, so the entries agree bit for bit with the
    unscaled recurrence wherever it stays normal, and none underflows: within
    a block a column shrinks by at most 2^-63 and grows by at most
    C(n+63, 64) 2^-64, far inside the double range for every N used here.
    """
    exps = -np.arange(N)
    factor = -1.0 - exps  # n + m - 1 at m = 0
    buf = np.empty((min(_ROW_BLOCK, N), N))
    prev = np.ones(N)
    for m0 in range(0, N, _ROW_BLOCK):
        rows = buf[: min(_ROW_BLOCK, N - m0)]
        for k, row in enumerate(rows):
            m = m0 + k
            if m == 0:
                row[:] = prev
            else:
                factor += 1.0
                np.multiply(prev, factor, out=row)
                row /= 2 * m
            prev = row
        yield m0, rows, exps
        prev, shift = np.frexp(prev)
        exps = exps + shift


def _gamma_taylor_columns(N: int) -> np.ndarray:
    """g[m, n] = m-th Taylor coefficient of gamma(z)^n, the rows of _gamma_row_blocks.

    Entries peak like (pi n)^(-1/2); those below the smallest double round
    to zero when the scale is applied, and no others do.
    """
    g = np.empty((N, N))
    for m0, rows, exps in _gamma_row_blocks(N):
        np.ldexp(rows, exps, out=g[m0 : m0 + len(rows)])
    return g


def _check_hat(op: str, N: int) -> None:
    if op not in _OPS:
        raise DomainError(f"unknown operator {op!r}; expected one of {_OPS}")
    if N < 1:
        raise DomainError("matrix size must be positive")
    if N > _HAT_N_MAX:
        raise SizeLimitError(f"matrix size {N} exceeds the limit {_HAT_N_MAX}")


def hat_matrix(op: str, N: int) -> np.ndarray:
    """N x N matrix of the transformed operator on coefficient vectors.

    Coefficient vectors are Laguerre coordinates (column index n pairs with
    e_n), with the backward shift acting as (S* f)_m = f_{m+1}, so H-hat is
    upper bidiagonal with rows (1, -1).  S* acts on a matrix as a row shift,
    not a product: X-hat = S* C* is C* moved up one row, and V-hat is C*
    minus that shift.  Entries are exact closed forms; the matrix is the
    compression to the first N coordinates, and applying it to coordinates
    of a function with mass beyond index N-1 only sees the truncated head.
    apply_hat gives the product with a vector without forming the matrix.
    """
    _check_hat(op, N)
    if op == "H":
        return np.eye(N) - np.eye(N, k=1)
    comp_star = _gamma_taylor_columns(N).T
    if op == "X":
        out = np.zeros((N, N))
        out[:-1] = comp_star[1:]
    else:
        # in place, so only two N x N arrays are ever alive (32 MB each at N = 2048)
        out = comp_star.copy()
        out[:-1] -= comp_star[1:]
    return out


def apply_hat(op: str, coeffs) -> np.ndarray:
    """hat_matrix(op, N) @ coeffs for a complex vector, in O(N) memory.

    H-hat = I - S* is a difference of neighbours.  For X-hat and V-hat the
    rows of g (the columns of C*) stream in blocks: each block is put in
    true units, shifted (X) or differenced entrywise as g[:, n] - g[:, n+1]
    (V), and only then multiplied by the real and the imaginary part of its
    slice of the vector.
    """
    v = np.asarray(coeffs, dtype=complex)
    N = len(v)
    _check_hat(op, N)
    if op == "H":
        out = v.copy()
        out[:-1] -= v[1:]
        # a zero difference prints as +0.0, as the matrix product's sum over its zeros gives
        out += 0.0
        return out
    out = np.zeros(N, dtype=complex)
    for m0, rows, exps in _gamma_row_blocks(N):
        t = np.ldexp(rows, exps)
        if op == "X":
            t = t[:, 1:]
        else:
            t[:, :-1] -= t[:, 1:]
        blk = slice(m0, m0 + len(rows))
        out.real[: t.shape[1]] += v.real[blk] @ t
        out.imag[: t.shape[1]] += v.imag[blk] @ t
    return out


def _apply_hat_to_expansion(op: str, e: LaguerreExpansion) -> LaguerreExpansion:
    if e.tail_norm_sq > 1e-20:
        warnings.warn(
            f"applying {op} to a truncated expansion ignores tail mass "
            f"{e.tail_norm_sq:.3g}",
            TruncationWarning,
            stacklevel=3,
        )
    return LaguerreExpansion(apply_hat(op, e.coeffs), e.tail_norm_sq)


# --- sampled-function actions -------------------------------------------------


def _averaging_evaluator(f: SampledFunction, cumulative: bool) -> Callable:
    def ev(x):
        x_arr = np.atleast_1d(np.asarray(x, dtype=float))
        out = np.empty(len(x_arr), dtype=complex)
        for i, xi in enumerate(x_arr):
            bp = tuple(b for b in f.breakpoints if b < xi)
            res = integrate(f.evaluator, 0.0, xi, tol=1e-12, breakpoints=bp)
            out[i] = res.value if cumulative else res.value / xi
        return out if np.ndim(x) else out[0]

    return ev


def _apply_to_sampled(op: str, f: SampledFunction) -> SampledFunction:
    if op == "X":
        ev = lambda x: np.asarray(x, dtype=float) * f.evaluator(x)
        norm = None  # multiplication changes the norm in a function-specific way
        return SampledFunction(ev, f.breakpoints, norm)
    if op == "H":
        return SampledFunction(_averaging_evaluator(f, cumulative=False), f.breakpoints)
    if op == "V":
        return SampledFunction(_averaging_evaluator(f, cumulative=True), f.breakpoints)
    raise DomainError(f"unknown operator {op!r}; expected one of {_OPS}")


def _apply(op: str, f):
    if isinstance(f, LaguerreExpansion):
        return _apply_hat_to_expansion(op, f)
    if isinstance(f, SampledFunction):
        return _apply_to_sampled(op, f)
    if isinstance(f, tuple) and len(f) == 2:
        coeff, e = f
        return _monomial_action(op, complex(coeff), as_exponent(e))
    raise RepresentationError(
        f"cannot apply {op} to {type(f).__name__}; expected a (coefficient, exponent) "
        "pair, a LaguerreExpansion, or a SampledFunction"
    )


def apply_H(f):
    """H f = (1/x) integral of f over [0, x], in any of the three representations."""
    return _apply("H", f)


def apply_X(f):
    """X f = x f(x).  The only one of the three that tolerates log weights."""
    return _apply("X", f)


def apply_V(f):
    """V f = integral of f over [0, x], the Volterra operator."""
    return _apply("V", f)


# --- unitary monomial operators from half-plane automorphisms ------------------


@dataclass(frozen=True)
class AutomorphismParams:
    """SL(2, R) data (A, B, C, D) inducing on the exponent half-plane

        tau(s) = (A (s + 1/2) - iB) / (iC (s + 1/2) + D) - 1/2.

    The determinant condition AD - BC = 1 is required to 1e-12, and the
    map is spot-checked to send the half-plane into itself on a grid
    hugging the boundary.
    """

    A: float
    B: float
    C: float
    D: float

    def __post_init__(self) -> None:
        det = self.A * self.D - self.B * self.C
        if abs(det - 1.0) > 1e-12:
            raise DomainError(f"need AD - BC = 1, got determinant {det}")
        for eps in (1e-9, 1e-3, 1.0):
            for t in (0.0, 1.0, -1.0, 10.0, -10.0):
                tv = self.tau(complex(-0.5 + eps, t))
                if not tv.real > -0.5 - 1e-9:
                    raise DomainError(
                        f"automorphism leaves the half-plane: tau({-0.5 + eps}+{t}j) = {tv}"
                    )

    def tau(self, s: complex) -> complex:
        sigma = complex(s) + 0.5
        denom = 1j * self.C * sigma + self.D
        if denom == 0:
            raise NumericalError(f"automorphism denominator vanished at s = {s}")
        return (self.A * sigma - 1j * self.B) / denom - 0.5

    def compose(self, other: "AutomorphismParams") -> "AutomorphismParams":
        """Matrix product; induces tau_self after tau_other."""
        return AutomorphismParams(
            self.A * other.A + self.B * other.C,
            self.A * other.B + self.B * other.D,
            self.C * other.A + self.D * other.C,
            self.C * other.B + self.D * other.D,
        )


@dataclass(frozen=True)
class MonomialOperator:
    """An operator acting on monomials as T x^s = c(s) x^tau(s)."""

    tau: Callable[[complex], complex]
    c: Callable[[complex], complex]
    kind: str  # unitary | hardy-multiplier | shift-like | general

    def __post_init__(self) -> None:
        if self.kind not in ("unitary", "hardy-multiplier", "shift-like", "general"):
            raise DomainError(f"unknown operator kind {self.kind!r}")
        if self.kind == "unitary":
            t0 = self.tau(0j)
            c0 = self.c(0j) / (1 + 2 * t0.real)
            expected = 1 / math.sqrt(1 + 2 * t0.real)
            if abs(abs(c0) - expected) > 1e-12:
                raise DomainError(
                    f"unitary operator must have |c_0| = {expected}, got {abs(c0)}"
                )

    def apply(self, coeff: complex, s: ExponentLike) -> tuple[complex, Exponent]:
        e = as_exponent(s)
        if e.logpow != 0:
            raise RepresentationError("monomial operators act on logpow = 0 monomials")
        tv = self.tau(e.s)
        return complex(coeff) * self.c(e.s), Exponent(tv.real, tv.imag)


def monomial_operator(name: str) -> MonomialOperator:
    """The H, X, or V action packaged as a MonomialOperator."""
    if name == "H":
        return MonomialOperator(lambda s: s, lambda s: 1 / (s + 1), "hardy-multiplier")
    if name == "X":
        return MonomialOperator(lambda s: s + 1, lambda s: 1.0 + 0j, "shift-like")
    if name == "V":
        return MonomialOperator(lambda s: s + 1, lambda s: 1 / (s + 1), "general")
    raise DomainError(f"unknown operator {name!r}; expected one of {_OPS}")


def unitary_from_automorphism(p: AutomorphismParams, c0_phase: float = 0.0) -> MonomialOperator:
    """The unitary monomial operator over an exponent-plane automorphism.

    The modulus of c_0 is forced to 1/sqrt(1 + 2 Re tau(0)); its phase is
    genuinely free and must be supplied (0 gives the positive choice).
    """
    t0 = p.tau(0j)
    c0 = cmath.exp(1j * c0_phase) / math.sqrt(1 + 2 * t0.real)
    t0c = t0.conjugate()

    def c(s: complex) -> complex:
        return c0 * (1 + t0c + p.tau(s)) / (1 + s)

    return MonomialOperator(p.tau, c, "unitary")


# --- the multiplier calculus phi(H) -------------------------------------------


@dataclass(frozen=True)
class PhiSpec:
    """An analytic function on the disk D(1, 1), where 1/(1+s) lives.

    kinds: "poly" (ascending coefficients), "rational" (numerator and
    denominator coefficients; denominator roots must stay outside the
    closed disk |w - 1| <= 1), "table" (explicit w -> value pairs, exact
    lookups only).  The full bounded-analytic calculus is not
    representable; these three cover the computable cases.
    """

    kind: str
    coeffs: tuple[complex, ...] = ()
    denom: tuple[complex, ...] = ()
    table: tuple[tuple[complex, complex], ...] = ()

    def __post_init__(self) -> None:
        if self.kind == "poly":
            if not self.coeffs:
                raise DomainError("polynomial needs at least one coefficient")
            object.__setattr__(self, "coeffs", tuple(complex(c) for c in self.coeffs))
        elif self.kind == "rational":
            if not self.coeffs or not self.denom:
                raise DomainError("rational spec needs numerator and denominator")
            object.__setattr__(self, "coeffs", tuple(complex(c) for c in self.coeffs))
            object.__setattr__(self, "denom", tuple(complex(c) for c in self.denom))
            roots = np.roots(list(self.denom)[::-1])
            for r in roots:
                if abs(r - 1) <= 1 + 1e-12:
                    raise DomainError(
                        f"denominator root {r} lies in the closed disk |w-1| <= 1"
                    )
        elif self.kind == "table":
            if not self.table:
                raise DomainError("table spec needs at least one entry")
            object.__setattr__(
                self, "table", tuple((complex(w), complex(v)) for w, v in self.table)
            )
        else:
            raise DomainError(f"unknown phi kind {self.kind!r}")

    def evaluate(self, w: complex) -> complex:
        w = complex(w)
        if self.kind == "poly":
            acc = 0j
            for c in self.coeffs[::-1]:
                acc = acc * w + c
            return acc
        if self.kind == "rational":
            num = 0j
            for c in self.coeffs[::-1]:
                num = num * w + c
            den = 0j
            for c in self.denom[::-1]:
                den = den * w + c
            return num / den
        for wk, vk in self.table:
            if abs(wk - w) < 1e-12:
                return vk
        raise DomainError(f"table has no entry for w = {w}")


def phi_of_H(phi: PhiSpec, s: ExponentLike) -> complex:
    """The multiplier value of phi(H) on x^s, which is phi(1/(1+s)).

    For s in the exponent half-plane the point 1/(1+s) always lies in
    D(1, 1), so the evaluation-domain check cannot fire on valid input;
    it is asserted anyway.
    """
    e = as_exponent(s)
    w = 1 / (1 + e.s)
    if not abs(w - 1) < 1:
        raise DomainError(f"multiplier argument {w} escaped D(1,1) for s = {e.s}")
    return phi.evaluate(w)


def phi_of_H_multiplier(phi: PhiSpec, S) -> np.ndarray:
    """Diagonal multiplier values of phi(H) over a monomial set."""
    S = as_monomial_set(S)
    return np.array([phi_of_H(phi, e) for e in S])


def pick_positivity_check(
    phi: PhiSpec, M: float, grid: Sequence[ExponentLike]
) -> tuple[bool, float]:
    """Necessary positivity test for ||phi(H)|| <= M on a finite exponent grid.

    Assembles P[i, j] = (M^2 - phi_i conj(phi_j)) / (1 + s_i + conj(s_j))
    and reports (is_psd, smallest eigenvalue).  A pass on a finite grid is
    only evidence, never a certificate; a fail is conclusive.
    """
    pts = [as_exponent(g) for g in grid]
    if len(pts) == 0:
        raise DomainError("empty grid")
    if len(pts) > 64:
        raise SizeLimitError(f"grid size {len(pts)} exceeds the limit 64")
    if M <= 0:
        raise DomainError("the bound M must be positive")
    vals = [phi_of_H(phi, e) for e in pts]
    n = len(pts)
    P = np.empty((n, n), dtype=complex)
    cauchy = np.empty((n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            denom = 1 + pts[i].s + pts[j].s.conjugate()
            cauchy[i, j] = 1 / denom
            P[i, j] = (M**2 - vals[i] * vals[j].conjugate()) / denom
    cond = float(np.linalg.cond(cauchy))
    if cond > 1e12:
        warnings.warn(
            f"Pick-matrix kernel condition {cond:.2e}; the verdict sits at noise level",
            IllConditioningWarning,
            stacklevel=2,
        )
    eigs = np.linalg.eigvalsh(P)
    scale = max(1.0, float(np.max(np.abs(eigs))))
    smallest = float(eigs[0])
    return smallest >= -1e-12 * scale, smallest
