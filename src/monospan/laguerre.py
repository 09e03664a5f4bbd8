"""The orthonormal basis e_n(x) = L_n(-ln x) of L2[0,1] and the involution J.

e_n is the n-th Laguerre polynomial evaluated at t = -ln x.  In these
coordinates a monomial x^s has the geometric coefficient sequence

    c_n = (1/(s+1)) (s/(s+1))^n,

which is also the Taylor sequence of the transformed function on the disk,
so Laguerre coordinates and Hardy-space Taylor coordinates agree.  J is the
unitary involution acting as (-1)^n on e_n; on monomials it sends x^s to
(1/(1+2s)) x^(-s/(1+2s)).

One three-term recurrence in t = -ln x produces e_0, e_1, ..., e_n in turn;
eval_e keeps its last row and eval_basis every row, so both give the same
bits for the same n and x; an expansion's values are coeffs @ eval_basis(n, x).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Exponent, ExponentLike, as_exponent
from .errors import DomainError, NumericalError, SizeLimitError

_TAIL_TARGET = 1e-16
_N_MIN = 8
_N_MAX = 4096
_N_LIMIT = 2**16


def _rows(n: int, t):
    """Yield e_0, ..., e_n at t = -ln x by the Laguerre three-term recurrence.

    The recurrence is stable where the naive alternating binomial sum is not.
    """
    prev = np.ones_like(t)
    yield prev
    if n == 0:
        return
    cur = 1.0 - t
    yield cur
    for k in range(1, n):
        prev, cur = cur, ((2 * k + 1 - t) * cur - k * prev) / (k + 1)
        yield cur


def _log_coordinate(n: int, x) -> np.ndarray:
    """t = -ln x, after checking the index and that x lies in (0, 1]."""
    if n < 0:
        raise DomainError(f"basis index must be nonnegative, got {n}")
    x_arr = np.asarray(x, dtype=float)
    if np.any(x_arr <= 0) or np.any(x_arr > 1):
        raise DomainError("basis functions are defined on (0, 1]")
    return -np.log(x_arr)


def eval_e(n: int, x) -> np.ndarray | float:
    """Evaluate e_n(x) = L_n(-ln x) for x in (0, 1].

    The last row of the shared recurrence.  Accepts scalars or arrays;
    raises on overflow (reachable for extreme n * |ln x|).
    """
    for cur in _rows(n, _log_coordinate(n, x)):
        pass
    if not np.all(np.isfinite(cur)):
        raise NumericalError(f"e_{n} overflowed during recurrence (|ln x| too large)")
    return float(cur) if np.isscalar(x) else cur


def eval_basis(n: int, x) -> np.ndarray:
    """e_0(x), ..., e_n(x) as the rows of one array of shape (n + 1,) + shape(x).

    Every row of the shared recurrence, so row k equals eval_e(k, x) bit for
    bit at the cost of a single eval_e(n, x).  Raises like eval_e when any
    row overflows.
    """
    rows = np.array(list(_rows(n, _log_coordinate(n, x))))
    if not np.all(np.isfinite(rows)):
        raise NumericalError(f"e_0..e_{n} overflowed during recurrence (|ln x| too large)")
    return rows


@dataclass(frozen=True)
class LaguerreExpansion:
    """Truncated coordinates of a function in the basis e_0, e_1, ...

    coeffs[n] multiplies e_n; tail_norm_sq bounds the squared norm beyond
    the truncation, so sum |c_n|^2 + tail_norm_sq is the squared norm of
    the represented function (exact when the tail bound is exact).
    """

    coeffs: np.ndarray
    tail_norm_sq: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "coeffs", np.asarray(self.coeffs, dtype=complex))
        if self.coeffs.ndim != 1 or len(self.coeffs) == 0:
            raise DomainError("expansion needs a nonempty 1-d coefficient array")
        if not self.tail_norm_sq >= 0:
            raise DomainError("tail_norm_sq must be nonnegative")

    @property
    def norm_sq(self) -> float:
        return float(np.sum(np.abs(self.coeffs) ** 2) + self.tail_norm_sq)


def default_truncation(s: ExponentLike) -> int:
    """Smallest N with |s/(s+1)|^(2(N+1)) below 1e-16, clamped to [8, 4096]."""
    es = as_exponent(s)
    rho = abs(es.s / (es.s + 1))
    if rho == 0.0:
        return _N_MIN
    if rho >= 1.0:  # |s| above about 1e16 rounds the ratio to 1
        return _N_MAX
    n = math.ceil(-16 * math.log(10) / (2 * math.log(rho)) - 1)
    return min(max(n, _N_MIN), _N_MAX)


def expand_monomial(s: ExponentLike, N: int | None = None) -> LaguerreExpansion:
    """Laguerre coordinates of x^s: c_n = (1/(s+1)) (s/(s+1))^n for n <= N.

    The discarded tail is an exact geometric sum,
    tail_norm_sq = |s/(s+1)|^(2(N+1)) / (2 Re s + 1).  N past 2^16 (1 MB of
    coefficients, far past the 8192 that distances read) is a SizeLimitError.
    """
    es = as_exponent(s)
    if es.logpow != 0:
        raise DomainError("monomial expansion requires logpow = 0")
    if N is None:
        N = default_truncation(es)
    if N < 0:
        raise DomainError("truncation order must be nonnegative")
    if N > _N_LIMIT:
        raise SizeLimitError(f"truncation order {N} exceeds the limit {_N_LIMIT}")
    sv = es.s
    rho = sv / (sv + 1)
    coeffs = (1 / (sv + 1)) * rho ** np.arange(N + 1)
    tail = abs(rho) ** (2 * (N + 1)) / (2 * es.re + 1)
    return LaguerreExpansion(coeffs, tail)


def apply_J_monomial(s: ExponentLike) -> tuple[complex, Exponent]:
    """J x^s = c x^tau with c = 1/(1+2s) and tau = -s/(1+2s).

    The image exponent always lands back in the half-plane Re > -1/2; this
    is asserted rather than assumed.
    """
    es = as_exponent(s)
    if es.logpow != 0:
        raise DomainError("J on monomials requires logpow = 0")
    sv = es.s
    c = 1 / (1 + 2 * sv)
    tau = -sv / (1 + 2 * sv)
    if not tau.real > -0.5:
        raise NumericalError(f"J image exponent {tau} left the half-plane (input {sv})")
    return c, Exponent(tau.real, tau.imag)


def apply_J_expansion(e: LaguerreExpansion) -> LaguerreExpansion:
    """J in coordinates: e_n is fixed for even n and negated for odd n."""
    signs = np.where(np.arange(len(e.coeffs)) % 2 == 0, 1.0, -1.0)
    return LaguerreExpansion(e.coeffs * signs, e.tail_norm_sq)
