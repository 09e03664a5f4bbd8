"""Exponents, monomial inner products, Gram systems, and density verdicts.

Monomials live in L2[0,1]: x^s (ln x)^k with Re s > -1/2 (the half-plane S)
and log-multiplicity k >= 0.  The inner product <f, g> = integral of f(x)
conj(g(x)) over [0,1] is conjugate-linear in the second slot; this convention
is fixed here and used everywhere else in the package.  The closed form
behind every Gram entry is

    <x^a (ln x)^j, x^b (ln x)^k> = (-1)^(j+k) (j+k)! / (1 + a + conj(b))^(j+k+1),

the (j+k)-fold derivative of the Cauchy kernel 1/(1 + a + conj(b)).  Gram
matrices of monomial sets are therefore Cauchy-structured, Hermitian positive
definite, and exponentially ill-conditioned; solves fall back to extended
precision (mpmath) when the condition estimate passes EXTENDED_THRESHOLD.

The extended solve is a ladder of mpmath precisions (34 to 160 digits) that
stops when two consecutive rungs agree on the distance; a rung whose
d^2 = ||f||^2 - q is not positive is clamped and does not count toward that
agreement.  For sets without log powers each rung is the O(n^2) Schur
(Nevanlinna-Pick) recursion: x^s is the half-plane Szego kernel at
w = conj(s) + 1/2, so the Gram matrix 1/(conj w_i + w_j) is a Cauchy matrix
and each step divides by one Blaschke factor (z - w_k)/(z + conj w_k), the
factors of monomial_distance_closed_form.  Confluent sets (logpow > 0) keep
the O(n^3) LU solve of the Gram matrix.
"""

from __future__ import annotations

import cmath
import math
import numbers
import warnings
from dataclasses import dataclass, field
from functools import cached_property
from operator import itemgetter
from typing import Callable, Iterable, Sequence, Union

import mpmath as mp
import numpy as np

from .errors import (
    DomainError,
    IllConditioningWarning,
    NumericalError,
    SizeLimitError,
    WrongCriterionError,
)

HALF_PLANE_EDGE = -0.5
EXTENDED_THRESHOLD = 1e12
_EXTENDED_DPS_LADDER = (34, 50, 80, 120, 160)
_GRAM_N_MAX = 64

ExponentLike = Union["Exponent", complex, float, int]


@dataclass(frozen=True)
class Exponent:
    """A monomial exponent: the function x^(re + i*im) * (ln x)^logpow."""

    re: float
    im: float = 0.0
    logpow: int = 0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.re) and math.isfinite(self.im)):
            raise DomainError(f"exponent components must be finite, got {self.re}+{self.im}j")
        if not self.re > HALF_PLANE_EDGE:
            raise DomainError(
                f"exponent {self.re}+{self.im}j lies outside the half-plane Re s > -1/2"
            )
        if not (isinstance(self.logpow, (int, np.integer)) and self.logpow >= 0):
            raise DomainError(f"logpow must be a nonnegative integer, got {self.logpow!r}")

    @property
    def s(self) -> complex:
        return complex(self.re, self.im)

    @classmethod
    def from_complex(cls, z: complex, logpow: int = 0) -> "Exponent":
        z = complex(z)
        return cls(z.real, z.imag, logpow)

    def to_json(self) -> dict:
        return {"re": self.re, "im": self.im, "logpow": self.logpow}


def as_exponent(value: ExponentLike) -> Exponent:
    if isinstance(value, Exponent):
        return value
    return Exponent.from_complex(complex(value))


@dataclass(frozen=True)
class MonomialSet:
    """Ordered finite multiset of exponents generating a span M(S).

    Repeated (re, im) pairs must carry logpow values 0..m-1 exactly once
    each: a log power k > 0 is only admitted together with k-1.  confluent
    tells whether any entry carries a log power; values holds the exponents
    s as a complex array, built on first use.
    """

    entries: tuple[Exponent, ...]
    confluent: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        keys = [(e.re, e.im, e.logpow) for e in self.entries]
        if len(set(keys)) != len(keys):
            seen = set()
            for e in self.entries:
                key = (e.re, e.im, e.logpow)
                if key in seen:
                    raise DomainError(
                        f"duplicate exponent entry (s={e.s}, logpow={e.logpow})"
                    )
                seen.add(key)
        object.__setattr__(self, "confluent", any(map(itemgetter(2), keys)))
        if self.confluent:
            powers: dict[tuple[float, float], set[int]] = {}
            for e in self.entries:
                powers.setdefault((e.re, e.im), set()).add(e.logpow)
            for (sr, si), ks in powers.items():
                if ks != set(range(len(ks))):
                    raise DomainError(
                        f"log powers for s={sr}+{si}j must be contiguous from 0, got {sorted(ks)}"
                    )

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    @cached_property
    def values(self) -> np.ndarray:
        """The exponents s as a read-only complex array, equal to each e.s."""
        # the parts are set apart, as complex(re, im) does: re + 1j*im would
        # turn a -0.0 real part into +0.0
        v = np.empty(len(self.entries), dtype=complex)
        v.real = [e.re for e in self.entries]
        v.imag = [e.im for e in self.entries]
        v.flags.writeable = False
        return v

    @classmethod
    def from_exponents(cls, values: Iterable[ExponentLike]) -> "MonomialSet":
        return cls(tuple(as_exponent(v) for v in values))

    @classmethod
    def from_json(cls, payload: dict) -> "MonomialSet":
        raw = required_field(payload, "exponents", "monomial set JSON")
        entries = []
        for e in list_field(raw, "monomial set exponents"):
            if not isinstance(e, dict):
                raise DomainError(f"monomial set exponent must be an object, got {e!r}")
            entries.append(Exponent(
                real_field(e.get("re", 0.0), "exponent re"),
                real_field(e.get("im", 0.0), "exponent im"),
                int_field(e.get("logpow", 0), "exponent logpow"),
            ))
        return cls(tuple(entries))

    def to_json(self) -> dict:
        return {"exponents": [e.to_json() for e in self.entries]}


def as_monomial_set(values) -> MonomialSet:
    if isinstance(values, MonomialSet):
        return values
    return MonomialSet.from_exponents(values)


@dataclass(frozen=True)
class GramSystem:
    """Gram matrix of a monomial set with a condition estimate.

    Entry convention: matrix[i, j] = <m_i, m_j> (conjugation on the column
    entry), so for logpow-0 sets matrix[i, j] = 1/(1 + s_i + conj(s_j)).
    The matrix is Hermitian positive definite.  condition_estimate is the
    2-norm condition number from a double-precision SVD; for matrices that
    are singular at working precision it saturates near 1/eps and should be
    read as "at least this large".
    """

    set: MonomialSet
    matrix: np.ndarray
    condition_estimate: float


def cauchy_moment(t: complex, s: complex, m: int = 0, a: float = 0.0, c=1):
    """c times the moment integral over [a, 1] of x^(p-1) (ln x)^m, p = 1 + t + conj(s).

    At a = 0 this is c (-1)^m m! / p^(m+1); at a > 0 it follows the
    integration-by-parts recurrence I_0 = (1 - a^p)/p,
    I_m = -(a^p (ln a)^m + m I_(m-1))/p.  Under an mpmath working precision
    above double (as set by the extended solve ladder) the operands are
    lifted to mpmath and the result is a full-precision mpc, so
    ill-conditioned Gram solves are not capped by double-rounded entries.
    """
    if mp.mp.dps > 25:
        p = 1 + mp.mpc(t.real, t.imag) + mp.mpc(s.real, -s.imag)
        c, factorial, power, log = mp.mpc(c), mp.factorial, mp.power, mp.log
    else:
        p = 1 + t + s.conjugate()
        factorial, power, log = math.factorial, pow, math.log
    if a == 0.0:
        return c * (-1) ** m * factorial(m) / p ** (m + 1)
    ap = power(a, p)
    acc = c * (1 - ap) / p
    for k in range(1, m + 1):
        acc = -(c * ap * log(a) ** k + k * acc) / p
    return acc


def monomial_inner(a: ExponentLike, b: ExponentLike) -> complex:
    """Inner product <x^a (ln x)^j, x^b (ln x)^k>, conjugating the b slot."""
    ea, eb = as_exponent(a), as_exponent(b)
    return cauchy_moment(ea.s, eb.s, ea.logpow + eb.logpow)


def gram_build(S) -> GramSystem:
    """Assemble the Hermitian Gram matrix of a monomial set of at most 64 entries."""
    S = as_monomial_set(S)
    if len(S) == 0:
        raise DomainError("cannot build the Gram system of an empty set")
    if len(S) > _GRAM_N_MAX:
        raise SizeLimitError(f"monomial set has {len(S)} entries, limit is {_GRAM_N_MAX}")
    n = len(S)
    G = np.empty((n, n), dtype=complex)
    for i, mi in enumerate(S):
        for j, mj in enumerate(S):
            if j < i:
                G[i, j] = np.conj(G[j, i])
            else:
                G[i, j] = monomial_inner(mi, mj)
    try:
        cond = float(np.linalg.cond(G))
    except np.linalg.LinAlgError:
        cond = math.inf
    if not math.isfinite(cond):
        cond = math.inf
    return GramSystem(set=S, matrix=G, condition_estimate=cond)


@dataclass(frozen=True)
class DistanceResult:
    """A distance, its condition estimate and route, and the projection's coefficients.

    The coefficients are computed on first access: on the extended route
    they cost an O(n^2) mpmath expansion that most callers never read.
    """

    distance: float
    compute_coefficients: Callable[[], np.ndarray] = field(repr=False, compare=False)
    condition_estimate: float
    precision: str

    @cached_property
    def coefficients(self) -> np.ndarray:
        return self.compute_coefficients()


def _lu_rung(S: MonomialSet, f_moments: Callable[[Exponent], complex], f_norm_sq):
    """One ladder rung by Gram normal equations and an mpmath LU solve, O(n^3).

    Returns d^2 = ||f||^2 - q and a callable giving the coefficients.
    """
    n = len(S)
    G = mp.matrix(n, n)
    for i, mi in enumerate(S):
        for j, mj in enumerate(S):
            # normal-equation matrix: row i pairs against m_i in the
            # second slot, i.e. A[i,j] = <m_j, m_i>
            G[i, j] = monomial_inner(mj, mi)
    r = mp.matrix([mp.mpc(f_moments(m)) for m in S])
    try:
        c = mp.lu_solve(G, r)
    except (ZeroDivisionError, ValueError) as exc:
        raise NumericalError(f"extended-precision Gram solve failed: {exc}") from exc
    q = mp.re(sum(mp.conj(c[i]) * r[i] for i in range(n)))
    return mp.mpf(f_norm_sq) - q, lambda: np.array([complex(c[i]) for i in range(n)])


def _schur_rung(S: MonomialSet, f_moments: Callable[[Exponent], complex], f_norm_sq):
    """One ladder rung by the Schur recursion on a logpow-0 set, O(n^2).

    Under the transform x^s is the Szego kernel 1/(z + conj w) of the
    right half-plane at w = conj(s) + 1/2, and v_j = <f, x^(s_j)> is the
    value F(w_j) of f's image.  Step k projects out the kernel at w_k, which
    adds 2 Re(w_k) |v_k|^2 to the projected mass q, and divides the rest by
    the Blaschke factor (z - w_k)/(z + conj w_k):

        v_j <- (v_j (w_j + conj w_k) - 2 Re(w_k) v_k) / (w_j - w_k),  j > k.

    The nodes are built in mpmath; rounded to double first, nearby nodes
    lose the digits the divisions need.  Returns d^2 = ||f||^2 - q and a
    callable giving the coefficients of the projection
    sum_k alpha_k B_(k-1)(z)/(z + conj w_k), alpha_k = 2 Re(w_k) v_k, on the
    kernels 1/(z + conj w_m), expanded by partial-fraction residues.
    """
    w = [mp.mpc(mp.mpf(e.re) + mp.mpf(1) / 2, -mp.mpf(e.im)) for e in S]
    wb = [mp.conj(wk) for wk in w]
    v = [mp.mpc(f_moments(m)) for m in S]
    n = len(w)
    alpha = []
    q = mp.mpf(0)
    try:
        for k in range(n):
            two_re = 2 * w[k].real
            alpha.append(two_re * v[k])
            q += two_re * (v[k].real ** 2 + v[k].imag ** 2)
            for j in range(k + 1, n):
                v[j] = (v[j] * (w[j] + wb[k]) - alpha[k]) / (w[j] - w[k])
    except ZeroDivisionError as exc:
        raise NumericalError(
            f"Schur recursion failed: nodes coincide at {mp.mp.dps} digits"
        ) from exc

    def coefficients() -> np.ndarray:
        # R[m] is the residue of B_(k-1)(z)/(z + conj w_k) at z = -conj w_m
        c = [mp.mpc(0)] * n
        R: list = []
        for k in range(n):
            if k:
                R = [R[m] * (-wb[m] - w[k - 1]) / (wb[k] - wb[m]) for m in range(k)]
            rkk = mp.mpc(1)
            for j in range(k):
                rkk *= (-wb[k] - w[j]) / (wb[j] - wb[k])
            R.append(rkk)
            for m in range(k + 1):
                c[m] += alpha[k] * R[m]
        return np.array([complex(x) for x in c])

    return mp.mpf(f_norm_sq) - q, coefficients


def _solve_extended(
    S: MonomialSet, f_moments: Callable[[Exponent], complex], f_norm_sq
) -> tuple[float, Callable[[], np.ndarray], int]:
    """Gram solve with an escalating-precision ladder.

    Each rung re-evaluates the pairing oracle inside its precision context,
    so an mpmath-aware oracle contributes full-precision values; a plain
    float oracle caps accuracy at double, which is the best its data
    supports.  Sets without log powers take the O(n^2) Schur recursion
    (`_schur_rung`); confluent sets (logpow > 0) rebuild the Gram matrix
    from the closed form and take an O(n^3) LU solve (`_lu_rung`).
    Escalation stops when two consecutive rungs agree on the distance; a
    rung whose d^2 is not positive (clamped) does not count toward that
    agreement.  The returned callable computes the coefficients at the
    accepted rung's precision, when it is called.
    """
    rung = _lu_rung if S.confluent else _schur_rung
    prev = None
    for dps in _EXTENDED_DPS_LADDER:
        with mp.workdps(dps):
            d2, coefficients = rung(S, f_moments, f_norm_sq)
            dist = float(mp.sqrt(d2)) if d2 > 0 else None
            if dist is not None and prev is not None and abs(dist - prev) <= 1e-13 * (1.0 + dist):

                def at_rung() -> np.ndarray:
                    with mp.workdps(dps):
                        return coefficients()

                return dist, at_rung, dps
        prev = dist
    last = "d^2 <= 0" if prev is None else f"distance {prev}"
    raise NumericalError(
        f"Gram solve did not stabilize on the extended-precision ladder (last rung: {last})"
    )


def distance_to_span(
    f_moments: Callable[[Exponent], complex],
    f_norm_sq: float,
    S,
    *,
    precision: str = "double",
) -> DistanceResult:
    """Distance from f to the span of a monomial set via Gram normal equations.

    `f_moments` must return <f, m> for each m in S (conjugation on m).  The
    returned distance is sqrt(max(0, f_norm_sq - quadratic form)).  With
    precision="double" the solve runs in float64 and falls back to mpmath
    once the condition estimate passes EXTENDED_THRESHOLD (a warning is
    issued); precision="extended" forces the mpmath path.  Pairing values
    may be mpmath numbers, which the extended path uses at full precision.
    """
    if precision not in ("double", "extended"):
        raise DomainError(f"unknown precision mode {precision!r}")
    if f_norm_sq < 0:
        raise DomainError("f_norm_sq must be nonnegative")
    S = as_monomial_set(S)
    gram = gram_build(S)
    cond = gram.condition_estimate
    use_extended = precision == "extended" or cond > EXTENDED_THRESHOLD
    if precision == "double" and cond > EXTENDED_THRESHOLD:
        warnings.warn(
            f"Gram condition estimate {cond:.2e} exceeds {EXTENDED_THRESHOLD:.0e}; "
            "switching to extended precision",
            IllConditioningWarning,
            stacklevel=2,
        )
    if use_extended:
        dist, coeffs, dps = _solve_extended(S, f_moments, f_norm_sq)
        return DistanceResult(dist, coeffs, cond, f"extended(dps={dps})")
    r = np.array([complex(f_moments(m)) for m in S])
    # <f - sum c_j m_j, m_i> = 0 gives conj(G) c = r with G[i,j] = <m_i, m_j>
    c = np.conj(np.linalg.solve(gram.matrix, np.conj(r)))
    q = float(np.real(np.vdot(c, r)))  # vdot conjugates its first argument
    d2 = f_norm_sq - q
    dist = math.sqrt(d2) if d2 > 0 else 0.0
    return DistanceResult(dist, lambda: c, cond, "double")


def monomial_pairing_oracle(t: ExponentLike) -> Callable[[Exponent], complex]:
    """Pairing oracle for a single monomial f = x^t (ln x)^k.

    Precision-aware: under an mpmath working precision above double (as set
    by the extended solve ladder) it returns full-precision mpc values, so
    ill-conditioned Gram solves are not capped by double-rounded pairings.
    """
    et = as_exponent(t)
    return lambda m: monomial_inner(et, m)


def monomial_distance_closed_form(t: ExponentLike, S) -> float:
    """dist(x^t, M(S)) for logpow-0 data, as a stable product of factors.

    Equals (2 Re t + 1)^(-1/2) * prod over s in S of |t - s| / |t + conj(s) + 1|.
    Every factor is < 1 (a pseudo-hyperbolic distance on the half-plane), so
    the running product is monotone; underflow to 0 is reported as 0.
    """
    et = as_exponent(t)
    S = as_monomial_set(S)
    if et.logpow != 0 or S.confluent:
        raise DomainError("closed-form distance requires logpow = 0 throughout")
    # set validation already guarantees distinct exponents once logpows are 0
    s_vals = S.values
    t_val = et.s
    num = np.abs(t_val - s_vals)
    if np.any(num == 0.0):
        return 0.0
    factors = num / np.abs(t_val + np.conj(s_vals) + 1.0)
    return float(np.prod(factors)) / math.sqrt(2 * et.re + 1)


# --- density sequences and the Muntz-Szasz verdict ---------------------------


@dataclass(frozen=True)
class AffineSequence:
    """s_k = a*k + b for k = 0, 1, 2, ..."""

    a: complex
    b: complex = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", complex(self.a))
        object.__setattr__(self, "b", complex(self.b))

    def term(self, k: int) -> complex:
        return self.a * k + self.b


@dataclass(frozen=True)
class GeometricSequence:
    """s_k = base * ratio^k for k = 0, 1, 2, ..."""

    base: complex
    ratio: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "base", complex(self.base))
        object.__setattr__(self, "ratio", float(self.ratio))
        if not self.ratio > 0:
            raise DomainError("geometric sequence ratio must be positive")
        if self.base == 0:
            raise DomainError("geometric sequence base must be nonzero")

    def term(self, k: int) -> complex:
        return self.base * self.ratio**k


SequenceLike = Union[AffineSequence, GeometricSequence, Sequence]


def complex_field(value, what: str) -> complex:
    """A finite complex number from a JSON field: a number or an [re, im] pair."""
    z = None
    try:
        if isinstance(value, numbers.Number) and not isinstance(value, bool):
            z = complex(value)
        elif isinstance(value, (list, tuple)) and len(value) == 2:
            z = complex(float(value[0]), float(value[1]))
    except (TypeError, ValueError, OverflowError):
        pass
    if z is None:
        raise DomainError(f"{what} must be a number or an [re, im] pair, got {value!r}")
    return _finite(z, what, value)


def real_field(value, what: str) -> float:
    """A finite real number from a JSON field, on float()'s terms, or a DomainError."""
    try:
        x = float(value)
    except (TypeError, ValueError, OverflowError):
        raise DomainError(f"{what} must be a real number, got {value!r}") from None
    return _finite(x, what, value)


def _finite(x, what: str, value):
    """x itself, or a DomainError naming the field when x is NaN or infinite."""
    if not cmath.isfinite(x):
        raise DomainError(f"{what} must be finite, got {value!r}")
    return x


def int_field(value, what: str) -> int:
    """An integer from a JSON field, on int()'s terms, or a DomainError."""
    try:
        return int(value)
    except (TypeError, ValueError, OverflowError):
        raise DomainError(f"{what} must be an integer, got {value!r}") from None


def list_field(value, what: str, length: int | None = None) -> list:
    """A JSON array field (of exactly `length` items when given), or a DomainError."""
    if isinstance(value, (list, tuple)) and length in (None, len(value)):
        return list(value)
    size = "an array" if length is None else f"an array of {length}"
    raise DomainError(f"{what} must be {size}, got {value!r}")


def required_field(spec, key: str, what: str):
    """spec[key] from a JSON object, or a DomainError naming the missing field."""
    try:
        return spec[key]
    except (TypeError, KeyError):
        raise DomainError(f"{what} needs the field {key!r}") from None


def sequence_from_spec(spec) -> SequenceLike:
    """Build a sequence from JSON: affine, geometric, or explicit."""
    if isinstance(spec, (AffineSequence, GeometricSequence)):
        return spec
    if isinstance(spec, dict):
        kind = spec.get("kind")
        if kind == "affine":
            return AffineSequence(
                complex_field(required_field(spec, "a", "affine sequence"), "affine a"),
                complex_field(spec.get("b", 0.0), "affine b"),
            )
        if kind == "geometric":
            return GeometricSequence(
                complex_field(spec.get("base", 1.0), "geometric base"),
                real_field(required_field(spec, "ratio", "geometric sequence"), "geometric ratio"),
            )
        if kind == "explicit":
            values = required_field(spec, "values", "explicit sequence")
            return [complex_field(v, "sequence entry") for v in list_field(values, "explicit values")]
        raise DomainError(f"unknown sequence kind {kind!r}")
    return list(spec)


def materialize_sequence(seq: SequenceLike, count: int) -> list[complex]:
    """First `count` terms; fast-growing generators stop before float overflow."""
    if isinstance(seq, (AffineSequence, GeometricSequence)):
        out: list[complex] = []
        for k in range(count):
            try:
                s = seq.term(k)
            except OverflowError:
                break
            if abs(s) > 1e300:
                break
            out.append(s)
        return out
    values = [complex(as_exponent(v).s) if isinstance(v, Exponent) else complex(v) for v in seq]
    return values[:count]


@dataclass(frozen=True)
class DensityVerdict:
    """Three-valued density verdict with the partial sums that support it."""

    verdict: str  # "dense" | "not-dense" | "undetermined"
    partial_sums: list[float] = field(repr=False)
    criterion: str = "complex"
    reason: str = ""

    def to_json(self) -> dict:
        return {
            "verdict": self.verdict,
            "criterion": self.criterion,
            "reason": self.reason,
            "terms_used": len(self.partial_sums),
            "final_partial_sum": self.partial_sums[-1] if self.partial_sums else 0.0,
        }


_CRITERIA = ("classical", "real", "complex")
_TAIL_WINDOW = 64
_MAX_TERMS = 10000
_SUM_BOUND = 50.0
_HARMONIC_FLOOR = 1e-2
_RATIO_CEILING = 0.98


def _criterion_terms(values: list[complex], criterion: str) -> np.ndarray:
    if criterion == "classical":
        for k, s in enumerate(values):
            if s.imag != 0 or s.real != int(s.real) or s.real < 0:
                raise WrongCriterionError(
                    f"classical criterion needs nonnegative integers, got s_{k} = {s}"
                )
            if k > 0 and not s.real > values[k - 1].real:
                raise WrongCriterionError("classical criterion needs a strictly increasing sequence")
        # the series starts where the exponents are positive; a leading 0 is legal
        return np.array([1.0 / s.real for s in values if s.real > 0])
    if criterion == "real":
        for k, s in enumerate(values):
            if s.imag != 0:
                raise WrongCriterionError(
                    f"real criterion needs real exponents, got s_{k} = {s}"
                )
        return np.array([(2 * s.real + 1) / ((2 * s.real + 1) ** 2 + 1) for s in values])
    if criterion == "complex":
        return np.array([(2 * s.real + 1) / abs(s + 1) ** 2 for s in values])
    raise DomainError(f"unknown criterion {criterion!r}; expected one of {_CRITERIA}")


def _symbolic_certificate(seq: SequenceLike, criterion: str) -> tuple[str, str] | None:
    """Pattern-match generator specs against the built-in comparison patterns."""
    if isinstance(seq, AffineSequence):
        a = complex(seq.a)
        if a == 0:
            return None
        if a.real > 0:
            return "dense", "harmonic-type lower bound: affine growth gives terms ~ C/k"
        if a.real == 0:
            if criterion == "complex":
                return "not-dense", "p-series majorant: imaginary affine growth gives terms ~ C/k^2"
            return None
    if isinstance(seq, GeometricSequence):
        if seq.ratio > 1:
            return "not-dense", f"geometric majorant: terms decay like {1 / seq.ratio:.3g}^k"
        if seq.ratio < 1:
            return "dense", "terms bounded below: exponents accumulate inside the half-plane"
    return None


def muntz_verdict(seq: SequenceLike, criterion: str = "complex") -> DensityVerdict:
    """Three-valued Muntz-Szasz density verdict for the span of {x^(s_k)}.

    criterion selects the series: "classical" sums 1/s_k over strictly
    increasing nonnegative integers, "real" sums (2s+1)/((2s+1)^2+1) over
    real exponents, "complex" sums (2 Re s + 1)/|s+1|^2.  The verdict is
    "dense" when a divergence certificate matches (symbolic pattern for
    generator specs, partial sums of the first 10000 terms passing 50, or a
    harmonic-type lower bound k*t_k >= 0.01 holding flat over the last 64
    terms), "not-dense" when a convergent majorant matches (consecutive term
    ratios <= 0.98, or a p-series log-log slope <= -1.1 over those 64 terms),
    and "undetermined" otherwise.  A finite machine cannot decide series
    divergence; these are heuristic certificates and the third value is the
    honest fallback.
    """
    if criterion not in _CRITERIA:
        raise DomainError(f"unknown criterion {criterion!r}; expected one of {_CRITERIA}")
    seq = sequence_from_spec(seq) if isinstance(seq, dict) else seq
    symbolic = _symbolic_certificate(seq, criterion)
    # a symbolic certificate decides the verdict from the generator alone;
    # keep the supporting partial sums short so fast growth cannot overflow
    count = _MAX_TERMS if symbolic is None else min(_MAX_TERMS, 256)
    values = materialize_sequence(seq, count)
    if not values:
        raise DomainError("empty exponent sequence")
    seen = set()
    for k, s in enumerate(values):
        if s.real <= HALF_PLANE_EDGE:
            raise DomainError(f"sequence entry s_{k} = {s} leaves the half-plane Re s > -1/2")
        if s in seen:
            raise DomainError(f"sequence entries must be distinct, s = {s} repeats")
        seen.add(s)
    terms = _criterion_terms(values, criterion)
    partial = list(np.cumsum(terms)) if len(terms) else [0.0]

    if symbolic is not None:
        verdict, reason = symbolic
        return DensityVerdict(verdict, partial, criterion, reason)

    if partial[-1] >= _SUM_BOUND:
        return DensityVerdict(
            "dense", partial, criterion,
            f"partial sums exceeded the configured bound {_SUM_BOUND:g} with positive terms",
        )
    window = terms[-min(_TAIL_WINDOW, len(terms)):]
    k_idx = np.arange(len(terms) - len(window), len(terms)) + 1.0
    if len(window) >= 2 and np.all(window > 0):
        kt = k_idx * window
        log_k = np.log(k_idx)
        # slope of log(k t_k) against log k: ~0 for harmonic-type tails
        kt_slope = np.polyfit(log_k, np.log(kt), 1)[0]
        if np.min(kt) >= _HARMONIC_FLOOR and kt_slope >= -0.05:
            return DensityVerdict(
                "dense", partial, criterion,
                f"harmonic-type lower bound: k*t_k >= {np.min(kt):.3g} over the tail window",
            )
        ratios = window[1:] / window[:-1]
        if np.max(ratios) <= _RATIO_CEILING:
            return DensityVerdict(
                "not-dense", partial, criterion,
                f"geometric majorant: consecutive term ratios <= {np.max(ratios):.3g}",
            )
        fit = np.polyfit(log_k, np.log(window), 1)
        residual = float(np.max(np.abs(np.log(window) - np.polyval(fit, log_k))))
        if fit[0] <= -1.1 and residual <= 0.2:
            return DensityVerdict(
                "not-dense", partial, criterion,
                f"p-series majorant: tail decays like k^{fit[0]:.2f}",
            )
    return DensityVerdict(
        "undetermined", partial, criterion,
        "no divergence or convergent-majorant certificate matched",
    )
