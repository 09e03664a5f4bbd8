"""Exponents, monomial inner products, Gram systems, and density verdicts.

Monomials live in L2[0,1]: x^s (ln x)^k with Re s > -1/2 (the half-plane S)
and log-multiplicity k >= 0; a MonomialSet holds them as two read-only arrays,
exponents and log powers.  The inner product <f, g> = integral of f(x)
conj(g(x)) over [0,1] is conjugate-linear in the second slot; this convention
is fixed here and used everywhere else in the package.  The closed form behind
every Gram entry is

    <x^a (ln x)^j, x^b (ln x)^k> = (-1)^(j+k) (j+k)! / (1 + a + conj(b))^(j+k+1),

the (j+k)-fold derivative of the Cauchy kernel 1/(1 + a + conj(b)).  Gram
matrices of monomial sets are therefore Cauchy-structured, Hermitian positive
definite, and exponentially ill-conditioned; solves fall back to extended
precision (mpmath) when the condition estimate passes EXTENDED_THRESHOLD.

A target f is a PiecewiseMonomial, a sum of c x^t (ln x)^k chi_[a,1]
terms whose pairings and norm are sums of cauchy_moment values.  The
extended solve is a ladder of mpmath precisions (34 to 160 digits) whose
rungs are one O(n^2) Schur (Nevanlinna-Pick) recursion for every set: x^s
is the half-plane Szego kernel at w = conj(s) + 1/2, x^s (ln x)^k its k-th
derivative, so the Gram matrix is a (confluent) Cauchy matrix and each step
divides by one Blaschke factor (z - w_k)/(z + conj w_k), the factors of
monomial_distance_closed_form.  distance() takes that closed-form product
when f is a single uncut monomial and distance_to_span otherwise; both
return a DistanceResult.  distances() gives distance() for a sequence of
sets in one call: after k nodes the recursion's mass is the projection onto
the first k kernels, so nested sets share one pass per rung.  The rungs run
on real data in real arithmetic: a real node or pairing is an mpf, and only
complex ones are mpc, so real sets with real targets never pay for complex
multiplies and divides.
"""

from __future__ import annotations

import cmath
import collections
import contextlib
import itertools
import math
import numbers
import warnings
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Union

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

    def to_json(self) -> dict:
        return {"re": self.re, "im": self.im, "logpow": self.logpow}


def as_exponent(value: ExponentLike) -> Exponent:
    if isinstance(value, Exponent):
        return value
    z = complex(value)
    return Exponent(z.real, z.imag)


class MonomialSet:
    """Ordered finite multiset of exponents generating a span M(S).

    values holds the exponents s (complex) and logpows their log powers (int),
    as read-only arrays of one length; repeated s must carry log powers 0..m-1
    exactly once each.  confluent tells whether any entry carries a log power.
    Iteration yields Exponent objects; sets compare by identity.
    """

    def __init__(self, values=(), logpows=None) -> None:
        v = np.array(values, dtype=complex)
        k = np.zeros(v.shape, dtype=np.int64) if logpows is None else np.array(logpows)
        if v.ndim != 1 or k.shape != v.shape:
            raise DomainError(f"values and logpows need one 1-D shape, got {v.shape}, {k.shape}")
        _check_set(v, k)
        k = k.astype(np.int64, copy=False)
        v.flags.writeable = k.flags.writeable = False
        self.values, self.logpows = v, k

    @property
    def confluent(self) -> bool:
        return bool(np.count_nonzero(self.logpows))

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self):
        v = self.values
        return map(Exponent, v.real.tolist(), v.imag.tolist(), self.logpows.tolist())

    @classmethod
    def _checked(cls, values) -> "MonomialSet":
        """The logpow-0 set of `values`, which the caller has checked: valid and distinct."""
        S = cls.__new__(cls)
        v = np.array(values, dtype=complex)
        k = np.zeros(v.shape, dtype=np.int64)
        v.flags.writeable = k.flags.writeable = False
        S.values, S.logpows = v, k
        return S

    @classmethod
    def from_exponents(cls, values: Iterable[ExponentLike]) -> "MonomialSet":
        es = [as_exponent(v) for v in values]
        return cls([e.s for e in es], [e.logpow for e in es])

    @classmethod
    def from_json(cls, payload: dict) -> "MonomialSet":
        raw = required_field(payload, "exponents", "monomial set JSON")
        values, logpows = [], []
        for e in list_field(raw, "monomial set exponents"):
            try:
                if not isinstance(e, dict):
                    raise DomainError(f"monomial set exponent must be an object, got {e!r}")
                s = complex(real_field(e.get("re", 0.0), "exponent re"),
                            real_field(e.get("im", 0.0), "exponent im"))
                logpows.append(int_field(e.get("logpow", 0), "exponent logpow"))
            except DomainError:  # an earlier entry's own error comes first, as read in order
                _check_entries(np.array(values, dtype=complex), np.array(logpows, dtype=np.int64))
                raise
            values.append(s)
        return cls(values, logpows)

    def to_json(self) -> dict:
        return {"exponents": [e.to_json() for e in self]}


def _check_entries(v: np.ndarray, k: np.ndarray) -> None:
    """Raise the Exponent error of the first entry that is no valid exponent on its own."""
    ok = np.isfinite(v) & (v.real > HALF_PLANE_EDGE)
    if np.count_nonzero(k):  # log powers are whole numbers >= 0: a cast would read 1.5 as 1
        with np.errstate(invalid="ignore"):  # inf % 1 is NaN, and no whole number
            ok &= (k >= 0) & (k % 1 == 0)
    for i in np.flatnonzero(~ok).tolist():
        Exponent(v.real[i].item(), v.imag[i].item(), k[i].item())


def _duplicate_error(z: complex, j: int) -> DomainError:
    return DomainError(f"duplicate exponent entry (s={z}, logpow={j})")


def _check_set(v: np.ndarray, k: np.ndarray) -> None:
    """Raise on a bad entry, a repeated entry, or log powers of one s that do not run 0..m-1."""
    if np.count_nonzero(k):
        _check_entries(v, k)
        order = np.lexsort((k, v.imag, v.real))
        s, ks = v[order], k[order]
        # sorted, each s starts at log power 0 and steps by 1; a repeat or a gap breaks the run
        bad = ks - np.concatenate(([0], (ks[:-1] + 1) * (s[1:] == s[:-1])))
    else:  # sorted, the smallest real part comes first and a repeated s sits by its twin
        s = np.sort(v)
        if np.count_nonzero(np.isfinite(s)) < len(s) or (len(s) and s[0].real <= HALF_PLANE_EDGE):
            _check_entries(v, k)
        bad = s[1:] == s[:-1]
    if not np.count_nonzero(bad):
        return
    # the error is the one an entry-by-entry scan in set order meets first
    powers: dict[complex, set[int]] = {}
    for z, j in zip(v.tolist(), k.astype(np.int64).tolist()):
        if j in powers.setdefault(z, set()):
            raise _duplicate_error(z, j)
        powers[z].add(j)
    z, js = next((z, sorted(js)) for z, js in powers.items() if max(js) >= len(js))
    raise DomainError(f"log powers for s={z.real}+{z.imag}j must be contiguous from 0, got {js}")


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

    matrix: np.ndarray
    condition_estimate: float


def cauchy_moment(t: complex, s: complex, m: int = 0, a: float = 0.0, c=1):
    """c times the moment integral over [a, 1] of x^(p-1) (ln x)^m, p = 1 + t + conj(s).

    At a = 0 this is c (-1)^m m! / p^(m+1); at a > 0 it follows the
    integration-by-parts recurrence I_0 = (1 - a^p)/p,
    I_m = -(a^p (ln a)^m + m I_(m-1))/p.  Under an mpmath working precision
    above double (as set by the extended solve ladder) the operands are
    lifted to mpmath and the result is a full-precision mpmath number, so
    ill-conditioned Gram solves are not capped by double-rounded entries:
    an mpf when t, s and c are real, an mpc otherwise.
    """
    if mp.mp.dps > 25:
        if t.imag == s.imag == c.imag == 0:  # real data stays real: mpf arithmetic is cheaper
            p, c = 1 + mp.mpf(t.real) + mp.mpf(s.real), mp.mpf(c.real)
        else:
            p, c = 1 + mp.mpc(t.real, t.imag) + mp.mpc(s.real, -s.imag), mp.mpc(c)
        factorial, power, log = mp.factorial, mp.power, mp.log
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
    # scalar closed forms, bit for bit: the solves downstream amplify a last-bit change
    s, k = S.values.tolist(), S.logpows.tolist()
    G = np.empty((n, n), dtype=complex)
    for i in range(n):
        G[i, :i] = G[:i, i].conj()
        G[i, i:] = [cauchy_moment(s[i], s[j], k[i] + k[j]) for j in range(i, n)]
    try:
        cond = float(np.linalg.cond(G))
    except np.linalg.LinAlgError:
        cond = math.inf
    if not math.isfinite(cond):
        cond = math.inf
    return GramSystem(matrix=G, condition_estimate=cond)


@dataclass(frozen=True)
class PiecewiseMonomial:
    """A combination sum c_i chi_[a_i, 1] x^(t_i) (ln x)^(k_i); a_i = 0 means no cutoff.

    Terms are (coeff, exponent, cutoff, logpow) tuples; a three-field term
    has logpow 0.  The log power lives only in the fourth field, so a term
    whose exponent carries one is rejected rather than read two ways.  Its
    pairings and norm are sums of cauchy_moment values, so they follow the
    working precision: floats in double, full-precision mpmath numbers on
    the extended ladder.
    """

    terms: tuple[tuple[complex, Exponent, float, int], ...]

    def __post_init__(self) -> None:
        if not self.terms:
            raise DomainError("need at least one term")
        clean = []
        for term in self.terms:
            c, t, a, k = term if len(term) == 4 else (*term, 0)
            t = as_exponent(t)
            if t.logpow != 0:
                raise DomainError("a term's log power goes in its fourth field, not its exponent")
            if not (isinstance(k, (int, np.integer)) and k >= 0):
                raise DomainError(f"logpow must be a nonnegative integer, got {k!r}")
            a = float(a)
            if not 0 <= a < 1:
                raise DomainError(f"cutoff must lie in [0, 1), got {a}")
            clean.append((complex(c), t, a, int(k)))
        object.__setattr__(self, "terms", tuple(clean))

    @classmethod
    def constant(cls) -> "PiecewiseMonomial":
        return cls(((1.0, Exponent(0.0), 0.0),))

    @classmethod
    def monomial(cls, t: ExponentLike) -> "PiecewiseMonomial":
        """x^t (ln x)^k, with k taken from the exponent's logpow."""
        et = as_exponent(t)
        return cls(((1.0, Exponent(et.re, et.im), 0.0, et.logpow),))

    @classmethod
    def indicator(cls, a: float, t: ExponentLike = 0.0) -> "PiecewiseMonomial":
        """chi_[a,1] times x^t."""
        return cls(((1.0, as_exponent(t), float(a)),))

    @classmethod
    def from_spec(cls, spec) -> "PiecewiseMonomial":
        if isinstance(spec, PiecewiseMonomial):
            return spec
        if isinstance(spec, str):
            if spec == "const":
                return cls.constant()
            if spec.startswith("chi:"):
                return cls.indicator(real_field(spec[4:], "indicator cutoff"))
            if spec.startswith("monomial:"):
                parts = spec[len("monomial:"):].split(",")
                if len(parts) > 2:
                    raise DomainError(f"monomial shorthand takes re[,im], got {spec!r}")
                t = complex(*(real_field(p, "monomial exponent") for p in parts))
                return cls.monomial(t)
            raise DomainError(f"unknown function shorthand {spec!r}")
        if not isinstance(spec, dict) or "terms" not in spec:
            raise DomainError("function spec must be a shorthand string or a {'terms': [...]} object")
        terms = []
        for item in list_field(spec["terms"], "function terms"):
            if not isinstance(item, dict):
                raise DomainError(f"function term must be an object, got {item!r}")
            unknown = sorted(set(item) - {"coeff", "t", "a", "logpow"})
            if unknown:
                raise DomainError(f"function term takes coeff, t, a and logpow, got {unknown[0]!r}")
            c = complex_field(item.get("coeff", 1.0), "term coeff")
            t = complex_field(item.get("t", 0.0), "term exponent t")
            a = real_field(item.get("a", 0.0), "term cutoff a")
            terms.append((c, as_exponent(t), a, int_field(item.get("logpow", 0), "term logpow")))
        return cls(tuple(terms))

    @property
    def is_single_monomial(self) -> bool:
        return len(self.terms) == 1 and self.terms[0][2] == 0.0

    def pairing(self, s: complex, logpow: int = 0):
        """<f, x^s (ln x)^logpow>, exact in either precision regime."""
        return sum(cauchy_moment(t.s, s, k + logpow, a, c) for c, t, a, k in self.terms)

    @property
    def norm_sq(self):
        """||f||^2, exact in either precision regime: a float, or an mpf on the ladder."""
        acc = sum(
            cauchy_moment(ti.s, tj.s, ki + kj, max(ai, aj), ci * cj.conjugate())
            for ci, ti, ai, ki in self.terms
            for cj, tj, aj, kj in self.terms
        )
        return acc.real

    def evaluate(self, x) -> np.ndarray:
        x_arr = np.asarray(x, dtype=float)
        out = np.zeros_like(x_arr, dtype=complex)
        for c, t, a, k in self.terms:
            v = x_arr.astype(complex) ** t.s
            if k:
                v = v * np.log(x_arr) ** k
            out += c * np.where(x_arr >= a, v, 0j)
        return out


@dataclass(frozen=True)
class DistanceResult:
    """A distance, its condition estimate, and the route that produced it.

    precision is "double" or "extended(dps=N)" for a Gram solve, and
    "closed-form" for the exact product of monomial_distance_closed_form.
    """

    distance: float
    condition_estimate: float
    precision: str


class _Memo:
    """What the sets of one distances() call share, each computed once.

    f's pairings, its norm and its Schur node data, at each working
    precision.  A memo lives for one call.
    """

    def __init__(self, f: PiecewiseMonomial) -> None:
        self.f, self._values = f, {}

    def _once(self, key: tuple, make, *args):
        value = self._values.get(key)
        if value is None:
            value = self._values[key] = make(*args)
        return value

    def pairing(self, s: complex, j: int = 0):
        return self._once(("pairing", mp.mp.prec, s, j), self.f.pairing, s, j)

    def norm_sq(self):
        return self._once(("norm", mp.mp.prec), lambda: self.f.norm_sq)

    def node(self, z: complex, m: int):
        """w = conj(z) + 1/2 and a new list of F_j = <f, x^z (ln x)^j> / j!, j < m, in mpmath.

        w is an mpf for real z and an mpc otherwise; each F_j keeps its
        pairing's type, an mpf when the pairing is real.
        """
        def make():
            w = mp.mpf(z.real) + mp.mpf(1) / 2
            return (w if z.imag == 0 else mp.mpc(w, -mp.mpf(z.imag)),
                    [self.pairing(z)] + [self.pairing(z, j) / math.factorial(j) for j in range(1, m)])

        w, F = self._once(("node", mp.mp.prec, z, m), make)
        return w, list(F)


def _schur_rung(S: MonomialSet, memo: _Memo, end: int | None = None) -> list:
    """||f||^2 - q after each of S's first `end` nodes (all by default), by the Schur recursion.

    With w = conj(s) + 1/2 and F(z) = integral of f(x) x^(z - 1/2) dx,
    <f, x^s (ln x)^j> = F^(j)(w).  A node w_k that occurs m times (nodes in
    order of first appearance) carries F_j = F^(j)(w_k)/j!, j < m, and takes
    m steps; each adds 2 Re(w_k) |F_0|^2 to the projected mass q and divides
    the rest by the Blaschke factor:

        F(z) <- (F(z) (z + conj w_k) - 2 Re(w_k) F_0) / (z - w_k).

    On a later node's data V, with c = w_j + conj w_k and d = w_j - w_k, this
    is V_0 <- (V_0 c - 2 Re(w_k) F_0) / d and V_i <- (V_i c + V_(i-1) - V'_(i-1)) / d,
    V' the updated value; at w_k itself F_i <- 2 Re(w_k) F_(i+1) + F_i, one
    shorter.  After k nodes q is the projection of f onto their kernels, so
    one O(n^2) pass gives d^2 for every prefix of the nodes.  The list stops
    before the first node that coincides with an earlier one at this
    precision, since no prefix holding both can be solved.  The nodes are
    built in mpmath; rounded to double first, nearby nodes lose the digits
    the divisions need.  Real nodes and data are mpf and stay mpf through
    every update; a complex node or pairing is an mpc, and mixed operands
    meet in complex arithmetic.
    """
    nodes = itertools.islice(collections.Counter(S.values.tolist()).items(), end)
    w, F = map(list, zip(*(memo.node(z, m) for z, m in nodes)))
    norm, q, out = memo.norm_sq(), mp.mpf(0), []
    for k, (wk, Fk) in enumerate(zip(w, F)):
        two_re, wbk = 2 * wk.real, mp.conj(wk)
        while Fk:
            alpha = two_re * Fk[0]
            q += two_re * (Fk[0].real ** 2 + Fk[0].imag ** 2)
            for j, (wj, V) in enumerate(zip(w[k + 1:], F[k + 1:]), k + 1):
                c, d = wj + wbk, wj - wk
                try:
                    old, V[0] = V[0], (V[0] * c - alpha) / d
                except ZeroDivisionError:  # w_j = w_k at this precision
                    del w[j:], F[j:]
                    break
                for i in range(1, len(V)):
                    old, V[i] = V[i], (V[i] * c + old - V[i - 1]) / d
            Fk[:] = [two_re * b + a for a, b in zip(Fk, Fk[1:])]
        out.append(norm - q)
    return out


def _solve_extended(S: MonomialSet, memo: _Memo, ends: list[int]) -> list:
    """(distance, dps), or a NumericalError, for the first `end` nodes of S, for each end.

    The distance comes from an escalating-precision ladder.  Each rung is one
    pass of the Schur recursion (`_schur_rung`) over the longest prefix still
    on the ladder; it evaluates f's pairings and its norm inside its own
    precision context, so d^2 = ||f||^2 - q keeps the digits the rung works
    with.  A prefix stops when two consecutive rungs agree on its distance; a
    rung whose d^2 is not positive (clamped) does not count toward that
    agreement, and a rung on which two of its nodes coincide fails it.
    """
    out, prev = [None] * len(ends), [None] * len(ends)
    for dps in _EXTENDED_DPS_LADDER:
        todo = [i for i, r in enumerate(out) if r is None]
        if not todo:
            break
        with mp.workdps(dps):
            d2s = _schur_rung(S, memo, max(ends[i] for i in todo))
            for i in todo:
                if len(d2s) < ends[i]:
                    out[i] = NumericalError(f"Schur recursion failed: nodes coincide at {dps} digits")
                    continue
                d2 = d2s[ends[i] - 1]
                dist = float(mp.sqrt(d2)) if d2 > 0 else None
                if dist is not None and prev[i] is not None and abs(dist - prev[i]) <= 1e-13 * (1.0 + dist):
                    out[i] = dist, dps
                prev[i] = dist
    for i, r in enumerate(out):
        if r is None:
            last = "d^2 <= 0" if prev[i] is None else f"distance {prev[i]}"
            out[i] = NumericalError(
                f"Gram solve did not stabilize on the extended-precision ladder (last rung: {last})"
            )
    return out


def _chain(chains: list, S: MonomialSet, member: tuple, settle) -> None:
    """Add member to the last chain if S and that chain's longest set, without log powers, nest.

    Otherwise the last chain is settled, since no later set can join it, and
    S starts a new one; a chain is [longest set, members].
    """
    if chains:
        short, long = sorted((S, chains[-1][0]), key=len)
        if not long.confluent and long.values[:len(short)].tobytes() == short.values.tobytes():
            chains[-1][0] = long
            chains[-1][1].append(member)
            return
        settle(*chains.pop())
    chains.append([S, [member]])


def _distances(f: PiecewiseMonomial, sets: Iterable, precision: str, closed_form: bool) -> list:
    """The body of distances(), which takes the closed form only when closed_form is true."""
    memo = _Memo(f)
    c, t, _, k = f.terms[0]
    closed_form = closed_form and f.is_single_monomial and k == 0

    def settle_ladder(base, members):  # members: (slot, nodes, condition estimate)
        for (slot, _, cond), res in zip(members, _solve_extended(base, memo, [m[1] for m in members])):
            slot[0] = res if isinstance(res, NumericalError) else DistanceResult(
                res[0], cond, f"extended(dps={res[1]})")

    def settle_prods(base, members):  # members: (slot, size)
        d = _closed_form_prefixes(t.s, base.values)
        for slot, size in members:
            slot[0] = DistanceResult(abs(c) * float(d[size]), 1.0, "closed-form")

    slots, last, ladder, prods = [], None, [], []  # a set equal to the one before shares its slot
    for S in sets:
        S = as_monomial_set(S)
        if S is last or (last is not None and len(S) == len(last) and S.values.tobytes()
                         == last.values.tobytes() and S.logpows.tobytes() == last.logpows.tobytes()):
            slots.append(slots[-1])
            continue
        last, slot = S, [None]
        slots.append(slot)
        if closed_form and not S.confluent:
            _chain(prods, S, (slot, len(S)), settle_prods)
            continue
        if precision not in ("double", "extended"):
            raise DomainError(f"unknown precision mode {precision!r}")
        gram = gram_build(S)
        cond = gram.condition_estimate
        if precision == "double" and cond > EXTENDED_THRESHOLD:
            warnings.warn(
                f"Gram condition estimate {cond:.2e} exceeds {EXTENDED_THRESHOLD:.0e}; "
                "switching to extended precision",
                IllConditioningWarning,
                stacklevel=3,
            )
        if precision == "extended" or cond > EXTENDED_THRESHOLD:
            _chain(ladder, S, (slot, len(dict.fromkeys(S.values.tolist())), cond), settle_ladder)
            continue
        r = np.array([complex(memo.pairing(*e)) for e in zip(S.values.tolist(), S.logpows.tolist())])
        # <f - sum c_j m_j, m_i> = 0 gives conj(G) c = r with G[i,j] = <m_i, m_j>
        coef = np.conj(np.linalg.solve(gram.matrix, np.conj(r)))
        q = float(np.real(np.vdot(coef, r)))  # vdot conjugates its first argument
        d2 = memo.norm_sq() - q
        slot[0] = DistanceResult(math.sqrt(d2) if d2 > 0 else 0.0, cond, "double")
    for chain in ladder:
        settle_ladder(*chain)
    for chain in prods:
        settle_prods(*chain)
    return [slot[0] for slot in slots]


def distances(f: PiecewiseMonomial, sets: Iterable, *, precision: str = "double") -> list:
    """distance(f, S) for each S of `sets`, computing what the sets share once.

    Each item is a DistanceResult, or the NumericalError that distance()
    raises for that set.  The sets are drawn and checked one at a time, so
    any other error is raised where a loop of distance() calls would raise
    it.  A set equal to the one before it is solved once; f's pairings,
    norm and Schur node data at each precision are computed once;
    consecutive sets without log powers that nest (each a prefix of
    the next, or the next of it) share one Schur pass per ladder rung, or
    for a monomial f one running product of the closed-form factors.
    """
    return _distances(f, sets, precision, closed_form=True)


def _one(results: list) -> DistanceResult:
    if isinstance(results[0], NumericalError):
        raise results[0]
    return results[0]


def distance_to_span(f: PiecewiseMonomial, S, *, precision: str = "double") -> DistanceResult:
    """Distance from f to the span of a monomial set via Gram normal equations.

    The returned distance is sqrt(max(0, ||f||^2 - quadratic form)).  With
    precision="double" the solve runs in float64 and falls back to mpmath
    once the condition estimate passes EXTENDED_THRESHOLD (a warning is
    issued); precision="extended" forces the mpmath path, where each rung
    evaluates f's pairings and norm at its own precision.
    """
    return _one(_distances(f, [S], precision, closed_form=False))


def distance(f: PiecewiseMonomial, S, *, precision: str = "double") -> DistanceResult:
    """dist(f, M(S)) by the exact product when f is c x^t and S has no log powers.

    Every other f and S go through distance_to_span at `precision`.  The
    closed form reports condition estimate 1.0 and precision "closed-form".
    """
    return _one(distances(f, [S], precision=precision))


def monomial_distance_closed_form(t: ExponentLike, S) -> float:
    """dist(x^t, M(S)) for logpow-0 data, as a stable product of factors.

    Equals (2 Re t + 1)^(-1/2) * prod over s in S of |t - s| / |t + conj(s) + 1|,
    the last of _closed_form_prefixes' running products.
    """
    et = as_exponent(t)
    S = as_monomial_set(S)
    if et.logpow != 0 or S.confluent:
        raise DomainError("closed-form distance requires logpow = 0 throughout")
    return float(_closed_form_prefixes(et.s, S.values)[-1])


def _closed_form_prefixes(t: complex, values: np.ndarray) -> np.ndarray:
    """dist(x^t, M({s_0, ..., s_(k-1)})) for k = 0..len(values), as running products.

    Every factor |t - s_j| / |t + conj(s_j) + 1| is < 1 (a pseudo-hyperbolic
    distance on the half-plane), so the running product is monotone;
    underflow to 0 is reported as 0, and so is every prefix that holds t.
    np.cumprod multiplies in np.prod's order, so each value keeps the bits
    of the product over its own prefix.
    """
    num = np.abs(t - values)
    prods = np.cumprod(np.concatenate(([1.0], num / np.abs(t + np.conj(values) + 1.0))))
    prods[1:][np.maximum.accumulate(num == 0.0)] = 0.0
    return prods / math.sqrt(2 * t.real + 1)


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


SequenceLike = Union[AffineSequence, GeometricSequence, np.ndarray]


def complex_field(value, what: str) -> complex:
    """A finite complex number from a JSON field: a number or an [re, im] pair."""
    z = None
    try:
        if isinstance(value, numbers.Number) and not isinstance(value, bool):
            z = complex(value)
        elif isinstance(value, (list, tuple)) and len(value) == 2 and all(
                isinstance(x, numbers.Real) and not isinstance(x, bool) for x in value):
            z = complex(float(value[0]), float(value[1]))
    except (TypeError, ValueError, OverflowError):
        pass
    if z is None:
        raise DomainError(f"{what} must be a number or an [re, im] pair, got {value!r}")
    return _finite(z, what, value)


def complex_list(value, what: str) -> list[complex]:
    """complex_field of each entry of a JSON array, `what` naming the entry."""
    values = list_field(value, f"{what} list")
    # plain ints and floats, or [re, im] pairs of them, in one array pass; numpy and
    # float() read true as 1, so a boolean takes the per-entry route
    flat, kinds = values, set(map(type, values))
    pairs = kinds <= {list, tuple} and set(map(len, values)) == {2}
    if pairs:
        flat = list(itertools.chain.from_iterable(values))
        kinds = set(map(type, flat))
    if kinds <= {int, float}:
        with contextlib.suppress(OverflowError):  # an int beyond the float range
            arr = np.array(flat, dtype=float)
            if np.isfinite(arr).all():
                return (arr.view(complex) if pairs else arr.astype(complex)).tolist()
    # anything else goes entry by entry, so a malformed one keeps complex_field's message
    return [complex_field(v, what) for v in values]


def real_field(value, what: str) -> float:
    """A finite real number from a JSON field, on float()'s terms, or a DomainError.

    A boolean is no number, although float() reads true as 1.0.
    """
    try:
        x = float(value)
    except (TypeError, ValueError, OverflowError):
        x = None
    if x is None or isinstance(value, bool):
        raise DomainError(f"{what} must be a real number, got {value!r}")
    return _finite(x, what, value)


def _finite(x, what: str, value):
    """x itself, or a DomainError naming the field when x is NaN or infinite."""
    if not cmath.isfinite(x):
        raise DomainError(f"{what} must be finite, got {value!r}")
    return x


def int_field(value, what: str) -> int:
    """An integer from a JSON field, on int()'s terms, or a DomainError.

    A boolean or a number with a fractional part is no integer, although int()
    reads true as 1 and 1.5 as 1; an integral number such as 2.0 is.
    """
    try:
        n = int(value)
    except (TypeError, ValueError, OverflowError):
        n = None
    if n is None or isinstance(value, bool) or (isinstance(value, numbers.Number) and n != value):
        raise DomainError(f"{what} must be an integer, got {value!r}")
    return n


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
    """A sequence from a JSON array or generator spec; a parsed sequence is returned as it is."""
    if isinstance(spec, (AffineSequence, GeometricSequence, np.ndarray)):
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
        if kind != "explicit":
            raise DomainError(f"unknown sequence kind {kind!r}")
        spec = list_field(required_field(spec, "values", "explicit sequence"), "explicit values")
    elif not isinstance(spec, (list, tuple)):
        raise DomainError("sequence must be a JSON array or a generator object")
    return np.array(complex_list(spec, "sequence entry"), dtype=complex)


def sequence_terms(seq: SequenceLike) -> Iterator[complex]:
    """The terms in order; fast-growing generators stop before float overflow."""
    if isinstance(seq, np.ndarray):
        yield from seq.tolist()
        return
    for k in itertools.count():
        try:
            s = seq.term(k)
        except OverflowError:
            return
        if abs(s) > 1e300:
            return
        yield s


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


def _over_square(num: float, x: float, plus: float = 0.0) -> float:
    """num / (x**2 + plus); past x = 1.34e154, where x**2 overflows, num / x / x."""
    try:
        return num / (x**2 + plus)
    except OverflowError:
        return num / x / x


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
        return np.array([_over_square(2 * s.real + 1, 2 * s.real + 1, 1) for s in values])
    if criterion == "complex":
        return np.array([_over_square(2 * s.real + 1, abs(s + 1)) for s in values])
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
    seq = sequence_from_spec(seq)
    symbolic = _symbolic_certificate(seq, criterion)
    # a symbolic certificate decides the verdict from the generator alone;
    # keep the supporting partial sums short so fast growth cannot overflow
    count = _MAX_TERMS if symbolic is None else min(_MAX_TERMS, 256)
    values = list(itertools.islice(sequence_terms(seq), count))
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
