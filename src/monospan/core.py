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
definite, and exponentially ill-conditioned.

A target f is a PiecewiseMonomial, a sum of c x^t (ln x)^k chi_[a,1]
terms whose pairings and norm are sums of cauchy_moment values.  Every
distance without a closed form is one O(n^2) Schur (Nevanlinna-Pick)
recursion: x^s is the half-plane Szego kernel at w = conj(s) + 1/2,
x^s (ln x)^k its k-th derivative, so the Gram matrix is a (confluent) Cauchy
matrix and each step divides by one Blaschke factor (z - w_k)/(z + conj w_k),
the factors of monomial_distance_closed_form.  It runs in complex128 when
the set has no log powers, the Blaschke growth g of its nodes (_growth)
is at most 4 decades and f allows it (_Memo), and otherwise on a ladder of
precisions (34 to 160 digits); 10^g is the condition estimate.  distance()
takes the closed-form product when f is a single uncut monomial c x^t, on
any set (an s of multiplicity m gives its factor m times), and
distance_to_span otherwise, each giving a DistanceResult; distances() gives
them for a sequence of sets in one call, where nested sets, a repeated set
among them, share one pass per precision.  A ladder rung on real data runs
in the standard library's decimal.Decimal (the C library libmpdec) at
dps + 3 digits, and otherwise
in mpmath's mpc at dps digits; either way the rung's own decimal context
(_Rung) is current while it runs, and nothing else, a caller's mpmath
precision included, moves the arithmetic off double.
"""

from __future__ import annotations

import cmath
import collections
import contextlib
import decimal
import itertools
import math
import numbers
from dataclasses import dataclass, field
from decimal import Decimal
from typing import Iterable, Iterator, Union

import mpmath as mp
import numpy as np

from .errors import (
    DomainError,
    NumericalError,
    SizeLimitError,
    WrongCriterionError,
)

HALF_PLANE_EDGE = -0.5
_DOUBLE_GROWTH_MAX = 4.0  # the largest Blaschke growth, in decades, that the double pass takes
_EXTENDED_DPS_LADDER = (34, 50, 80, 120, 160)
_GRAM_N_MAX = 64
_LOGPOW_MAX = 128

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
        _check_set(zip(v.tolist(), k.tolist()))
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
    def _checked(cls, values, logpows=None) -> "MonomialSet":
        """The set of `values` and `logpows` (default 0), which the caller has checked."""
        S = cls.__new__(cls)
        v = np.array(values, dtype=complex)
        k = np.zeros(v.shape, dtype=np.int64) if logpows is None else np.array(logpows, dtype=np.int64)
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

        def read():  # each entry is checked as it is read, so its field errors keep set order
            for e in list_field(raw, "monomial set exponents"):
                if not isinstance(e, dict):
                    raise DomainError(f"monomial set exponent must be an object, got {e!r}")
                values.append(complex(real_field(e.get("re", 0.0), "exponent re"),
                                      real_field(e.get("im", 0.0), "exponent im")))
                logpows.append(int_field(e.get("logpow", 0), "exponent logpow"))
                yield values[-1], logpows[-1]

        _check_set(read())
        return cls._checked(values, logpows)

    def to_json(self) -> dict:
        return {"exponents": [e.to_json() for e in self]}


def _check_set(entries: Iterable[tuple[complex, int]], table: dict | None = None) -> None:
    """Check (s, logpow) entries in set order: an entry's own error, then a repeat, then a gap.

    An entry that is no valid Exponent raises that error as it is read; after
    the last entry, the first repeated entry raises, then the first s whose
    log powers do not run 0..m-1.  table maps the s of earlier, checked
    entries to their log powers: a repeat of one of those counts, and the
    entries join the table when they all pass.
    """
    earlier = {} if table is None else table
    powers: dict[complex, set[int]] = {}
    repeat, confluent = None, False
    for z, j in entries:
        if not (z.real > HALF_PLANE_EDGE and cmath.isfinite(z) and j >= 0 and j % 1 == 0):
            Exponent(z.real, z.imag, j)  # raises the entry's own error
        js = powers.setdefault(z, set())
        if repeat is None and (j in js or j in earlier.get(z, ())):
            repeat = DomainError(f"duplicate exponent entry (s={z}, logpow={int(j)})")
        js.add(j)
        confluent = confluent or j != 0
    if repeat is not None:
        raise repeat
    for z, js in powers.items() if confluent else ():
        js.update(earlier.get(z, ()))
        if max(js) >= len(js):  # distinct whole numbers >= 0 run 0..m-1 iff the largest is m-1
            ks = sorted(map(int, js))
            raise DomainError(f"log powers for s={z.real}+{z.imag}j must be contiguous from 0, got {ks}")
    if table is not None:
        table.update(powers)


def as_monomial_set(values) -> MonomialSet:
    if isinstance(values, MonomialSet):
        return values
    return MonomialSet.from_exponents(values)


def cauchy_moment(t: complex, s: complex, m: int = 0, a: float = 0.0, c=1):
    """c times the moment integral over [a, 1] of x^(p-1) (ln x)^m, p = 1 + t + conj(s).

    At a = 0 this is c (-1)^m m! / p^(m+1); at a > 0 it follows the
    integration-by-parts recurrence I_0 = (1 - a^p)/p,
    I_m = -(a^p (ln a)^m + m I_(m-1))/p.  The operands are lifted exactly
    from their floats, so extended solves are not capped by double-rounded
    entries.  The result's type follows the rung in force (_rung): on a
    real rung (t, s and c real) a Decimal in its context, on a complex rung
    an mpc at its digits, and outside the ladder a complex.  c may also be
    a value of the rung's own type.  ln a is formed only when the recurrence
    or a^p needs it, and on a real rung once per cutoff (_Rung.ln).
    """
    rung = _rung()
    if rung is None:
        p = 1 + t + s.conjugate()
        factorial, power, log = math.factorial, pow, math.log
    else:
        p, c = 1 + rung.lift(t) + rung.lift(s).conjugate(), rung.lift(c)
        factorial, power, log = (math.factorial, _decimal_power, rung.ln) if rung.real else (
            mp.factorial, mp.power, mp.log)
    if a == 0.0:
        return c * (-1) ** m * factorial(m) / p ** (m + 1)
    ap = power(a, p)
    acc = c * (1 - ap) / p
    if m:
        ln_a = log(a)
        for k in range(1, m + 1):
            acc = -(c * ap * ln_a ** k + k * acc) / p
    return acc


def _decimal_ln(a: float) -> Decimal:
    """ln a in the current decimal context widened by 6 guard digits."""
    wide = decimal.getcontext().copy()
    wide.prec += 6
    return Decimal(a).ln(wide)


def _decimal_power(a: float, p: Decimal) -> Decimal:
    """a^p as a^floor(p) exp(frac(p) ln a), with 6 guard digits.

    decimal's own power takes about 1 us for a whole exponent and over 100 us
    for any other.
    """
    wide = decimal.getcontext().copy()
    wide.prec += 6
    whole = p.to_integral_value(decimal.ROUND_FLOOR)
    ap = wide.power(Decimal(a), whole)
    if p != whole:
        ap = wide.multiply(ap, wide.multiply(p - whole, _rung().ln(a)).exp(wide))
    return ap


def monomial_inner(a: ExponentLike, b: ExponentLike) -> complex:
    """Inner product <x^a (ln x)^j, x^b (ln x)^k>, conjugating the b slot."""
    ea, eb = as_exponent(a), as_exponent(b)
    return cauchy_moment(ea.s, eb.s, ea.logpow + eb.logpow)


def _check_gram_size(S: MonomialSet) -> None:
    """Raise on an empty set and on a set past the 64 entries a Gram route takes."""
    if len(S) == 0:
        raise DomainError("cannot build the Gram system of an empty set")
    if len(S) > _GRAM_N_MAX:
        raise SizeLimitError(f"monomial set has {len(S)} entries, limit is {_GRAM_N_MAX}")


def gram_build(S) -> np.ndarray:
    """The Hermitian Gram matrix G[i, j] = <m_i, m_j> of a monomial set of at most 64 entries.

    The column entry is conjugated, so for logpow-0 sets G[i, j] = 1/(1 + s_i + conj(s_j)).
    """
    S = as_monomial_set(S)
    _check_gram_size(S)
    n = len(S)
    # each entry is monomial_inner's scalar closed form, bit for bit
    s, k = S.values.tolist(), S.logpows.tolist()
    G = np.empty((n, n), dtype=complex)
    for i in range(n):
        G[i, :i] = G[:i, i].conj()
        G[i, i:] = [cauchy_moment(s[i], s[j], k[i] + k[j]) for j in range(i, n)]
    return G


@dataclass(frozen=True)
class PiecewiseMonomial:
    """A combination sum c_i chi_[a_i, 1] x^(t_i) (ln x)^(k_i); a_i = 0 means no cutoff.

    Terms are (coeff, exponent, cutoff, logpow) tuples; a three-field term
    has logpow 0.  The log power lives only in the fourth field, so a term
    whose exponent carries one is rejected rather than read two ways.  Its
    pairings and norm are sums of cauchy_moment values, so they follow the
    rung in force: floats in double, and on the extended ladder
    full-precision mpmath numbers, or Decimals in a real rung's context.
    A log power above 128 raises SizeLimitError: a cut term's moments loop k
    times, and at k = 128 a complex one on 64 entries takes 2 s up the ladder.
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
            if k > _LOGPOW_MAX:
                raise SizeLimitError(f"logpow {k} exceeds the limit {_LOGPOW_MAX}")
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
        """<f, x^s (ln x)^logpow>, exact in each precision regime."""
        return sum(cauchy_moment(t.s, s, k + logpow, a, c) for c, t, a, k in self.terms)

    @property
    def norm_sq(self):
        """||f||^2, exact in each precision regime: a float, an mpf on an mpc rung, a Decimal on a real rung.

        On a rung each coefficient is lifted before the products c_i conj(c_j),
        which a double product would round to 53 bits.
        """
        rung = _rung()
        cs = [c if rung is None else rung.lift(c) for c, _, _, _ in self.terms]
        acc = sum(
            cauchy_moment(ti.s, tj.s, ki + kj, max(ai, aj), ci * cj.conjugate())
            for ci, (_, ti, ai, ki) in zip(cs, self.terms)
            for cj, (_, tj, aj, kj) in zip(cs, self.terms)
        )
        return acc.real

    def evaluate(self, x) -> np.ndarray:
        """f at the points x; a term is masked only if a > 0 and scaled only if c != 1, and the sum
        starts at the first term, since 0 + v would turn a -0.0 part into 0.0."""
        x_arr = np.asarray(x, dtype=float)
        out = None
        for c, t, a, k in self.terms:
            v = x_arr.astype(complex) ** t.s
            if k:
                v = v * np.log(x_arr) ** k
            if a > 0:
                v = np.where(x_arr >= a, v, 0j)
            if c != 1:
                v = c * v
            out = v if out is None else out + v
        return out


@dataclass(frozen=True)
class DistanceResult:
    """A distance, its condition estimate, and the route that produced it.

    precision is "double" or "extended(dps=N)" for the Schur recursion in
    complex128 or on the ladder's rung of N digits, and "closed-form" for
    the exact product of monomial_distance_closed_form, whose condition
    estimate is 1.0.  Otherwise it is 10^g, g the Blaschke growth of the
    nodes (_growth); a double d^2 is, as measured, within 16 * 10^g * 2^-52 * ||f||^2.
    """

    distance: float
    condition_estimate: float
    precision: str


class _Rung(decimal.Context):
    """A ladder rung of dps digits, real (in Decimal) or complex (in mpc), as a decimal context built whole.

    It holds dps + 3 digits, and no field comes from the caller.  mpmath's
    dps digits carry about 0.9 more (34 digits are 116 bits), and base-10
    rounding wobbles by a digit; at dps + 1 a 32-entry indicator distance
    moved from the 50-digit rung to the 80-digit one.  `with _Rung(dps,
    real):` makes this object itself the current decimal context
    (decimal.localcontext would install a plain copy) and sets mpmath's
    working precision to dps digits; cauchy_moment and _Memo read the
    context (_rung) to pick Decimal, mpc or double.  The caller's decimal
    context and mpmath precision come back on exit.
    """

    def __init__(self, dps: int, real: bool) -> None:
        traps = [decimal.InvalidOperation, decimal.DivisionByZero, decimal.Overflow]
        super().__init__(prec=dps + 3, rounding=decimal.ROUND_HALF_EVEN, Emin=-999999, Emax=999999,
                         capitals=1, clamp=0, flags=[], traps=traps)
        self.real, self._mp, self._ln = real, mp.workdps(dps), {}

    def ln(self, a: float) -> Decimal:
        """_decimal_ln(a), formed once per cutoff a while this rung lives."""
        if a not in self._ln:
            self._ln[a] = _decimal_ln(a)
        return self._ln[a]

    def lift(self, z):
        """z exactly, as a Decimal (its real part) on a real rung and an mpc on a complex one."""
        return Decimal(z.real) if self.real else mp.mpc(z)

    def __enter__(self) -> _Rung:
        self._caller = decimal.getcontext()
        decimal.setcontext(self)
        self._mp.__enter__()
        return self

    def __exit__(self, *exc) -> None:
        self._mp.__exit__(*exc)
        decimal.setcontext(self._caller)


def _rung() -> _Rung | None:
    """The ladder rung whose decimal context is current, or None in double."""
    ctx = decimal.getcontext()
    return ctx if type(ctx) is _Rung else None


class _Memo:
    """What the sets of one distances() call share, each computed once.

    f's norm and its Schur node data (which hold its pairings), keyed by the
    rung in force: its kind and digits, or none in double.  A memo lives for
    one call.
    """

    def __init__(self, f: PiecewiseMonomial) -> None:
        self.f, self._values = f, {}
        self.real = all(c.imag == 0 and t.im == 0 for c, t, _, _ in f.terms)

    def double(self) -> bool:
        """Whether f may take the double pass; called in double only.

        Not with a cutoff and a log power: cauchy_moment's recurrence then loses
        about log10(m! / |p|^(m+1) / |I_m|) digits, which g does not bound; nor
        with a double norm that is not finite or raises (p^(m+1) overflowing or 0).
        """
        cut_log = any(a > 0 for _, _, a, _ in self.f.terms) and any(k for *_, k in self.f.terms)
        try:
            return not cut_log and math.isfinite(self.norm_sq())
        except ArithmeticError:
            return False

    def _once(self, key: tuple, make):
        rung = _rung()
        key += (None,) if rung is None else (rung.real, rung.prec)
        value = self._values.get(key)
        if value is None:
            value = self._values[key] = make()
        return value

    def norm_sq(self):
        return self._once(("norm",), lambda: self.f.norm_sq)

    def node(self, z: complex, m: int):
        """w = conj(z) + 1/2 and a new list of F_j = <f, x^z (ln x)^j> / j!, j < m.

        Decimals on a real rung (z and f real), mpc on a complex rung, and
        complex in double.
        """
        def make():
            rung = _rung()
            w = complex(z.real + 0.5, -z.imag) if rung is None else rung.lift(z).conjugate() + rung.lift(0.5)
            return w, [self.f.pairing(z)] + [self.f.pairing(z, j) / math.factorial(j) for j in range(1, m)]

        w, F = self._once(("node", z, m), make)
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
    precision (d = 0), since no prefix holding both can be solved.  The
    nodes are built at the rung's precision; rounded to double first, nearby
    nodes lose the digits the divisions need.  On a real rung (S and f real)
    every value is a Decimal, on a complex rung an mpc, and outside the
    ladder a complex.  The update is
    the same code for every type.
    """
    nodes = itertools.islice(collections.Counter(S.values.tolist()).items(), end)
    w, F = map(list, zip(*(memo.node(z, m) for z, m in nodes)))
    norm, q, out = memo.norm_sq(), 0, []
    for k, (wk, Fk) in enumerate(zip(w, F)):
        two_re, wbk = 2 * wk.real, wk.conjugate()
        while Fk:
            alpha = two_re * Fk[0]
            q += two_re * (Fk[0].real ** 2 + Fk[0].imag ** 2)
            for j, (wj, V) in enumerate(zip(w[k + 1:], F[k + 1:]), k + 1):
                c, d = wj + wbk, wj - wk
                if not d:  # w_j = w_k at this precision
                    del w[j:], F[j:]
                    break
                old, V[0] = V[0], (V[0] * c - alpha) / d
                for i in range(1, len(V)):
                    old, V[i] = V[i], (V[i] * c + old - V[i - 1]) / d
            Fk[:] = [two_re * b + a for a, b in zip(Fk, Fk[1:])]
        out.append(norm - q)
    return out


def _solve_extended(S: MonomialSet, memo: _Memo, ends: list[int]) -> list:
    """(distance, precision label), or a NumericalError, for the first `end` nodes of S, for each end.

    The distance comes from an escalating-precision ladder.  Each rung is one
    pass of the Schur recursion (`_schur_rung`) over the longest prefix still
    on the ladder; it evaluates f's pairings and its norm at its own
    precision, so d^2 = ||f||^2 - q keeps the digits the rung works with.
    When S's exponents and every term of f are real, the rung at dps runs
    in Decimal, in its own context of dps + 3 digits, and otherwise in mpc
    at dps digits (_Rung).  A prefix stops when two consecutive
    rungs agree on its distance; a rung whose d^2 is not positive (clamped)
    does not count toward that agreement, and a rung on which two of its
    nodes coincide fails it.
    """
    out, prev = [None] * len(ends), [None] * len(ends)
    for dps in _EXTENDED_DPS_LADDER:
        todo = [i for i, r in enumerate(out) if r is None]
        if not todo:
            break
        with _Rung(dps, memo.real and not S.values.imag.any()):
            d2s = _schur_rung(S, memo, max(ends[i] for i in todo))
            for i in todo:
                if len(d2s) < ends[i]:
                    out[i] = NumericalError(f"Schur recursion failed: nodes coincide at {dps} digits")
                    continue
                d2 = d2s[ends[i] - 1]
                dist = float(d2.sqrt() if isinstance(d2, Decimal) else mp.sqrt(d2)) if d2 > 0 else None
                if dist is not None and prev[i] is not None and abs(dist - prev[i]) <= 1e-13 * (1.0 + dist):
                    out[i] = dist, f"extended(dps={dps})"
                prev[i] = dist
    last = ["d^2 <= 0" if p is None else f"distance {p}" for p in prev]
    return [r or NumericalError(f"Gram solve did not stabilize on the extended-precision ladder (last rung: {x})")
            for r, x in zip(out, last)]


def _growth(S: MonomialSet) -> list[float]:
    """g_k for the first k nodes of S, k = 1, 2, ...: the Blaschke growth of the recursion, in decades.

    g_k = max over j <= k of sum over i < j of m_i (-log10 |b_i(w_j)|), with
    the nodes w = conj(s) + 1/2 in double, in order of first appearance, m_i
    the multiplicity of node i and b_i(z) = (z - w_i)/(z + conj w_i).  It
    needs the nodes alone and never saturates; nodes that coincide in double
    give inf.  Row j reads nodes 0..j only, so a prefix's values are its own.
    """
    nodes = collections.Counter(S.values.tolist())
    w = [complex(z.real + 0.5, -z.imag) for z in nodes]
    rows = []
    for j, wj in enumerate(w):
        row = 0.0
        for wi, mi in zip(w[:j], nodes.values()):
            b = abs((wj - wi) / (wj + wi.conjugate()))
            row += mi * -math.log10(b) if b else math.inf
        rows.append(row)
    return list(itertools.accumulate(rows, max))


def _chains(sets: Iterable, size) -> Iterator[list]:
    """The sets as runs of consecutive sets that nest, each run [longest set, size(S) for each S].

    Two sets nest when the shorter one's entries (values and log powers) are
    a prefix of the longer one's, and, if either has log powers, the two are
    equal; so a repeated set is a member like any other.  Each set is read
    (as_monomial_set, then size) when it is drawn, and a run is yielded as
    soon as a set does not nest with it, since no later set can join it.
    """
    chain = None
    for S in map(as_monomial_set, sets):
        n = size(S)
        if chain:
            short, long = sorted((S, chain[0]), key=len)
            if (long.values.tobytes().startswith(short.values.tobytes()) and long.logpows.tobytes().startswith(
                    short.logpows.tobytes()) and (len(short) == len(long) or not long.confluent)):
                chain[0] = long
                chain[1].append(n)
                continue
            yield chain
        chain = [S, [n]]
    if chain:
        yield chain


def _distances(f: PiecewiseMonomial, sets: Iterable, precision: str, closed_form: bool) -> list:
    """The body of distances(), which takes the closed form only when closed_form is true."""
    if precision not in ("double", "extended"):
        raise DomainError(f"unknown precision mode {precision!r}")
    c, t, _, k = f.terms[0]
    if closed_form and f.is_single_monomial and k == 0:
        try:
            scale = abs(c)
        except OverflowError:  # |c| past the float range, though both parts are finite
            scale = math.inf

        def settle(base, sizes):  # sizes: entries
            d = _closed_form_prefixes(t.s, base.values)
            for n in sizes:
                x = float(d[n]) and scale * float(d[n])  # 0 when t is in the set, whatever c
                yield DistanceResult(x, 1.0, "closed-form") if math.isfinite(x) else NumericalError(
                    f"closed-form distance |c| * {float(d[n])!r} is past the float range (|c| = {scale!r})")

        size = len
    else:
        memo = _Memo(f)

        def settle(base, sizes):  # sizes: nodes
            g = _growth(base)
            # in double, the prefixes of growth at most _DOUBLE_GROWTH_MAX (g never falls) take one pass
            double = precision == "double" and not base.confluent and memo.double()
            cut = sum(x <= _DOUBLE_GROWTH_MAX for x in g) if double else 0
            end = max([n for n in sizes if n <= cut], default=0)
            d2s = _schur_rung(base, memo, end) if end else []
            ladder = iter(_solve_extended(base, memo, [n for n in sizes if n > cut]))
            cond = [10.0 ** x if x <= 308 else math.inf for x in g]  # inf past the float range
            for n in sizes:
                res = (math.sqrt(d2s[n - 1]) if d2s[n - 1] > 0 else 0.0, "double") if n <= cut else next(ladder)
                yield res if isinstance(res, NumericalError) else DistanceResult(res[0], cond[n - 1], res[1])

        def size(S):
            _check_gram_size(S)
            return len(dict.fromkeys(S.values.tolist()))

    return [r for chain in _chains(sets, size) for r in settle(*chain)]


def distances(f: PiecewiseMonomial, sets: Iterable, *, precision: str = "double") -> list:
    """distance(f, S) for each S of `sets`, computing what the sets share once.

    Each item is a DistanceResult, or the NumericalError that distance()
    raises for that set.  The sets are drawn and checked one at a time, so
    any other error is raised where a loop of distance() calls would raise
    it.  f's pairings, norm and Schur node data at each precision are
    computed once, and consecutive sets that nest (_chains: a prefix of the
    next or the next of it, or, with log powers, equal to it, so a repeated
    set too) share one Schur pass per precision, or for a monomial f one
    running product of the closed-form factors.
    """
    return _distances(f, sets, precision, closed_form=True)


def _one(results: list) -> DistanceResult:
    if isinstance(results[0], NumericalError):
        raise results[0]
    return results[0]


def distance_to_span(f: PiecewiseMonomial, S, *, precision: str = "double") -> DistanceResult:
    """Distance from f to the span of a monomial set by the Schur recursion on its Gram system.

    The returned distance is sqrt(max(0, ||f||^2 - q)), q the mass the
    recursion projects.  With precision="double" a set without log powers
    whose Blaschke growth g is at most 4 takes one complex128 pass if f
    allows it (_Memo.double); every other set, and every set under
    precision="extended", takes the ladder, where each rung evaluates f's
    pairings and norm at its own precision.
    """
    return _one(_distances(f, [S], precision, closed_form=False))


def distance(f: PiecewiseMonomial, S, *, precision: str = "double") -> DistanceResult:
    """dist(f, M(S)) by the exact product when f is c x^t, on any set S, log powers included.

    Every other f goes through distance_to_span at `precision`.  The closed
    form reports condition estimate 1.0 and precision "closed-form"; a
    product past the float range raises NumericalError.
    """
    return _one(distances(f, [S], precision=precision))


def monomial_distance_closed_form(t: ExponentLike, S) -> float:
    """dist(x^t, M(S)) for a target without a log power, as a stable product of factors.

    Equals (2 Re t + 1)^(-1/2) * prod over s in S of |t - s| / |t + conj(s) + 1|,
    the last of _closed_form_prefixes' running products.  S may carry log
    powers: span{x^s (ln x)^j : j < m} is the model space of a Blaschke
    factor with a zero of order m, so an s of multiplicity m contributes its
    factor m times, once per entry.
    """
    et = as_exponent(t)
    S = as_monomial_set(S)
    if et.logpow != 0:
        raise DomainError("closed-form distance requires a target without a log power")
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
    and "undetermined" otherwise.  An explicit list is a prefix of an
    infinite sequence, so the numeric certificates need at least a full tail
    window of 64 series terms; a shorter list is "undetermined".  A finite
    machine cannot decide series divergence; these are heuristic certificates
    and the third value is the honest fallback.
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

    if len(terms) < _TAIL_WINDOW:
        return DensityVerdict(
            "undetermined", partial, criterion,
            f"{len(terms)} series terms are fewer than the {_TAIL_WINDOW}-term tail window "
            "that a numeric certificate needs",
        )
    if partial[-1] >= _SUM_BOUND:
        return DensityVerdict(
            "dense", partial, criterion,
            f"partial sums exceeded the configured bound {_SUM_BOUND:g} with positive terms",
        )
    window = terms[-_TAIL_WINDOW:]
    k_idx = np.arange(len(terms) - _TAIL_WINDOW, len(terms)) + 1.0
    if np.all(window > 0):
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
