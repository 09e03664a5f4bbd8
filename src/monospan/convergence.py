"""Distance curves along subspace sequences and limit-membership verdicts.

A sequence of monomial sets S_n spans a sequence of subspaces; a function
f belongs to the limit exactly when dist(f, M(S_n)) -> 0.  The curves are
computed exactly where possible: for monomial f the distance is a stable
closed-form product, and for piecewise monomials (combinations of
indicator-times-monomial terms, each with an optional log power) every
pairing and norm is a sum of the closed moments

    <chi_[a,1] x^t (ln x)^j, x^s (ln x)^k> = integral_a^1 x^(p-1) (ln x)^m dx,
        p = 1 + t + conj(s),  m = j + k,

which equal (-1)^m m! / p^(m+1) at a = 0 and (1 - a^p)/p at m = 0, with
the recurrence I_m = -(a^p (ln a)^m + m I_(m-1))/p in between (see
core.cauchy_moment), so Gram solves never touch quadrature.  Limits are
never decided by a finite curve; the fitted verdict is three-valued, with
explicit thresholds and an undetermined fallback.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable, NamedTuple

import numpy as np

from .core import (
    Exponent,
    ExponentLike,
    MonomialSet,
    as_exponent,
    as_monomial_set,
    cauchy_moment,
    complex_field,
    distance_to_span,
    list_field,
    materialize_sequence,
    monomial_distance_closed_form,
    muntz_verdict,
    real_field,
    sequence_from_spec,
)
from .errors import ConvergenceWarning, DomainError, NumericalError

DEFAULT_TOL = 1e-3


@dataclass(frozen=True)
class PiecewiseMonomial:
    """A combination sum c_i chi_[a_i, 1] x^(t_i) (ln x)^(k_i); a_i = 0 means no cutoff.

    Terms are (coeff, exponent, cutoff, logpow) tuples; a three-field term
    has logpow 0.  The log power lives only in the fourth field, so a term
    whose exponent carries one is rejected rather than read two ways.
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
                t = complex(*(real_field(p, "monomial exponent") for p in parts[:2]))
                return cls.monomial(t)
            raise DomainError(f"unknown function shorthand {spec!r}")
        if not isinstance(spec, dict) or "terms" not in spec:
            raise DomainError("function spec must be a shorthand string or a {'terms': [...]} object")
        terms = []
        for item in list_field(spec["terms"], "function terms"):
            if not isinstance(item, dict):
                raise DomainError(f"function term must be an object, got {item!r}")
            c = complex_field(item.get("coeff", 1.0), "term coeff")
            t = complex_field(item.get("t", 0.0), "term exponent t")
            terms.append((c, as_exponent(t), real_field(item.get("a", 0.0), "term cutoff a")))
        return cls(tuple(terms))

    @property
    def is_single_monomial(self) -> bool:
        return len(self.terms) == 1 and self.terms[0][2] == 0.0

    def pairing_oracle(self) -> Callable[[Exponent], complex]:
        """<f, x^s (ln x)^j> as a function of s, exact in either precision regime."""
        return lambda s: sum(
            cauchy_moment(t.s, s.s, k + s.logpow, a, c) for c, t, a, k in self.terms
        )

    @property
    def norm_sq(self) -> float:
        acc = sum(
            cauchy_moment(ti.s, tj.s, ki + kj, max(ai, aj), ci * cj.conjugate())
            for ci, ti, ai, ki in self.terms
            for cj, tj, aj, kj in self.terms
        )
        return float(acc.real)

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
class SubspaceSequence:
    """n -> MonomialSet, with a tag describing the family."""

    generator: Callable[[int], MonomialSet]
    description: str = ""

    def set_at(self, n: int) -> MonomialSet:
        return as_monomial_set(self.generator(n))


@lru_cache(maxsize=None)
def _int_exponent(k: int) -> Exponent:
    return Exponent(float(k))


def interval_family(rho: float) -> SubspaceSequence:
    """S_n = {n+1, ..., n+N_n} with n/(n+N_n) approaching sqrt(rho).

    The spanned spaces converge to the functions supported on [rho, 1],
    even though the sets are not nested; rho = 1/4 gives N_n = n.
    """
    if not 0 < rho < 1:
        raise DomainError(f"rho must lie in (0, 1), got {rho}")
    r = math.sqrt(rho)
    ratio = (1 - r) / r

    def gen(n: int) -> MonomialSet:
        if n < 1:
            raise DomainError("sequence index starts at 1")
        N = max(1, round(ratio * n))
        # exponents are frozen, so the integer cache can share them across sets
        return MonomialSet(tuple(map(_int_exponent, range(n + 1, n + N + 1))))

    return SubspaceSequence(gen, f"interval(rho={rho})")


def muntz_family(seq) -> SubspaceSequence:
    """Nested sets S_n = {s_0, ..., s_n} from an exponent sequence spec."""
    seq = sequence_from_spec(seq) if not isinstance(seq, (list, tuple)) else list(seq)

    def gen(n: int) -> MonomialSet:
        values = materialize_sequence(seq, n + 1)
        if len(values) < n + 1:
            raise DomainError(f"sequence exhausted before index {n}")
        return MonomialSet.from_exponents(values)

    return SubspaceSequence(gen, "muntz")


def constant_family(S) -> SubspaceSequence:
    S = as_monomial_set(S)
    return SubspaceSequence(lambda n: S, "constant")


class DistancePoint(NamedTuple):
    distance: float
    condition_estimate: float
    method: str  # "closed-form" | "gram-double" | "gram-extended(dps=N)"


def _distance_point(f: PiecewiseMonomial, S: MonomialSet, precision: str) -> DistancePoint:
    """One distance sample and the route that produced it; exact product when possible."""
    c, t, _, k = f.terms[0]
    if f.is_single_monomial and k == 0 and not S.confluent:
        return DistancePoint(abs(c) * monomial_distance_closed_form(t, S), 1.0, "closed-form")
    res = distance_to_span(f.pairing_oracle(), f.norm_sq, S, precision=precision)
    return DistancePoint(res.distance, res.condition_estimate, f"gram-{res.precision}")


def distance_curve(
    f,
    seq: SubspaceSequence,
    n_max: int,
    *,
    precision: str = "double",
    with_conditions: bool = False,
):
    """dist(f, M(S_n)) for n = 1..n_max.

    Monomial f uses the closed-form product; anything else goes through
    Gram solves on the exact pairings.  A point whose set equals the
    previous one repeats that point instead of solving again.  A point
    where the solve fails numerically becomes NaN, leaving a gap instead
    of aborting the curve.
    With with_conditions=True, returns (distances, condition_estimates).
    """
    f = PiecewiseMonomial.from_spec(f)
    if n_max < 1:
        raise DomainError("n_max must be at least 1")
    dists = np.empty(n_max)
    conds = np.empty(n_max)
    prev_S = None
    for n in range(1, n_max + 1):
        S = seq.set_at(n)
        if S != prev_S:  # a repeated set (the constant family) reuses its point
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    d, c, _ = _distance_point(f, S, precision)
            except NumericalError:
                d, c = math.nan, math.inf
            prev_S = S
        dists[n - 1] = d
        conds[n - 1] = c
    if with_conditions:
        return dists, conds
    return dists


@dataclass(frozen=True)
class ConvergenceReport:
    """A distance curve with its fitted tail and three-valued verdict."""

    description: str
    distances: np.ndarray
    conditions: np.ndarray
    fitted_limit: float
    verdict: str  # "in-limit" | "not-in-limit" | "undetermined"
    density_verdict: str | None = None
    agreement: bool | None = None


def limit_membership_test(
    f, seq: SubspaceSequence, n_max: int, tol: float = DEFAULT_TOL, *, precision: str = "double"
) -> ConvergenceReport:
    """Three-valued membership verdict for f against the limit of M(S_n).

    The curve's trailing quarter is fitted as d ~ a + b/n.  The verdict is
    in-limit when the curve has effectively hit zero (d_end <= tol), or is
    nonincreasing with an extrapolated limit a below tol or below half the
    final value; not-in-limit when the fit and the window agree the curve
    has flattened at a level >= tol; undetermined otherwise.  A finite
    curve cannot prove a set-theoretic limit; the thresholds are honest
    heuristics, with tol as the only contract knob.  The curve is computed
    once, at `precision` (as in distance_curve), and the report carries its
    distances and condition estimates.
    """
    if tol <= 0:
        raise DomainError("tol must be positive")
    fpm = PiecewiseMonomial.from_spec(f)
    curve, conds = distance_curve(fpm, seq, n_max, precision=precision, with_conditions=True)
    finite = curve[np.isfinite(curve)]
    if len(finite) < 3:
        return ConvergenceReport(seq.description, curve, conds, math.nan, "undetermined")
    n_pts = len(curve)
    k = max(3, math.ceil(n_pts / 4))
    idx = np.arange(n_pts - k + 1, n_pts + 1, dtype=float)
    window = curve[-k:]
    good = np.isfinite(window)
    if good.sum() < 2:
        return ConvergenceReport(seq.description, curve, conds, math.nan, "undetermined")
    b, a = np.polyfit(1.0 / idx[good], window[good], 1)
    d_end = float(finite[-1])
    w_vals = window[good]
    nonincreasing = bool(np.all(np.diff(w_vals) <= 1e-12 + 1e-9 * np.abs(w_vals[:-1])))
    fitted = float(min(max(a, 0.0), np.nanmax(curve)))
    if d_end <= tol:
        verdict = "in-limit"
    elif nonincreasing and (a <= tol or a <= 0.5 * d_end):
        verdict = "in-limit"
    elif a >= tol and a >= 0.8 * d_end and float(np.min(w_vals)) >= tol:
        verdict = "not-in-limit"
    else:
        verdict = "undetermined"
    return ConvergenceReport(seq.description, curve, conds, fitted, verdict)


def muntz_limit_experiment(
    seq, f, n_max: int, *, precision: str = "double"
) -> ConvergenceReport:
    """Couple the analytic density verdict with the observed distance curve.

    The exponent sequence is judged by the complex-criterion series; the
    curve for f is computed along the nested sets S_n = {s_0..s_n}.  The
    two can legitimately disagree only through the undetermined value, so
    a hard dense/not-in-limit (or not-dense/in-limit) clash is flagged
    with a ConvergenceWarning and agreement=False.
    """
    family = muntz_family(seq)
    # judge density from the generator itself so symbolic certificates apply
    seq_obj = sequence_from_spec(seq) if not isinstance(seq, (list, tuple)) else list(seq)
    density = muntz_verdict(seq_obj, "complex")
    report = limit_membership_test(f, family, n_max, precision=precision)
    agreement: bool | None = None
    if density.verdict != "undetermined" and report.verdict != "undetermined":
        agreement = (density.verdict == "dense") == (report.verdict == "in-limit")
        if not agreement:
            warnings.warn(
                f"density verdict {density.verdict!r} disagrees with curve verdict "
                f"{report.verdict!r} for this function",
                ConvergenceWarning,
                stacklevel=2,
            )
    return replace(report, density_verdict=density.verdict, agreement=agreement)
