"""Distance curves along subspace sequences and limit-membership verdicts.

A sequence of monomial sets S_n spans a sequence of subspaces; a function
f belongs to the limit exactly when dist(f, M(S_n)) -> 0.  A curve is one
core.distances call over the sets S_1..S_n_max, with the values of a
core.distance call per point.  f is a core.PiecewiseMonomial (a combination
of indicator-times-monomial terms, each with an optional log power): for
monomial f a point is the stable closed-form product, on any set, log
powers included, and along nested sets the curve is the running product of
its factors; otherwise it is the Schur recursion on f's closed moment
pairings (core.cauchy_moment), never quadrature.  Nested sets take one
double pass for all their points, and the points on the extended ladder
take one elimination tree per rung, where overlapping sets such as the
interval family's eliminate their common exponents once.  Limits are never decided by a
finite curve; the fitted verdict is three-valued, with explicit thresholds
and an undetermined fallback.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .core import (
    MonomialSet,
    PiecewiseMonomial,
    _check_set,
    as_monomial_set,
    distances,
    muntz_verdict,
    sequence_from_spec,
    sequence_terms,
)
from .errors import ConvergenceWarning, DomainError, NumericalError, SizeLimitError

DEFAULT_TOL = 1e-3
_CURVE_N_MAX = 1024


@dataclass(frozen=True)
class SubspaceSequence:
    """n -> MonomialSet, with a tag.

    A curve solves consecutive sets that nest (core._chains: each a prefix
    of the next or the next of it, or, for sets with log powers, equal to
    it, so a repeated set too) in one double pass.  Its ladder points share
    one elimination tree per rung (core._schur_tree), so any sets that
    overlap share the steps of their common exponents, and a repeated set
    is solved once.
    """

    generator: Callable[[int], MonomialSet]
    description: str = ""

    def set_at(self, n: int) -> MonomialSet:
        return as_monomial_set(self.generator(n))


def interval_family(rho: float) -> SubspaceSequence:
    """S_n = {n+1, ..., n+N_n} with n/(n+N_n) approaching sqrt(rho).

    The spanned spaces converge to the functions supported on [rho, 1],
    even though the sets are not nested; rho = 1/4 gives N_n = n.  Neighbouring
    sets share most of their exponents, so the ladder points of a curve
    eliminate each shared exponent once per rung (core._schur_tree).  A set past
    2^15 entries (2 MB) raises SizeLimitError before it is built, so a
    1024-point curve's closed form reads at most 2^24 entries, about 0.5 s.
    """
    if not 0 < rho < 1:
        raise DomainError(f"rho must lie in (0, 1), got {rho}")
    r = math.sqrt(rho)
    ratio = (1 - r) / r

    def gen(n: int) -> MonomialSet:
        if n < 1:
            raise DomainError("sequence index starts at 1")
        N = max(1, round(ratio * n))
        if N > 2**15:
            raise SizeLimitError(f"the interval set at n = {n} holds {N} entries, limit is 2^15")
        return MonomialSet._checked(np.arange(n + 1, n + N + 1))  # distinct positive integers

    return SubspaceSequence(gen, f"interval(rho={rho})")


def muntz_family(seq) -> SubspaceSequence:
    """Nested sets S_n = {s_0, ..., s_n} from an exponent sequence spec.

    The terms are computed once, into one prefix that grows with the largest
    n asked for, and each is checked once, when a set first holds it: a term
    outside the half-plane, then a repeated one, raises the DomainError that
    MonomialSet raises for the first set holding it.
    """
    terms, prefix, table = sequence_terms(sequence_from_spec(seq)), [], {}

    def gen(n: int) -> MonomialSet:
        prefix.extend(itertools.islice(terms, max(0, n + 1 - len(prefix))))
        if len(prefix) < n + 1:
            raise DomainError(f"sequence exhausted before index {n}")
        # the table holds the first len(table) terms, distinct, each with log power 0
        _check_set(zip(prefix[len(table):max(0, n + 1)], itertools.repeat(0)), table)
        return MonomialSet._checked(prefix[:max(0, n + 1)])

    return SubspaceSequence(gen, "muntz")


def constant_family(S) -> SubspaceSequence:
    S = as_monomial_set(S)
    return SubspaceSequence(lambda n: S, "constant")


def distance_curve(
    f,
    seq: SubspaceSequence,
    n_max: int,
    *,
    precision: str = "double",
) -> tuple[np.ndarray, np.ndarray]:
    """(distances, condition estimates) of dist(f, M(S_n)) for n = 1..n_max, in one call.

    The points are core.distances of the curve's sets, with the values a loop
    of core.distance calls gives: the closed-form product for a monomial f
    and Gram solves on the exact pairings otherwise, sharing f's data at
    each node and precision, one double pass for sets that nest and one
    elimination tree per ladder rung for all the points it takes.  Closed
    forms, double points and condition estimates keep their bits.  A ladder
    point is only guaranteed to agree with a separate core.distance within
    the ladder's agreement rule, 1e-13 (1 + d): the tree's order of
    elimination depends on the curve's other sets, n_max among them, which
    moves d^2 in the rung's last digits, so its float or its rung can
    differ at a near-tie.  A point where the solve fails
    numerically becomes NaN, with condition estimate inf, leaving a gap
    instead of aborting the curve.  n_max runs from 1 to 1024 (SizeLimitError
    past it), several times the longest curve run, whose tail O(1/n) it resolves.
    """
    f = PiecewiseMonomial.from_spec(f)
    if n_max < 1:
        raise DomainError("n_max must be at least 1")
    if n_max > _CURVE_N_MAX:
        raise SizeLimitError(f"a curve of {n_max} points exceeds the limit {_CURVE_N_MAX}")
    points = distances(f, map(seq.set_at, range(1, n_max + 1)), precision=precision)
    ok = [not isinstance(p, NumericalError) for p in points]
    dists = np.array([p.distance if good else math.nan for p, good in zip(points, ok)])
    conds = np.array([p.condition_estimate if good else math.inf for p, good in zip(points, ok)])
    return dists, conds


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
    curve, conds = distance_curve(fpm, seq, n_max, precision=precision)
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
    # judge density from the generator itself so symbolic certificates apply
    seq = sequence_from_spec(seq)
    family = muntz_family(seq)
    density = muntz_verdict(seq, "complex")
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
