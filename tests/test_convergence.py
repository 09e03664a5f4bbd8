"""Tests for distance curves, limit membership, and density experiments."""

import decimal
import itertools
import math
import warnings

import numpy as np
import pytest
from scipy import integrate

import monospan.convergence as convergence
import monospan.core as core
from monospan.convergence import (
    ConvergenceReport,
    SubspaceSequence,
    constant_family,
    distance_curve,
    interval_family,
    limit_membership_test,
    muntz_family,
    muntz_limit_experiment,
)
from monospan.core import AffineSequence, Exponent, MonomialSet, PiecewiseMonomial, distance
from monospan.errors import ConvergenceWarning, DomainError, NumericalError, SizeLimitError


# ---------------------------------------------------------------------------
# PiecewiseMonomial construction and parsing
# ---------------------------------------------------------------------------


def test_piecewise_validation():
    with pytest.raises(DomainError):
        PiecewiseMonomial(terms=())
    with pytest.raises(DomainError):
        # cutoff outside [0, 1)
        PiecewiseMonomial(terms=((1.0, Exponent(0.0, 0.0, 0), 1.0),))
    with pytest.raises(DomainError):
        # log factors are not supported in piecewise targets
        PiecewiseMonomial(terms=((1.0, Exponent(0.0, 0.0, 1), 0.0),))


def test_from_spec_forms():
    c = PiecewiseMonomial.from_spec("const")
    assert c.is_single_monomial
    assert c.norm_sq == pytest.approx(1.0)

    chi = PiecewiseMonomial.from_spec("chi:0.5")
    assert not chi.is_single_monomial
    assert chi.norm_sq == pytest.approx(0.5)
    assert chi.evaluate(0.25) == pytest.approx(0.0)
    assert chi.evaluate(0.75) == pytest.approx(1.0)

    m = PiecewiseMonomial.from_spec("monomial:0.5")
    assert m.is_single_monomial
    assert m.norm_sq == pytest.approx(0.5)  # |x^(1/2)|^2 integrates to 1/2

    mc = PiecewiseMonomial.from_spec("monomial:0.5,2.0")
    assert mc.terms[0][1].im == pytest.approx(2.0)
    # |x^s|^2 = x^(2 Re s), so the imaginary part does not change the norm
    assert mc.norm_sq == pytest.approx(0.5)

    d = PiecewiseMonomial.from_spec(
        {"terms": [{"coeff": [1.0, 0.0], "t": [1.0, 0.0], "a": 0.3},
                   {"coeff": [2.0, 0.0], "t": [2.0, 0.0]}]}
    )
    assert len(d.terms) == 2
    assert d.terms[0][2] == pytest.approx(0.3)
    assert d.terms[1][2] == pytest.approx(0.0)

    # passing an existing object through is a no-op
    assert PiecewiseMonomial.from_spec(chi) is chi

    with pytest.raises(DomainError):
        PiecewiseMonomial.from_spec("chi")
    with pytest.raises(DomainError):
        PiecewiseMonomial.from_spec(42)
    with pytest.raises(DomainError):
        PiecewiseMonomial.from_spec({"coeffs": [1.0]})


def test_norm_and_pairing_against_quadrature():
    # f = chi_[0.3,1] x + 2 x^2, checked against direct numerical integration
    f = PiecewiseMonomial.from_spec(
        {"terms": [{"coeff": [1.0, 0.0], "t": [1.0, 0.0], "a": 0.3},
                   {"coeff": [2.0, 0.0], "t": [2.0, 0.0]}]}
    )

    def fx(x):
        out = 2.0 * x ** 2
        if x >= 0.3:
            out += x
        return out

    nsq, _ = integrate.quad(lambda x: fx(x) ** 2, 0.0, 1.0, points=[0.3])
    assert f.norm_sq == pytest.approx(nsq, abs=1e-10)

    for s in [0.0 + 0.0j, 1.5 + 0.0j, 0.2 + 3.0j]:
        e = Exponent(s.real, s.imag, 0)
        sc = s.conjugate()
        re_val, _ = integrate.quad(
            lambda x: (fx(x) * x ** sc).real, 0.0, 1.0, points=[0.3]
        )
        im_val, _ = integrate.quad(
            lambda x: (fx(x) * x ** sc).imag, 0.0, 1.0, points=[0.3]
        )
        assert f.pairing(e.s, e.logpow) == pytest.approx(re_val + 1j * im_val, abs=1e-8)


def test_pairing_and_distance_on_confluent_set_against_quadrature():
    # chi_[0.3,1] against x^0.5, x^0.5 ln x, x^0.5 (ln x)^2, x^2: every
    # pairing and Gram entry comes from scipy quad, independent of the moments
    f = PiecewiseMonomial.from_spec("chi:0.3")
    S = MonomialSet([0.5, 0.5, 0.5, 2.0], [0, 1, 2, 0])

    def m(e):
        return lambda x: x ** e.re * math.log(x) ** e.logpow

    r = np.array([integrate.quad(m(e), 0.3, 1.0, epsabs=1e-14, epsrel=1e-13)[0] for e in S])
    for e, expect in zip(S, r):
        assert f.pairing(e.s, e.logpow) == pytest.approx(expect, rel=1e-11, abs=1e-13)

    G = np.array([[integrate.quad(lambda x: m(a)(x) * m(b)(x), 0.0, 1.0,
                                  epsabs=1e-14, epsrel=1e-13, limit=200)[0] for b in S]
                  for a in S])
    expect = math.sqrt(0.7 - r @ np.linalg.solve(G, r))
    assert distance(f, S).distance == pytest.approx(expect, rel=1e-6)


def test_log_power_terms_against_quadrature():
    # 2 chi_[0.3,1] x^0.7 (ln x)^2 + x: cutoff and log power together
    f = PiecewiseMonomial(((2.0, Exponent(0.7), 0.3, 2), (1.0, Exponent(1.0), 0.0)))

    def fx(x):
        return x + (2.0 * x ** 0.7 * math.log(x) ** 2 if x >= 0.3 else 0.0)

    nsq, _ = integrate.quad(lambda x: fx(x) ** 2, 0.0, 1.0, points=[0.3])
    assert f.norm_sq == pytest.approx(nsq, rel=1e-10)
    assert f.evaluate(0.5) == pytest.approx(fx(0.5))
    for e in (Exponent(0.0), Exponent(1.5, 0.0, 1)):
        expect, _ = integrate.quad(
            lambda x: fx(x) * x ** e.re * math.log(x) ** e.logpow, 0.0, 1.0, points=[0.3]
        )
        assert f.pairing(e.s, e.logpow) == pytest.approx(expect, rel=1e-10)


def test_evaluate_matches_terms():
    f = PiecewiseMonomial.from_spec("chi:0.5")
    xs = np.linspace(0.01, 0.99, 23)
    vals = f.evaluate(xs)
    expect = [1.0 if x >= 0.5 else 0.0 for x in xs]
    assert np.allclose(vals, expect)


# ---------------------------------------------------------------------------
# Families
# ---------------------------------------------------------------------------


def test_interval_family_density_parameter():
    fam = interval_family(0.25)
    # the n-th set starts at n+1 and, for rho = 1/4, has exactly n elements
    s1 = fam.set_at(1)
    assert [e.re for e in s1] == [2.0]
    s4 = fam.set_at(4)
    assert [e.re for e in s4] == [5.0, 6.0, 7.0, 8.0]

    with pytest.raises(DomainError):
        interval_family(0.0)
    with pytest.raises(DomainError):
        interval_family(1.0)
    with pytest.raises(DomainError):
        interval_family(-0.5)
    with pytest.raises(DomainError):
        fam.set_at(0)


def test_interval_family_distance_closed_form():
    # dist(1, span{x^(n+1), ..., x^(2n)}) = (n+1)/(2n+1) for rho = 1/4
    fam = interval_family(0.25)
    f = PiecewiseMonomial.constant()
    for n in (10, 100, 1000, 10000):
        d = distance(f, fam.set_at(n)).distance
        assert abs(d - (n + 1) / (2 * n + 1)) < 1e-12


def test_muntz_family_nesting_and_exhaustion():
    fam = muntz_family([0.0, 1.0, 2.0, 3.0])
    assert len(fam.set_at(0)) == 1
    assert len(fam.set_at(3)) == 4
    with pytest.raises(DomainError):
        fam.set_at(4)

    gen = muntz_family({"kind": "affine", "a": 2.0, "b": 1.0})
    s2 = gen.set_at(2)
    assert [e.re for e in s2] == [1.0, 3.0, 5.0]


def test_muntz_family_computes_each_term_once(monkeypatch):
    calls, checked = [], []
    term, check = AffineSequence.term, core._check_set

    def counting_check(entries, table=None):
        return check((checked.append(e) or e for e in entries), table)

    monkeypatch.setattr(AffineSequence, "term", lambda self, k: calls.append(k) or term(self, k))
    for module in (core, convergence):  # MonomialSet's check and muntz_family's
        monkeypatch.setattr(module, "_check_set", counting_check)
    fam = muntz_family({"kind": "affine", "a": 1.0})
    curve, _ = distance_curve("chi:0.5", fam, 24)
    assert sorted(calls) == list(range(25))
    # each term was checked once, as it entered; no set was checked whole
    assert checked == [(complex(k), 0) for k in range(25)]
    assert [e.re for e in fam.set_at(3)] == [0.0, 1.0, 2.0, 3.0]  # an earlier n reads the prefix
    f = PiecewiseMonomial.indicator(0.5)
    assert curve[3] == distance(f, MonomialSet([0, 1, 2, 3, 4])).distance
    with pytest.raises(DomainError, match="^sequence exhausted before index 3$"):
        muntz_family({"kind": "geometric", "ratio": 1e200}).set_at(3)


def _fully_checked_family(seq):
    """muntz_family's generator as a per-prefix oracle: every set takes MonomialSet's full check."""
    terms, prefix = core.sequence_terms(core.sequence_from_spec(seq)), []

    def gen(n):
        prefix.extend(itertools.islice(terms, max(0, n + 1 - len(prefix))))
        if len(prefix) < n + 1:
            raise DomainError(f"sequence exhausted before index {n}")
        return MonomialSet(prefix[:max(0, n + 1)])

    return gen


def _set_or_error(gen, n):
    try:
        S = gen(n)
    except DomainError as e:
        return str(e)
    return S.values.tobytes(), S.logpows.tobytes()


@pytest.mark.parametrize("spec", [
    [0.0, 1.0, -0.7, 2.0],
    [0.0, 1.0, 2.0, 1.0, 3.0],
    [[0.0, 1.0], [1.0, 0.0], [-0.0, 1.0]],
    [1.0, 1.0, -0.6, 2.0],
    [2.0, 0.5, -0.5, 0.5],
    {"kind": "affine", "a": 0.0, "b": 1.0},
    {"kind": "affine", "a": -0.3},
    {"kind": "geometric", "ratio": 1.0},
    {"kind": "geometric", "base": -0.4, "ratio": 1.5},
    {"kind": "affine", "a": [0.5, 1.0]},
])
def test_muntz_family_checks_each_term_once_with_the_same_errors(spec):
    # a bad or repeated term raises the error, and at the n, of a full check of every prefix
    for order in (range(-1, 8), (5, 2, 0, 7, 3, 3, 1, 6), (3, -2, 1)):
        gen, oracle = muntz_family(spec).generator, _fully_checked_family(spec)
        assert [_set_or_error(gen, n) for n in order] == [_set_or_error(oracle, n) for n in order]


def test_constant_family():
    S = MonomialSet([1.0, 2.0])
    fam = constant_family(S)
    assert fam.set_at(0) is S
    assert fam.set_at(17) is S


# ---------------------------------------------------------------------------
# Distance curves
# ---------------------------------------------------------------------------


def test_chi_curve_small_n_against_normal_equations():
    # independent route: solve the normal equations directly from the Gram
    # matrix and pairings, instead of going through the packaged solver
    f = PiecewiseMonomial.from_spec("chi:0.5")
    a = 0.5

    def direct_distance(exps):
        G = np.array(
            [[1.0 / (1.0 + si + np.conj(sj)) for sj in exps] for si in exps]
        )
        r = np.array(
            [(1.0 - a ** (1.0 + np.conj(s))) / (1.0 + np.conj(s)) for s in exps]
        )
        c = np.conj(np.linalg.solve(G, np.conj(r)))
        val = (1.0 - a) - float(np.dot(c, np.conj(r)).real)
        return math.sqrt(max(0.0, val))

    fam = interval_family(0.25)
    curve, _ = distance_curve(f, fam, 3)
    for n in range(1, 4):
        exps = [complex(k) for k in range(n + 1, 2 * n + 1)]
        assert curve[n - 1] == pytest.approx(direct_distance(exps), abs=1e-12)

    # worked example by hand for S = {x^2}:
    # r = (1 - 0.5^3)/3 = 0.2916667, G = [[1/5]], c = 5 r,
    # dist^2 = 0.5 - 5 r^2 = 0.07465278
    assert curve[0] == pytest.approx(math.sqrt(0.5 - 5 * (0.875 / 3) ** 2), abs=1e-13)


def test_chi_curve_frozen_values():
    f = PiecewiseMonomial.from_spec("chi:0.5")
    curve, _ = distance_curve(f, interval_family(0.25), 20)
    assert curve[0] == pytest.approx(0.2732, abs=5e-5)
    assert curve[1] == pytest.approx(0.2039, abs=5e-5)
    assert curve[4] == pytest.approx(0.1544, abs=5e-5)
    assert curve[-1] == pytest.approx(0.0752, abs=5e-5)
    assert curve[-1] < curve[0]


def test_nested_family_curve_is_nonincreasing():
    # growing a nested monomial set can only shrink distances
    f = PiecewiseMonomial.from_spec("chi:0.5")
    fam = muntz_family({"kind": "affine", "a": 1.0, "b": 1.0})
    curve, _ = distance_curve(f, fam, 15)
    assert np.all(np.diff(curve) <= 1e-12)


def test_distance_pythagoras_residual():
    # the distance equals the L2 norm of f minus its projection; rebuild the
    # projection coefficients and integrate the residual directly
    f = PiecewiseMonomial.from_spec("chi:0.5")
    exps = [1.0 + 0.0j, 2.0 + 0.0j, 3.0 + 0.0j]
    S = MonomialSet(exps)
    d = distance(f, S).distance

    G = np.array([[1.0 / (1.0 + si + np.conj(sj)) for sj in exps] for si in exps])
    r = np.array([(1.0 - 0.5 ** (1.0 + np.conj(s))) / (1.0 + np.conj(s)) for s in exps])
    c = np.conj(np.linalg.solve(G, np.conj(r)))

    def residual_sq(x):
        fx = 1.0 if x >= 0.5 else 0.0
        px = sum(ck * x ** sk for ck, sk in zip(c, exps))
        return abs(fx - px) ** 2

    val, _ = integrate.quad(residual_sq, 0.0, 1.0, points=[0.5])
    assert d ** 2 == pytest.approx(val, abs=1e-9)


def test_distance_curve_handles_singular_points():
    # an explicit family with a nearly duplicate exponent pair produces a
    # singular Gram matrix; the curve records a gap instead of aborting
    f = PiecewiseMonomial.from_spec("chi:0.5")
    fam = muntz_family([0.0, 1.0, 1e-200, 2.0])
    curve, _ = distance_curve(f, fam, 3)
    assert curve[0] == pytest.approx(0.25, abs=1e-12)
    assert math.isnan(curve[1])
    assert math.isnan(curve[2])


def _per_point_curve(f, seq, n_max, precision="double"):
    """The loop that distance_curve replaced: one core.distance call per point.

    A point whose set object is the previous one repeats that point.
    """
    f = PiecewiseMonomial.from_spec(f)
    dists, conds = np.empty(n_max), np.empty(n_max)
    prev_S = None
    for n in range(1, n_max + 1):
        S = seq.set_at(n)
        if S is not prev_S:
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    res = distance(f, S, precision=precision)
                d, c = res.distance, res.condition_estimate
            except NumericalError:
                d, c = math.nan, math.inf
            prev_S = S
        dists[n - 1], conds[n - 1] = d, c
    return dists, conds


def _oracle_cases():
    """Seeded (family factory, n_max) pairs: interval, muntz and constant families."""
    rng = np.random.default_rng(15)
    for rho in rng.uniform(0.16, 0.5, 3):
        yield (lambda rho=rho: interval_family(float(rho))), int(rng.integers(6, 17))
    a, b = rng.uniform(0.5, 1.5), rng.uniform(0.0, 0.5)
    yield (lambda: muntz_family({"kind": "affine", "a": a, "b": b})), 12
    yield (lambda: muntz_family({"kind": "affine", "a": [0.6, 0.3], "b": 0.1})), 10
    base, ratio = rng.uniform(0.5, 1.5), rng.uniform(1.5, 2.5)
    yield (lambda: muntz_family({"kind": "geometric", "base": base, "ratio": ratio})), 16
    # coinciding nodes: 1e-200 and 0 at every rung, 1e-40 and 0 at 34 digits
    yield (lambda: muntz_family([0, 1, 1e-200, 2])), 3
    yield (lambda: muntz_family([0.5, 1.5, 0, 2.5, 1e-40, 3.5])), 5
    explicit = rng.uniform(-0.4, 6.0, 9).tolist()
    yield (lambda: muntz_family(explicit)), 8
    S = MonomialSet(np.sort(rng.uniform(0.0, 8.0, 6)))
    yield (lambda: constant_family(S)), 5
    # prefixes that shrink, repeat by value (new objects) and grow again: 4, 3, 2, 1, 1, 1, 2, 3
    vals = rng.uniform(0.0, 5.0, 4).tolist()
    yield (lambda: SubspaceSequence(lambda n: MonomialSet(vals[:max(1, abs(5 - n))]))), 8
    yield (lambda: constant_family(MonomialSet([0.5, 0.5, 2.0], [0, 1, 0]))), 4
    # a confluent set repeated by value (new objects), then logpow-0 sets on its value prefix
    a, b = rng.uniform(0.0, 5.0, 2).tolist()
    yield (lambda: SubspaceSequence(lambda n: MonomialSet([a, a, b], [0, 1, 0]) if n <= 3
                                    else MonomialSet([a, b][:n - 3]))), 5


_ORACLE_TARGETS = (
    "chi:0.37",
    "const",
    "monomial:0.7,1.3",
    {"terms": [{"coeff": [1.0, 0.5], "t": [0.3, 0.0], "a": 0.25, "logpow": 1},
               {"coeff": [-2.0, 0.0], "t": [1.5, 0.2], "a": 0.0},
               {"coeff": [0.5, 0.0], "t": [0.0, 0.0], "a": 0.6}]},
)


@pytest.mark.parametrize("precision", ["double", "extended"])
@pytest.mark.parametrize("f", _ORACLE_TARGETS, ids=["chi", "const", "monomial", "terms"])
def test_distance_curve_matches_the_per_point_loop(f, precision):
    for family, n_max in _oracle_cases():
        d, c = distance_curve(f, family(), n_max, precision=precision)
        d_ref, c_ref = _per_point_curve(f, family(), n_max, precision)
        assert np.array_equal(d, d_ref, equal_nan=True), (family().description, d, d_ref)
        assert np.array_equal(c, c_ref, equal_nan=True), (family().description, c, c_ref)


def test_closed_form_point_past_the_float_range_is_nan():
    # a product past the float range fails its point, as a failed solve does, and the next
    # node brings the product back into range
    f = {"terms": [{"coeff": 1e308, "t": -0.45}]}
    d, c = distance_curve(f, muntz_family([2.0, 3.0, -0.449]), 2)
    assert np.isnan(d[0]) and c[0] == math.inf
    assert math.isfinite(d[1]) and c[1] == 1.0
    d_ref, c_ref = _per_point_curve(f, muntz_family([2.0, 3.0, -0.449]), 2)
    assert np.array_equal(d, d_ref, equal_nan=True) and np.array_equal(c, c_ref)


def test_distance_curve_keeps_the_size_limit_error():
    # a non-monomial muntz curve fails where its set passes 64 entries, as the loop did
    for curve in (distance_curve, _per_point_curve):
        with pytest.raises(SizeLimitError, match="^monomial set has 65 entries, limit is 64$"):
            curve("chi:0.5", muntz_family({"kind": "affine", "a": 1.0}), 70)


def test_curve_sizes_are_capped_before_anything_is_built():
    # rho = 1e-320 asked numpy for 1e160 entries; rho = 1e-12 built sets of 1e6 and 2e6
    for rho, n in ((1e-320, 1), (1e-12, 1), (1 / 33**2, 1025)):
        with pytest.raises(SizeLimitError, match=f"^the interval set at n = {n} holds"):
            interval_family(rho).set_at(n)
    assert len(interval_family(1 / 33**2).set_at(1024)) == 2**15
    # the cap reads the rounded size: ratio * n = 32768.25 builds exactly 2^15 entries
    assert len(interval_family(1 / 32769.25**2).set_at(1)) == 2**15
    with pytest.raises(SizeLimitError, match="^the interval set at n = 1 holds 999999 entries, limit is 2\\^15$"):
        interval_family(1e-12).set_at(1)
    with pytest.raises(SizeLimitError, match="^a curve of 1025 points exceeds the limit 1024$"):
        distance_curve("const", constant_family([1.0]), 1025)


def test_interval_curve_pairs_f_once_per_node_and_precision(monkeypatch):
    calls = []
    pairing = PiecewiseMonomial.pairing

    def counted(self, s, logpow=0):  # a rung's precision is its decimal context's
        calls.append((s, logpow, decimal.getcontext().prec))
        return pairing(self, s, logpow)

    monkeypatch.setattr(PiecewiseMonomial, "pairing", counted)
    fam = interval_family(0.2)
    d, _ = distance_curve("chi:0.4", fam, 10, precision="extended")
    assert len(calls) == len(set(calls))
    assert {s for s, _, _ in calls} == {s for n in range(1, 11) for s in fam.set_at(n).values.tolist()}
    per_point = len(calls)
    calls.clear()
    d_ref, _ = _per_point_curve("chi:0.4", fam, 10, "extended")
    assert np.array_equal(d, d_ref)
    assert len(calls) > 2 * per_point  # the loop paired every node of every point at every rung


def test_nested_curve_runs_one_schur_pass_per_rung(monkeypatch):
    passes = []
    rung = core._schur_rung
    monkeypatch.setattr(core, "_schur_rung", lambda S, memo, end: passes.append(
        decimal.getcontext().prec) or rung(S, memo, end))
    fam = muntz_family({"kind": "affine", "a": 1.0, "b": 0.5})
    d, _ = distance_curve("chi:0.5", fam, 12, precision="extended")
    assert len(passes) >= 2
    assert passes == sorted(set(passes))  # one pass per rung, rungs in ladder order
    rungs = len(passes)
    passes.clear()
    d_ref, _ = _per_point_curve("chi:0.5", fam, 12, "extended")
    assert np.array_equal(d, d_ref)
    assert len(passes) >= 12 * 2 > rungs


def test_distance_curve_with_conditions():
    f = PiecewiseMonomial.constant()
    fam = interval_family(0.25)
    dists, conds = distance_curve(f, fam, 5)
    assert len(dists) == 5 and len(conds) == 5
    # single-monomial targets ride the closed-form product, condition 1
    assert all(c == pytest.approx(1.0) for c in conds)

    chi = PiecewiseMonomial.from_spec("chi:0.5")
    _, conds2 = distance_curve(chi, fam, 5)
    assert all(c >= 1.0 for c in conds2)

    with pytest.raises(DomainError):
        distance_curve(f, fam, 0)


# ---------------------------------------------------------------------------
# Limit membership verdicts
# ---------------------------------------------------------------------------


def test_verdict_in_limit():
    # chi_[1/2,1] is supported inside [1/4, 1], so it lies in the limit
    f = PiecewiseMonomial.from_spec("chi:0.5")
    rep = limit_membership_test(f, interval_family(0.25), 20)
    assert isinstance(rep, ConvergenceReport)
    assert rep.verdict == "in-limit"
    assert rep.fitted_limit < 0.05


def test_verdict_not_in_limit():
    # the constant function keeps mass on [0, 1/4); its distance settles at 1/2
    f = PiecewiseMonomial.constant()
    rep = limit_membership_test(f, interval_family(0.25), 60)
    assert rep.verdict == "not-in-limit"
    assert rep.fitted_limit == pytest.approx(0.5, abs=5e-3)


def test_verdict_undetermined_short_curve():
    f = PiecewiseMonomial.from_spec("chi:0.5")
    rep = limit_membership_test(f, interval_family(0.25), 5)
    assert rep.verdict == "undetermined"


def test_verdict_all_gaps():
    f = PiecewiseMonomial.from_spec("chi:0.5")
    fam = muntz_family([0.0, 1e-200, 2e-200, 1.0])
    rep = limit_membership_test(f, fam, 3)
    assert rep.verdict == "undetermined"
    assert math.isnan(rep.fitted_limit)


def test_limit_membership_rejects_bad_tol():
    f = PiecewiseMonomial.constant()
    with pytest.raises(DomainError):
        limit_membership_test(f, interval_family(0.25), 10, tol=0.0)


# ---------------------------------------------------------------------------
# Density experiments
# ---------------------------------------------------------------------------


def test_muntz_experiment_agreement_dense():
    f = PiecewiseMonomial.from_spec("monomial:0.5")
    with warnings.catch_warnings():
        warnings.simplefilter("error", ConvergenceWarning)
        report = muntz_limit_experiment({"kind": "affine", "a": 1.0, "b": 0.0}, f, 60)
    assert report.density_verdict == "dense"
    assert report.verdict == "in-limit"
    assert report.agreement is True


def test_muntz_experiment_agreement_not_dense():
    f = PiecewiseMonomial.from_spec("monomial:0.5")
    with warnings.catch_warnings():
        warnings.simplefilter("error", ConvergenceWarning)
        report = muntz_limit_experiment(
            {"kind": "geometric", "base": 1.0, "ratio": 2.0}, f, 35
        )
    assert report.density_verdict == "not-dense"
    assert report.verdict == "not-in-limit"
    assert report.agreement is True
    # the limiting distance is strictly positive and already pinned down
    assert report.fitted_limit > 0.02


def test_muntz_experiment_disagreement_warns():
    # exponents drifting up the vertical line Re s = 0.01 k: symbolically
    # dense, but the curve is still nearly flat at this horizon, so the
    # analytic and observed verdicts clash and the clash must be flagged
    f = PiecewiseMonomial.from_spec("monomial:0.5")
    with pytest.warns(ConvergenceWarning):
        report = muntz_limit_experiment(
            {"kind": "affine", "a": [0.01, 1.0], "b": 0.0}, f, 40
        )
    assert report.density_verdict == "dense"
    assert report.verdict == "not-in-limit"
    assert report.agreement is False


def test_muntz_experiment_explicit_list():
    f = PiecewiseMonomial.from_spec("monomial:0.5")
    report = muntz_limit_experiment([float(k) for k in range(64)], f, 40)  # a full tail window
    assert report.density_verdict == "dense"
    assert report.distances[-1] < report.distances[0]


def test_subspace_sequence_description():
    fam = SubspaceSequence(
        generator=lambda n: MonomialSet([float(n)]),
        description="singletons",
    )
    assert fam.description == "singletons"
    assert fam.set_at(3).values[0] == pytest.approx(3.0)
