import json
import math
import warnings

import mpmath as mp
import numpy as np
import pytest
import scipy.integrate

import monospan.core as core
from monospan import (
    AffineSequence,
    DomainError,
    Exponent,
    GeometricSequence,
    IllConditioningWarning,
    MonomialSet,
    NumericalError,
    PiecewiseMonomial,
    SizeLimitError,
    WrongCriterionError,
    as_exponent,
    distance_to_span,
    gram_build,
    interval_family,
    monomial_distance_closed_form,
    monomial_inner,
    muntz_family,
    muntz_verdict,
    sequence_from_spec,
)


monomial = PiecewiseMonomial.monomial


def random_exponents(rng, n, logpow_max=0):
    out = []
    for _ in range(n):
        re = rng.uniform(-0.45, 3.0)
        im = rng.uniform(-3.0, 3.0)
        lp = int(rng.integers(0, logpow_max + 1))
        out.append(Exponent(re, im, lp))
    return out


# --- exponent and set validation ---------------------------------------------


def test_exponent_half_plane():
    Exponent(-0.49)
    with pytest.raises(DomainError):
        Exponent(-0.5)
    with pytest.raises(DomainError):
        Exponent(-1.0, 2.0)
    with pytest.raises(DomainError):
        Exponent(math.nan)
    with pytest.raises(DomainError):
        Exponent(0.0, math.inf)


def test_exponent_logpow():
    assert Exponent(1.0, 0.0, 3).logpow == 3
    with pytest.raises(DomainError):
        Exponent(1.0, 0.0, -1)
    with pytest.raises(DomainError):
        Exponent(1.0, 0.0, 1.5)


def test_monomial_set_rejects_duplicates():
    with pytest.raises(DomainError):
        MonomialSet.from_exponents([1.0, 1.0])


def test_monomial_set_log_contiguity():
    MonomialSet([1, 1, 1], [0, 1, 2])
    with pytest.raises(DomainError):
        MonomialSet([1, 1], [0, 2])
    with pytest.raises(DomainError):
        MonomialSet([1], [1])


def assert_same_sets(S, T):
    """Equal log powers and exponents, with the sign of every zero part."""
    assert np.array_equal(S.logpows, T.logpows)
    # array_equal treats -0.0 as 0.0, so compare the signs of the parts too
    assert np.array_equal(S.values, T.values)
    assert np.array_equal(np.signbit(S.values.real), np.signbit(T.values.real))
    assert np.array_equal(np.signbit(S.values.imag), np.signbit(T.values.imag))


def test_monomial_set_json_round_trip():
    S = MonomialSet.from_exponents([0, 1j, Exponent(0.5, -2.0, 0), Exponent(-0.0, 2.0),
                                    Exponent(2.0, -0.0, 0), Exponent(2.0, -0.0, 1)])
    T = MonomialSet.from_json(json.loads(json.dumps(S.to_json())))
    assert_same_sets(S, T)
    assert list(np.signbit(T.values.real)) == [False, False, False, True, False, False]
    assert list(np.signbit(T.values.imag)) == [False, False, True, False, True, True]
    assert T.logpows.tolist() == [0, 0, 0, 0, 0, 1]


_NAN, _INF = math.nan, math.inf


# (entries as (re, im, logpow), message of the array and Exponent routes, message of from_json)
_BAD_SETS = [
    ([(1.0, 0.0, 0), (_NAN, 0.0, 0)], "exponent components must be finite, got nan+0.0j",
     "exponent re must be finite, got nan"),
    ([(0.0, _INF, 0)], "exponent components must be finite, got 0.0+infj",
     "exponent im must be finite, got inf"),
    ([(1.0, 0.0, 0), (-0.5, 1.0, 0)],
     "exponent -0.5+1.0j lies outside the half-plane Re s > -1/2", None),
    ([(-0.7, 0.0, 0)], "exponent -0.7+0.0j lies outside the half-plane Re s > -1/2", None),
    ([(1.0, 0.0, -1)], "logpow must be a nonnegative integer, got -1", None),
    ([(1.0, 0.0, 0), (2.0, 0.0, 1.5)], "logpow must be a nonnegative integer, got 1.5",
     "exponent logpow must be an integer, got 1.5"),
    ([(1.0, 0.0, 0), (2.0, 0.0, 0), (1.0, 0.0, 0)],
     "duplicate exponent entry (s=(1+0j), logpow=0)", None),
    ([(-0.0, 1.0, 0), (0.0, 1.0, 0)], "duplicate exponent entry (s=1j, logpow=0)", None),
    ([(1.0, 0.0, 0), (1.0, 0.0, 2)],
     "log powers for s=1.0+0.0j must be contiguous from 0, got [0, 2]", None),
    ([(5.0, 0.0, 2), (1.0, 0.0, 1)],
     "log powers for s=5.0+0.0j must be contiguous from 0, got [2]", None),
    ([(2.0, 0.0, 1), (2.0, 0.0, 0), (-0.0, 3.0, 1), (0.0, 3.0, 2)],
     "log powers for s=-0.0+3.0j must be contiguous from 0, got [1, 2]", None),
]


@pytest.mark.parametrize("entries, message, json_message", _BAD_SETS)
def test_monomial_set_validation_is_the_same_on_every_route(entries, message, json_message):
    values = [complex(re, im) for re, im, _ in entries]
    logpows = [k for _, _, k in entries]
    with pytest.raises(DomainError) as exc:
        MonomialSet(values, logpows)
    assert str(exc.value) == message
    with pytest.raises(DomainError) as exc:
        MonomialSet.from_exponents([Exponent(re, im, k) for re, im, k in entries])
    assert str(exc.value) == message
    payload = {"exponents": [{"re": re, "im": im, "logpow": k} for re, im, k in entries]}
    with pytest.raises(DomainError) as exc:
        MonomialSet.from_json(payload)
    assert str(exc.value) == (json_message or message)


def test_monomial_set_errors_keep_entry_order():
    # an entry's own error comes before a later entry's field error and before set errors
    payload = {"exponents": [{"re": 1.0}, {"re": 1.0}, {"re": -1.0}, {"re": "x"}]}
    with pytest.raises(DomainError, match=r"^exponent -1\.0\+0\.0j lies outside"):
        MonomialSet.from_json(payload)
    with pytest.raises(DomainError, match="^exponent re must be a real number"):
        MonomialSet.from_json({"exponents": [{"re": 1.0}, {"re": 1.0}, {"re": "x"}]})
    with pytest.raises(DomainError, match="^duplicate exponent entry"):
        MonomialSet([1.0, 1.0, 2.0], [0, 0, 0])
    # whole floats are log powers, as in JSON; 1.5 is not read as 1
    assert MonomialSet([1.0, 1.0], np.array([0.0, 1.0])).logpows.tolist() == [0, 1]
    with pytest.raises(DomainError, match=r"^logpow must be a nonnegative integer, got 1\.5$"):
        MonomialSet([1.0, 1.0], np.array([0.0, 1.5]))
    with pytest.raises(DomainError, match="^values and logpows need one 1-D shape"):
        MonomialSet([1.0, 2.0], [0])


def test_infinite_logpow_raises_without_a_runtime_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for k in (math.inf, -math.inf, math.nan):
            with pytest.raises(DomainError, match=f"^logpow must be a nonnegative integer, got {k}$"):
                MonomialSet([1.0], [k])


# --- inner products against direct quadrature --------------------------------


def quad_inner(a, b):
    """<m_a, m_b> by direct real/imag quadrature, the slow independent route."""
    ea, eb = as_exponent(a), as_exponent(b)

    def f(x):
        return (
            x ** ea.s
            * np.log(x) ** ea.logpow
            * np.conj(x**eb.s * np.log(x) ** eb.logpow)
        )

    re, _ = scipy.integrate.quad(lambda x: f(x).real, 0, 1, limit=400)
    im, _ = scipy.integrate.quad(lambda x: f(x).imag, 0, 1, limit=400)
    return complex(re, im)


def test_monomial_set_values_and_confluent_equal_entry_scans():
    zeros = [Exponent(-0.0, 1.0), Exponent(0.5, -0.0), Exponent(-0.0, -2.0), Exponent(1.0, 2.0)]
    rng = np.random.default_rng(3)
    entry_lists = [[], zeros, *(random_exponents(rng, n) for n in (1, 5, 40)),
                   [Exponent(0.5), Exponent(0.5, 0.0, 1), Exponent(-0.0, 1.0)]]
    sets = [MonomialSet.from_exponents(entries) for entries in entry_lists]
    for entries, S in zip(entry_lists, sets):
        assert S.confluent == any(e.logpow != 0 for e in entries)
        assert len(S) == len(entries) and list(S) == entries
        values = np.array([e.s for e in entries], dtype=complex)
        assert_same_sets(S, MonomialSet(values, [e.logpow for e in entries]))
        assert np.array_equal(np.signbit(S.values.real), np.signbit(values.real))
        assert np.array_equal(np.signbit(S.values.imag), np.signbit(values.imag))
        for a in (S.values, S.logpows):
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[:1] = 0
    assert list(np.signbit(sets[1].values.real)) == [True, False, True, False]
    assert list(np.signbit(sets[1].values.imag)) == [False, True, True, False]
    assert sets[-1].confluent and not sets[-2].confluent
    # the constructor copies its input, and sets compare by identity
    values = np.array([1.0, 2.0])
    S = MonomialSet(values)
    values[0] = 5.0
    assert S.values.tolist() == [1.0, 2.0] and S.values.dtype == complex
    assert S == S and S != MonomialSet([1.0, 2.0])


def test_inner_product_basics():
    assert monomial_inner(0, 0) == 1.0
    assert abs(monomial_inner(1, 0) - 0.5) < 1e-15
    # conjugation sits on the second slot
    assert abs(monomial_inner(1j, 0) - 1 / (1 + 1j)) < 1e-15
    assert abs(monomial_inner(0, 1j) - 1 / (1 - 1j)) < 1e-15


def test_inner_product_hermitian_symmetry():
    rng = np.random.default_rng(7)
    for a, b in zip(random_exponents(rng, 25, 2), random_exponents(rng, 25, 2)):
        assert abs(monomial_inner(a, b) - np.conj(monomial_inner(b, a))) < 1e-14


def test_inner_product_matches_quadrature():
    rng = np.random.default_rng(11)
    for a, b in zip(random_exponents(rng, 12, 1), random_exponents(rng, 12, 1)):
        lhs = monomial_inner(a, b)
        rhs = quad_inner(a, b)
        assert abs(lhs - rhs) < 1e-7 * (1 + abs(lhs))


def test_log_power_inner():
    # <ln x, ln x> = 2, <x (ln x)^1, x^1> = -1/(2)^2... spelled out:
    assert abs(monomial_inner(Exponent(0, 0, 1), Exponent(0, 0, 1)) - 2.0) < 1e-15
    assert abs(monomial_inner(Exponent(1, 0, 1), Exponent(1, 0, 0)) + 1 / 9) < 1e-15


# --- Gram systems -------------------------------------------------------------


def test_gram_two_point_example():
    g = gram_build([0, 1j])
    expect = np.array([[1, 1 / (1 - 1j)], [1 / (1 + 1j), 1]])
    assert np.max(np.abs(g.matrix - expect)) < 1e-15
    assert g.condition_estimate > 1.0


def test_gram_hermitian_psd():
    rng = np.random.default_rng(23)
    for _ in range(40):
        n = int(rng.integers(1, 7))
        exps = []
        seen = set()
        while len(exps) < n:
            e = random_exponents(rng, 1)[0]
            if (e.re, e.im) not in seen:
                seen.add((e.re, e.im))
                exps.append(e)
        G = gram_build(exps).matrix
        assert np.max(np.abs(G - G.conj().T)) < 1e-14
        w = np.linalg.eigvalsh(G)
        assert w.min() > -1e-12 * max(1.0, w.max())


def test_gram_entries_keep_the_scalar_closed_form_bits():
    # numpy's complex division differs from CPython's in the last bit on about
    # one pair in four, and the ill-conditioned solves would carry that bit on
    rng = np.random.default_rng(29)
    sets = [MonomialSet(rng.uniform(-0.45, 3.0, n) + 1j * rng.uniform(-3.0, 3.0, n))
            for n in (1, 8, 30, 64)]
    for _ in range(4):  # confluent: each s carries log powers 0..m-1
        s = rng.uniform(-0.45, 3.0, 6) + 1j * rng.uniform(-3.0, 3.0, 6)
        m = rng.integers(1, 5, 6)
        sets.append(MonomialSet(np.repeat(s, m), [k for mi in m for k in range(mi)]))
    assert sets[-1].confluent
    for S in sets:
        G = gram_build(S).matrix
        es = list(S)
        for i, a in enumerate(es):
            for j, b in enumerate(es):
                # the upper triangle is the closed form, the lower one its mirror
                want = monomial_inner(a, b) if j >= i else np.conj(G[j, i])
                assert G[i, j] == want and np.signbit(G[i, j].imag) == np.signbit(want.imag)


def test_gram_size_limit():
    with pytest.raises(SizeLimitError):
        gram_build(list(range(0, 70)))
    with pytest.raises(DomainError):
        gram_build([])


# --- distances ----------------------------------------------------------------


def test_distance_x_to_constants():
    r = distance_to_span(monomial(1), [0])
    assert abs(r.distance - 1 / (2 * math.sqrt(3))) < 1e-12
    assert r.precision == "double"


def test_distance_x_squared_to_linear_span():
    r = distance_to_span(monomial(2), [0, 1])
    expect = 1 / (6 * math.sqrt(5))
    assert abs(r.distance - expect) < 1e-12
    assert abs(monomial_distance_closed_form(2, [0, 1]) - expect) < 1e-15


def test_distance_member_is_zero():
    r = distance_to_span(monomial(1), [0, 1, 2])
    assert r.distance < 1e-7
    assert monomial_distance_closed_form(1, [0, 1, 2]) == 0.0


def test_constant_gap_formula():
    # dist(1, span{x^(n+1), ..., x^(2n)}) = (n+1)/(2n+1)
    for n in (1, 2, 5, 40, 1000):
        S = list(range(n + 1, 2 * n + 1))
        d = monomial_distance_closed_form(0, S)
        assert abs(d - (n + 1) / (2 * n + 1)) < 1e-12


def test_closed_form_matches_gram_solve():
    rng = np.random.default_rng(101)
    for _ in range(60):
        n = int(rng.integers(1, 6))
        exps = []
        seen = set()
        while len(exps) < n + 1:
            e = random_exponents(rng, 1)[0]
            if (e.re, e.im) not in seen:
                seen.add((e.re, e.im))
                exps.append(e)
        t, S = exps[0], exps[1:]
        direct = monomial_distance_closed_form(t, S)
        r = distance_to_span(monomial(t), S, precision="extended")
        assert abs(direct - r.distance) < 1e-8 * (1 + direct)


def test_distance_monotone_in_set():
    rng = np.random.default_rng(5)
    t = Exponent(0.7, 1.3)
    S: list = []
    prev = math.inf
    for e in random_exponents(rng, 6):
        if any((e.re, e.im) == (x.re, x.im) for x in S):
            continue
        S.append(e)
        d = monomial_distance_closed_form(t, S)
        assert d <= prev + 1e-15
        prev = d


def test_extended_precision_recovers_ill_conditioned_gap():
    S = list(range(31, 61))
    with pytest.warns(IllConditioningWarning):
        r = distance_to_span(monomial(0), S)
    assert r.precision.startswith("extended")
    assert abs(r.distance - 31 / 61) < 1e-10


def _schur_test_sets(rng):
    """Seeded logpow-0 sets of at most 24 exponents: spread, clustered, near Re s = -1/2."""
    for i in range(51):
        n = int(rng.integers(2, 25))
        if i % 3 == 0:
            z = rng.uniform(-0.45, 3.0, n) + 1j * rng.uniform(-3.0, 3.0, n)
        elif i % 3 == 1:
            c = complex(rng.uniform(0.0, 2.0), rng.uniform(-1.0, 1.0))
            z = c + rng.uniform(0.0, 0.05, n) + 1j * rng.uniform(-0.05, 0.05, n)
        else:
            z = -0.5 + 10 ** rng.uniform(-6.0, -1.0, n) + 1j * rng.uniform(-0.3, 0.3, n)
        yield MonomialSet.from_exponents(z)


def _lu_rung(S, f):
    """Reference for core._schur_rung: d^2 = ||f||^2 - q by an mpmath LU solve, O(n^3)."""
    s, k = S.values.tolist(), S.logpows.tolist()
    n = len(s)
    G = mp.matrix(n, n)
    for i in range(n):
        for j in range(n):
            # normal-equation matrix: row i pairs against m_i, i.e. A[i,j] = <m_j, m_i>
            G[i, j] = core.cauchy_moment(s[j], s[i], k[j] + k[i])
    r = mp.matrix([mp.mpc(f.pairing(*e)) for e in zip(s, k)])
    c = mp.lu_solve(G, r)
    q = mp.re(sum(mp.conj(c[i]) * r[i] for i in range(n)))
    return f.norm_sq - q


def test_schur_recursion_matches_lu_solve():
    # the extended route on logpow-0 sets is the Schur recursion; the LU rung
    # at 150 digits is the independent oracle (at the precision the ladder
    # accepted, LU keeps fewer digits than the recursion it checks)
    rng = np.random.default_rng(7)
    for S in _schur_test_sets(rng):
        f = PiecewiseMonomial.indicator(rng.uniform(0.2, 0.8))
        r = distance_to_span(f, S, precision="extended")
        with mp.workdps(150):
            d_lu = float(mp.sqrt(_lu_rung(S, f)))
        assert abs(r.distance - d_lu) <= 1e-12 * d_lu + 1e-15


def _confluent_test_sets(rng):
    """Seeded sets of 1 to 5 nodes with log powers 0..3 in shuffled order, and a target for each.

    The targets take turns: a monomial with a log power, an indicator, and a
    cut log-monomial plus a complex monomial.
    """
    for i in range(120):
        nodes = int(rng.integers(1, 6))
        imag = rng.uniform(-2.0, 2.0, nodes) * (rng.random(nodes) < 0.6)
        z = rng.uniform(-0.4, 3.0, nodes) + 1j * imag
        m = rng.integers(1, 5, nodes)
        order = rng.permutation(int(m.sum()))
        S = MonomialSet(np.repeat(z, m)[order], np.concatenate([np.arange(k) for k in m])[order])
        if i % 3 == 0:
            t = Exponent(rng.uniform(-0.4, 3.0), rng.uniform(-1.0, 1.0), int(rng.integers(0, 3)))
            f = monomial(t)
        elif i % 3 == 1:
            f = PiecewiseMonomial.indicator(rng.uniform(0.1, 0.9))
        else:
            c = complex(rng.normal(), rng.normal())
            cut = (c, Exponent(rng.uniform(0.0, 2.0)), rng.uniform(0.0, 0.8), int(rng.integers(0, 3)))
            f = PiecewiseMonomial((cut, (1.0, Exponent(rng.uniform(0.0, 2.0), rng.uniform(-1.0, 1.0)), 0.0)))
        yield S, f


def test_confluent_schur_recursion_matches_lu_solve():
    # sets with log powers take the same recursion on Taylor data; the LU rung
    # at 100 digits is the oracle (at the accepted precision it can lose the
    # digits that the recursion keeps)
    rng = np.random.default_rng(11)
    confluent = 0
    for S, f in _confluent_test_sets(rng):
        confluent += S.confluent
        r = distance_to_span(f, S, precision="extended")
        with mp.workdps(100):
            d_lu = float(mp.sqrt(_lu_rung(S, f)))
        assert r.distance == pytest.approx(d_lu, rel=1e-12, abs=0)
    assert confluent >= 100


def test_schur_recursion_clustered_set_distance():
    # the LU ladder raised NumericalError here, and a clamped-rung ladder
    # returned 0.0; dps 80..320 all give this value
    f = PiecewiseMonomial.indicator(0.5)
    S = [1 + 0.05 * k for k in range(60)]
    r = distance_to_span(f, S, precision="extended")
    assert r.distance == pytest.approx(0.08354365814623856, rel=1e-12)


@pytest.mark.parametrize("t, n", [(0.3, 20), (4.225, 64)])
def test_extended_norm_keeps_closed_form_digits(t, n):
    # d^2 = ||f||^2 - q cancels to 1e-16 and 1e-102 of ||f||^2; a double
    # norm gave 1.5716e-08 and 2.17e-10 here
    S = [1 + 0.05 * k for k in range(n)]
    r = distance_to_span(monomial(t), S, precision="extended")
    assert r.distance == pytest.approx(monomial_distance_closed_form(t, S), rel=1e-12, abs=0)


def test_extended_distances_match_closed_form_down_to_1e_40():
    # clusters of up to 32 exponents around t put the distance anywhere in
    # 1e-4 .. 3e-47; each must keep its relative accuracy
    rng = np.random.default_rng(3)
    smallest = math.inf
    for _ in range(40):
        n = int(rng.integers(4, 33))
        c = complex(rng.uniform(0.0, 2.0), rng.uniform(-1.0, 1.0))
        S = c + rng.uniform(-0.25, 0.25, n) + 1j * rng.uniform(-0.25, 0.25, n)
        t = c + complex(rng.uniform(-0.2, 0.2), rng.uniform(-0.2, 0.2))
        closed = monomial_distance_closed_form(t, S)
        r = distance_to_span(monomial(t), S, precision="extended")
        assert r.distance == pytest.approx(closed, rel=1e-12, abs=0)
        smallest = min(smallest, closed)
    assert smallest < 1e-40


def test_confluent_extended_distance_matches_cholesky_reference():
    # x^t ln x against x^v and x^v ln x for six v: the Gram system is solved
    # here by an mpmath Cholesky at 100 digits, with ||x^t ln x||^2 = 2/(1+2t)^3
    t = 0.869042
    S = MonomialSet.from_exponents([Exponent(v, 0.0, k)
                                    for v in (0.0, 0.909235, 1.95931, 3.33205, 4.85293, 5.92633)
                                    for k in (0, 1)])
    with mp.workdps(100):
        def inner(a, j, b, k):  # <x^a (ln x)^j, x^b (ln x)^k> for real a, b
            return (-1) ** (j + k) * mp.factorial(j + k) / (1 + mp.mpf(a) + mp.mpf(b)) ** (j + k + 1)

        G = mp.matrix([[inner(a.re, a.logpow, b.re, b.logpow) for b in S] for a in S])
        rhs = mp.matrix([inner(t, 1, e.re, e.logpow) for e in S])
        q = (rhs.T * mp.cholesky_solve(G, rhs))[0]
        expect = float(mp.sqrt(2 / (1 + 2 * mp.mpf(t)) ** 3 - q))
    with pytest.warns(IllConditioningWarning):
        r = distance_to_span(monomial(Exponent(t, 0.0, 1)), S)
    assert r.distance == pytest.approx(expect, rel=1e-12, abs=0)
    assert expect == pytest.approx(4.0159501959515e-06, rel=1e-12, abs=0)


def test_logpow0_extended_solve_builds_no_matrix(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the extended route must not build a Gram matrix")

    monkeypatch.setattr(mp, "matrix", forbidden)
    monkeypatch.setattr(mp, "lu_solve", forbidden)
    r = distance_to_span(monomial(0), range(31, 61), precision="extended")
    assert abs(r.distance - 31 / 61) < 1e-10
    # a set with log powers takes the same recursion
    S, f = MonomialSet([1.0, 1.0, 2.0, 2.0, 2.0], [1, 0, 2, 0, 1]), monomial(Exponent(0.5, 0.0, 1))
    r = distance_to_span(f, S, precision="extended")
    monkeypatch.undo()
    with mp.workdps(50):
        assert r.distance == pytest.approx(float(mp.sqrt(_lu_rung(S, f))), rel=1e-12, abs=0)


def test_clamped_rungs_do_not_agree(monkeypatch):
    def rung_from(d2_by_dps):
        return lambda S, memo, end: [mp.mpf(d2_by_dps[mp.mp.dps])] * end  # d^2 of every prefix

    # every rung clamps: no distance is supported, so no 0.0 is returned
    clamped = dict.fromkeys((34, 50, 80, 120, 160), -1e-40)
    monkeypatch.setattr(core, "_schur_rung", rung_from(clamped))
    with pytest.raises(NumericalError):
        distance_to_span(monomial(0), [1, 2], precision="extended")
    # a clamped rung does not pair with the next one; two positive rungs do
    monkeypatch.setattr(core, "_schur_rung", rung_from({34: 0.25, 50: 0.0, 80: 0.25, 120: 0.25}))
    r = distance_to_span(monomial(0), [1, 2], precision="extended")
    assert (r.distance, r.precision) == (0.5, "extended(dps=120)")


_REAL_MOMENT = core.cauchy_moment


def _complex_moment(t, s, m=0, a=0.0, c=1):
    """cauchy_moment with every extended-precision operand lifted to mpc, real data too."""
    if mp.mp.dps <= 25:
        return _REAL_MOMENT(t, s, m, a, c)
    p, c = 1 + mp.mpc(t.real, t.imag) + mp.mpc(s.real, -s.imag), mp.mpc(c)
    if a == 0.0:
        return c * (-1) ** m * mp.factorial(m) / p ** (m + 1)
    ap = mp.power(a, p)
    acc = c * (1 - ap) / p
    for k in range(1, m + 1):
        acc = -(c * ap * mp.log(a) ** k + k * acc) / p
    return acc


def _complex_node(memo, z, m):
    """_Memo.node with w and every F_j an mpc, real data too."""
    w, F = memo._once(("node", mp.mp.prec, z, m), lambda: (
        mp.mpc(mp.mpf(z.real) + mp.mpf(1) / 2, -mp.mpf(z.imag)),
        [mp.mpc(memo.pairing(z))]
        + [mp.mpc(memo.pairing(z, j)) / math.factorial(j) for j in range(1, m)]))
    return w, list(F)


@pytest.fixture
def complex_path(monkeypatch):
    """Calls fn(*args) with all extended data held as mpc, the oracle for the real path."""
    def run(fn, *args, **kwargs):
        with monkeypatch.context() as m:
            m.setattr(core, "cauchy_moment", _complex_moment)
            m.setattr(core._Memo, "node", _complex_node)
            return fn(*args, **kwargs)

    return run


def _real_oracle_cases():
    """Seeded real sets and targets: interval sets, nested muntz chains and large spaced sets."""
    rng = np.random.default_rng(16)
    chains = []
    for rho in rng.uniform(0.16, 0.5, 3):
        chains.append([interval_family(float(rho)).set_at(n) for n in range(1, 17)])
    for spec in ({"kind": "affine", "a": rng.uniform(0.5, 2.0), "b": rng.uniform(0.0, 1.0)},
                 {"kind": "geometric", "base": rng.uniform(0.5, 1.5), "ratio": rng.uniform(1.5, 2.5)}):
        chains.append([muntz_family(spec).set_at(n) for n in range(1, 21)])
    for size in (24, 28, 32):
        gaps = rng.uniform(0.5, 1.0, size)
        chains.append([MonomialSet(np.cumsum(gaps) - gaps[0])])
    targets = [PiecewiseMonomial.from_spec(f"chi:{rng.uniform(0.2, 0.8)!r}"), PiecewiseMonomial.constant(),
               PiecewiseMonomial(((1.0, Exponent(rng.uniform(0.1, 2.0)), 0.0, 2),))]
    return chains, targets


def test_real_rung_matches_the_complex_path(complex_path):
    # real data runs the rung in mpf, and the all-mpc arithmetic is the oracle.
    # The rung amplifies rounding by up to 1e20 units in the last place of
    # ||f||^2 on these sets, on both paths alike: each prefix's two d^2 agree
    # within a few units plus a few times the complex path's own error, and
    # over a chain the real path's worst error is within twice the complex
    # path's.  The 120-digit rung measures the errors
    chains, targets = _real_oracle_cases()
    for chain in chains:
        longest = chain[-1]
        for f in targets:
            with mp.workdps(120):
                ref = complex_path(core._schur_rung, longest, core._Memo(f))
            for dps in (34, 50):
                with mp.workdps(dps):
                    real = core._schur_rung(longest, core._Memo(f))
                    cplx = complex_path(core._schur_rung, longest, core._Memo(f))
                    assert isinstance(f.norm_sq, mp.mpf) and all(isinstance(v, mp.mpf) for v in real)
                    ulp = mp.mpf(2) ** -mp.mp.prec * f.norm_sq
                    assert len(real) == len(cplx) == len(ref)
                    err_real = [abs(a - r.real) for a, r in zip(real, ref)]
                    err_cplx = [abs(b.real - r.real) for b, r in zip(cplx, ref)]
                    for a, b, e in zip(real, cplx, err_cplx):
                        assert abs(a - b.real) <= 16 * ulp + 4 * e, (dps, len(longest))
                    assert max(err_real) <= 16 * ulp + 2 * max(err_cplx), (dps, len(longest))
            for precision in ("double", "extended"):
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", IllConditioningWarning)
                    got = core.distances(f, chain, precision=precision)
                    want = complex_path(core.distances, f, chain, precision=precision)
                assert got == want


def _mixed_cases(rng):
    """(f, sets) with complex data somewhere: coefficient, exponents, conjugate pairs, log powers."""
    real = MonomialSet(np.cumsum(rng.uniform(0.5, 1.0, 12)))
    cf = PiecewiseMonomial(((complex(rng.normal(), rng.normal()), Exponent(0.0), rng.uniform(0.2, 0.8)),
                            (1.0, Exponent(rng.uniform(0.1, 2.0)), 0.0, 1)))
    yield cf, [real]  # complex F, real w
    z = rng.uniform(0.0, 4.0, 10) + 1j * rng.uniform(-2.0, 2.0, 10)
    yield PiecewiseMonomial.indicator(rng.uniform(0.2, 0.8)), [MonomialSet(z)]  # real f, complex w
    pairs = rng.uniform(0.0, 4.0, 5) + 1j * rng.uniform(0.1, 2.0, 5)
    s = np.concatenate([pairs, pairs.conj(), rng.uniform(0.0, 4.0, 3)])
    yield PiecewiseMonomial.from_spec("const"), [MonomialSet(s[:k]) for k in range(1, len(s) + 1)]
    v = np.cumsum(rng.uniform(0.8, 1.6, 5))
    conf = MonomialSet(np.repeat(v, 2), np.tile([0, 1], 5))
    yield PiecewiseMonomial(((1.0, Exponent(rng.uniform(0.2, 3.0)), 0.0, 1),)), [conf]  # confluent, real
    yield cf, [conf]


def test_mixed_data_matches_the_complex_path(complex_path):
    f = PiecewiseMonomial.indicator(0.4)
    with mp.workdps(34):
        w, F = core._Memo(f).node(1.5, 2)
        assert isinstance(w, mp.mpf) and all(isinstance(v, mp.mpf) for v in F)
        assert isinstance(f.norm_sq, mp.mpf)
        w, F = core._Memo(f).node(1.5 + 0.5j, 1)
        assert isinstance(w, mp.mpc) and isinstance(F[0], mp.mpc)
        g = PiecewiseMonomial(((1j, Exponent(0.0), 0.4),))
        w, F = core._Memo(g).node(1.5, 1)
        assert isinstance(w, mp.mpf) and isinstance(F[0], mp.mpc)
        assert isinstance(g.norm_sq, mp.mpf)
    rng = np.random.default_rng(23)
    for _ in range(3):
        for f, sets in _mixed_cases(rng):
            got = core.distances(f, sets, precision="extended")
            assert got == complex_path(core.distances, f, sets, precision="extended")
            assert not any(isinstance(r, NumericalError) for r in got)


def test_closed_form_input_validation():
    with pytest.raises(DomainError):
        monomial_distance_closed_form(Exponent(1, 0, 1), [0])
    with pytest.raises(DomainError):
        monomial_distance_closed_form(1, [Exponent(0, 0, 0), Exponent(0, 0, 1)])


# --- density verdicts ---------------------------------------------------------


def test_muntz_integers_dense():
    v = muntz_verdict(AffineSequence(1, 0), "classical")
    assert v.verdict == "dense"
    assert v.criterion == "classical"


def test_muntz_squares_not_dense():
    v = muntz_verdict([complex(k**2) for k in range(1, 2000)], "classical")
    assert v.verdict == "not-dense"


def test_muntz_geometric_not_dense():
    v = muntz_verdict(GeometricSequence(1, 2), "complex")
    assert v.verdict == "not-dense"


def test_muntz_shrinking_geometric_dense():
    v = muntz_verdict(GeometricSequence(1, 0.5), "real")
    assert v.verdict == "dense"


def test_muntz_imaginary_line_not_dense():
    # s_k = ik: the series sums to about 1.0767, far below any divergence bound
    v = muntz_verdict(AffineSequence(1j, 0), "complex")
    assert v.verdict == "not-dense"
    w = muntz_verdict([1j * k for k in range(1, 3000)], "complex")
    assert w.verdict == "not-dense"
    assert abs(w.partial_sums[-1] - 1.0763) < 1e-3


def test_muntz_sqrt_growth_dense():
    v = muntz_verdict([complex(math.sqrt(k)) for k in range(1, 4000)], "real")
    assert v.verdict == "dense"


def test_muntz_undetermined_fallback():
    # terms ~ 1/(1000 k): truly divergent but invisible to every certificate
    seq = [complex(0, math.sqrt(1000.0 * k - 1)) for k in range(1, 4000)]
    v = muntz_verdict(seq, "complex")
    assert v.verdict == "undetermined"


def test_muntz_criterion_validation():
    with pytest.raises(WrongCriterionError):
        muntz_verdict([0.5, 1.5], "classical")
    with pytest.raises(WrongCriterionError):
        muntz_verdict([2.0, 1.0, 3.0], "classical")
    with pytest.raises(WrongCriterionError):
        muntz_verdict([1j, 2j], "real")
    with pytest.raises(DomainError):
        muntz_verdict([1.0, 2.0], "euclidean")
    with pytest.raises(DomainError):
        muntz_verdict([], "complex")
    with pytest.raises(DomainError):
        muntz_verdict([1.0, 1.0], "complex")
    with pytest.raises(DomainError):
        muntz_verdict([-0.6], "complex")


def test_sequence_specs_from_json():
    s = sequence_from_spec({"kind": "affine", "a": [0, 1], "b": 0})
    assert isinstance(s, AffineSequence) and s.a == 1j
    g = sequence_from_spec({"kind": "geometric", "base": 1, "ratio": 2})
    assert isinstance(g, GeometricSequence)
    e = sequence_from_spec({"kind": "explicit", "values": [[0, 0], [1, 0]]})
    assert e.tolist() == [0j, 1 + 0j]
    with pytest.raises(DomainError):
        sequence_from_spec({"kind": "fibonacci"})


def test_sequence_from_spec_reads_arrays_and_rejects_other_values():
    arr = sequence_from_spec([1, [0, 2], 0.5])
    assert arr.tolist() == [1 + 0j, 2j, 0.5 + 0j]
    assert sequence_from_spec(arr) is arr  # a parsed sequence is not parsed again
    assert sequence_from_spec((1.0,)).tolist() == [1 + 0j]
    with pytest.raises(DomainError, match="sequence entry"):
        sequence_from_spec([1.0, "x"])
    with pytest.raises(DomainError, match="sequence must be a JSON array or a generator object"):
        sequence_from_spec(5)
