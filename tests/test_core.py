import collections
import decimal
import itertools
import json
import math
import warnings
from decimal import Decimal

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
    MonomialSet,
    NumericalError,
    PiecewiseMonomial,
    SizeLimitError,
    WrongCriterionError,
    as_exponent,
    distance,
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
    G = gram_build([0, 1j])
    expect = np.array([[1, 1 / (1 - 1j)], [1 / (1 + 1j), 1]])
    assert np.max(np.abs(G - expect)) < 1e-15


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
        G = gram_build(exps)
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
        G = gram_build(S)
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


def _schur_prefixes(S, memo):
    """d^2 after each prefix of S's nodes: core._schur_tree on the prefixes, a nested run, so in set order."""
    nodes = list(collections.Counter(S.values.tolist()).items())
    return core._schur_tree([nodes[:n] for n in range(1, len(nodes) + 1)], memo)


def _lu_rung(S, f):
    """Reference for core._schur_tree: d^2 = ||f||^2 - q by an mpmath LU solve, O(n^3)."""
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
        with core._Rung(150, real=False):
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
        with core._Rung(100, real=False):
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
    with core._Rung(50, real=False):
        assert r.distance == pytest.approx(float(mp.sqrt(_lu_rung(S, f))), rel=1e-12, abs=0)


def _double_pass_cases():
    """Seeded logpow-0 chains: interval sets, affine and geometric muntz prefixes, random and clustered sets."""
    rng = np.random.default_rng(19)
    for rho in rng.uniform(0.16, 0.5, 4):
        yield from ([interval_family(float(rho)).set_at(n)] for n in range(1, 17))
    for spec in ({"kind": "affine", "a": rng.uniform(0.5, 2.0), "b": rng.uniform(0.0, 1.0)},
                 {"kind": "affine", "a": [rng.uniform(0.2, 1.0), rng.uniform(0.1, 0.5)], "b": 0.1},
                 {"kind": "geometric", "base": rng.uniform(0.5, 1.5), "ratio": rng.uniform(1.5, 2.5)}):
        yield [muntz_family(spec).set_at(n) for n in range(1, 17)]
    for _ in range(40):  # as criterion 10 draws them
        n = int(rng.integers(1, 9))
        yield [MonomialSet(rng.uniform(-0.45, 3.0, n) + 1j * rng.uniform(-3.0, 3.0, n))]
    for _ in range(8):
        c = complex(rng.uniform(0.0, 2.0), rng.uniform(-1.0, 1.0))
        z = c + rng.uniform(0.0, 0.3, 8) + 1j * rng.uniform(-0.3, 0.3, 8)
        yield [MonomialSet(z[:n]) for n in range(1, 9)]


def _growth_reference(S):
    """g of S's nodes by its formula in 50-digit mpmath, from the nodes w = conj(s) + 1/2 in double."""
    w = [mp.mpc(complex(z.real + 0.5, -z.imag)) for z in dict.fromkeys(S.values.tolist())]
    with mp.workdps(50):
        rows = [mp.fsum(-mp.log10(abs((wj - wi) / (wj + mp.conj(wi)))) for wi in w[:j])
                for j, wj in enumerate(w)]
        return float(max(rows))


def _terms(logpow):
    return {"terms": [{"coeff": [1.0, 0.5], "t": [0.3, 0.0], "a": 0.25, "logpow": logpow},
                      {"coeff": [-2.0, 0.0], "t": [1.5, 0.2], "a": 0.0},
                      {"coeff": [0.5, 0.0], "t": [0.0, 0.0], "a": 0.6}]}


@pytest.mark.parametrize("f", ["chi:0.37", "const", "monomial:0.7,1.3", _terms(1), _terms(0)],
                         ids=["chi", "const", "monomial", "terms", "terms-logpow-0"])
def test_double_pass_is_gated_by_the_growth_and_meets_its_bound(f):
    # a set takes the complex128 pass exactly when g <= 4 and f has no cutoff alongside a log
    # power, and its d^2 is then within 16 * 10^g * 2^-52 * ||f||^2 of the recursion at 60 digits
    f = PiecewiseMonomial.from_spec(f)
    takes_double = not (any(a > 0 for _, _, a, _ in f.terms) and any(k for *_, k in f.terms))
    routes = collections.Counter()
    for chain in _double_pass_cases():
        g = core._growth(chain[-1])
        got = core._distances(f, chain, "double", closed_form=False)
        with core._Rung(60, real=False):
            ref = _schur_prefixes(chain[-1], core._Memo(f))
        for S, r in zip(chain, got):
            gS = core._growth(S)
            assert gS == g[:len(S)]  # a prefix's values are its own
            assert r.condition_estimate == 10.0 ** gS[-1]
            routes[r.precision] += 1
            assert (r.precision == "double") == (takes_double and gS[-1] <= 4), (S.values, gS[-1], r)
            if r.precision == "double":
                assert abs(r.distance ** 2 - ref[len(S) - 1]) <= 16 * r.condition_estimate * 2.0 ** -52 * f.norm_sq
    if takes_double:
        assert routes["double"] > 50 and sum(routes.values()) > routes["double"] + 50
    else:
        assert routes["double"] == 0 and sum(routes.values()) > 100


# the integral of x^(p-1) (ln x)^k over [a, 1] is (-1)^k gamma(k+1, p ln(1/a)) / p^(k+1), the lower
# incomplete gamma function; these distances solve the Gram system on it at 300 digits
@pytest.mark.parametrize("terms, entries, reference", [
    ([(1.0, Exponent(0.2), 0.3, 8)], [0.3, 2.0], 0.48328514567891049735),
    ([(1.0, Exponent(0.2), 0.3, 12)], [0.3, 2.0], 0.85167061457636734326),
    ([(1.0, Exponent(0.2), 0.3, 40)], [0.3, 2.0], 87.387870653384057483),
    ([(1.0, Exponent(-0.4), 0.0, 70)], [2.0], 6.949287831634218739e+169),
    ([(1.0, Exponent(0.7), 0.0, 100)], [2.0], 1.7266906129707441587e+149),
    ([(1.0, Exponent(-0.4999999999999), 0.0, 13)], [2.0], 5.4996656548428121997e+184),
], ids=["cut-k8", "cut-k12", "cut-k40", "norm-past-1e308", "norm-overflows", "norm-underflows"])
@pytest.mark.parametrize("precision", ["double", "extended"])
def test_targets_the_double_pass_cannot_hold_take_the_ladder(terms, entries, reference, precision):
    # a cutoff with a log power loses digits in the moment recurrence, and a norm past the float
    # range has no double value: the double pass printed 0.0 at k = 12 and 40, null at k = 70,
    # and raised OverflowError at k = 100; at 1 + 2t = 2e-13 and k = 13, p^27 underflows to 0
    # and the double norm divides by it, so the gate is read only under precision="double"
    f = PiecewiseMonomial(tuple(terms))
    r = distance(f, MonomialSet(entries), precision=precision)
    assert r.precision.startswith("extended")
    assert r.distance == pytest.approx(reference, rel=1e-12, abs=0)


def test_target_log_power_is_capped():
    PiecewiseMonomial(((1.0, Exponent(0.5), 0.3, 128),))
    for k in (129, 10**16):  # a JSON 1e16 reads as this integer; the recurrence would loop k times
        with pytest.raises(SizeLimitError, match=f"^logpow {k} exceeds the limit 128$"):
            PiecewiseMonomial(((1.0, Exponent(0.5), 0.3, k),))


def test_growth_matches_its_formula_at_50_digits():
    for chain in _double_pass_cases():
        for S in chain:
            assert core._growth(S)[-1] == pytest.approx(_growth_reference(S), rel=1e-12, abs=1e-14)
    # nodes that coincide in double have infinite growth: the ladder solves them, with no condition figure
    S = MonomialSet([0.0, 1e-17, 1.0])
    assert core._growth(S) == [0.0, math.inf, math.inf]
    r = distance_to_span(PiecewiseMonomial.indicator(0.5), S)
    assert r.precision.startswith("extended") and r.condition_estimate == math.inf


def test_clamped_rungs_do_not_agree(monkeypatch):
    def rung_from(d2_by_dps):  # d^2 of every member; a real rung holds dps + 3 digits
        return lambda members, memo: [Decimal(d2_by_dps[decimal.getcontext().prec - 3])] * len(members)

    # every rung clamps: no distance is supported, so no 0.0 is returned
    clamped = dict.fromkeys((34, 50, 80, 120, 160), -1e-40)
    monkeypatch.setattr(core, "_schur_tree", rung_from(clamped))
    with pytest.raises(NumericalError):
        distance_to_span(monomial(0), [1, 2], precision="extended")
    # a clamped rung does not pair with the next one; two positive rungs do
    monkeypatch.setattr(core, "_schur_tree", rung_from({34: 0.25, 50: 0.0, 80: 0.25, 120: 0.25}))
    r = distance_to_span(monomial(0), [1, 2], precision="extended")
    assert (r.distance, r.precision) == (0.5, "extended(dps=120)")


_DOUBLE_MOMENT = core.cauchy_moment


def _mpf_moment(t, s, m=0, a=0.0, c=1):
    """cauchy_moment on the mpf ladder: real data as mpf, complex as mpc."""
    if mp.mp.dps <= 25:
        return _DOUBLE_MOMENT(t, s, m, a, c)
    if t.imag == s.imag == c.imag == 0:
        p, c = 1 + mp.mpf(t.real) + mp.mpf(s.real), mp.mpf(c.real)
    else:
        p, c = 1 + mp.mpc(t.real, t.imag) + mp.mpc(s.real, -s.imag), mp.mpc(c)
    if a == 0.0:
        return c * (-1) ** m * mp.factorial(m) / p ** (m + 1)
    ap = mp.power(a, p)
    acc = c * (1 - ap) / p
    for k in range(1, m + 1):
        acc = -(c * ap * mp.log(a) ** k + k * acc) / p
    return acc


def _mpf_node(memo, z, m):
    """_Memo.node on the mpf ladder: w an mpf for real z, each F_j of its pairing's type."""
    def make():
        w = mp.mpf(z.real) + mp.mpf(1) / 2
        return (w if z.imag == 0 else mp.mpc(w, -mp.mpf(z.imag)),
                [memo.f.pairing(z)] + [memo.f.pairing(z, j) / math.factorial(j) for j in range(1, m)])

    w, F = memo._once(("node", z, m), make)
    return w, list(F)


def _mpc_memo(monkeypatch):
    """Make every new _Memo take its rungs in mpmath, real data too."""
    init = core._Memo.__init__

    def mpmath_only(memo, f):
        init(memo, f)
        memo.real = False

    monkeypatch.setattr(core._Memo, "__init__", mpmath_only)


@pytest.fixture
def complex_path(monkeypatch):
    """Calls fn(*args) with every rung in mpc, real data too: the oracle for the Decimal rungs."""
    def run(fn, *args, **kwargs):
        with monkeypatch.context() as m:
            _mpc_memo(m)
            return fn(*args, **kwargs)

    return run


@pytest.fixture
def mpf_path(monkeypatch):
    """Calls fn(*args) on the mpf ladder, real data in mpf: the reference for the Decimal rungs."""
    def run(fn, *args, **kwargs):
        with monkeypatch.context() as m:
            _mpc_memo(m)
            m.setattr(core, "cauchy_moment", _mpf_moment)
            m.setattr(core._Memo, "node", _mpf_node)  # core._eliminate takes mpf and mpc as they come
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


def _exact(x):
    """An mpf of a Decimal or an mpmath number, exact to the precision in force."""
    return mp.mpf(str(x)) if isinstance(x, Decimal) else mp.re(x)


def test_real_rung_matches_the_complex_path(complex_path):
    # real data runs the rung in Decimal, and the all-mpc arithmetic is the oracle.
    # The rung amplifies rounding by up to 1e20 units in the last place of
    # ||f||^2 on these sets, on both paths alike: each prefix's two d^2 agree
    # within a few units plus a few times the complex path's own error, and
    # over a chain the Decimal path's worst error is within twice the complex
    # path's.  The paths round independently (base 10 against base 2), so a
    # prefix where the complex path happens to err little bounds the Decimal
    # path tightly: on the 28-entry set with x^t (ln x)^2 at 50 digits the
    # complex path's error at prefixes 21-23 is 100 times below its error at
    # 167 or 171 bits, and there the two d^2 differ by 7.5 times it, while the
    # Decimal error there falls about 10-fold a digit.  The 120-digit rung
    # measures the errors
    chains, targets = _real_oracle_cases()
    for chain in chains:
        longest = chain[-1]
        for f in targets:
            with core._Rung(120, real=False):
                ref = _schur_prefixes(longest, core._Memo(f))
            for dps in (34, 50):
                with core._Rung(dps, real=True):
                    real = _schur_prefixes(longest, core._Memo(f))
                    assert isinstance(f.norm_sq, Decimal) and all(isinstance(v, Decimal) for v in real)
                with core._Rung(dps, real=False):
                    cplx = _schur_prefixes(longest, core._Memo(f))
                    ulp = mp.mpf(2) ** -mp.mp.prec * f.norm_sq
                assert all(isinstance(v, mp.mpf) for v in cplx)  # d^2 is real on either path
                assert len(real) == len(cplx) == len(ref)
                with mp.workdps(120):
                    err_real = [abs(_exact(a) - r) for a, r in zip(real, ref)]
                    err_cplx = [abs(b - r) for b, r in zip(cplx, ref)]
                    for a, b, e in zip(real, cplx, err_cplx):
                        assert abs(_exact(a) - b) <= 16 * ulp + 8 * e, (dps, len(longest))
                    assert max(err_real) <= 16 * ulp + 2 * max(err_cplx), (dps, len(longest))
            for precision in ("double", "extended"):
                got = core.distances(f, chain, precision=precision)
                want = complex_path(core.distances, f, chain, precision=precision)
                assert got == want


def test_real_rung_matches_the_mpf_path(mpf_path):
    # the Decimal rungs give the floats and labels that the mpf rungs gave
    chains, targets = _real_oracle_cases()
    for chain in chains:
        for f in targets:
            for precision in ("double", "extended"):
                got = core.distances(f, chain, precision=precision)
                want = mpf_path(core.distances, f, chain, precision=precision)
                assert got == want
                assert not any(isinstance(r, NumericalError) for r in got)


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


def test_mixed_data_matches_the_complex_path(complex_path, monkeypatch):
    f = PiecewiseMonomial.indicator(0.4)
    with core._Rung(34, real=True):
        w, F = core._Memo(f).node(1.5, 2)
        assert isinstance(w, Decimal) and all(isinstance(v, Decimal) for v in F)
        assert isinstance(f.norm_sq, Decimal)
    with core._Rung(34, real=False):
        w, F = core._Memo(f).node(1.5 + 0.5j, 1)
        assert isinstance(w, mp.mpc) and isinstance(F[0], mp.mpc)
        g = PiecewiseMonomial(((1j, Exponent(0.0), 0.4),))
        w, F = core._Memo(g).node(1.5, 1)
        assert isinstance(w, mp.mpc) and isinstance(F[0], mp.mpc)
        assert isinstance(g.norm_sq, mp.mpf)
    rungs, tree = [], core._schur_tree  # whether each rung ran in Decimal
    monkeypatch.setattr(core, "_schur_tree",
                        lambda members, memo: rungs.append(core._rung().real) or tree(members, memo))
    rng, kinds = np.random.default_rng(23), set()
    for _ in range(3):
        for f, sets in _mixed_cases(rng):
            rungs.clear()
            got = core.distances(f, sets, precision="extended")
            real = all(c.imag == 0 and t.im == 0 for c, t, _, _ in f.terms) and not any(
                S.values.imag.any() for S in sets)
            assert all(r == real for r in rungs)
            kinds.update(rungs)
            assert got == complex_path(core.distances, f, sets, precision="extended")
            assert not any(isinstance(r, NumericalError) for r in got)
    assert kinds == {True, False}  # a real confluent case takes Decimal rungs


def test_nodes_apart_at_the_rung_digits_are_solved():
    # w = 1/2 and 1/2 + 1e-36 coincide in mpmath's 116 bits at 34 digits but not in
    # the 37 digits of the Decimal rung; a 150-digit LU solve gives 0.360398039007497437
    f, S = PiecewiseMonomial.indicator(0.5), MonomialSet([0.0, 1e-36])
    r = distance_to_span(f, S, precision="extended")
    assert (r.distance, r.precision) == (0.36039803900749745, "extended(dps=80)")
    with core._Rung(150, real=False):
        assert r.distance == pytest.approx(float(mp.sqrt(_lu_rung(S, f))), rel=1e-15, abs=0)
    # 1e-40 is below the last of those 37 digits
    with pytest.raises(NumericalError, match="^Schur recursion failed: nodes coincide at 34 digits$"):
        distance_to_span(f, MonomialSet([0.0, 1e-40]), precision="extended")


def test_real_rung_forms_ln_once_per_cutoff(monkeypatch):
    # every Decimal pairing with a cutoff a needs ln a (for a^p, and for the log
    # power's recurrence); the rung in force forms it once per cutoff
    f = PiecewiseMonomial(((1.0, Exponent(0.2), 0.3, 1), (-2.0, Exponent(0.7), 0.6), (0.5, Exponent(1.1), 0.3)))
    v = np.cumsum(np.random.default_rng(5).uniform(0.3, 0.9, 6))
    sets = [MonomialSet(v[:k]) for k in range(1, 7)]
    seen, ln = [], core._decimal_ln
    monkeypatch.setattr(core, "_decimal_ln", lambda a: seen.append((core._rung(), a)) or ln(a))
    got = core.distances(f, sets, precision="extended")
    rungs = {id(r): r for r, _ in seen}
    assert rungs and all(r.real for r in rungs.values())
    assert sorted((id(r), a) for r, a in seen) == sorted((i, a) for i in rungs for a in (0.3, 0.6))
    # forming ln a at every pairing, as before, gives the same bits from more evaluations
    cached = len(seen)
    seen.clear()
    monkeypatch.setattr(core._Rung, "ln", lambda self, a: core._decimal_ln(a))
    assert core.distances(f, sets, precision="extended") == got
    assert len(seen) > 10 * cached


def test_ladder_ignores_the_callers_decimal_context():
    chains, targets = _real_oracle_cases()
    want = [core.distances(f, chain, precision="extended") for chain in chains[::3] for f in targets]
    with decimal.localcontext() as caller:
        caller.prec = 5
        caller.clear_traps()
        caller.rounding = decimal.ROUND_DOWN
        got = [core.distances(f, chain, precision="extended") for chain in chains[::3] for f in targets]
        assert decimal.getcontext().prec == 5  # and the caller's context is left as it was
    assert got == want


def test_double_pass_ignores_the_callers_mpmath_precision():
    # a result labelled double is computed in double: inside a caller's mp.workdps(30)
    # the pass ran in mpc and gave 0.1667146270605665 here; the ladder sets its own digits
    f, S = PiecewiseMonomial.indicator(0.37), [0.3, 1.1, 2.0, 3.7, 5.2]
    want = distance_to_span(f, S)
    assert (want.distance, want.precision) == (0.16671462706056597, "double")
    g = PiecewiseMonomial.from_spec({"terms": [{"coeff": [1.0, 0.5], "t": [0.3, 0.0], "a": 0.25},
                                               {"coeff": [-2.0, 0.0], "t": [1.5, 0.2]}]})
    chains = list(_double_pass_cases())
    outside = [core.distances(h, chain) for chain in chains for h in (f, g)]
    outside_ext = [core.distances(h, chains[-1], precision="extended") for h in (f, g)]
    with mp.workdps(30):
        assert distance_to_span(f, S) == want
        assert [core.distances(h, chain) for chain in chains for h in (f, g)] == outside
        assert [core.distances(h, chains[-1], precision="extended") for h in (f, g)] == outside_ext
    assert sum(r.precision == "double" for rs in outside for r in rs) > 100


def _moment_reference(p, m, a):
    """The integral over [a, 1] of x^(p-1) (ln x)^m, as (-1)^m gamma(m+1, p ln(1/a)) / p^(m+1) (x = e^-u)."""
    if a == 0:
        return (-1) ** m * mp.factorial(m) / p ** (m + 1)
    return (-1) ** m * mp.gammainc(m + 1, 0, -p * mp.log(a)) / p ** (m + 1)


def _distance_reference(f, S):
    """(dist(f, M(S)), ||f||) for logpow-0 S by an LU solve, from f's terms in mpmath at the precision in force."""
    terms = [(mp.mpc(c), mp.mpc(t.s), a, k) for c, t, a, k in f.terms]
    s = [mp.mpc(z) for z in S.values.tolist()]
    norm = mp.re(mp.fsum(ci * mp.conj(cj) * _moment_reference(1 + ti + mp.conj(tj), ki + kj, max(ai, aj))
                         for ci, ti, ai, ki in terms for cj, tj, aj, kj in terms))
    r = mp.matrix([mp.fsum(c * _moment_reference(1 + t + mp.conj(z), k, a) for c, t, a, k in terms) for z in s])
    c = mp.lu_solve(mp.matrix([[1 / (1 + zj + mp.conj(zi)) for zj in s] for zi in s]), r)
    return mp.sqrt(norm - mp.re(mp.fsum(mp.conj(c[i]) * r[i] for i in range(len(s))))), mp.sqrt(norm)


def test_extended_multi_term_norms_use_exact_coefficient_products():
    # ||f||^2 of a multi-term f pairs c_i conj(c_j); a product rounded in double before the
    # rungs lift it left d^2 = ||f||^2 - q off by 2^-53 ||f||^2 on every rung alike, so the
    # ladder accepted results off by up to 6e-2 relative here (104 of these 120 past 1e-13).
    # Half the targets have complex coefficients, a quarter a cut term with a log power;
    # the reference builds ||f||^2 and the pairings from the terms alone at 120 digits
    rng = np.random.default_rng(14)
    smallest = math.inf
    for i in range(120):
        n = int(rng.integers(1, 9))
        S = MonomialSet(np.cumsum(rng.uniform(0.3, 1.0, n)))
        lo, hi = S.values.real.min(), S.values.real.max()
        terms = []
        for _ in range(int(rng.integers(2, 4))):
            c = complex(rng.normal(), rng.normal()) if i % 2 else rng.normal()
            terms.append((c, Exponent(rng.uniform(max(lo - 0.2, 0.0), hi + 0.2)), 0.0))
        if i % 4 == 3:
            terms[-1] = (*terms[-1][:2], rng.uniform(0.05, 0.9), int(rng.integers(0, 3)))
        f = PiecewiseMonomial(tuple(terms))
        r = distance_to_span(f, S, precision="extended")
        with mp.workdps(120):
            ref, norm = _distance_reference(f, S)
            assert abs(r.distance - ref) <= 1e-13 * ref, (i, r, ref)
            smallest = min(smallest, ref / norm)
    assert smallest < 1e-7


def test_decimal_moments_match_mpmath():
    # real exponents with integral and fractional p = 1 + t + s, log powers 0..3, cutoffs 0
    # and 1e-6..0.99, and exponents up to 2e154, against cauchy_moment's mpc branch at 60
    # digits.  The recurrence cancels near a = 1, so the error is measured against the
    # size of its terms, |c| (m!/p^(m+1) + a^p |ln a|^m / p): within 100 units of the
    # rung's last digit (at most 21 seen)
    exponents = [0.0, 1.0, 2.0, 3.5, 0.25, 1e-9, 2.718281828459045, 41.0, 123.456, 1e17, 2e154]
    cutoffs = [0.0, 1e-6, 0.01, 0.3, 0.5, 0.77, 0.99]
    for dps in (34, 50):
        for t, s, m, a, c in itertools.product(exponents, [0.0, 0.4, 7.0, 2e154], range(4), cutoffs, [1.0, -2.5]):
            with core._Rung(dps, real=True) as ctx:
                got = core.cauchy_moment(t, s, m, a, c)
            assert isinstance(got, Decimal)
            with core._Rung(60, real=False):
                want = mp.re(core.cauchy_moment(complex(t), complex(s), m, a, complex(c)))
                p = 1 + mp.mpf(t) + mp.mpf(s)
                terms = math.factorial(m) / p ** (m + 1) + (mp.power(a, p) * abs(mp.log(a)) ** m / p if a else 0)
                err = abs(_exact(got) - want)
                assert err <= 100 * mp.mpf(10) ** -ctx.prec * abs(c) * terms, (t, s, m, a, ctx.prec)


def test_no_process_wide_cache():
    # the ladder's values live in one call's _Memo; core keeps nothing between calls
    import inspect

    source = inspect.getsource(core)
    assert "lru_cache" not in source and "functools.cache" not in source
    assert not [name for name, v in vars(core).items() if isinstance(v, dict) and not name.startswith("__")]
    assert not [name for name, v in vars(core).items() if hasattr(v, "cache_info")]


def test_closed_form_input_validation():
    with pytest.raises(DomainError):
        monomial_distance_closed_form(Exponent(1, 0, 1), [0])


def _closed_form_reference(c, t, S):
    """|c| prod over S's entries of |t - s| / |t + conj(s) + 1|, over sqrt(2 Re t + 1), at 60 digits."""
    with mp.workdps(60):
        t = mp.mpc(t)
        d = abs(mp.mpc(c)) / mp.sqrt(2 * t.real + 1)
        for s in map(mp.mpc, S.values.tolist()):
            d *= abs(t - s) / abs(t + mp.conj(s) + 1)
        return d


def test_closed_form_takes_confluent_sets_within_its_logpow_0_bound():
    # span{x^s (ln x)^j : j < m} is the model space of a Blaschke factor with a zero of order m,
    # so d(c x^t, S) = |c| prod rho_k^(m_k) / sqrt(2 Re t + 1).  300 seeded sets of 1-5 complex
    # nodes of multiplicity 1-3 (entries shuffled), and the same nodes once each, against a
    # 60-digit product.  Each entry's factor rounds a few times, and a node of multiplicity m
    # repeats its factor's rounding m times, so the bound grows with the entries: over seeds
    # 27-32 the worst error was 1.33 (n + 2) 2^-52 on confluent sets and 0.93 on logpow-0 sets
    rng = np.random.default_rng(27)
    worst = collections.Counter()
    for _ in range(300):
        k = rng.integers(1, 6)
        nodes = (rng.uniform(-0.45, 6.0, k) + 1j * rng.uniform(-3.0, 3.0, k)).tolist()
        entries = [(s, j) for s in nodes for j in range(rng.integers(1, 4))]
        entries = [entries[i] for i in rng.permutation(len(entries))]
        t = Exponent(rng.uniform(-0.45, 6.0), rng.uniform(-3.0, 3.0))
        c = complex(*rng.normal(size=2))
        for S in (MonomialSet(*zip(*entries)), MonomialSet(nodes)):
            r = distance(PiecewiseMonomial(((c, t, 0.0),)), S)
            assert (r.precision, r.condition_estimate) == ("closed-form", 1.0)
            assert r.distance == abs(c) * monomial_distance_closed_form(t, S)
            ref = _closed_form_reference(c, t.s, S)
            err = float(abs(r.distance - ref) / ref) / (len(S) + 2)
            worst[S.confluent] = max(worst[S.confluent], err)
    assert set(worst) == {True, False}
    assert max(worst.values()) <= 2.0 ** -51, worst


def test_unknown_precision_raises_on_every_route():
    # every route reads the precision, the closed form included
    for f in (monomial(1), PiecewiseMonomial.indicator(0.5)):
        with pytest.raises(DomainError, match="^unknown precision mode 'bogus'$"):
            distance(f, [0], precision="bogus")


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


def test_muntz_short_explicit_prefix_is_undetermined():
    # an explicit list is a prefix; three terms certify neither divergence nor convergence
    v = muntz_verdict([1.0, 2.0, 3.0], "complex")
    assert (v.verdict, v.reason) == (
        "undetermined",
        "3 series terms are fewer than the 64-term tail window that a numeric certificate needs",
    )
    # the classical series skips a leading 0, so 64 entries give 63 terms
    assert muntz_verdict([float(k) for k in range(64)], "classical").verdict == "undetermined"
    assert muntz_verdict([float(k) for k in range(65)], "classical").verdict == "dense"


def test_muntz_seeded_prefixes_get_no_wrong_hard_verdict():
    # sum over c (k+1)^p of the series terms diverges, and the exponents are dense, iff p = 1
    rng = np.random.default_rng(17)
    for i in range(300):
        p = (1.0, 1.5, 2.0)[i % 3]
        n, c = int(rng.integers(3, 301)), float(rng.uniform(0.1, 5.0))
        seq = [c * (k + 1) ** p for k in range(n)]
        for criterion in ("complex", "real"):
            verdict = muntz_verdict(seq, criterion).verdict
            assert verdict in ("undetermined", "dense" if p == 1 else "not-dense"), (p, n, c)


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
