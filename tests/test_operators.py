"""Tests for the averaging/multiplication/Volterra operators and their calculus."""

import cmath
import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

from monospan import operators as op
from monospan.core import Exponent
from monospan.errors import (
    DomainError,
    IllConditioningWarning,
    RepresentationError,
    SizeLimitError,
    TruncationWarning,
)
from monospan.laguerre import apply_J_monomial, expand_monomial
from monospan.quadrature import integrate


def test_monomial_actions():
    H, X, V = (op.monomial_operator(name) for name in "HXV")
    rng = np.random.default_rng(2)
    for _ in range(20):
        s = complex(rng.uniform(-0.4, 3.0), rng.uniform(-3.0, 3.0))
        cH, eH = H.apply(1.0, s)
        assert abs(cH - 1 / (s + 1)) < 1e-14 and abs(eH.s - s) < 1e-14
        cX, eX = X.apply(1.0, s)
        assert cX == 1.0 and abs(eX.s - (s + 1)) < 1e-14
        cV, eV = V.apply(1.0, s)
        assert abs(cV - 1 / (s + 1)) < 1e-14 and abs(eV.s - (s + 1)) < 1e-14
    # H and V against quadrature of u^s over [0, x], divided by x for H
    for s in (0.0, 0.7, 2.5 - 1.5j):
        cH, eH = H.apply(1.0, s)
        cV, eV = V.apply(1.0, s)
        for x in (0.2, 0.5, 0.8, 1.0):
            v = integrate(lambda u: np.asarray(u, dtype=complex) ** s, 0.0, x, tol=1e-12).value
            assert abs(cH * x**eH.s - v / x) < 1e-10
            assert abs(cV * x**eV.s - v) < 1e-10


def test_commutator_closed_forms():
    """[H, X] and [H, V] on monomials match their rational closed forms."""
    H, X, V = (op.monomial_operator(name) for name in "HXV")
    rng = np.random.default_rng(9)
    for _ in range(20):
        s = complex(rng.uniform(-0.4, 2.0), rng.uniform(-2.0, 2.0))
        hx = H.apply(*X.apply(1.0, s))
        xh = X.apply(*H.apply(1.0, s))
        assert abs(hx[1].s - xh[1].s) < 1e-14
        comm = hx[0] - xh[0]
        assert abs(comm - (-1 / ((s + 1) * (s + 2)))) < 1e-13
        hv = H.apply(*V.apply(1.0, s))
        vh = V.apply(*H.apply(1.0, s))
        comm2 = hv[0] - vh[0]
        assert abs(comm2 - (-1 / ((s + 1) ** 2 * (s + 2)))) < 1e-13


def test_log_weight_handling():
    e = Exponent(0.5, 0.0, 1)
    with pytest.raises(RepresentationError):
        op.monomial_operator("H").apply(1.0, e)
    with pytest.raises(RepresentationError):
        op.monomial_operator("V").apply(1.0, e)


def test_hat_matrix_structure():
    H5 = op.hat_matrix("H", 5)
    expected = np.eye(5)
    for m in range(4):
        expected[m, m + 1] = -1.0
    assert np.array_equal(H5, expected)
    # the X and V matrices share one composition factor: X = S* C, V = H X-ish;
    # concretely V-hat = H-hat @ C* and X-hat = S* @ C*
    g = op._gamma_taylor_columns(5)
    comp_star = g.T
    sstar = np.zeros((5, 5))
    for m in range(4):
        sstar[m, m + 1] = 1.0
    assert np.max(np.abs(op.hat_matrix("X", 5) - sstar @ comp_star)) < 1e-15
    assert np.max(np.abs(op.hat_matrix("V", 5) - H5 @ comp_star)) < 1e-15
    # the n = 1 column of g is the Taylor series of 1/(2-z): 2^-(m+1)
    assert np.max(np.abs(g[:, 1] - 0.5 ** (np.arange(5) + 1))) < 1e-15


def _gamma_taylor_columns_loop(N):
    """Reference for _gamma_taylor_columns: the same recurrence, one scalar entry at a time."""
    g = np.zeros((N, N))
    g[0, 0] = 1.0
    for n in range(1, N):
        g[0, n] = 0.5 * g[0, n - 1]
        for m in range(1, N):
            g[m, n] = g[m - 1, n] * (n + m - 1) / (2 * m)
    return g


def _hat_matrix_dense(name, N):
    """hat_matrix by its definition: a dense S* and the products I - S*, S* C*, (I - S*) C*."""
    eye = np.eye(N)
    sstar = np.zeros((N, N))
    for m in range(N - 1):
        sstar[m, m + 1] = 1.0
    if name == "H":
        return eye - sstar
    comp_star = _gamma_taylor_columns_loop(N).T
    return sstar @ comp_star if name == "X" else (eye - sstar) @ comp_star


@pytest.mark.parametrize("N", [1, 2, 3, 17, 256])
@pytest.mark.parametrize("name", ["H", "X", "V"])
def test_hat_matrix_equals_dense_definition(name, N):
    assert np.array_equal(op.hat_matrix(name, N), _hat_matrix_dense(name, N))


@pytest.mark.parametrize("N", [1, 2, 64])
def test_gamma_taylor_columns_equals_scalar_loop(N):
    assert np.array_equal(op._gamma_taylor_columns(N), _gamma_taylor_columns_loop(N))


def _assert_closed_form(g_col, n, m0=0):
    """g_col[k] against g[m, n] = 2^-(n+m) C(n+m-1, m) for m = m0 + k, C(-1, 0) = 1.

    Row m is reached from the exact row 2^-n by m steps of one multiply and
    one divide, so in the normal range its relative error is at most 2m
    roundings of 2^-53; below it the exact value must be below the range too.
    Compared in integers: value = p / 2^q, exact = c / 2^(n+m).
    """
    c = math.comb(n + m0 - 1, m0) if n + m0 > 0 else 1
    for k, value in enumerate(g_col):
        m = m0 + k
        if k:
            c = c * (n + m - 1) // m
        p, q = float(value).as_integer_ratio()
        q = q.bit_length() - 1
        if c == 0:
            assert value == 0.0, (m, n)
        elif value >= 2.0**-1022:
            # |value / exact - 1| <= 2m / 2^53
            assert abs((p << (n + m)) - (c << q)) << 53 <= (2 * m * c) << q, (m, n)
        else:
            # exact < 2^-1022 (1 + 2m / 2^53)
            assert c << 1075 < (2**53 + 2 * m) << (n + m), (m, n)


def test_gamma_taylor_columns_closed_form():
    g = op._gamma_taylor_columns(64)
    for n in range(64):
        _assert_closed_form(g[:, n], n)
    # past n = 1074 the seed 2^-n is below the smallest double
    g = op._gamma_taylor_columns(2048)
    for n in (0, 1, 63, 64, 1022, 1023, 1074, 1075, 1100, 2047):
        _assert_closed_form(g[:, n], n)
    cols = np.array([2048, 3001, 4095])
    for m0, rows, exps in op._gamma_row_blocks(4096):
        g = np.ldexp(rows[:, cols], exps[cols])
        for j, n in enumerate(cols):
            _assert_closed_form(g[:, j], int(n), m0)


def test_hat_matrix_limits():
    with pytest.raises(DomainError):
        op.hat_matrix("H", 0)
    with pytest.raises(SizeLimitError):
        op.hat_matrix("H", 4096)
    with pytest.raises(DomainError):
        op.hat_matrix("Q", 8)


def test_route_equivalence_monomial_vs_hat():
    """The coefficient-space matrices reproduce the monomial actions."""
    N = 256
    for name in "HXV":
        mat = op.hat_matrix(name, N)
        for s in (0.0 + 0j, 1.0 + 0j, 1j):
            src = expand_monomial(s, N - 1)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", TruncationWarning)
                out = mat @ src.coeffs
            c_img, e_img = op.monomial_operator(name).apply(1.0, s)
            target = c_img * expand_monomial(e_img, N - 1).coeffs
            assert np.max(np.abs(out[:64] - target[:64])) < 1e-8


def _apply_inputs(N, count=3):
    """`count` seeded random complex vectors and the geometric coordinates of x^s."""
    rng = np.random.default_rng(N)
    vecs = [rng.standard_normal(N) + 1j * rng.standard_normal(N) for _ in range(count)]
    for s in (0.0, 1.0, 1j, 2.6 - 0.8j, -0.25 + 0.15j):
        vecs.append(expand_monomial(s, N - 1).coeffs)
    return vecs


@pytest.mark.parametrize("N", [1, 2, 3, 17, 256, 1024])
@pytest.mark.parametrize("name", ["H", "X", "V"])
def test_apply_hat_equals_hat_matrix(name, N):
    mat = op.hat_matrix(name, N)
    for v in _apply_inputs(N):
        got, want = op.apply_hat(name, v), mat @ v
        if name == "H":
            assert np.array_equal(got, want)
            # zeros too: past the underflow of (s/(s+1))^n both print 0.0, not -0.0
            assert np.array_equal(np.signbit(got.view(float)), np.signbit(want.view(float)))
        else:
            assert np.max(np.abs(got - want)) <= 4e-15 * np.max(np.abs(want))


@pytest.mark.parametrize("N", [256, 1024])
@pytest.mark.parametrize("name", ["X", "V"])
def test_apply_hat_error_against_longdouble(name, N):
    """The stream's products are no less exact than the matrix-vector product.

    Both routes multiply the same double entries, so the reference takes those
    entries and each vector to longdouble (a 64-bit mantissa on x86) and
    multiplies there.  Compared: the root mean square of the relative 2-norm
    errors over the inputs, since single vectors go either way.
    """
    mat = op.hat_matrix(name, N)
    ld = mat.astype(np.longdouble)
    streamed, matrix = [], []
    for v in _apply_inputs(N, count=16):
        ref = ld @ v.real.astype(np.longdouble), ld @ v.imag.astype(np.longdouble)
        norm_sq = float(np.sum(ref[0] ** 2 + ref[1] ** 2))
        for out, errs in ((op.apply_hat(name, v), streamed), (mat @ v, matrix)):
            d = (out.real - ref[0]) ** 2 + (out.imag - ref[1]) ** 2
            errs.append(float(np.sum(d)) / norm_sq)
    assert np.mean(streamed) <= np.mean(matrix)


@pytest.mark.parametrize("name", ["H", "X", "V"])
def test_apply_hat_memory_is_linear(name):
    """At N = 2048 the matrix alone is 32 MB; the streamed apply holds a few blocks of rows."""
    v = np.random.default_rng(5).standard_normal(2048) + 0j
    tracemalloc.start()
    try:
        op.apply_hat(name, v)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


def test_apply_hat_limits():
    with pytest.raises(SizeLimitError):
        op.apply_hat("X", np.zeros(2049, dtype=complex))
    with pytest.raises(DomainError):
        op.apply_hat("Q", np.ones(4, dtype=complex))


def test_automorphism_determinant_and_maps():
    with pytest.raises(DomainError):
        op.AutomorphismParams(1.0, 1.0, 1.0, 1.0)
    ident = op.AutomorphismParams(1.0, 0.0, 0.0, 1.0)
    rng = np.random.default_rng(13)
    for _ in range(10):
        s = complex(rng.uniform(-0.4, 2.0), rng.uniform(-2.0, 2.0))
        assert abs(ident.tau(s) - s) < 1e-14


def test_involution_automorphism_matches_J():
    """The (0, 1/2, -2, 0) parameters induce the J exponent map."""
    p = op.AutomorphismParams(0.0, 0.5, -2.0, 0.0)
    rng = np.random.default_rng(19)
    for _ in range(20):
        s = complex(rng.uniform(-0.4, 2.0), rng.uniform(-2.0, 2.0))
        _, e = apply_J_monomial(s)
        assert abs(p.tau(s) - e.s) < 1e-12 * (1 + abs(s))
    U = op.unitary_from_automorphism(p)
    for s in (0.0 + 0j, 1.0 + 0j, 0.5 + 1.5j):
        c, e = U.apply(1.0, s)
        cj, ej = apply_J_monomial(s)
        assert abs(c - cj) < 1e-12 and abs(e.s - ej.s) < 1e-12


def test_dilation_automorphism():
    alpha = 2.5
    r = math.sqrt(alpha)
    p = op.AutomorphismParams(r, 0.0, 0.0, 1.0 / r)
    s = 0.3 + 0.4j
    assert abs(p.tau(s) - (alpha * s + (alpha - 1) / 2)) < 1e-13


def test_composition_of_automorphisms():
    pJ = op.AutomorphismParams(0.0, 0.5, -2.0, 0.0)
    pD = op.AutomorphismParams(2.0, 0.0, 0.0, 0.5)
    # the 2x2 matrix product pJ pD induces tau_J after tau_D
    comp = op.AutomorphismParams(
        pJ.A * pD.A + pJ.B * pD.C,
        pJ.A * pD.B + pJ.B * pD.D,
        pJ.C * pD.A + pJ.D * pD.C,
        pJ.C * pD.B + pJ.D * pD.D,
    )
    rng = np.random.default_rng(29)
    for _ in range(10):
        s = complex(rng.uniform(-0.3, 1.5), rng.uniform(-1.5, 1.5))
        assert abs(comp.tau(s) - pJ.tau(pD.tau(s))) < 1e-12


def test_unitary_operator_preserves_inner_products():
    pD = op.AutomorphismParams(2.0, 0.0, 0.0, 0.5)
    U = op.unitary_from_automorphism(pD)
    rng = np.random.default_rng(37)
    for _ in range(20):
        s = complex(rng.uniform(-0.4, 2.0), rng.uniform(-2.0, 2.0))
        t = complex(rng.uniform(-0.4, 2.0), rng.uniform(-2.0, 2.0))
        cs, es = U.apply(1.0, s)
        ct, et = U.apply(1.0, t)
        lhs = cs * np.conj(ct) / (1 + es.s + np.conj(et.s))
        rhs = 1 / (1 + s + np.conj(t))
        assert abs(lhs - rhs) < 1e-10 * (1 + abs(rhs))


def test_unitary_phase_is_exposed():
    pD = op.AutomorphismParams(2.0, 0.0, 0.0, 0.5)
    theta = 0.83
    U0 = op.unitary_from_automorphism(pD, 0.0)
    U1 = op.unitary_from_automorphism(pD, theta)
    s = 0.4 + 0.2j
    c0, _ = U0.apply(1.0, s)
    c1, _ = U1.apply(1.0, s)
    assert abs(c1 - cmath.exp(1j * theta) * c0) < 1e-14


def test_unitary_kind_validates_normalization():
    with pytest.raises(DomainError):
        op.MonomialOperator(lambda s: s, lambda s: 2.0 / (s + 1), "unitary")
    with pytest.raises(DomainError):
        op.MonomialOperator(lambda s: s, lambda s: 1.0, "sideways")


def test_phi_of_H_identity_and_rational():
    ident = op.PhiSpec("poly", coeffs=(0.0, 1.0))
    s = 0.5 + 1.0j
    assert abs(op.phi_of_H(ident, s) - 1 / (1 + s)) < 1e-14
    # resolvent-style rational with pole safely outside |w - 1| <= 1
    rat = op.PhiSpec("rational", coeffs=(1.0,), denom=(3.0, -1.0))
    assert abs(op.phi_of_H(rat, s) - 1 / (3 - 1 / (1 + s))) < 1e-14
    with pytest.raises(DomainError):
        op.PhiSpec("rational", coeffs=(1.0,), denom=(-1.0, 1.0))  # pole at w = 1


def test_phi_table_lookup():
    tab = op.PhiSpec("table", table=(((1.0 + 0j), 5.0),))
    assert op.phi_of_H(tab, 0.0) == 5.0
    with pytest.raises(DomainError):
        op.phi_of_H(tab, 1.0)


def test_pick_check_identity_multiplier():
    """The averaging operator has norm 2, and the Pick test detects it.

    The M = 1 matrix on {0, 1} has a negative eigenvalue (the operator is
    not a contraction), while M = 2 passes everywhere; near the half-plane
    edge even M slightly under 2 fails.
    """
    ident = op.PhiSpec("poly", coeffs=(0.0, 1.0))
    ok1, e1 = op.pick_positivity_check(ident, 1.0, [0.0, 1.0])
    assert not ok1
    assert abs(e1 - (-0.1545)) < 1e-3
    rng = np.random.default_rng(43)
    for _ in range(50):
        k = int(rng.integers(2, 7))
        grid = [complex(rng.uniform(-0.45, 3.0), rng.uniform(-3.0, 3.0)) for _ in range(k)]
        ok, _ = op.pick_positivity_check(ident, 2.0, grid)
        assert ok
    ok3, e3 = op.pick_positivity_check(ident, 1.999, [-0.4999, -0.499, -0.49])
    assert not ok3 and e3 < -1.0


def test_pick_check_validation_and_conditioning():
    ident = op.PhiSpec("poly", coeffs=(0.0, 1.0))
    with pytest.raises(DomainError):
        op.pick_positivity_check(ident, 1.0, [])
    with pytest.raises(DomainError):
        op.pick_positivity_check(ident, 0.0, [0.0])
    with pytest.raises(SizeLimitError):
        op.pick_positivity_check(ident, 1.0, list(range(65)))
    with pytest.warns(IllConditioningWarning):
        op.pick_positivity_check(ident, 2.0, [0.0, 1e-13])
