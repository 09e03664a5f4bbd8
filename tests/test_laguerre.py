"""Tests for the log-Laguerre basis, monomial expansions, and the involution J."""

import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.special

from monospan import laguerre as lg
from monospan.core import Exponent, monomial_inner
from monospan.errors import DomainError, SizeLimitError
from monospan.quadrature import integrate


def test_eval_e_matches_scipy_laguerre():
    rng = np.random.default_rng(31)
    x = rng.uniform(0.01, 1.0, 40)
    for n in (0, 1, 2, 5, 12, 25):
        ours = lg.eval_e(n, x)
        ref = scipy.special.eval_laguerre(n, -np.log(x))
        assert np.max(np.abs(ours - ref)) < 1e-10 * max(1.0, np.max(np.abs(ref)))


def test_eval_e_scalar_and_endpoint():
    assert lg.eval_e(0, 0.5) == 1.0
    # at x = 1 the argument is 0 and L_n(0) = 1 for every n
    for n in range(8):
        assert abs(lg.eval_e(n, 1.0) - 1.0) < 1e-14


def test_eval_e_domain_errors():
    with pytest.raises(DomainError):
        lg.eval_e(3, 0.0)
    with pytest.raises(DomainError):
        lg.eval_e(3, 1.5)
    with pytest.raises(DomainError):
        lg.eval_e(-1, 0.5)


def test_orthonormality_by_quadrature():
    """Gram matrix of e_0..e_6 under the L2[0,1] inner product is the identity."""
    K = 7
    G = np.empty((K, K))
    for m in range(K):
        for n in range(m, K):
            val = integrate(lambda x, m=m, n=n: lg.eval_e(m, x) * lg.eval_e(n, x), 0.0, 1.0).value
            G[m, n] = G[n, m] = val.real if np.iscomplexobj(val) else val
    assert np.max(np.abs(G - np.eye(K))) < 1e-8


def test_expand_monomial_geometric_coefficients():
    e = lg.expand_monomial(1.0, 10)
    expected = 0.5 * 0.5 ** np.arange(11)
    assert np.max(np.abs(e.coeffs - expected)) < 1e-15
    # exact geometric tail: the full norm is recovered without error
    assert abs(e.norm_sq - 1.0 / 3.0) < 1e-15


def test_expansion_norm_identity_random():
    rng = np.random.default_rng(7)
    for _ in range(50):
        s = complex(rng.uniform(-0.45, 3.0), rng.uniform(-3.0, 3.0))
        e = lg.expand_monomial(s, int(rng.integers(4, 40)))
        assert abs(e.norm_sq - 1.0 / (1 + 2 * s.real)) < 1e-13 * (1 + e.norm_sq)


def test_expansion_evaluates_to_monomial():
    e = lg.expand_monomial(1.0, 64)
    x = np.linspace(0.2, 1.0, 17)
    assert np.max(np.abs(e.coeffs @ lg.eval_basis(64, x) - x)) < 1e-10


def test_default_truncation_clamps_and_meets_target():
    assert lg.default_truncation(0.0) == 8
    assert lg.default_truncation(1000.0) == 4096
    N = lg.default_truncation(1.0)
    rho = abs(1.0 / 2.0)
    assert 8 <= N <= 4096
    assert rho ** (2 * (N + 1)) < 1e-16
    # one step shorter would miss the target
    assert rho ** (2 * N) >= 1e-16


def test_expansion_validation():
    with pytest.raises(DomainError):
        lg.LaguerreExpansion(np.array([]))
    with pytest.raises(DomainError):
        lg.LaguerreExpansion(np.array([1.0]), tail_norm_sq=-1e-3)
    with pytest.raises(DomainError):
        lg.expand_monomial(Exponent(0.0, 0.0, 1))


def test_basis_from_averaging_powers():
    """e_n agrees with the binomial combination of the iterated adjoint images.

    The j-th iterate applied to the constant is (-1)^j (ln x)^j / j!, and
    summing C(n, j) times the alternating iterate reproduces e_n.
    """
    x = np.linspace(0.05, 1.0, 23)
    for n in range(11):
        acc = np.zeros_like(x)
        for j in range(n + 1):
            iterate = (-1) ** j * np.log(x) ** j / math.factorial(j)
            acc += math.comb(n, j) * (-1) ** j * iterate
        assert np.max(np.abs(acc - lg.eval_e(n, x))) < 1e-10


def test_hstar_power_orthogonality_content():
    # <(ln x)^j, x^0> = (-1)^j j!, so the normalized images pair to (+1) each
    for j in range(6):
        moment = (-1) ** j / math.factorial(j) * monomial_inner(Exponent(0.0, 0.0, j), 0.0)
        assert abs(moment - 1.0) < 1e-14


def test_apply_J_monomial_values():
    c, e = lg.apply_J_monomial(1.0)
    assert abs(c - 1.0 / 3.0) < 1e-15
    assert abs(e.s - (-1.0 / 3.0)) < 1e-15


def test_J_is_isometric_on_monomials():
    rng = np.random.default_rng(11)
    for _ in range(40):
        s = complex(rng.uniform(-0.45, 3.0), rng.uniform(-3.0, 3.0))
        c, e = lg.apply_J_monomial(s)
        before = 1.0 / (1 + 2 * s.real)
        after = abs(c) ** 2 / (1 + 2 * e.re)
        assert abs(after - before) < 1e-12 * before
        # and twice is the identity
        c2, e2 = lg.apply_J_monomial(e)
        assert abs(e2.s - s) < 1e-12 * (1 + abs(s))
        assert abs(c * c2 - 1.0) < 1e-12


def _frac_mul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _frac_div(a, b):
    d = b[0] * b[0] + b[1] * b[1]
    conj = (b[0], -b[1])
    num = _frac_mul(a, conj)
    return (num[0] / d, num[1] / d)


def test_J_involution_exact_in_rational_arithmetic():
    """J composed with itself is the identity exactly, not just numerically."""
    one = (Fraction(1), Fraction(0))
    for s in [(Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)),
              (Fraction(3, 10), Fraction(7, 10)), (Fraction(-2, 5), Fraction(13, 4))]:
        two_s_plus_1 = (1 + 2 * s[0], 2 * s[1])
        js = _frac_div((-s[0], -s[1]), two_s_plus_1)
        two_js_plus_1 = (1 + 2 * js[0], 2 * js[1])
        back = _frac_div((-js[0], -js[1]), two_js_plus_1)
        assert back == s
        c1 = _frac_div(one, two_s_plus_1)
        c2 = _frac_div(one, two_js_plus_1)
        assert _frac_mul(c1, c2) == one


def test_J_route_equivalence_monomial_vs_expansion():
    """J via the exponent map agrees with J via coordinate sign flips."""
    for s in (1.0 + 0j, 1j, 0.3 + 0.7j):
        N = 64
        flipped = lg.apply_J_expansion(lg.expand_monomial(s, N))
        c, e = lg.apply_J_monomial(s)
        target = lg.expand_monomial(e, N)
        assert np.max(np.abs(flipped.coeffs - c * target.coeffs)) < 1e-10
        assert abs(flipped.tail_norm_sq - abs(c) ** 2 * target.tail_norm_sq) < 1e-12


def test_apply_J_expansion_is_involution():
    rng = np.random.default_rng(3)
    coeffs = rng.normal(size=12) + 1j * rng.normal(size=12)
    e = lg.LaguerreExpansion(coeffs, 0.25)
    back = lg.apply_J_expansion(lg.apply_J_expansion(e))
    assert np.array_equal(back.coeffs, e.coeffs)
    assert back.tail_norm_sq == e.tail_norm_sq


def test_eval_basis_rows_equal_eval_e():
    x = np.concatenate([[1.0, 1e-300, 0.5], np.random.default_rng(5).uniform(1e-9, 1.0, 30)])
    for n in range(13):
        rows = lg.eval_basis(n, x)
        assert rows.shape == (n + 1, len(x))
        for k in range(n + 1):
            assert np.array_equal(rows[k], lg.eval_e(k, x))
        scalar = lg.eval_basis(n, 0.37)
        assert scalar.shape == (n + 1,)
        assert all(scalar[k] == lg.eval_e(k, 0.37) for k in range(n + 1))


def test_eval_basis_domain_errors():
    with pytest.raises(DomainError):
        lg.eval_basis(3, 0.0)
    with pytest.raises(DomainError):
        lg.eval_basis(-1, 0.5)


def test_explicit_truncation_order_is_capped():
    assert len(lg.expand_monomial(0.5, 2**16).coeffs) == 2**16 + 1
    with pytest.raises(SizeLimitError, match="^truncation order 65537 exceeds the limit 65536$"):
        lg.expand_monomial(0.5, 2**16 + 1)
