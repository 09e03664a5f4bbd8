"""Tests for the L2[0,1] <-> Hardy-space transform and its closed forms."""

import cmath
import math

import numpy as np
import pytest
import scipy.special

from monospan import atomic as at
from monospan import laguerre as lg
from monospan import sarason as sr
from monospan.core import Exponent, PiecewiseMonomial, monomial_inner
from monospan.errors import DomainError, SeriesWarning


def test_disk_point_validation():
    sr.DiskPoint(0.3 + 0.4j)
    with pytest.raises(DomainError):
        sr.DiskPoint(1.0)
    with pytest.raises(DomainError):
        sr.DiskPoint(0.8 + 0.7j)


def test_sampled_function_breakpoints():
    f = sr.SampledFunction(lambda x: x, breakpoints=(0.7, 0.2))
    assert f.breakpoints == (0.2, 0.7)
    with pytest.raises(DomainError):
        sr.SampledFunction(lambda x: x, breakpoints=(0.0,))


def _indicator(s):
    """The indicator of [0, s] as the two terms 1 x^0 and -1 x^0 chi_[s,1]."""
    return PiecewiseMonomial(((1.0, 0.0, 0.0), (-1.0, 0.0, s)))


def _bits(v):
    v = np.asarray(v, dtype=complex)
    return v.real.tobytes() + v.imag.tobytes()


def test_sampled_function_of_keeps_the_sampled_bits():
    x = np.concatenate([np.linspace(0.001, 1.0, 400), [1e-300, 0.5]])
    for e in (Exponent(0.0), Exponent(0.7), Exponent(-0.3, 1.2), Exponent(2.0, 0.0, 1),
              Exponent(0.5, -0.4, 3), Exponent(1.5, 0.0, 2)):
        f = sr.SampledFunction.of(PiecewiseMonomial.monomial(e))
        assert f.breakpoints == ()
        # the evaluator that sampled log monomials before SampledFunction.of
        ref = np.asarray(x, dtype=complex) ** e.s
        if e.logpow:
            ref = ref * np.log(x) ** e.logpow
        assert _bits(f.evaluator(x)) == _bits(ref), e
    for s in (0.05, 0.5, 0.999):
        f = sr.SampledFunction.of(_indicator(s))
        assert f.breakpoints == (s,)
        off = x[x != s]  # quadrature never samples a breakpoint
        assert _bits(f.evaluator(off)) == _bits(np.where(off <= s, 1.0 + 0j, 0.0 + 0j))
    twice = PiecewiseMonomial(((1.0, 0.0, 0.3), (2.0, 1.0, 0.3), (1.0, 0.0, 0.1)))
    assert sr.SampledFunction.of(twice).breakpoints == (0.1, 0.3)


def test_forward_monomial_matches_quadrature():
    rng = np.random.default_rng(5)
    for _ in range(12):
        s = complex(rng.uniform(-0.3, 2.0), rng.uniform(-2.0, 2.0))
        z = 0.6 * rng.uniform(0, 1) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        closed = sr.forward_monomial(s).evaluate(z)
        quad = sr.forward_quadrature(sr.SampledFunction.of(PiecewiseMonomial.monomial(s)), z)
        assert abs(closed - quad.value) < 1e-9 * (1 + abs(closed))


def test_transform_is_isometric_on_monomial_gram():
    """Inner products survive the transform: the kernel-side Gram matrix of
    the first transformed powers reproduces the Hilbert matrix."""
    K = 6
    imgs = [sr.forward_monomial(float(n)) for n in range(K)]
    G = np.empty((K, K), dtype=complex)
    for i in range(K):
        for j in range(K):
            G[i, j] = sr.h2_inner(imgs[i], imgs[j], N=512)
    hilbert = 1.0 / (1.0 + np.arange(K)[:, None] + np.arange(K)[None, :])
    assert np.max(np.abs(G - hilbert)) < 1e-10


def test_isometry_on_random_monomial_pairs():
    rng = np.random.default_rng(17)
    for _ in range(10):
        s = complex(rng.uniform(-0.2, 1.5), rng.uniform(-1.5, 1.5))
        t = complex(rng.uniform(-0.2, 1.5), rng.uniform(-1.5, 1.5))
        lhs = sr.h2_inner(sr.forward_monomial(s), sr.forward_monomial(t), N=512)
        rhs = monomial_inner(s, t)
        assert abs(lhs - rhs) < 1e-10 * (1 + abs(rhs))


def test_h2_inner_kernel_closed_form():
    a, g = 0.3 + 0.2j, -0.4 + 0.1j
    F = sr.DiskFunction(((1.0, a),))
    G = sr.DiskFunction(((1.0, g),))
    # <k_a, k_g> = k_a(g) = 1/(1 - conj(a) g)
    assert abs(sr.h2_inner(F, G, 512) - 1 / (1 - np.conj(a) * g)) < 1e-12


def test_inverse_kernel_round_trip():
    rng = np.random.default_rng(23)
    for _ in range(20):
        beta = complex(rng.uniform(-0.4, 2.0), rng.uniform(-2.0, 2.0))
        img = sr.forward_monomial(beta)
        (c, alpha), = img.terms
        # U* k_alpha = (1/(1-conj(alpha))) x^(conj(alpha)/(1-conj(alpha)))
        ac = alpha.conjugate()
        const, expo = 1 / (1 - ac), ac / (1 - ac)
        assert abs(expo - beta) < 1e-12 * (1 + abs(beta))
        assert abs(const * c - 1.0) < 1e-12


def test_coordinate_consistency_with_laguerre():
    """Laguerre coordinates of x^s equal the Taylor coordinates of its image."""
    for s in (0.5, 1.0 + 0j, 2j, 0.3 + 0.7j):
        N = 200
        coords = lg.expand_monomial(s, N - 1).coeffs
        taylor = sr.forward_monomial(s).taylor(N)
        assert np.max(np.abs(coords - taylor)) < 1e-9


def test_forward_indicator_structure_and_value_at_zero():
    F = sr.forward_indicator(0.25)
    assert isinstance(F, at.InnerFunction)
    assert F.measure.atoms == ((1.0, -0.5 * math.log(0.25)),)
    assert F.scale == 0.5
    # at z = 0 the transform is the plain integral of the indicator
    assert abs(F.evaluate(0.0) - 0.25) < 1e-14
    # at s = 1 the atom's mass is 0: no atoms, and U chi_[0,1] = 1
    one = sr.forward_indicator(1.0)
    assert one.measure.atoms == () and one.evaluate(0.3 - 0.4j) == 1


def test_forward_indicator_keeps_the_closed_form_bits():
    # the oracle is the formula the one-atom closed form evaluated before it was an InnerFunction
    rng = np.random.default_rng(29)
    for s in (0.05, 0.3, 0.5, 0.9, 0.999):
        tau, w, scale = 1 + 0j, -0.5 * math.log(s), complex(math.sqrt(s))
        F = sr.forward_indicator(s)
        for _ in range(20):
            z = complex(*rng.uniform(-0.7, 0.7, 2))
            assert F.evaluate(z) == scale * cmath.exp(-w * (tau + z) / (tau - z))
        assert np.array_equal(F.taylor(64), scale * at.singular_inner_taylor(tau, w, 64))


def test_indicator_isometry_against_monomials():
    # <chi_[0,s], x^t> = s^(conj t + 1)/(conj t + 1): the two closed-form images pair as the functions
    for s in (0.1, 0.5, 0.9, 1.0):
        for t in (0.0, 0.7, 2.5 + 1j, -0.3 + 0.4j, 4.0):
            tc = complex(t).conjugate()
            exact = s ** (tc + 1) / (tc + 1)
            got = sr.h2_inner(sr.forward_indicator(s), sr.forward_monomial(t), 512)
            assert abs(got - exact) < 2e-11 * abs(exact), (s, t)


def test_forward_indicator_matches_quadrature():
    rng = np.random.default_rng(41)
    pts = 0.55 * rng.uniform(0.1, 1.0, 5) * np.exp(1j * rng.uniform(0, 2 * np.pi, 5))
    for s in (0.1, 0.5, 0.9):
        closed = sr.forward_indicator(s)
        sampled = sr.SampledFunction.of(_indicator(s))
        for z in pts:
            quad = sr.forward_quadrature(sampled, z)
            assert abs(closed.evaluate(z) - quad.value) < 1e-8


def test_forward_quadrature_log_monomial():
    """The quadrature route covers log weights, which the closed form refuses."""
    with pytest.raises(DomainError, match="forward_quadrature"):
        sr.forward_monomial(Exponent(0.5, 0.0, 1))
    z = 0.3 + 0.4j
    wz = z / (1 - z)
    got = sr.forward_quadrature(sr.SampledFunction.of(PiecewiseMonomial.monomial(Exponent(0.5, 0.0, 1))), z)
    exact = (1 / (1 - z)) * (-1 / (0.5 + wz + 1) ** 2)
    assert abs(got.value - exact) < 1e-10


def test_inverse_of_exponential_is_bessel():
    """All derivatives 1 at the base point gives J0(2 sqrt(-ln x))."""
    derivs = [1.0] * 40
    xs = np.linspace(0.05, 1.0, 20)
    for x in xs:
        got = sr.inverse_analytic(derivs, x)
        ref = scipy.special.j0(2 * math.sqrt(-math.log(x)))
        assert abs(got - ref) < 1e-9


def test_inverse_analytic_complex_continuation():
    derivs = [1.0] * 40
    x = -0.5 + 0.1j
    got = sr.inverse_analytic(derivs, x)
    ref = sr.analytic_series(derivs, cmath.log(x))
    assert got == ref
    with pytest.raises(DomainError):
        sr.inverse_analytic(derivs, -0.5)
    with pytest.raises(DomainError):
        sr.inverse_analytic(derivs, 0.0)


def test_analytic_series_warns_on_growing_terms():
    derivs = [math.factorial(j) ** 2 * 2.0**j for j in range(10)]
    with pytest.warns(SeriesWarning):
        sr.analytic_series(derivs, 1.0)


def test_reflected_inverse_routes():
    """U* of z -> k_alpha(-z) by the involution J: apply_J_monomial on U* k_alpha = c0 x^e0."""
    alpha = 0.4
    x = np.array([0.3, 0.5, 0.8])
    ac = np.conj(alpha)
    c0, e0 = 1 / (1 - ac), ac / (1 - ac)
    jc, jexp = lg.apply_J_monomial(e0)
    got = c0 * jc * x**jexp.s
    # the involution route in closed form: (1/(1+conj(a))) x^(-conj(a)/(1+conj(a)))
    ref = (1 / (1 + ac)) * x ** (-ac / (1 + ac))
    assert np.max(np.abs(got - ref)) < 1e-12
    # the other reading, 1/x substituted in the plain inverse c0 x^e0, disagrees
    suspect = c0 * (1.0 / x) ** e0
    assert np.max(np.abs(suspect - ref)) > 1e-2


def test_disk_function_validation():
    with pytest.raises(DomainError):
        sr.DiskFunction(((1.0, 1.2),))
    with pytest.raises(DomainError):
        sr.DiskFunction(((1.0, 0.5), (2.0, 1j)))
    with pytest.raises(DomainError):
        sr.DiskFunction(((1.0, 0.5),)).taylor(0)
    for s in (0.5, 1.0):  # the indicator's image, with one atom and with none
        with pytest.raises(DomainError, match="^need at least one Taylor coefficient$"):
            sr.forward_indicator(s).taylor(0)
    # a singular inner factor is an atomic.InnerFunction, whose measure checks its atoms
    with pytest.raises(DomainError):
        at.InnerFunction(at.AtomicMeasure.single(0.5, 1.0))
    with pytest.raises(DomainError):
        at.InnerFunction(at.AtomicMeasure.single(1.0, -1.0))
