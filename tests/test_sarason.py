"""Tests for the L2[0,1] <-> Hardy-space transform and its closed forms."""

import cmath
import math

import numpy as np
import pytest
import scipy.special

from monospan import laguerre as lg
from monospan import sarason as sr
from monospan.core import Exponent, monomial_inner
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


def test_forward_monomial_matches_quadrature():
    rng = np.random.default_rng(5)
    for _ in range(12):
        s = complex(rng.uniform(-0.3, 2.0), rng.uniform(-2.0, 2.0))
        z = 0.6 * rng.uniform(0, 1) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        closed = sr.forward_monomial(s).evaluate(z)
        quad = sr.forward_quadrature(sr.monomial_function(s), z)
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
    F = sr.DiskFunction("kernel", terms=((1.0, a),))
    G = sr.DiskFunction("kernel", terms=((1.0, g),))
    # <k_a, k_g> = k_a(g) = 1/(1 - conj(a) g)
    assert abs(sr.h2_inner(F, G, 512) - 1 / (1 - np.conj(a) * g)) < 1e-12


def test_inverse_kernel_round_trip():
    rng = np.random.default_rng(23)
    for _ in range(20):
        beta = complex(rng.uniform(-0.4, 2.0), rng.uniform(-2.0, 2.0))
        img = sr.forward_monomial(beta)
        (c, alpha), = img.terms
        const, expo = sr.inverse_kernel(alpha)
        assert abs(expo.s - beta) < 1e-12 * (1 + abs(beta))
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
    assert F.kind == "inner-singular"
    assert abs(F.tau - 1.0) < 1e-15
    assert abs(F.w - (-0.5 * math.log(0.25))) < 1e-15
    assert abs(F.scale - 0.5) < 1e-15
    # at z = 0 the transform is the plain integral of the indicator
    assert abs(F.evaluate(0.0) - 0.25) < 1e-14


def test_forward_indicator_matches_quadrature():
    rng = np.random.default_rng(41)
    pts = 0.55 * rng.uniform(0.1, 1.0, 5) * np.exp(1j * rng.uniform(0, 2 * np.pi, 5))
    for s in (0.1, 0.5, 0.9):
        closed = sr.forward_indicator(s)
        sampled = sr.indicator_function(s)
        for z in pts:
            quad = sr.forward_quadrature(sampled, z)
            assert abs(closed.evaluate(z) - quad.value) < 1e-8


def test_forward_quadrature_log_monomial():
    """The quadrature route covers log weights, which the closed form refuses."""
    with pytest.raises(DomainError, match="forward_quadrature"):
        sr.forward_monomial(Exponent(0.5, 0.0, 1))
    z = 0.3 + 0.4j
    wz = z / (1 - z)
    got = sr.forward_quadrature(sr.monomial_function(Exponent(0.5, 0.0, 1)), z)
    exact = (1 / (1 - z)) * (-1 / (0.5 + wz + 1) ** 2)
    assert abs(got.value - exact) < 1e-10


def test_moment_interpolation_dictionary():
    s = 0.7 + 0.3j
    n_list = range(6)
    moments = [1 / (s + n + 1) for n in n_list]
    vals = sr.moment_interpolation(moments, "moments-to-values")
    for n, v in zip(n_list, vals):
        z = n / (n + 1)
        assert abs(v - sr.forward_monomial(s).evaluate(z)) < 1e-12
    back = sr.moment_interpolation(vals, "values-to-moments")
    assert np.max(np.abs(np.array(back) - np.array(moments))) < 1e-14
    with pytest.raises(DomainError):
        sr.moment_interpolation([1.0], "sideways")


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
    alpha = 0.4
    x = np.array([0.3, 0.5, 0.8])
    got = sr.reflected_inverse_as_stated(alpha, x)
    # the involution route in closed form: (1/(1+conj(a))) x^(-conj(a)/(1+conj(a)))
    ac = np.conj(alpha)
    ref = (1 / (1 + ac)) * x ** (-ac / (1 + ac))
    assert np.max(np.abs(got - ref)) < 1e-12
    suspect = sr.reflected_inverse_as_stated(alpha, x, as_stated_suspect=True)
    assert np.max(np.abs(suspect - ref)) > 1e-2


def test_disk_function_validation():
    with pytest.raises(DomainError):
        sr.DiskFunction("kernel", terms=((1.0, 1.2),))
    with pytest.raises(DomainError):
        sr.DiskFunction("inner-singular", tau=0.5, w=1.0)
    with pytest.raises(DomainError):
        sr.DiskFunction("inner-singular", tau=1.0, w=-1.0)
    with pytest.raises(DomainError):
        sr.DiskFunction("mystery")
