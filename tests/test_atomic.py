"""Tests for atomic spaces, singular inner functions, and model-space distances."""

import cmath
import math
import warnings

import mpmath as mp
import numpy as np
import pytest
import scipy.special

from monospan import atomic as at
from monospan.core import Exponent
from monospan.errors import (
    ConvergenceWarning,
    DomainError,
    NumericalError,
    SizeLimitError,
    TruncationWarning,
)
from monospan.laguerre import LaguerreExpansion, expand_monomial


def test_params_derived_values():
    p1 = at.AtomicSpaceParams(1.0, 0.5)
    assert p1.c is None and p1.wp == 0.5
    pi = at.AtomicSpaceParams(1j, 0.5)
    assert abs(pi.c - (-0.5)) < 1e-14
    assert abs(pi.wp - 1.0) < 1e-14
    pm = at.AtomicSpaceParams(-1.0, 0.7)
    assert pm.c == 0.0 and abs(pm.wp - 0.7) < 1e-15
    # the defining relation holds: tau = (2ic+1)/(2ic-1)
    for tau in (1j, cmath.exp(2.2j), cmath.exp(-0.4j)):
        p = at.AtomicSpaceParams(tau, 1.0)
        rebuilt = (2j * p.c + 1) / (2j * p.c - 1)
        assert abs(rebuilt - tau) < 1e-9


def test_params_validation():
    with pytest.raises(DomainError):
        at.AtomicSpaceParams(0.5, 1.0)
    with pytest.raises(DomainError):
        at.AtomicSpaceParams(1.0, 0.0)
    with pytest.raises(DomainError):
        at.AtomicSpaceParams(1.0, -1.0)


def test_proj_norm_sq_atom_at_one():
    for w in (0.25, 0.5, 1.0):
        p = at.AtomicSpaceParams(1.0, w)
        assert abs(at.proj_norm_sq(p, 0.0) - (1 - math.exp(-2 * w))) < 1e-15
    # saturation: huge mass projects everything fully
    p_big = at.AtomicSpaceParams(1.0, 400.0)
    s = 0.8 + 0.3j
    assert abs(at.proj_norm_sq(p_big, s) - 1 / (1 + 2 * 0.8)) < 1e-14


def test_proj_norm_sq_atom_at_minus_one():
    w = 0.6
    p = at.AtomicSpaceParams(-1.0, w)
    for s in (0.0 + 0j, 0.5 + 0.25j, 1.0 - 1.0j):
        u, v = s.real, s.imag
        expected = (1 - math.exp(-2 * w * (1 + 2 * u) / ((1 + 2 * u) ** 2 + 4 * v**2))) / (1 + 2 * u)
        assert abs(at.proj_norm_sq(p, s) - expected) < 1e-15


def test_atom_at_one_is_large_c_limit():
    """The tau = 1 formula is the c -> infinity limit of the general one."""
    s = 0.3 + 0.2j
    w = 0.7
    target = at.proj_norm_sq(at.AtomicSpaceParams(1.0, w), s)
    devs = []
    for c in (1e2, 1e4, 1e6):
        tau = (2j * c + 1) / (2j * c - 1)
        devs.append(abs(at.proj_norm_sq(at.AtomicSpaceParams(tau, w), s) - target))
    assert devs[0] > devs[1] > devs[2]
    assert devs[2] < 1e-6


def test_projection_never_exceeds_norm():
    rng = np.random.default_rng(3)
    for _ in range(60):
        tau = cmath.exp(1j * rng.uniform(0, 2 * np.pi))
        p = at.AtomicSpaceParams(tau, rng.uniform(0.05, 5.0))
        s = complex(rng.uniform(-0.45, 3.0), rng.uniform(-3.0, 3.0))
        assert at.proj_norm_sq(p, s) <= 1 / (1 + 2 * s.real) + 1e-15


def test_proj_norm_sq_rejects_log_weights():
    p = at.AtomicSpaceParams(1.0, 0.5)
    with pytest.raises(DomainError):
        at.proj_norm_sq(p, Exponent(0.0, 0.0, 1))


def test_proj_norm_sq_is_one_atom_complement():
    """proj_norm_sq is (1 - |phi(alpha)|^2)/(2 Re s + 1), the kernel formula's complement."""
    rng = np.random.default_rng(11)
    for k in range(200):
        tau = 1.0 if k % 3 == 0 else cmath.exp(1j * rng.uniform(0.1, 6.2))
        w = rng.uniform(0.1, 2.0)
        s = complex(rng.uniform(-0.3, 3.0), rng.uniform(-2.0, 2.0))
        alpha = s.conjugate() / (s.conjugate() + 1)
        phi = abs(at.InnerFunction(at.AtomicMeasure.single(tau, w)).evaluate(alpha))
        complement = (1 - phi**2) / (1 + 2 * s.real)
        assert at.proj_norm_sq(at.AtomicSpaceParams(tau, w), s) == pytest.approx(complement, rel=1e-14)


def test_profiles_separate_parameters():
    params = [
        at.AtomicSpaceParams(1.0, 0.5),
        at.AtomicSpaceParams(1.0, 0.7),
        at.AtomicSpaceParams(-1.0, 0.5),
        at.AtomicSpaceParams(1j, 0.5),
    ]
    probes = (0.0, 0.5 + 0.5j, 1.0 - 1.0j)
    profs = [np.array([at.proj_norm_sq(p, s) for s in probes]) for p in params]
    for i in range(len(profs)):
        for j in range(i + 1, len(profs)):
            assert np.max(np.abs(profs[i] - profs[j])) > 1e-3


def test_singular_inner_taylor_against_laguerre_oracle():
    """Coefficients of exp(-w(1+z)/(1-z)) are e^-w (L_n(2w) - L_{n-1}(2w))."""
    N = 512
    for w in (0.25, 1.0):
        got = at.singular_inner_taylor(1.0, w, N)
        n = np.arange(N)
        ref = np.exp(-w) * (
            scipy.special.eval_laguerre(n, 2 * w)
            - np.where(n > 0, scipy.special.eval_laguerre(n - 1, 2 * w), 0.0)
        )
        assert np.max(np.abs(got - ref)) < 1e-12


def test_singular_inner_taylor_rotated_atom():
    tau = cmath.exp(0.9j)
    w = 0.5
    N = 512
    coeffs = at.singular_inner_taylor(tau, w, N)
    F = at.InnerFunction(at.AtomicMeasure.single(tau, w))
    for z in (0.0, 0.3, -0.2 + 0.4j):
        series = np.polynomial.polynomial.polyval(z, coeffs)
        assert abs(series - F.evaluate(z)) < 1e-10


def _singular_inner_taylor_loop(tau, w, N):
    """The recurrence on the entries of a float64 array, one index at a time."""
    b = np.zeros(N)
    b[0] = math.exp(-w)
    if N > 1:
        b[1] = -2 * w * b[0]
    for n in range(1, N - 1):
        b[n + 1] = ((2 * n - 2 * w) * b[n] - (n - 1) * b[n - 1]) / (n + 1)
    if abs(tau - 1) < 1e-15:
        return b.astype(complex)
    return b * tau ** (-np.arange(N))


@pytest.mark.parametrize("N", [1, 2, 3, 8192])
def test_singular_inner_taylor_equals_array_loop(N):
    for tau in (1.0, cmath.exp(0.9j)):
        for w in (0.0, 0.37, 2.5):
            got = at.singular_inner_taylor(tau, w, N)
            want = _singular_inner_taylor_loop(tau, w, N)
            assert got.dtype == want.dtype and np.array_equal(got, want), (tau, w)


def test_singular_inner_taylor_validation():
    with pytest.raises(DomainError):
        at.singular_inner_taylor(0.9, 0.5, 8)
    with pytest.raises(DomainError):
        at.singular_inner_taylor(1.0, -0.5, 8)
    with pytest.raises(DomainError):
        at.singular_inner_taylor(1.0, 0.5, 0)


def test_inner_function_contractive_and_modulus():
    rng = np.random.default_rng(11)
    mu = at.AtomicMeasure(((1.0 + 0j, 0.4), (-1.0 + 0j, 0.3)))
    F = at.InnerFunction(mu)
    for _ in range(40):
        z = 0.95 * rng.uniform(0, 1) * cmath.exp(1j * rng.uniform(0, 2 * np.pi))
        val = F.evaluate(z)
        assert abs(val) < 1.0
        # |S(z)| is the kernel formula's numerator at the s with alpha = z
        s = (z / (1 - z)).conjugate()
        assert abs(at.kernel_distance(mu, s) * math.sqrt(2 * s.real + 1) - abs(val)) < 1e-12


def test_inner_function_radial_limit_off_atoms():
    F = at.InnerFunction(at.AtomicMeasure.single(1.0, 0.5))
    # approaching the circle away from the atom, the modulus climbs to 1
    assert abs(F.evaluate(-0.999)) > 0.99
    assert abs(F.evaluate(0.999j * 1.0)) > 0.99


def test_inner_function_atom_collision():
    F = at.InnerFunction(at.AtomicMeasure.single(1.0, 0.5))
    with pytest.raises(NumericalError):
        F.evaluate(1.0 - 5e-15)


def test_two_atoms_multiply():
    mu1 = at.AtomicMeasure.single(1.0, 0.4)
    mu2 = at.AtomicMeasure.single(-1.0, 0.3)
    both = at.AtomicMeasure(((1.0 + 0j, 0.4), (-1.0 + 0j, 0.3)))
    z = 0.2 + 0.3j
    lhs = at.InnerFunction(both).evaluate(z)
    rhs = at.InnerFunction(mu1).evaluate(z) * at.InnerFunction(mu2).evaluate(z)
    assert abs(lhs - rhs) < 1e-14
    # and the Taylor coefficients convolve accordingly
    N = 64
    conv = np.convolve(at.InnerFunction(mu1).taylor(N), at.InnerFunction(mu2).taylor(N))[:N]
    assert np.max(np.abs(at.InnerFunction(both).taylor(N) - conv)) < 1e-13


def test_measure_validation_and_json():
    with pytest.raises(DomainError):
        at.AtomicMeasure(((1.0 + 0j, 0.5), (1.0 + 0j, 0.25)))
    with pytest.raises(DomainError):
        at.AtomicMeasure(((1.0 + 0j, 0.0),))
    with pytest.raises(DomainError):
        at.AtomicMeasure(((0.5 + 0j, 1.0),))
    mu = at.AtomicMeasure(((1j, 0.5), (-1.0 + 0j, 0.25)))
    assert abs(mu.total_mass - 0.75) < 1e-15
    back = at.AtomicMeasure.from_json(mu.to_json())
    assert back == mu
    with pytest.raises(DomainError):
        at.AtomicMeasure.from_json({"masses": []})


def test_measure_moments():
    mu = at.AtomicMeasure(((1j, 0.5), (-1.0 + 0j, 0.25)))
    m = mu.moments(3)
    expected = [0.75, 0.5j - 0.25, -0.5 + 0.25, -0.5j - 0.25]
    assert np.max(np.abs(m - np.array(expected))) < 1e-14


def test_conjugation_identity_on_grid():
    rng = np.random.default_rng(7)
    grid = rng.uniform(0.05, 0.6, 50) * np.exp(1j * rng.uniform(0, 2 * np.pi, 50))
    for c in (0.5, 1.0, 2.0):
        dev, const = at.conjugation_identity_check(c, 1.0, grid)
        assert dev < 1e-10
        assert abs(abs(const) - 1.0) < 1e-10
        w = 1.0 / (1 + 4 * c * c)
        assert abs(const - cmath.exp(2j * c * w)) < 1e-12


def test_conjugation_identity_degenerate_c():
    dev, const = at.conjugation_identity_check(0.0, 1.0, [0.1, 0.2 + 0.1j])
    assert dev < 1e-14
    assert abs(const - 1.0) < 1e-14
    with pytest.raises(DomainError):
        at.conjugation_identity_check(1.0, 0.0, [0.1])


def test_model_space_distance_empty_measure():
    """phi = 1 has the model space {0}, so the distance is ||f||."""
    for s in (0.0, 0.3 + 0.4j):
        f = expand_monomial(s, 64)
        d = at.model_space_distance(f, at.AtomicMeasure(()), 256)
        assert d == pytest.approx(float(np.linalg.norm(f.coeffs)), rel=1e-15)
        assert d == pytest.approx(1 / math.sqrt(2 * s.real + 1), rel=1e-12)  # ||x^s||


def test_model_space_distance_against_closed_form():
    """Cross-module check: the Toeplitz route approaches the exact distance."""
    w = 0.5
    mu = at.AtomicMeasure.single(1.0, w)
    f = expand_monomial(0.0, 2047)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        d = at.model_space_distance(f, mu, 4096)
    exact_sq = 1.0 - at.proj_norm_sq(at.AtomicSpaceParams(1.0, w), 0.0)
    assert abs(d - math.sqrt(exact_sq)) < 0.01 * math.sqrt(exact_sq)


def _kernel_distance_mp(mu, s, dps=40):
    """|phi(alpha)| / sqrt(2 Re s + 1) at dps digits, alpha = conj(s)/(conj(s)+1).

    Each atom is taken as tau/|tau|: a float atom is unimodular only to rounding,
    and the measure it stands for has its atoms on the circle.
    """
    with mp.workdps(dps):
        sm = mp.mpc(s.real, s.imag)
        alpha = mp.conj(sm) / (mp.conj(sm) + 1)
        log_phi = mp.mpc(0)
        for tau, w in mu.atoms:
            t = mp.mpc(tau.real, tau.imag)
            t /= abs(t)
            log_phi -= mp.mpf(w) * (t + alpha) / (t - alpha)
        return mp.exp(mp.re(log_phi)) / mp.sqrt(2 * mp.re(sm) + 1)


def test_kernel_distance_against_mpmath():
    rng = np.random.default_rng(7)
    for k in range(120):
        atoms = []
        for j in range(1 + k % 3):
            tau = 1.0 if j == 0 and k % 2 else cmath.exp(1j * rng.uniform(0.1, 6.2))
            atoms.append((tau, rng.uniform(0.05, 2.0)))
        mu = at.AtomicMeasure(tuple(atoms))
        re = -0.49 if k % 4 == 0 else rng.uniform(-0.45, 3.0)
        s = complex(re, rng.uniform(-2.0, 2.0))
        ref = _kernel_distance_mp(mu, s)
        assert abs(at.kernel_distance(mu, s) - ref) <= 1e-12 * ref, (atoms, s)
    with pytest.raises(DomainError):
        at.kernel_distance(mu, Exponent(0.5, 0.0, 1))
    with pytest.raises(DomainError):
        at.kernel_distance(mu, -0.6)


def test_kernel_distance_for_large_exponents():
    # alpha = conj(s)/(conj(s)+1) rounds onto the circle in double for |s| >= 1e16;
    # the distance stays finite, and the reference forms alpha at enough digits
    rng = np.random.default_rng(17)
    mu = at.AtomicMeasure(((cmath.exp(-0.3j), 0.3), (1j, 0.5), (cmath.exp(2.5j), 1.2)))
    for e in (8, 16, 17, 40, 150, 200, 300):
        for s in (10.0 ** e, complex(10.0 ** e, -(10.0 ** e)), complex(rng.uniform(-0.4, 2.0), 10.0 ** e)):
            ref = _kernel_distance_mp(mu, s, dps=e + 40)
            assert abs(at.kernel_distance(mu, s) - ref) <= 1e-13 * ref, s


def test_kernel_distance_for_large_exponents_near_an_atom_inside_the_circle():
    # |tau| = 1 - 5e-13 passes the unimodular check; the distance never exceeds
    # 1/sqrt(2 Re s + 1), as for an atom on the circle.  It depends on tau - 1 (about
    # 1e-8i), which the floats carry to about 5e-9 relative, so it agrees with the
    # tau/|tau| reference to that much and no further
    mu = at.AtomicMeasure(((complex(0.9999999999995, 1e-8), 1.0),))
    for s in (1e16, 1e17, 1e20, complex(1e17, 1e17), complex(0.3, 1e17), 1e300):
        d, ref = at.kernel_distance(mu, s), _kernel_distance_mp(mu, s, dps=340)
        assert 0 < d <= 1 / math.sqrt(2 * s.real + 1), s
        assert abs(d - ref) <= 1e-8 * ref, s


def test_model_space_distance_monotone_from_below():
    """The Toeplitz route rises with N towards the kernel formula's value, never past it."""
    cases = [
        (at.AtomicMeasure.single(1.0, 0.5), 0.0),
        (at.AtomicMeasure.single(cmath.exp(2.1j), 0.8), 0.4 - 0.3j),
        (at.AtomicMeasure(((1.0, 0.3), (1j, 0.25), (-1.0, 0.4))), 0.5 + 0.2j),
    ]
    for mu, s in cases:
        f = expand_monomial(s)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationWarning)
            vals = [at.model_space_distance(f, mu, N) for N in (256, 512, 1024, 2048, 4096)]
        exact = at.kernel_distance(mu, s)
        assert all(b > a for a, b in zip(vals, vals[1:]))
        assert all(v < exact for v in vals)
        gaps = [exact - v for v in vals]
        assert gaps[-1] < 0.01 * exact and gaps[-1] < gaps[0] / 3  # the gap falls like N^(-1/2)


def test_model_space_distance_is_rotation_invariant_for_constants():
    """For f = x^0 the distance is the same for every atom position.

    The inner function of a rotated atom is a diagonal phase conjugation of
    the atom at 1, and the constant function is an eigenvector of that
    diagonal, so the truncated projection norms agree exactly.
    """
    f = expand_monomial(0.0, 63)
    vals = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        for tau in (1.0, -1.0, 1j, cmath.exp(0.7j)):
            vals.append(at.model_space_distance(f, at.AtomicMeasure.single(tau, 0.5), 512))
    assert max(vals) - min(vals) < 1e-12


def test_model_space_distance_sensitivity_warning():
    f = expand_monomial(0.0, 63)
    mu = at.AtomicMeasure.single(1.0, 1.0)
    with pytest.warns(TruncationWarning):
        at.model_space_distance(f, mu, 64)


def test_model_space_distance_limits():
    f = expand_monomial(0.0, 8)
    mu = at.AtomicMeasure.single(1.0, 0.5)
    with pytest.raises(DomainError):
        at.model_space_distance(f, mu, 1)
    with pytest.raises(SizeLimitError):
        at.model_space_distance(f, mu, 8193)


def _zero_padded_distance(f, mu, n):
    """||T_phi T_phibar f|| with f zero-padded to n and both steps at full length, O(n^2)."""
    phi = at.InnerFunction(mu).taylor(n)
    fc = np.zeros(n, dtype=complex)
    m = min(n, len(f.coeffs))
    fc[:m] = f.coeffs[:m]
    g = at._toeplitz_coanalytic_apply(phi, fc)
    return float(np.linalg.norm(at._toeplitz_analytic_apply(phi, g)))


def _seeded_measures():
    rng = np.random.default_rng(2024)
    yield at.AtomicMeasure.single(1.0, 0.8)
    for count in (1, 2, 3):
        taus = np.exp(1j * (rng.uniform(0, 2 * np.pi) + 2 * np.pi * np.arange(count) / count))
        yield at.AtomicMeasure(tuple((complex(t), rng.uniform(0.1, 2.0)) for t in taus))


@pytest.mark.parametrize("N", [2, 3, 7, 256, 2048])
def test_model_space_distance_matches_zero_padded_route(N):
    """Reading only f's support and phi's prefix changes no value beyond rounding.

    f is shorter than N/2, between N/2 and N, and longer than N.
    """
    rng = np.random.default_rng(N)
    lengths = sorted({max(1, N // 2 - 1), max(1, (3 * N) // 4), N + 5})
    for mu in _seeded_measures():
        for m in lengths:
            f = LaguerreExpansion(rng.standard_normal(m) + 1j * rng.standard_normal(m))
            with warnings.catch_warnings(record=True) as rec:
                warnings.simplefilter("always")
                got = at.model_space_distance(f, mu, N)
            full, half = _zero_padded_distance(f, mu, N), _zero_padded_distance(f, mu, N // 2)
            assert abs(got - full) <= 1e-15 * full
            warned = any(isinstance(w.message, TruncationWarning) for w in rec)
            assert warned == (abs(full - half) > 0.01 * max(full, 1e-9))


@pytest.mark.parametrize("N", [2, 7, 256, 8192])
def test_taylor_prefix_is_the_shorter_series(N):
    for mu in _seeded_measures():
        F = at.InnerFunction(mu)
        assert np.array_equal(F.taylor(N)[: N // 2], F.taylor(N // 2))


def test_weakstar_distances_equal_model_space_distance():
    """One series per measure gives model_space_distance's bits, the empty measure included."""
    mus = [at.AtomicMeasure(())] + [at.AtomicMeasure.single(cmath.exp(1j / n), 0.5) for n in (2, 4)]
    mus += _seeded_measures()
    lim = at.AtomicMeasure.single(1.0, 0.5)
    fs = [expand_monomial(0.3 + 0.2j), expand_monomial(-0.45)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rep = at.weakstar_experiment(mus, lim, fs, N=512)
        assert np.array_equal(
            rep.distances, [[at.model_space_distance(f, mu, 512) for mu in mus] for f in fs]
        )
        lims = [at.model_space_distance(f, lim, 512) for f in fs]
        assert np.array_equal(rep.limit_distances, lims)


@pytest.mark.parametrize("N", [1, 2, 7, 300])
def test_toeplitz_coanalytic_apply_equals_explicit_sum(N):
    """The correlation matches (T f)_m = sum_j conj(phi_j) f_{m+j} written out as a loop."""
    rng = np.random.default_rng(N)
    phi = rng.standard_normal(N) + 1j * rng.standard_normal(N)
    f = rng.standard_normal(N) + 1j * rng.standard_normal(N)
    expected = np.empty(N, dtype=complex)
    pc = np.conj(phi)
    for m in range(N):
        expected[m] = np.dot(pc[: N - m], f[m:])
    assert np.array_equal(at._toeplitz_coanalytic_apply(phi, f), expected)


def test_toeplitz_projection_near_idempotent():
    """The truncated projection residual shrinks as the truncation doubles.

    The residual scale is set by the tail mass of the truncated inner
    symbol (about N^(-1/2)), so it cannot be driven to zero at fixed N;
    what must hold is the monotone decrease across doublings and smallness
    relative to the actual distance scale.
    """
    mu = at.AtomicMeasure.single(1.0, 0.5)
    resid = []
    for N in (512, 1024, 2048):
        phi = at.InnerFunction(mu).taylor(N)
        fc = np.zeros(N, dtype=complex)
        e = expand_monomial(0.0, N - 1)
        fc[: len(e.coeffs)] = e.coeffs
        proj = at._toeplitz_analytic_apply(phi, at._toeplitz_coanalytic_apply(phi, fc))
        g = fc - proj
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationWarning)
            resid.append(at.model_space_distance(LaguerreExpansion(g), mu, N))
    assert resid[0] > resid[1] > resid[2]
    assert resid[2] < 0.05


def test_weakstar_drifting_atoms():
    mus = [at.AtomicMeasure.single(cmath.exp(1j / n), 0.5) for n in (2, 4, 8, 16, 32)]
    lim = at.AtomicMeasure.single(1.0, 0.5)
    f_rot = expand_monomial(2j, 400)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        rep = at.weakstar_experiment(mus, lim, [f_rot], N=1024)
    assert np.all(np.diff(rep.moment_deviations) < 0)
    assert np.all(np.diff(rep.phi_gaps) < 0)
    dev = np.abs(rep.distances[0] - rep.limit_distances[0])
    assert np.all(np.diff(dev) < 0)
    assert dev[-1] < 0.05


def test_weakstar_atom_splitting():
    w = 0.6
    seq = [
        at.AtomicMeasure((((1.0 + 0j), w / 2), (cmath.exp(1j * eps), w / 2)))
        for eps in (0.5, 0.25, 0.1, 0.05)
    ]
    lim = at.AtomicMeasure.single(1.0, w)
    f_rot = expand_monomial(2j, 400)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        rep = at.weakstar_experiment(seq, lim, [f_rot], N=1024)
    dev = np.abs(rep.distances[0] - rep.limit_distances[0])
    assert np.all(np.diff(dev) < 0)


def test_weakstar_constant_sequence():
    lim = at.AtomicMeasure.single(1.0, 0.5)
    mus = [lim] * 3
    f = expand_monomial(0.0, 64)
    with warnings.catch_warnings(record=True) as rec:
        warnings.simplefilter("always")
        rep = at.weakstar_experiment(mus, lim, [f], N=512)
    assert not any(isinstance(w.message, ConvergenceWarning) for w in rec)
    assert np.max(rep.moment_deviations) == 0.0
    assert np.max(rep.phi_gaps) == 0.0
    assert np.max(np.abs(rep.distances[0] - rep.limit_distances[0])) < 1e-14


def test_weakstar_flags_non_convergent_sequence():
    mus = [at.AtomicMeasure.single(-1.0, 0.5)] * 3
    lim = at.AtomicMeasure.single(1.0, 0.5)
    f = expand_monomial(0.0, 64)
    with pytest.warns(ConvergenceWarning):
        at.weakstar_experiment(mus, lim, [f], N=256)


def test_weakstar_validation():
    lim = at.AtomicMeasure.single(1.0, 0.5)
    f = expand_monomial(0.0, 8)
    with pytest.raises(DomainError):
        at.weakstar_experiment([], lim, [f])
    with pytest.raises(DomainError):
        at.weakstar_experiment([lim], lim, [])
