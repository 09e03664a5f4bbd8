"""The acceptance suite: one callable per criterion, with pinned tolerances.

Each criterion recomputes its target through an independent route (closed
forms against quadrature, matrix routes against monomial routes, library
formulas against high-precision reevaluation) and reports the measured
margin next to the tolerance it was held to.  Wall-clock budgets are part
of the contract for the criteria that carry them; a budget overrun fails
the criterion even when every numeric margin passes.
"""

from __future__ import annotations

import cmath
import math
import time
import warnings
from dataclasses import dataclass

import mpmath as mp
import numpy as np

from .atomic import (
    AtomicMeasure,
    AtomicSpaceParams,
    conjugation_identity_check,
    kernel_distance,
    model_space_distance,
    proj_norm_sq,
)
from .convergence import distance_curve, interval_family, muntz_family
from .core import (
    AffineSequence,
    GeometricSequence,
    MonomialSet,
    PiecewiseMonomial,
    distance_to_span,
    gram_build,
    monomial_distance_closed_form,
    muntz_verdict,
)
from .errors import NumericalError, TruncationWarning
from .laguerre import (
    apply_J_expansion,
    apply_J_monomial,
    default_truncation,
    eval_basis,
    expand_monomial,
)
from .operators import AutomorphismParams, hat_matrix, monomial_operator, unitary_from_automorphism
from .quadrature import integrate_family
from .sarason import (
    forward_indicator,
    forward_monomial,
    forward_quadrature,
    h2_inner,
    indicator_function,
    inverse_analytic,
)

DEFAULT_SEED = 20260818


@dataclass(frozen=True)
class CriterionResult:
    """Outcome of one acceptance criterion."""

    index: int
    name: str
    passed: bool
    detail: str
    elapsed_s: float


def _finish(index: int, name: str, t0: float, checks, budget: float | None = None) -> CriterionResult:
    elapsed = time.perf_counter() - t0
    passed = all(ok for ok, _ in checks)
    msgs = [m for _, m in checks]
    if budget is not None:
        if elapsed < budget:
            msgs.append(f"runtime within {budget:g} s budget")
        else:
            passed = False
            msgs.append(f"runtime budget {budget:g} s exceeded")
    return CriterionResult(index, name, passed, "; ".join(msgs), elapsed)


def criterion_1() -> CriterionResult:
    """Transform isometry: disk-side Gram of the monomial images vs the Hilbert matrix."""
    t0 = time.perf_counter()
    Fs = [forward_monomial(float(j)) for j in range(9)]
    dev = 0.0
    for i in range(9):
        for j in range(9):
            got = h2_inner(Fs[i], Fs[j], N=512)
            dev = max(dev, abs(got - 1.0 / (i + j + 1)))
    checks = [(dev < 1e-9, f"max Gram deviation {dev:.3e} (tol 1e-9)")]
    return _finish(1, "transform isometry on monomials", t0, checks, budget=5.0)


def criterion_2() -> CriterionResult:
    """Indicator transform: closed inner-function form vs one forward_quadrature family per indicator."""
    t0 = time.perf_counter()
    zs = [(0.15 + 0.7 * k / 19) * cmath.exp(2j * math.pi * k / 20) for k in range(20)]
    dev = max(abs(forward_indicator(s).evaluate(z) - q.value)
              for s in (0.1, 0.5, 0.9) for z, q in zip(zs, forward_quadrature(indicator_function(s), zs)))
    checks = [(dev < 1e-8, f"max closed-form vs quadrature deviation {dev:.3e} (tol 1e-8)")]
    return _finish(2, "indicator transform", t0, checks, budget=10.0)


def criterion_3() -> CriterionResult:
    """Basis orthonormality by one quadrature family of the 66 e_i e_j, and the J operator's two routes."""
    t0 = time.perf_counter()
    n_basis = 11
    i, j = np.triu_indices(n_basis)

    def products(x: np.ndarray, k: np.ndarray) -> np.ndarray:
        rows, cols = eval_basis(n_basis - 1, x), np.arange(len(x))
        return rows[i[k], cols] * rows[j[k], cols]

    vals = integrate_family(products, 0.0, 1.0, [()] * len(i), tol=1e-10)
    dev_orth = max(abs(r.value - (1.0 if a == b else 0.0)) for a, b, r in zip(i, j, vals))
    dev_j = 0.0
    for s in (1.0 + 0.0j, 1.0j, 0.3 + 0.7j):
        c, e = apply_J_monomial(s)
        N = max(default_truncation(s), default_truncation(e.s), 64)
        via_coeffs = apply_J_expansion(expand_monomial(s, N)).coeffs
        via_monomial = c * expand_monomial(e.s, N).coeffs
        dev_j = max(dev_j, float(np.max(np.abs(via_coeffs - via_monomial))))
    checks = [
        (dev_orth < 1e-8, f"max orthonormality defect {dev_orth:.3e} (tol 1e-8)"),
        (dev_j < 1e-10, f"max J route deviation {dev_j:.3e} (tol 1e-10)"),
    ]
    return _finish(3, "basis orthonormality and the J routes", t0, checks)


def criterion_4() -> CriterionResult:
    """Interval-family distances: exact rational values and Gram cross-checks."""
    t0 = time.perf_counter()
    fam = interval_family(0.25)
    dev_exact = 0.0
    d100 = math.nan
    for n in range(1, 1001):
        S = fam.set_at(n)
        d = monomial_distance_closed_form(0.0, S)
        dev_exact = max(dev_exact, abs(d - (n + 1) / (2 * n + 1)))
        if n == 100:
            d100 = d
    dev_gram = 0.0
    one = PiecewiseMonomial.monomial(0.0)
    for S in map(fam.set_at, range(1, 9)):
        dev_gram = max(dev_gram, abs(monomial_distance_closed_form(0.0, S) - distance_to_span(one, S).distance))
    checks = [
        (dev_exact < 1e-12, f"max deviation from (n+1)/(2n+1) is {dev_exact:.3e} (tol 1e-12, n <= 1000)"),
        (abs(d100 - 0.5) < 3e-3, f"|dist(100) - 1/2| = {abs(d100 - 0.5):.3e} (tol 3e-3)"),
        (dev_gram < 1e-8, f"max closed-form vs Gram deviation {dev_gram:.3e} (tol 1e-8, n <= 8)"),
    ]
    return _finish(4, "interval family distances", t0, checks, budget=1.0)


def criterion_5() -> CriterionResult:
    """Density verdicts against observed distance curves for x^(1/2)."""
    t0 = time.perf_counter()
    f = PiecewiseMonomial.monomial(0.5)

    dense_seq = AffineSequence(1.0, 0.0)
    v_dense = muntz_verdict(dense_seq, "complex")
    curve, _ = distance_curve(f, muntz_family(dense_seq), 200)
    below = np.nonzero(curve < 1e-2)[0]
    first_n = int(below[0]) + 1 if len(below) else -1

    sparse_seq = GeometricSequence(1.0, 2.0)
    v_sparse = muntz_verdict(sparse_seq, "complex")
    curve2, _ = distance_curve(f, muntz_family(sparse_seq), 40)
    tail_diffs = float(np.max(np.abs(np.diff(curve2[29:]))))

    checks = [
        (v_dense.verdict == "dense", f"affine sequence verdict {v_dense.verdict!r}"),
        (0 < first_n <= 200, f"curve first drops below 1e-2 at n = {first_n} (need n <= 200)"),
        (v_sparse.verdict == "not-dense", f"geometric sequence verdict {v_sparse.verdict!r}"),
        (tail_diffs < 1e-10, f"max successive difference {tail_diffs:.3e} for n >= 30 (tol 1e-10)"),
        (curve2[-1] > 0, f"stabilized limit {curve2[-1]:.6f} is positive"),
    ]
    return _finish(5, "density verdicts vs distance curves", t0, checks)


def criterion_6() -> CriterionResult:
    """Atomic projection norms, algebraically, and the model-space distance oracle."""
    t0 = time.perf_counter()
    masses = (0.25, 0.5, 1.0)
    probes = (0.0 + 0.0j, 0.5 + 0.5j, 1.0 - 1.0j)
    dev_alg = 0.0
    for w in masses:
        p = AtomicSpaceParams(1.0, w)
        for s in probes:
            impl = proj_norm_sq(p, s)
            with mp.workdps(50):
                u = mp.mpf(s.real)
                ref = (1 - mp.e ** (-2 * mp.mpf(w) * (1 + 2 * u))) / (1 + 2 * u)
                rel = abs(impl - ref) / ref
            dev_alg = max(dev_alg, float(rel))
    # the kernel formula |phi(alpha)| / sqrt(2 Re s + 1), one atom and several
    dev_kernel = 0.0
    measures = [AtomicMeasure.single(1.0, w) for w in masses] + [
        AtomicMeasure(((1.0, 0.5), (1j, 0.25), (-1.0, 0.3))),
        AtomicMeasure(((cmath.exp(0.7j), 1.0), (cmath.exp(-2.0j), 0.25))),
    ]
    for mu in measures:
        for s in probes:
            impl = kernel_distance(mu, s)
            with mp.workdps(50):
                sm = mp.mpc(s.real, s.imag)
                alpha = mp.conj(sm) / (mp.conj(sm) + 1)
                log_phi = mp.mpf(0)
                for tau, w in mu.atoms:
                    t = mp.mpc(tau.real, tau.imag)
                    log_phi -= mp.mpf(w) * mp.re((t + alpha) / (t - alpha))
                ref = mp.exp(log_phi) / mp.sqrt(2 * mp.re(sm) + 1)
                dev_kernel = max(dev_kernel, float(abs(impl - ref) / ref))
    dev_model = 0.0
    dev_sens = 0.0
    f = expand_monomial(0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        for w in masses:
            mu = AtomicMeasure.single(1.0, w)
            d_full = model_space_distance(f, mu, 4096)
            d_half = model_space_distance(f, mu, 2048)
            target_sq = math.exp(-2 * w)
            dev_model = max(dev_model, abs(d_full**2 - target_sq) / target_sq)
            dev_sens = max(dev_sens, abs(d_full - d_half) / d_full)
    checks = [
        (dev_alg < 1e-14, f"projection-norm formula vs 50-digit reevaluation: rel dev {dev_alg:.3e} (tol 1e-14)"),
        (dev_kernel < 1e-14, f"kernel-formula distance vs 50-digit reevaluation: rel dev {dev_kernel:.3e} (tol 1e-14)"),
        (dev_model < 0.01, f"model distance^2 vs complement e^(-2w): rel dev {dev_model:.3e} (tol 1e-2)"),
        (dev_sens < 0.01, f"truncation sensitivity N/2 vs N: rel dev {dev_sens:.3e} (tol 1e-2)"),
    ]
    return _finish(6, "atomic projection norms and model distances", t0, checks, budget=60.0)


def criterion_7() -> CriterionResult:
    """Conjugation identity and the unimodularity of its recovered constant."""
    t0 = time.perf_counter()
    grid = [(0.04 + 0.8 * k / 49) * cmath.exp(2j * math.pi * k / 50) for k in range(50)]
    dev = 0.0
    dev_mod = 0.0
    for c in (0.5, 1.0, 2.0):
        d, const = conjugation_identity_check(c, 1.0, grid)
        dev = max(dev, d)
        dev_mod = max(dev_mod, abs(abs(const) - 1.0))
    checks = [
        (dev < 1e-10, f"max identity deviation {dev:.3e} (tol 1e-10)"),
        (dev_mod < 1e-10, f"max unimodularity defect of the constant {dev_mod:.3e} (tol 1e-10)"),
    ]
    return _finish(7, "conjugation identity", t0, checks)


def criterion_8() -> CriterionResult:
    """Monomial action vs hat-matrix action for the basic operators."""
    t0 = time.perf_counter()
    N = 256
    dev = 0.0
    for op in ("H", "X", "V"):
        mat = hat_matrix(op, N)
        T = monomial_operator(op)
        for s in (0.0 + 0.0j, 1.0 + 0.0j, 1.0j):
            src = expand_monomial(s, N - 1).coeffs
            c, e = T.apply(1.0, s)
            via_monomial = c * expand_monomial(e.s, N - 1).coeffs
            via_matrix = mat @ src
            dev = max(dev, float(np.max(np.abs(via_monomial - via_matrix))))
    checks = [(dev < 1e-8, f"max route deviation {dev:.3e} (tol 1e-8, N = 256)")]
    return _finish(8, "operator route equivalence", t0, checks)


def criterion_9() -> CriterionResult:
    """Inverse transform of e^(z-1) against the Bessel function J_0."""
    t0 = time.perf_counter()
    derivs = [1.0] * 40
    dev = 0.0
    for k in range(1, 21):
        x = 0.05 + 0.95 * k / 20
        got = inverse_analytic(derivs, x)
        ref = float(mp.besselj(0, 2 * math.sqrt(-math.log(x))))
        dev = max(dev, abs(got - ref))
    checks = [(dev < 1e-9, f"max deviation from J0(2 sqrt(-ln x)) is {dev:.3e} (tol 1e-9, 20 points)")]
    return _finish(9, "Bessel value of the inverse transform", t0, checks)


def _random_exponents(rng: np.random.Generator, m: int) -> np.ndarray:
    return rng.uniform(-0.45, 3.0, m) + 1j * rng.uniform(-3.0, 3.0, m)


def criterion_10(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Randomized property suites; every instance must pass."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)

    herm_ok = psd_ok = 0
    n_gram = 200
    for _ in range(n_gram):
        S = MonomialSet(_random_exponents(rng, int(rng.integers(1, 9))))
        G = gram_build(S)
        scale = float(np.max(np.abs(G)))
        if float(np.max(np.abs(G - G.conj().T))) <= 1e-14 * scale:
            herm_ok += 1
        eigs = np.linalg.eigvalsh(G)
        if float(eigs[0]) >= -1e-12 * max(1.0, float(eigs[-1])):
            psd_ok += 1

    mono_ok = 0
    n_mono = 150
    for _ in range(n_mono):
        base = _random_exponents(rng, int(rng.integers(1, 7)))
        extra = _random_exponents(rng, 1)
        t = complex(_random_exponents(rng, 1)[0])
        d1 = monomial_distance_closed_form(t, MonomialSet(base))
        d2 = monomial_distance_closed_form(
            t, MonomialSet(np.concatenate([base, extra]))
        )
        if d2 <= d1 + 1e-12:
            mono_ok += 1

    equiv_ok = 0
    n_equiv = 200
    for _ in range(n_equiv):
        S = MonomialSet(_random_exponents(rng, int(rng.integers(1, 9))))
        t = complex(_random_exponents(rng, 1)[0])
        d_closed = monomial_distance_closed_form(t, S)
        try:
            d_gram = distance_to_span(PiecewiseMonomial.monomial(t), S).distance
        except NumericalError:
            continue
        if abs(d_closed - d_gram) < 1e-8:
            equiv_ok += 1

    j_ok = 0
    n_j = 200
    for _ in range(n_j):
        s = complex(_random_exponents(rng, 1)[0])
        c1, e1 = apply_J_monomial(s)
        c2, e2 = apply_J_monomial(e1.s)
        if abs(e2.s - s) <= 1e-12 * (1 + abs(s)) and abs(c1 * c2 - 1) <= 1e-12:
            j_ok += 1

    uni_ok = 0
    n_uni = 100
    from .core import monomial_inner

    for _ in range(n_uni):
        a = float(rng.uniform(0.5, 2.0))
        b = float(rng.uniform(-1.0, 1.0))
        cc = float(rng.uniform(-1.0, 1.0))
        p = AutomorphismParams(a, b, cc, (1 + b * cc) / a)
        U = unitary_from_automorphism(p, c0_phase=float(rng.uniform(0, 2 * math.pi)))
        s1, s2 = (complex(v) for v in _random_exponents(rng, 2))
        c1, e1 = U.apply(1.0, s1)
        c2, e2 = U.apply(1.0, s2)
        before = monomial_inner(s1, s2)
        after = c1 * np.conj(c2) * monomial_inner(e1, e2)
        if abs(after - before) <= 1e-10 * (1 + abs(before)):
            uni_ok += 1

    checks = [
        (herm_ok == n_gram, f"Gram Hermitian symmetry {herm_ok}/{n_gram}"),
        (psd_ok == n_gram, f"Gram positive semidefiniteness {psd_ok}/{n_gram}"),
        (mono_ok == n_mono, f"distance monotonicity under set growth {mono_ok}/{n_mono}"),
        (equiv_ok == n_equiv, f"closed form vs Gram solve {equiv_ok}/{n_equiv} (tol 1e-8)"),
        (j_ok == n_j, f"J involution and cocycle {j_ok}/{n_j}"),
        (uni_ok == n_uni, f"unitary inner-product preservation {uni_ok}/{n_uni}"),
    ]
    return _finish(10, "randomized property suites", t0, checks)


_CRITERIA_FUNCS = (
    criterion_1,
    criterion_2,
    criterion_3,
    criterion_4,
    criterion_5,
    criterion_6,
    criterion_7,
    criterion_8,
    criterion_9,
    criterion_10,
)


def run_suite(seed: int = DEFAULT_SEED) -> list[CriterionResult]:
    """Run all ten criteria in order; the seed feeds the randomized suites."""
    results = []
    for func in _CRITERIA_FUNCS:
        if func is criterion_10:
            results.append(func(seed))
        else:
            results.append(func())
    return results
