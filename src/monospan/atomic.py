"""Atomic subspaces, singular inner functions, and model-space projections.

A boundary atom tau (|tau| = 1) of mass w determines the singular inner
function S_{tau,w}(z) = exp(-w (tau+z)/(tau-z)) and an atomic subspace of
L2[0,1] whose transform is the model space (S_{tau,w} H^2)-perp.  The
squared norm of the projection of x^s onto the atomic space has an exact
closed form: with s = u + iv,

    tau = 1:   [1 - exp(-2w (1+2u))] / (1+2u)
    tau != 1:  [1 - exp(-2 wp (1+2u) / ((1+2u)^2 + 4 (c-v)^2))] / (1+2u)

where c is the real number with tau = (2ic + 1)/(2ic - 1), and
wp = (1 + 4c^2) w.  The first line is the c -> infinity limit of the
second.  For any finitely atomic measure with inner function phi, x^s is
k_alpha / (s+1) under the transform, k_alpha the Szego kernel at
alpha = conj(s)/(conj(s)+1), so its squared distance to the atomic space is
|phi(alpha)|^2 / (1+2u) exactly (kernel_distance).  Truncated Toeplitz
projections T_phi T_phibar serve Laguerre-coefficient input and the tests.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .core import (
    ExponentLike,
    _over_square,
    as_exponent,
    complex_field,
    list_field,
    real_field,
    required_field,
)
from .errors import (
    ConvergenceWarning,
    DomainError,
    NumericalError,
    SizeLimitError,
    TruncationWarning,
)
from .laguerre import LaguerreExpansion
from .sarason import as_disk

_MODEL_N_MAX = 8192
_ATOM_COLLISION = 1e-14
_SENSITIVITY_TOL = 0.01
_MOMENT_ORDER = 8


def _check_unimodular(tau: complex) -> complex:
    tau = complex(tau)
    if abs(abs(tau) - 1) > 1e-12:
        raise DomainError(f"atom must lie on the unit circle, got |tau| = {abs(tau)}")
    return tau


@dataclass(frozen=True)
class AtomicSpaceParams:
    """A single boundary atom tau with mass w, plus the derived (c, wp).

    c solves 2ic = (tau+1)/(tau-1); it is provably real for unimodular tau
    and asserted so (a complex residue above 1e-12 is an error, not
    something to round away silently).  At tau = 1 the quotient
    degenerates: c is None and wp = (1+4c^2) w collapses to w.
    """

    tau: complex
    w: float
    c: float | None = field(init=False)
    wp: float = field(init=False)

    def __post_init__(self) -> None:
        tau = _check_unimodular(self.tau)
        object.__setattr__(self, "tau", tau)
        if not self.w > 0:
            raise DomainError(f"atom mass must be positive, got {self.w}")
        if abs(tau - 1) < 1e-12:
            object.__setattr__(self, "c", None)
            object.__setattr__(self, "wp", float(self.w))
            return
        d = -0.5j * (tau + 1) / (tau - 1)
        # a unimodularity defect of eps in tau shows up as about eps*|c|^2
        # in the imaginary part, so the reality assertion must scale with it
        if abs(d.imag) > 1e-12 * (1 + abs(d) ** 2):
            raise NumericalError(f"derived c = {d} is not real for tau = {tau}")
        cval = float(d.real)
        object.__setattr__(self, "c", cval)
        object.__setattr__(self, "wp", (1 + 4 * cval**2) * float(self.w))


def proj_norm_sq(p: AtomicSpaceParams, s: ExponentLike) -> float:
    """Squared norm of the projection of x^s onto the atomic space of p."""
    e = as_exponent(s)
    if e.logpow != 0:
        raise DomainError("projection formula requires logpow = 0")
    u, v = e.re, e.im
    if p.c is None:
        return (1 - math.exp(-2 * p.w * (1 + 2 * u))) / (1 + 2 * u)
    rate = (1 + 2 * u) / ((1 + 2 * u) ** 2 + 4 * (p.c - v) ** 2)
    return (1 - math.exp(-2 * p.wp * rate)) / (1 + 2 * u)


@dataclass(frozen=True)
class AtomicMeasure:
    """A finitely atomic measure on the circle: distinct atoms with masses."""

    atoms: tuple[tuple[complex, float], ...]

    def __post_init__(self) -> None:
        clean = []
        for tau, w in self.atoms:
            tau = _check_unimodular(tau)
            if not w > 0:
                raise DomainError(f"atom mass must be positive, got {w}")
            clean.append((tau, float(w)))
        for i in range(len(clean)):
            for j in range(i + 1, len(clean)):
                if abs(clean[i][0] - clean[j][0]) < _ATOM_COLLISION:
                    raise DomainError(f"atoms must be distinct, {clean[i][0]} repeats")
        object.__setattr__(self, "atoms", tuple(clean))

    @property
    def total_mass(self) -> float:
        return sum(w for _, w in self.atoms)

    def moments(self, J: int) -> np.ndarray:
        """Trigonometric moments m_j = sum_k w_k tau_k^j for j = 0..J."""
        out = np.zeros(J + 1, dtype=complex)
        for tau, w in self.atoms:
            out += w * tau ** np.arange(J + 1)
        return out

    @classmethod
    def single(cls, tau: complex, w: float) -> "AtomicMeasure":
        return cls(((tau, w),))

    @classmethod
    def from_json(cls, payload: dict) -> "AtomicMeasure":
        atoms = []
        for a in list_field(required_field(payload, "atoms", "measure JSON"), "measure atoms"):
            tau = complex_field(required_field(a, "tau", "atom"), "atom tau")
            atoms.append((tau, real_field(required_field(a, "w", "atom"), "atom w")))
        return cls(tuple(atoms))

    def to_json(self) -> dict:
        return {"atoms": [{"tau": [t.real, t.imag], "w": w} for t, w in self.atoms]}


def singular_inner_taylor(tau: complex, w: float, N: int) -> np.ndarray:
    """First N Taylor coefficients of exp(-w (tau+z)/(tau-z)).

    For the atom at 1 the series B(z) satisfies (1-z)^2 B' = -2w B, giving
    the three-term recurrence

        (n+1) b_{n+1} = (2n - 2w) b_n - (n-1) b_{n-1},  b_0 = e^-w,

    which is stable to machine precision at every admissible length; a
    general atom is the rotation b_n tau^-n.
    """
    tau = _check_unimodular(tau)
    if w < 0:
        raise DomainError("singular inner mass must be nonnegative")
    if N < 1:
        raise DomainError("need at least one coefficient")
    # the recurrence runs on Python floats (the same IEEE operations as on float64
    # entries, without indexing an array per step); the array is built once
    prev = math.exp(-w)
    vals = [prev]
    if N > 1:
        cur = -2 * w * prev
        vals.append(cur)
        for n in range(1, N - 1):
            prev, cur = cur, ((2 * n - 2 * w) * cur - (n - 1) * prev) / (n + 1)
            vals.append(cur)
    b = np.array(vals, dtype=float)
    if abs(tau - 1) < 1e-15:
        return b.astype(complex)
    return b * tau ** (-np.arange(N))


@dataclass(frozen=True)
class InnerFunction:
    """The singular inner function attached to a finitely atomic measure."""

    measure: AtomicMeasure

    def evaluate(self, z) -> complex:
        zv = as_disk(z)
        for tau, _ in self.measure.atoms:
            if abs(zv - tau) < _ATOM_COLLISION:
                raise NumericalError(f"evaluation point {zv} collides with the atom {tau}")
        acc = 1.0 + 0j
        for tau, w in self.measure.atoms:
            acc *= cmath.exp(-w * (tau + zv) / (tau - zv))
        return acc

    def taylor(self, N: int) -> np.ndarray:
        """First N Taylor coefficients of the product over all atoms."""
        if not self.measure.atoms:
            out = np.zeros(max(N, 1), dtype=complex)
            out[0] = 1.0
            return out
        acc = None
        for tau, w in self.measure.atoms:
            part = singular_inner_taylor(tau, w, N)
            acc = part if acc is None else np.convolve(acc, part)[:N]
        return acc


def conjugation_identity_check(c: float, wp: float, z_grid) -> tuple[float, complex]:
    """Check S_{-1,wp} composed with psi against a constant times S_{tau,w}.

    psi(z) = ((1-ic) z + ic)/(1 + ic - ic z) is the disk automorphism with
    psi(tau) = -1, where tau = (2ic+1)/(2ic-1) and w = wp/(1+4c^2).  The
    two sides are computed independently on the grid; the constant is
    recovered as their ratio and returned together with the largest
    absolute deviation from exact proportionality.  The constant must come
    out unimodular; its failure would falsify the conjugation identity.
    """
    c = float(c)
    if not wp > 0:
        raise DomainError("mass parameter must be positive")
    if c == 0.0:
        tau = -1.0 + 0j
        w = float(wp)
    else:
        tau = (2j * c + 1) / (2j * c - 1)
        w = float(wp) / (1 + 4 * c * c)
    # Moebius sanity: the pole of the composed side must sit over the atom
    psi_tau = ((1 - 1j * c) * tau + 1j * c) / (1 + 1j * c - 1j * c * tau)
    if abs(psi_tau + 1) > 1e-10:
        raise NumericalError(f"psi(tau) = {psi_tau}, expected -1; parameterization broken")

    S_minus1 = InnerFunction(AtomicMeasure.single(-1.0, wp))
    S_tau = InnerFunction(AtomicMeasure.single(tau, w))
    lhs = []
    rhs = []
    for z in z_grid:
        zv = as_disk(z)
        psi_z = ((1 - 1j * c) * zv + 1j * c) / (1 + 1j * c - 1j * c * zv)
        lhs.append(S_minus1.evaluate(psi_z))
        rhs.append(S_tau.evaluate(zv))
    lhs_a = np.array(lhs)
    rhs_a = np.array(rhs)
    if np.any(np.abs(rhs_a) < 1e-280):
        raise DomainError("grid point too close to an atom: ratio not computable")
    ratios = lhs_a / rhs_a
    const = complex(np.mean(ratios))
    deviation = float(np.max(np.abs(lhs_a - const * rhs_a)))
    return deviation, const


def _toeplitz_analytic_apply(phi: np.ndarray, g: np.ndarray) -> np.ndarray:
    """T_phi g: multiply by phi and keep the first len(phi) coefficients.

    g may be shorter than phi; it is then zero beyond its length.
    """
    return np.convolve(phi, g)[: len(phi)]


def _toeplitz_coanalytic_apply(phi: np.ndarray, f: np.ndarray) -> np.ndarray:
    """T_phibar f: (T f)_m = sum_j conj(phi_j) f_{m+j}, applied as one correlation.

    phi and f have the same length N.  Exact (not merely truncated) whenever
    f is supported on indices < N, because the discarded products all
    involve coefficients of f beyond N; the result is then supported there too.
    """
    return np.correlate(f, phi, "full")[len(f) - 1 :]


def check_order(N: int) -> None:
    if N < 2:
        raise DomainError("truncation order too small")
    if N > _MODEL_N_MAX:
        raise SizeLimitError(f"truncation order {N} exceeds the limit {_MODEL_N_MAX}")


def _model_distance(f: LaguerreExpansion, phi: np.ndarray, n: int) -> float:
    """||T_phi T_phibar f|| over n coefficients; phi holds the first n or more Taylor coefficients.

    T_phibar f is supported on the m = min(n, len(f)) indices f is, so both
    steps read only f's support and cost O(n m), not O(n^2).  An empty
    measure has phi = 1, whose model space is {0}: the formula then gives ||f||
    over n coefficients, with no special case.
    """
    m = min(n, len(f.coeffs))
    g = _toeplitz_coanalytic_apply(phi[:m], f.coeffs[:m])
    return float(np.linalg.norm(_toeplitz_analytic_apply(phi[:n], g)))


def model_space_distance(f: LaguerreExpansion, mu: AtomicMeasure, N: int = 4096) -> float:
    """Distance from f to the atomic space of mu, via Toeplitz truncation.

    In transform coordinates the atomic space is (phi H^2)-perp for the
    inner function phi of mu, so the distance is ||T_phi T_phibar f||.
    Both factors are compressions to N coefficients; the same quantity is
    recomputed at N/2 and a TruncationWarning is issued when the two
    disagree by more than 1% relative.  The truncated value
    approaches kernel_distance from below as N grows.  A measure without atoms
    has phi = 1 and the model space {0}, so the distance is ||f||.

    Cost: phi's series is built once, O(N) per atom plus an O(N^2)
    convolution per further atom, and the N/2 value reads its prefix
    (the first n coefficients of taylor(N) are those of taylor(n)).  With
    m = min(N, len(f.coeffs)) the Toeplitz steps cost O(N m).
    """
    check_order(N)
    phi = InnerFunction(mu).taylor(N)
    d_full = _model_distance(f, phi, N)
    d_half = _model_distance(f, phi, N // 2)
    if abs(d_full - d_half) > _SENSITIVITY_TOL * max(d_full, 1e-9):
        warnings.warn(
            f"model-space distance is truncation-sensitive: {d_half:.6g} at N={N // 2} "
            f"vs {d_full:.6g} at N={N}",
            TruncationWarning,
            stacklevel=2,
        )
    return d_full


def kernel_distance(mu: AtomicMeasure, s: ExponentLike) -> float:
    """Exact distance from x^s to the atomic space of mu: |phi(alpha)| / sqrt(2 Re s + 1).

    The projection of k_alpha onto phi H^2 is conj(phi(alpha)) phi k_alpha,
    alpha = conj(s)/(conj(s) + 1), and -log |phi(alpha)| sums
    w Re((tau + alpha)/(tau - alpha)) = w (2 Re s + 1)/|tau + (tau - 1) conj(s)|^2
    over the atoms, which holds for |tau| = 1.  alpha itself is never formed:
    for |s| above about 1e16 it rounds onto the circle.  Every term is >= 0, so
    the result never exceeds 1/sqrt(2 Re s + 1), even for an atom that is
    unimodular only to rounding.
    """
    e = as_exponent(s)
    if e.logpow != 0:
        raise DomainError("kernel formula requires logpow = 0")
    num, sb = 2 * e.re + 1, e.s.conjugate()
    expo = 0.0
    for tau, w in mu.atoms:
        expo -= w * _over_square(num, abs(tau + (tau - 1) * sb))
    return math.exp(expo) / math.sqrt(num)


@dataclass(frozen=True)
class WeakStarReport:
    """Distances along a measure sequence, one row per test function."""

    distances: np.ndarray  # shape (num_functions, num_measures)
    limit_distances: np.ndarray  # shape (num_functions,)
    phi_gaps: np.ndarray  # H2 gap ||phi_n - phi|| per measure
    moment_deviations: np.ndarray  # weak-* test residuals per measure


def weakstar_experiment(
    mu_seq: list[AtomicMeasure],
    mu_limit: AtomicMeasure,
    test_functions: list[LaguerreExpansion],
    N: int = 2048,
) -> WeakStarReport:
    """Track dist(f, M(mu_n)) along a weak-star convergent measure sequence.

    Weak-star convergence is checked on trigonometric moments up to
    order 8; a sequence whose final deviation has not shrunk below
    its initial deviation draws a ConvergenceWarning (the experiment still
    runs).  The H2 gap between the inner functions of mu_n and of the
    limit is reported alongside, since it controls the distance gap.
    """
    if not mu_seq:
        raise DomainError("empty measure sequence")
    if not test_functions:
        raise DomainError("no test functions supplied")
    check_order(N)
    m_limit = mu_limit.moments(_MOMENT_ORDER)
    devs = np.array(
        [float(np.max(np.abs(mu.moments(_MOMENT_ORDER) - m_limit))) for mu in mu_seq]
    )
    if len(mu_seq) >= 2 and devs[-1] > 1e-9 and devs[-1] > 0.9 * devs[0]:
        warnings.warn(
            f"moment test does not look weak-* convergent: deviation {devs[0]:.3g} -> "
            f"{devs[-1]:.3g} over the sequence",
            ConvergenceWarning,
            stacklevel=2,
        )
    phi_limit = InnerFunction(mu_limit).taylor(N)
    phis = [InnerFunction(mu).taylor(N) for mu in mu_seq]
    gaps = np.array([float(np.linalg.norm(phi - phi_limit)) for phi in phis])
    dist = np.array(
        [[_model_distance(f, phi, N) for phi in phis] for f in test_functions]
    )
    lim = np.array([_model_distance(f, phi_limit, N) for f in test_functions])
    return WeakStarReport(dist, lim, gaps, devs)
