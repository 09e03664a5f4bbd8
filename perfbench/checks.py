"""Reference values and output checks for every request kind.

Each check recomputes the expected output through a route that does not run
the code under test: exact integrals of monomials, Cholesky solves of the
Gram system in mpmath with an exact norm, the kernel formula for model-space
projections, and the monomial actions of the operators.  A check returns
None when the output is accepted and a one-line reason when it is not.

Tolerances are stated next to each check.  Gram results labelled
``gram-double`` are held to the accuracy their own condition estimate
supports (a float64 solve cannot beat kappa * eps); everything else,
including results labelled ``extended(dps=...)``, is held to a fixed
tolerance.
"""

from __future__ import annotations

import json
import math

import jsonschema
import mpmath as mp
import numpy as np

EPS = 2.0**-52
EXTENDED_THRESHOLD = 1e12  # cond above which the program switches to mpmath


# --- exact building blocks ------------------------------------------------------


def _inner(a, j, b, k):
    """<x^a (ln x)^j, x^b (ln x)^k> = integral of x^(a+conj b) (ln x)^(j+k) over [0,1]."""
    m = j + k
    return (-1) ** m * mp.factorial(m) / (1 + a + mp.conj(b)) ** (m + 1)


def _cholesky_projection(gram, rhs):
    """Squared norm of the projection: rhs^* A^-1 rhs for Hermitian PD A.

    Returns None when a pivot is not positive at the working precision.
    """
    n = len(rhs)
    L = [[mp.mpc(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            acc = gram[i][j] - mp.fsum(L[i][k] * mp.conj(L[j][k]) for k in range(j))
            if i == j:
                piv = mp.re(acc)
                if not piv > 0:
                    return None
                L[i][i] = mp.sqrt(piv)
            else:
                L[i][j] = acc / L[j][j]
    y = []
    for i in range(n):
        acc = rhs[i] - mp.fsum(L[i][k] * y[k] for k in range(i))
        y.append(acc / L[i][i])
    return mp.fsum(abs(v) ** 2 for v in y)


def gram_distance(exps, pairing, norm_sq):
    """dist(f, span) from an mpmath Cholesky solve, stable across two precisions.

    exps: list of (complex s, logpow); pairing(s_mp, k) -> <f, x^s (ln x)^k>;
    norm_sq() -> ||f||^2, all evaluated at the working precision.
    """
    n = len(exps)
    dps = 40 + 4 * n
    prev = None
    for _ in range(6):
        with mp.workdps(dps):
            svals = [(mp.mpc(s.real, s.imag), k) for s, k in exps]
            gram = [[_inner(sj, kj, si, ki) for sj, kj in svals] for si, ki in svals]
            rhs = [pairing(s, k) for s, k in svals]
            q = _cholesky_projection(gram, rhs)
            if q is not None:
                d2 = norm_sq() - q
                d = mp.sqrt(d2) if d2 > 0 else mp.mpf(0)
                if prev is not None and abs(d - prev) <= mp.mpf(10) ** (-30) * (1 + d):
                    return float(d)
                prev = d
        dps += 40
    raise ArithmeticError("reference Gram solve did not stabilize")


def indicator_pairing(a):
    """<chi_[a,1], x^s> = (1 - a^(1+conj s))/(1+conj s) and ||chi_[a,1]||^2 = 1 - a."""

    def pairing(s, k):
        if k:
            raise ValueError("indicator pairings are only needed for logpow 0")
        p = 1 + mp.conj(s)
        return (1 - mp.power(mp.mpf(a), p)) / p

    def norm_sq():
        return 1 - mp.mpf(a)

    return pairing, norm_sq


def monomial_pairing(t, logpow):
    tm = complex(t)

    def pairing(s, k):
        return _inner(mp.mpc(tm.real, tm.imag), logpow, s, k)

    def norm_sq():
        tt = mp.mpc(tm.real, tm.imag)
        return mp.re(_inner(tt, logpow, tt, logpow))

    return pairing, norm_sq


def product_distance(t, svals):
    """The closed product formula in 50-digit arithmetic (logpow 0 only)."""
    with mp.workdps(50):
        tm = mp.mpc(t.real, t.imag)
        acc = 1 / mp.sqrt(2 * tm.real + 1)
        for s in svals:
            sm = mp.mpc(s.real, s.imag)
            acc *= abs(tm - sm) / abs(tm + mp.conj(sm) + 1)
        return float(acc)


# --- families (the definitions the program documents) --------------------------


def interval_set(rho, n):
    r = math.sqrt(rho)
    ratio = (1 - r) / r
    N = max(1, round(ratio * n))
    return [complex(k) for k in range(n + 1, n + N + 1)]


def sequence_terms(seq, count):
    if seq["kind"] == "affine":
        a, b = complex(*seq["a"]), complex(*seq.get("b", [0.0, 0.0]))
        return [a * k + b for k in range(count)]
    if seq["kind"] == "geometric":
        base = complex(*seq["base"])
        return [base * float(seq["ratio"]) ** k for k in range(count)]
    return [complex(*v) if isinstance(v, list) else complex(v) for v in seq["values"]][:count]


def criterion_terms(values, criterion):
    if criterion == "classical":
        return [1.0 / s.real for s in values if s.real > 0]
    if criterion == "real":
        return [(2 * s.real + 1) / ((2 * s.real + 1) ** 2 + 1) for s in values]
    return [(2 * s.real + 1) / abs(s + 1) ** 2 for s in values]


def _singular_inner_coeffs(tau, w, N):
    """Taylor coefficients of exp(-w (tau+z)/(tau-z)).

    B(z) = exp(-w (1+z)/(1-z)) solves (1-z)^2 B' = -2w B, which gives
    (n+1) b_{n+1} = (2n - 2w) b_n - (n-1) b_{n-1}; the atom at tau rotates
    b_n to b_n tau^-n.
    """
    b = np.zeros(N)
    b[0] = math.exp(-w)
    if N > 1:
        b[1] = -2 * w * b[0]
    for n in range(1, N - 1):
        b[n + 1] = ((2 * n - 2 * w) * b[n] - (n - 1) * b[n - 1]) / (n + 1)
    return b * tau ** (-np.arange(N))


# --- tolerances -------------------------------------------------------------------


def distance_ok(got, ref, norm_sq, method, cond):
    """Accept a Gram or closed-form distance against its reference.

    closed-form: |d - ref| <= 1e-12 * ||f|| + 1e-10 * ref.
    gram-double: |d^2 - ref^2| <= 16 kappa eps ||f||^2 + 1e-12 ||f||^2, the
    accuracy a float64 normal-equation solve with condition kappa supports.
    gram-extended: |d - ref| <= 1e-12 * ||f|| + 1e-9 * ref.
    """
    if got is None or not math.isfinite(got):
        return f"distance is {got!r}, reference {ref:.6e}"
    fn = math.sqrt(norm_sq)
    if method == "double":
        tol = (16 * cond * EPS + 1e-12) * norm_sq
        if abs(got * got - ref * ref) <= tol:
            return None
        return f"d^2 off by {abs(got * got - ref * ref):.3e} > {tol:.3e} (cond {cond:.2e})"
    rel = 1e-10 if method == "closed-form" else 1e-9
    tol = 1e-12 * fn + rel * ref
    if abs(got - ref) <= tol:
        return None
    return f"distance {got!r} vs reference {ref!r} ({method}, tol {tol:.2e})"


def _close(got, ref, rtol, atol=0.0):
    return abs(complex(got) - complex(ref)) <= atol + rtol * abs(complex(ref))


def _pair(v):
    return complex(v[0], v[1])


# --- per-kind checks --------------------------------------------------------------


class Checker:
    """Checks outputs against references; references are cached per request."""

    def __init__(self, schema_for):
        self._validators = {}
        self._schema_for = schema_for
        self._cache = {}

    def _validator(self, command):
        v = self._validators.get(command)
        if v is None:
            schema = self._schema_for(command)
            v = self._validators[command] = jsonschema.validators.validator_for(schema)(schema)
        return v

    def reference(self, spec):
        """The request's reference value, computed once; None for kinds checked directly."""
        key = json.dumps(spec, sort_keys=True)
        if key not in self._cache:
            compute = getattr(self, "_ref_" + spec["check"], None)
            self._cache[key] = compute(spec) if compute else None
        return self._cache[key]

    def check(self, request, code, stdout):
        """None if the output is right, else (category, reason).

        category "error": the request did not complete (nonzero exit code), or
        accept completed and reported failing criteria.  category "wrong": the
        output is not JSON, violates its schema or is outside its tolerance.
        """
        spec = request["spec"]
        # accept exits 1 when a criterion fails; its payload then says which one
        if code != 0 and not (spec["check"] == "accept" and code == 1):
            return "error", f"exit code {code}"
        try:
            payload = json.loads(stdout)
        except json.JSONDecodeError as exc:
            return "wrong", f"output is not JSON: {exc}"
        errors = sorted(self._validator(request["argv"][0]).iter_errors(payload), key=str)
        if errors:
            return "wrong", f"schema violation: {errors[0].message[:200]}"
        if spec["check"] == "accept":
            return self._check_accept(spec, payload, code)
        why = getattr(self, "_check_" + spec["check"])(spec, payload)
        return None if why is None else ("wrong", why)

    # dist -----------------------------------------------------------------------

    def _ref_dist(self, spec):
        exps = [(complex(*e[:2]), e[2]) for e in spec["set"]]
        if "a" in spec:
            pairing, norm_sq = indicator_pairing(spec["a"])
        else:
            pairing, norm_sq = monomial_pairing(complex(*spec["t"]), spec["logpow"])
        with mp.workdps(30):
            nsq = float(norm_sq())
        return gram_distance(exps, pairing, norm_sq), nsq

    def _check_dist(self, spec, payload):
        ref, nsq = self.reference(spec)
        method = payload["method"]
        kind = "closed-form" if method == "closed-form" else (
            "double" if method == "gram-double" else "extended")
        if spec["route"] == "closed-form" and kind != "closed-form":
            return f"expected the closed-form route, got {method}"
        if spec["route"] == "gram" and kind == "closed-form":
            return "expected a Gram route, got closed-form"
        return distance_ok(payload["distance"], ref, nsq, kind, payload["condition_estimate"] or math.inf)

    # converge -------------------------------------------------------------------

    def _family_sets(self, spec):
        n = spec["nmax"]
        if spec["family"] == "interval":
            return [interval_set(spec["rho"], k) for k in range(1, n + 1)]
        if spec["family"] == "muntz":
            terms = sequence_terms(spec["seq"], n + 1)
            return [terms[: k + 1] for k in range(1, n + 1)]
        return [[complex(*e[:2]) for e in spec["set"]]] * n

    def _ref_converge(self, spec):
        sets = self._family_sets(spec)
        f = spec["f"]
        out = []
        if f.startswith("chi:"):
            pairing, norm_sq = indicator_pairing(float(f[4:]))
            with mp.workdps(30):
                nsq = float(norm_sq())
            cache = {}
            for S in sets:
                key = tuple(S)
                if key not in cache:
                    cache[key] = gram_distance([(s, 0) for s in S], pairing, norm_sq)
                out.append(cache[key])
            return out, nsq, "gram"
        t = 0.0 if f == "const" else float(f.split(":")[1])
        nsq = 1 / (2 * t + 1)
        if spec["family"] == "interval" and spec["rho"] == 0.25 and t == 0.0:
            # exact rational values for f = 1 on the rho = 1/4 family
            return [(k + 1) / (2 * k + 1) for k in range(1, len(sets) + 1)], nsq, "closed-form"
        for S in sets:
            if len(S) <= 12:  # an independent Gram route where it is affordable
                pairing, norm_sq = monomial_pairing(t, 0)
                out.append(gram_distance([(s, 0) for s in S], pairing, norm_sq))
            else:
                out.append(product_distance(complex(t), S))
        return out, nsq, "closed-form"

    def _check_converge(self, spec, payload):
        refs, nsq, route = self.reference(spec)
        n = spec["nmax"]
        if payload["n"] != list(range(1, n + 1)):
            return "n column is not 1..nmax"
        if len(payload["distance"]) != n or len(payload["condition_estimate"]) != n:
            return "curve length differs from nmax"
        for k, (d, c, ref) in enumerate(zip(payload["distance"], payload["condition_estimate"], refs), 1):
            if route == "closed-form":
                kind = "closed-form"
            else:
                kind = "extended" if c is None or c > EXTENDED_THRESHOLD else "double"
            why = distance_ok(d, ref, nsq, kind, c if c is not None else math.inf)
            if why:
                return f"point n={k}: {why}"
        return None

    # muntz ----------------------------------------------------------------------

    def _ref_muntz(self, spec):
        terms = criterion_terms(sequence_terms(spec["seq"], spec["terms"]), spec["criterion"])
        return math.fsum(terms), len(terms)

    def _check_muntz(self, spec, payload):
        total, count = self.reference(spec)
        if payload["verdict"] not in (spec["truth"], "undetermined"):
            return f"verdict {payload['verdict']!r}, the series is {spec['truth']}"
        if spec.get("symbolic") and payload["verdict"] != spec["truth"]:
            return f"symbolic spec gave {payload['verdict']!r}, expected {spec['truth']!r}"
        if payload["terms_used"] != count:
            return f"terms_used {payload['terms_used']} != {count}"
        if not _close(payload["final_partial_sum"], total, 1e-9):
            return f"partial sum {payload['final_partial_sum']!r} vs {total!r}"
        return None

    # sarason --------------------------------------------------------------------

    def _ref_sarason(self, spec):
        """U f(z) = (1/(1-z)) integral of f(x) x^(z/(1-z)) dx, integrated exactly."""
        with mp.workdps(40):
            z = mp.mpc(*spec["z"])
            p = z / (1 - z)
            f = spec["f"]
            if f["kind"] == "monomial":
                beta = mp.mpc(*f["s"])
                k = f.get("logpow", 0)
                val = (-1) ** k * mp.factorial(k) / (beta + p + 1) ** (k + 1)
            elif f["kind"] == "indicator":
                return complex(mp.power(mp.mpf(f["s"]), 1 / (1 - z)))
            else:  # table: constant, piecewise linear, constant
                xs = [mp.mpf(x) for x in f["x"]]
                ys = [mp.mpc(*y) for y in f["y"]]

                def mom(lo, hi, q):  # integral of x^q over [lo, hi]
                    return (mp.power(hi, q + 1) - (mp.power(lo, q + 1) if lo > 0 else 0)) / (q + 1)

                val = ys[0] * mom(mp.mpf(0), xs[0], p)
                for i in range(len(xs) - 1):
                    slope = (ys[i + 1] - ys[i]) / (xs[i + 1] - xs[i])
                    icpt = ys[i] - slope * xs[i]
                    val += icpt * mom(xs[i], xs[i + 1], p) + slope * mom(xs[i], xs[i + 1], p + 1)
                if xs[-1] < 1:
                    val += ys[-1] * mom(xs[-1], mp.mpf(1), p)
            return complex(val / (1 - z))

    def _check_sarason(self, spec, payload):
        ref = self.reference(spec)
        got = _pair(payload["value"])
        if payload["method"] != spec["method"]:
            return f"method {payload['method']!r}, expected {spec['method']!r}"
        if spec["method"] == "closed-form":
            ok = _close(got, ref, 1e-12, 1e-14)  # closed forms: 1e-12 relative
        else:  # quadrature: its own error estimate plus 1e-9 relative
            err = payload["error_estimate"]
            if err is None:
                return "quadrature result without an error estimate"
            ok = _close(got, ref, 1e-9, err)
        if not ok:
            return f"value {got!r} vs reference {ref!r}"
        return None

    # laguerre -------------------------------------------------------------------

    def _check_laguerre(self, spec, payload):
        s = complex(*spec["s"])
        norm = 1 / (2 * s.real + 1)
        coeffs = payload["coefficients"]
        n = payload["n"]
        if spec["n"] is not None and n != spec["n"]:
            return f"n = {n}, requested {spec['n']}"
        if len(coeffs) != n + 1:
            return "coefficient count is not n + 1"
        # c_n = (1/(s+1)) (s/(s+1))^n by repeated multiplication in 30 digits
        with mp.workdps(30):
            sm = mp.mpc(s.real, s.imag)
            rho = sm / (sm + 1)
            c = 1 / (sm + 1)
            for k in range(n + 1):
                if k % 16 == 0 or k == n:
                    ref = complex(c)
                    if abs(_pair(coeffs[k]) - ref) > 1e-10 * abs(ref) + 1e-290:
                        return f"coefficient {k}: {coeffs[k]} vs {ref!r}"
                c *= rho
            tail = float(abs(rho) ** (2 * (n + 1)) / (2 * sm.real + 1))
        if not _close(payload["tail_norm_sq"], tail, 1e-9, 1e-300):
            return f"tail {payload['tail_norm_sq']!r} vs {tail!r}"
        if not _close(payload["norm_sq"], norm, 1e-12):
            return f"norm_sq {payload['norm_sq']!r} vs ||x^s||^2 = {norm!r}"
        # the default order is the smallest with |s/(s+1)|^(2(n+1)) below 1e-16
        if spec["n"] is None and n < 4096 and tail / norm > 1e-16 * (1 + 1e-9):
            return f"default truncation n = {n} leaves |s/(s+1)|^(2(n+1)) = {tail / norm:.3e}"
        return None

    # op -------------------------------------------------------------------------

    def _check_op(self, spec, payload):
        if spec["verb"] == "pick":
            return self._check_pick(spec, payload)
        op = spec["op"]
        s = complex(*spec["s"])
        if spec["input"] == "monomial":
            # H x^s = x^s/(s+1), X x^s = x^(s+1), V x^s = x^(s+1)/(s+1) (integrals of
            # t^s); J x^s = x^tau/(1+2s) with tau = -s/(1+2s)
            coeff = complex(*spec["coeff"])
            want = {
                "H": (coeff / (s + 1), s),
                "X": (coeff, s + 1),
                "V": (coeff / (s + 1), s + 1),
                "J": (coeff / (1 + 2 * s), -s / (1 + 2 * s)),
            }[op]
            if payload["kind"] != "monomial":
                return "expected a monomial output"
            if not (_close(_pair(payload["coeff"]), want[0], 1e-13, 1e-15)
                    and _close(_pair(payload["s"]), want[1], 1e-13, 1e-15)):
                return f"monomial action {payload['coeff']}, {payload['s']} vs {want}"
            return None
        # geometric input: Laguerre coordinates of x^s, truncated at N; the output
        # is compared with the coordinates of T x^s from the monomial action.
        N = spec["N"]
        vals = payload.get("values")
        if payload["kind"] != "coefficients" or len(vals) != N:
            return "expected N output coefficients"
        got = np.array([complex(v[0], v[1]) for v in vals])
        m = np.arange(N)

        def coords(c, e, count):
            return c * (1 / (e + 1)) * (e / (e + 1)) ** np.arange(count)

        rho = abs(s / (s + 1))
        head = coords(1.0, s, N + 1)
        tail_mass = abs(head[N]) / (1 - rho)  # sum of |c_n| over n >= N
        if op == "J":
            want = coords(1 / (1 + 2 * s), -s / (1 + 2 * s), N)
            bound = np.zeros(N)
        elif op == "H":
            want = coords(1 / (s + 1), s, N)
            bound = np.where(m == N - 1, abs(head[N]), 0.0)
        else:
            # X-hat = S* C*, V-hat = (I - S*) C*: entries of C* lie in [0, 1], so the
            # dropped input tail moves an output by at most 1 (X) or 2 (V) times its
            # mass; the compressed shift also drops (C* c)_N from the last output,
            # which is the last coordinate of x^(s+1)
            want = coords(1.0 if op == "X" else 1 / (s + 1), s + 1, N)
            xlast = abs(coords(1.0, s + 1, N)[N - 1])
            bound = (1 if op == "X" else 2) * tail_mass + np.where(m == N - 1, xlast, 0.0)
        scale = float(np.max(np.abs(want)))
        err = np.abs(got - want)
        bad = np.nonzero(err > 1e-9 * scale + 1.01 * bound)[0]
        if len(bad):
            k = int(bad[0])
            return f"coefficient {k}: {got[k]!r} vs {want[k]!r} (truncation bound {bound[k]:.2e})"
        return None

    def _check_pick(self, spec, payload):
        grid = [complex(*g) for g in spec["grid"]]
        M = spec["M"]
        c0, c1 = complex(*spec["phi"][0]), complex(*spec["phi"][1])
        vals = [c0 + c1 / (1 + s) for s in grid]
        n = len(grid)
        P = np.array([[(M * M - vals[i] * vals[j].conjugate()) / (1 + grid[i] + grid[j].conjugate())
                       for j in range(n)] for i in range(n)])
        eigs = np.linalg.eigvalsh(P)
        lam = float(eigs[0])
        scale = max(1.0, float(np.max(np.abs(eigs))))
        if payload["grid_size"] != n or payload["M"] != M:
            return "grid_size or M echoed wrongly"
        # ||phi(H)|| <= |c0| + 2 |c1| because ||H|| = 2 (Hardy's inequality), so the
        # test must pass for M at or above that; it must fail when M < max |phi_i|,
        # where a diagonal entry of the Pick matrix is negative.
        if M >= abs(c0) + 2 * abs(c1) and not payload["passes"]:
            return f"M = {M} bounds phi(H) but the test failed"
        if M < max(abs(v) for v in vals) and payload["passes"]:
            return f"M = {M} is below max |phi| but the test passed"
        if abs(payload["min_eigenvalue"] - lam) > 1e-9 * scale:
            return f"min eigenvalue {payload['min_eigenvalue']!r} vs {lam!r}"
        return None

    # atomic ---------------------------------------------------------------------

    def _ref_atomic(self, spec):
        """Exact values from the kernel formula, and the share lost by truncation.

        U x^s is (1/(s+1)) k_alpha with alpha = conj(s)/(conj(s)+1), and the
        projection of k_alpha onto phi H^2 is conj(phi(alpha)) phi k_alpha, so
        dist^2 = |phi(alpha)|^2 ||x^s||^2 and the projection onto the atomic
        space has norm^2 (1 - |phi(alpha)|^2) ||x^s||^2.  Keeping N Taylor
        coefficients of phi k_alpha loses the share `lost` of its norm; the
        truncated Toeplitz route can undershoot dist^2 by that share and no more.
        """
        with mp.workdps(40):
            s = mp.mpc(*spec["s"])
            alpha = mp.conj(s) / (mp.conj(s) + 1)
            logphi = mp.mpc(0)
            for tau, w in spec["atoms"]:
                t = mp.mpc(*tau)
                logphi -= mp.mpf(w) * (t + alpha) / (t - alpha)
            norm = 1 / (2 * mp.re(s) + 1)
            phi2 = mp.exp(2 * mp.re(logphi))
            dist2, proj = float(phi2 * norm), float((1 - phi2) * norm)
        lost = 0.0
        if spec["verb"] == "dist":
            N = spec["N"]
            phi = np.zeros(N, dtype=complex)
            phi[0] = 1.0
            for tau, w in spec["atoms"]:
                phi = np.convolve(phi, _singular_inner_coeffs(complex(*tau), w, N))[:N]
            ac = complex(alpha.conjugate())
            u = np.empty(N, dtype=complex)  # Taylor coefficients of phi k_alpha
            acc = 0j
            for n in range(N):
                acc = phi[n] + ac * acc
                u[n] = acc
            lost = max(0.0, 1.0 - (1 - abs(ac) ** 2) * float(np.sum(np.abs(u) ** 2)))
        return dist2, proj, lost

    def _check_atomic(self, spec, payload):
        dist2, proj, lost = self.reference(spec)
        if spec["verb"] == "proj":
            tau = complex(*spec["atoms"][0][0])
            w = spec["atoms"][0][1]
            if not _close(payload["proj_norm_sq"], proj, 1e-12, 1e-15):
                return f"proj_norm_sq {payload['proj_norm_sq']!r} vs {proj!r}"
            c = payload["c"]
            if c is None:
                if abs(tau - 1) > 1e-12 or payload["wp"] != w:
                    return "c is null away from tau = 1"
            else:
                if abs((2j * c + 1) / (2j * c - 1) - tau) > 1e-10:
                    return f"c = {c!r} does not reproduce tau"
                if not _close(payload["wp"], (1 + 4 * c * c) * w, 1e-12):
                    return "wp != (1 + 4c^2) w"
            return None
        if payload["N"] != spec["N"]:
            return "N echoed wrongly"
        # d^2 in [dist^2 (1 - lost), dist^2], each end widened by 1e-6 relative
        got2 = payload["distance"] ** 2
        lo, hi = dist2 * (1 - lost) * (1 - 1e-6), dist2 * (1 + 1e-6)
        if not lo <= got2 <= hi:
            return f"distance^2 {got2!r} outside [{lo!r}, {hi!r}] (exact {dist2!r}, truncation loss {lost:.2e})"
        return None

    # accept ---------------------------------------------------------------------

    def _check_accept(self, spec, payload, code):
        if payload["seed"] != spec["seed"]:
            return "wrong", "seed echoed wrongly"
        rows = payload["criteria"]
        if [r["index"] for r in rows] != list(range(1, 11)):
            return "wrong", "criteria are not 1..10"
        if payload["all_passed"] != all(r["passed"] for r in rows):
            return "wrong", "all_passed disagrees with the criteria"
        if code != (0 if payload["all_passed"] else 1):
            return "wrong", f"exit code {code} disagrees with all_passed"
        failed = [r for r in rows if not r["passed"]]
        if failed:
            return "error", "criteria {} failed: {}".format(
                [r["index"] for r in failed], "; ".join(r["detail"] for r in failed)[:300])
        return None
