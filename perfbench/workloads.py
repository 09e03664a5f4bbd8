"""Seeded request lists for the four workloads.

A workload is one pass: a fixed list of `mono` requests, each an argv for
`monospan.cli.dispatch` plus the parameters its check needs.  The request
kinds and their counts, and the sizes that set how much work a request does
(curve lengths, set sizes, matrix orders), are the same for every seed; the
seed picks the remaining parameters inside fixed ranges, so that runs with
different seeds do comparable work on different inputs.  The same seed gives
a byte-identical list.
"""

from __future__ import annotations

import json

import numpy as np

WORKLOADS = ("curves", "matrices", "queries", "accept")


def _r(x):
    """Round to 6 significant digits, so argv text and reference agree exactly."""
    return float(f"{x:.6g}")


def _cstr(flag, z):
    """A complex flag as one argv word; '--z=-0.3,0.2' keeps argparse from reading an option."""
    return f"{flag}={_r(z.real)!r},{_r(z.imag)!r}"


def _set_json(entries):
    return json.dumps({"exponents": [{"re": re, "im": im, "logpow": k} for re, im, k in entries]})


def _req(kind, argv, **spec):
    return {"kind": kind, "argv": argv, "spec": spec}


class _Gen:
    def __init__(self, seed, workload):
        # distinct streams per workload, so each list depends only on its seed
        self.rng = np.random.default_rng([int(seed) % 2**63, WORKLOADS.index(workload)])

    def u(self, lo, hi):
        return _r(self.rng.uniform(lo, hi))

    def c(self, re_lo, re_hi, im_lo, im_hi):
        return complex(self.u(re_lo, re_hi), self.u(im_lo, im_hi))

    def spaced(self, count, lo, step_lo, step_hi):
        """Increasing reals: lo + cumulative gaps drawn from [step_lo, step_hi]."""
        gaps = self.rng.uniform(step_lo, step_hi, count)
        return [_r(v) for v in lo + np.cumsum(gaps) - gaps[0]]

    # one request of each kind ---------------------------------------------------

    def dist_f(self, kind, a, entries):
        argv = ["dist", "--f", f"chi:{a!r}", "--set", _set_json(entries)]
        return _req(kind, argv, check="dist", route="gram", a=a, set=[list(e) for e in entries])

    def dist_t(self, kind, t, entries, logpow=0):
        argv = ["dist", _cstr("--t", t), "--set", _set_json(entries)]
        route = "closed-form"
        if logpow:
            argv += ["--logpow", str(logpow)]
            route = "gram"
        return _req(kind, argv, check="dist", route=route, t=[t.real, t.imag], logpow=logpow,
                    set=[list(e) for e in entries])

    def converge(self, kind, family, f, nmax, **fam):
        argv = ["converge", "--family", family, "--f", f, "--nmax", str(nmax)]
        if family == "interval":
            argv += ["--rho", repr(fam["rho"])]
        elif family == "muntz":
            argv += ["--seq", json.dumps(fam["seq"])]
        else:
            argv += ["--set", _set_json(fam["set"])]
            fam = {"set": [list(e) for e in fam["set"]]}
        return _req(kind, argv, check="converge", family=family, f=f, nmax=nmax, **fam)

    def op_coeffs(self, kind, op, s, N):
        vals = (1 / (s + 1)) * (s / (s + 1)) ** np.arange(N)
        values = [[float(v.real), float(v.imag)] for v in vals]
        argv = ["op", "apply", "--op", op, "--input",
                json.dumps({"kind": "coefficients", "values": values})]
        return _req(kind, argv, check="op", verb="apply", input="coefficients", op=op,
                    s=[s.real, s.imag], N=N)

    def atomic_dist(self, kind, s, atoms, N):
        measure = {"atoms": [{"tau": list(t), "w": w} for t, w in atoms]}
        argv = ["atomic", "dist", _cstr("--s", s), "--measure", json.dumps(measure), "--n", str(N)]
        return _req(kind, argv, check="atomic", verb="dist", s=[s.real, s.imag],
                    atoms=[[list(t), w] for t, w in atoms], N=N)

    def atoms(self, count):
        """Distinct unimodular atoms with masses; the first sits at tau = 1 half the time."""
        out = []
        for k in range(count):
            if k == 0 and self.rng.uniform() < 0.5:
                tau = (1.0, 0.0)
            else:
                ang = 2 * np.pi * (k + self.rng.uniform(0.1, 0.9)) / count
                tau = (float(np.cos(ang)), float(np.sin(ang)))
            out.append((tau, self.u(0.1, 1.0)))
        return out

    def laguerre(self, kind, s, n):
        argv = ["laguerre", "expand", _cstr("--s", s)]
        if n is not None:
            argv += ["--n", str(n)]
        return _req(kind, argv, check="laguerre", s=[s.real, s.imag], n=n)


def curves(seed):
    g = _Gen(seed, "curves")
    reqs = []
    # interval family: the set at index n is {n+1..n+N_n}; nothing is shared
    shapes = ((0.16, 10), (0.2, 12), (0.25, 14), (0.5, 16)) + ((0.3, 13),) * 7
    for rho, nmax in shapes:
        rho = _r(rho * g.rng.uniform(0.99, 1.01))
        reqs.append(g.converge("converge-interval-chi", "interval", f"chi:{g.u(0.2, 0.8)!r}",
                               nmax, rho=rho))
    # f = 1 on the rho = 1/4 family has the exact curve (n+1)/(2n+1)
    reqs.append(g.converge("converge-interval-const", "interval", "const",
                           int(g.rng.integers(150, 250)), rho=0.25))
    # muntz family: nested sets S_n = {s_0..s_n}
    aff = {"kind": "affine", "a": [g.u(0.8, 1.2), 0.0], "b": [g.u(0.0, 0.5), 0.0]}
    reqs.append(g.converge("converge-muntz-chi", "muntz", f"chi:{g.u(0.2, 0.8)!r}", 12, seq=aff))
    aff = {"kind": "affine", "a": [g.u(0.5, 2.0), 0.0], "b": [g.u(0.0, 1.0), 0.0]}
    reqs.append(g.converge("converge-muntz-monomial", "muntz", f"monomial:{g.u(0.1, 2.0)!r}",
                           200, seq=aff))
    geo = {"kind": "geometric", "base": [g.u(0.5, 1.5), 0.0], "ratio": g.u(1.5, 2.5)}
    reqs.append(g.converge("converge-muntz-chi", "muntz", f"chi:{g.u(0.2, 0.8)!r}", 20, seq=geo))
    geo = {"kind": "geometric", "base": [g.u(0.5, 1.5), 0.0], "ratio": g.u(1.5, 2.5)}
    reqs.append(g.converge("converge-muntz-monomial", "muntz", f"monomial:{g.u(0.1, 2.0)!r}",
                           60, seq=geo))
    # constant family: the same solve at every point.  Eight exponents keep the
    # Gram condition near 1e10, below the switch to mpmath, so these curves take
    # the double route and cost the same for every seed; the median request is
    # one of them (the ladder's rung count, and so the cost of the other curves,
    # changes with the inputs).
    for _ in range(25):
        entries = [(v, 0.0, 0) for v in g.spaced(8, 0.0, 1.5, 2.5)]
        reqs.append(g.converge("converge-constant-chi", "constant", f"chi:{g.u(0.2, 0.8)!r}",
                               6, set=entries))
    entries = [(v, 0.0, 0) for v in g.spaced(12, 0.0, 0.6, 1.4)]
    reqs.append(g.converge("converge-constant-chi", "constant", f"chi:{g.u(0.2, 0.8)!r}",
                           6, set=entries))
    # one large ill-conditioned solve each
    for size in (16, 24, 32):
        entries = [(v, 0.0, 0) for v in g.spaced(size, 0.0, 0.5, 1.0)]
        reqs.append(g.dist_f("dist-large-chi", g.u(0.2, 0.8), entries))
    # a confluent set: each exponent with log powers 0 and 1, f = x^t ln x.  Four
    # exponents keep the Gram condition near 1e8..1e11, so the double route answers.
    # Six exponents take the extended route, whose double-precision norm makes the
    # distance wrong on most seeds (ROADMAP item 3); that size is run as a known
    # defect (KNOWN_DEFECTS) instead.
    base = g.spaced(4, 0.0, 0.8, 1.6)
    entries = [(v, 0.0, k) for v in base for k in (0, 1)]
    t = complex(g.u(0.2, 3.0), 0.0)
    reqs.append(g.dist_t("dist-confluent", t, entries, logpow=1))
    return reqs


def matrices(seed):
    g = _Gen(seed, "matrices")
    reqs = []
    # |s/(s+1)| stays below 0.9, so the truncated tails are below 1e-11 at N >= 256.
    # An operator request costs the same for every s; the twenty N = 256 requests
    # hold the middle of the list by cost, so the median request is one of them.
    shapes = [("X", 256), ("V", 256)] * 10 + [("X", 512), ("V", 512), ("X", 1024), ("V", 1024),
                                              ("H", 2048), ("J", 2048)]
    for op, N in shapes:
        reqs.append(g.op_coeffs("op-apply-large", op, g.c(0.0, 3.0, -1.0, 1.0), N))
    for N, count in ((2048, 1), (4096, 2), (8192, 3)):
        reqs.append(g.atomic_dist("atomic-dist-large", g.c(0.0, 1.0, -0.5, 0.5),
                                  g.atoms(count), N))
    for n in (1024, 4096):
        reqs.append(g.laguerre("laguerre-large", g.c(0.0, 4.0, -2.0, 2.0), n))
    return reqs


def queries(seed):
    g = _Gen(seed, "queries")
    reqs = []
    # Set sizes and curve lengths are fixed per slot, not drawn: the cost of these
    # requests grows with them, and a pass should cost the same for every seed.
    for k in range(40):  # closed-form distances, small sets
        m = 1 + k % 8
        entries = [(g.u(-0.4, 4.0), g.u(-2.0, 2.0), 0) for _ in range(m)]
        reqs.append(g.dist_t("dist-closed", g.c(-0.3, 3.0, -1.0, 1.0), entries))
    for k in range(30):  # small, well-separated sets: the double Gram route
        entries = [(v, 0.0, 0) for v in g.spaced(2 + k % 4, 0.0, 1.0, 2.5)]
        reqs.append(g.dist_f("dist-double", g.u(0.1, 0.9), entries))
    for m in (4, 5, 6, 7, 6):  # hard inputs: clustered exponents
        s0, step = g.u(0.5, 3.0), g.u(0.02, 0.08)
        entries = [(_r(s0 + step * k), 0.0, 0) for k in range(m)]
        reqs.append(g.dist_f("dist-hard-clustered", g.u(0.2, 0.8), entries))
    for _ in range(5):  # hard inputs: exponents near the edge Re s = -1/2
        entries = [(g.u(-0.49, -0.4), _r(k - 1.5 + g.u(-0.2, 0.2)), 0) for k in range(4)]
        reqs.append(g.dist_t("dist-hard-edge", g.c(-0.45, 1.0, -1.0, 1.0), entries))
        reqs.append(g.dist_f("dist-hard-edge", g.u(0.2, 0.8), entries))

    for criterion in ("classical", "real", "complex"):
        for k in range(4):  # symbolic generator specs
            if criterion == "classical":
                seq = {"kind": "affine", "a": [float(g.rng.integers(1, 4)), 0.0],
                       "b": [float(g.rng.integers(0, 3)), 0.0]}
                truth = "dense"
            elif k % 2 == 0:
                seq = {"kind": "affine", "a": [g.u(0.2, 3.0), 0.0], "b": [g.u(0.0, 2.0), 0.0]}
                truth = "dense"
            else:
                seq = {"kind": "geometric", "base": [g.u(0.5, 2.0), 0.0], "ratio": g.u(1.2, 3.0)}
                truth = "not-dense"
            reqs.append(_req("muntz-symbolic", ["muntz", "--criterion", criterion, "--seq",
                                                json.dumps(seq)],
                             check="muntz", criterion=criterion, seq=seq, truth=truth,
                             terms=256, symbolic=True))
    for k in range(6):  # explicit 1000-term sequences c (j+1)^p: dense iff p = 1
        p = 1 if k % 2 == 0 else 2
        scale = g.u(0.5, 2.0)
        values = [_r(scale * (j + 1) ** p) for j in range(1000)]
        seq = {"kind": "explicit", "values": values}
        reqs.append(_req("muntz-explicit", ["muntz", "--criterion", "complex", "--seq",
                                            json.dumps(seq)],
                         check="muntz", criterion="complex", seq=seq,
                         truth="dense" if p == 1 else "not-dense", terms=1000))

    def sarason(kind, f, method):
        z = complex(*[g.u(-0.6, 0.6) for _ in range(2)])
        argv = ["sarason", "eval", "--f", json.dumps(f), _cstr("--z", z)]
        return _req(kind, argv, check="sarason", f=f, z=[z.real, z.imag], method=method)

    for _ in range(20):
        reqs.append(sarason("sarason-closed", {"kind": "monomial", "s": [g.u(-0.4, 3.0), g.u(-2.0, 2.0)]},
                            "closed-form"))
    for _ in range(10):
        reqs.append(sarason("sarason-closed", {"kind": "indicator", "s": g.u(0.05, 1.0)}, "closed-form"))
    for k in range(10):
        f = {"kind": "monomial", "s": [g.u(0.0, 3.0), g.u(-1.0, 1.0)], "logpow": 1 + k % 2}
        reqs.append(sarason("sarason-quadrature", f, "quadrature"))
    for _ in range(10):
        xs = sorted({_r(v) for v in g.rng.uniform(0.02, 1.0, int(g.rng.integers(3, 9)))})
        ys = [[g.u(-1.0, 1.0), g.u(-1.0, 1.0)] for _ in xs]
        reqs.append(sarason("sarason-quadrature", {"kind": "table", "x": xs, "y": ys}, "quadrature"))

    for k in range(20):
        n = None if k % 4 == 0 else int(g.rng.integers(4, 33))
        reqs.append(g.laguerre("laguerre-small", g.c(-0.3, 3.0, -2.0, 2.0), n))

    for k in range(20):  # small coefficient vectors; truncation bounds are in the check
        op = "HXVJ"[k % 4]
        reqs.append(g.op_coeffs("op-apply-small", op, g.c(-0.3, 0.3, -0.2, 0.2),
                                int(g.rng.integers(16, 33))))
    for k in range(12):
        op = "HXVJ"[k % 4]
        s, coeff = g.c(-0.4, 3.0, -2.0, 2.0), g.c(-1.0, 1.0, -1.0, 1.0)
        inp = {"kind": "monomial", "coeff": [coeff.real, coeff.imag], "s": [s.real, s.imag]}
        reqs.append(_req("op-apply-monomial", ["op", "apply", "--op", op, "--input", json.dumps(inp)],
                         check="op", verb="apply", input="monomial", op=op,
                         s=[s.real, s.imag], coeff=[coeff.real, coeff.imag]))
    for k in range(10):  # phi(H) = c0 + c1 H on a spread-out grid
        c0, c1 = g.c(-1.0, 1.0, -1.0, 1.0), g.c(-1.0, 1.0, -1.0, 1.0)
        grid = [[_r(0.4 * j + g.u(-0.1, 0.1)), g.u(-1.0, 1.0)] for j in range(int(g.rng.integers(4, 9)))]
        vals = [abs(c0 + c1 / (1 + complex(*p))) for p in grid]
        M = _r(abs(c0) + 2 * abs(c1) + 0.1) if k % 2 == 0 else _r(0.5 * max(vals))
        phi = {"kind": "poly", "coeffs": [[c0.real, c0.imag], [c1.real, c1.imag]]}
        argv = ["op", "pick", "--phi", json.dumps(phi), f"--M={M!r}", "--grid", json.dumps(grid)]
        reqs.append(_req("op-pick", argv, check="op", verb="pick", phi=phi["coeffs"], M=M, grid=grid))

    for k in range(20):
        s = g.c(-0.3, 3.0, -2.0, 2.0)
        (tau, w), = g.atoms(1)
        if k % 2:
            ang = g.u(0.2, 6.0)
            tau = (float(np.cos(ang)), float(np.sin(ang)))
        argv = ["atomic", "proj", f"--tau={tau[0]!r},{tau[1]!r}", f"--w={w!r}",
                _cstr("--s", s)]
        reqs.append(_req("atomic-proj", argv, check="atomic", verb="proj", s=[s.real, s.imag],
                         atoms=[[list(tau), w]]))
    for k in range(10):
        reqs.append(g.atomic_dist("atomic-dist-small", g.c(0.0, 1.0, -0.5, 0.5),
                                  g.atoms(1 + k % 2), int(g.rng.choice([128, 256]))))

    # short curves; an interval curve's cost rises steeply as rho falls (rho = 0.17
    # takes the extended ladder), so each interval slot keeps rho within 2 %
    interval = {0: (0.17, 6), 3: (0.2, 6), 6: (0.25, 5), 9: (0.35, 4), 12: (0.5, 3)}
    for k in range(15):
        nmax = 3 + k % 4
        if k in interval:
            rho, nmax = interval[k]
            reqs.append(g.converge("converge-small", "interval", f"chi:{g.u(0.2, 0.8)!r}", nmax,
                                   rho=_r(rho * g.rng.uniform(0.98, 1.02))))
        elif k % 3 == 1:
            seq = {"kind": "affine", "a": [g.u(0.5, 2.0), 0.0], "b": [g.u(0.0, 1.0), 0.0]}
            reqs.append(g.converge("converge-small", "muntz", f"monomial:{g.u(0.1, 2.0)!r}",
                                   nmax, seq=seq))
        else:
            entries = [(v, 0.0, 0) for v in g.spaced(4, 0.0, 0.8, 1.6)]
            reqs.append(g.converge("converge-small", "constant", f"chi:{g.u(0.2, 0.8)!r}",
                                   nmax, set=entries))
    order = g.rng.permutation(len(reqs))
    return [reqs[i] for i in order]


# Suite seeds in 0..63 on which criterion 10 fails at the commit that defined
# this benchmark: one of the 200 random sets has a double-route Gram distance more
# than 1e-8 from the closed form (ROADMAP item 3; about 1 seed in 5 over 0..999).
# The timed requests use the other seeds; seed 7 is run as a known defect.
CRITERION_10_FAILS = (7, 23, 24, 27, 31, 34, 36, 42, 52, 59, 63)
ACCEPT_SEEDS = tuple(s for s in range(64) if s not in CRITERION_10_FAILS)


def _accept_req(kind, s):
    return _req(kind, ["accept", "--suite", "primary", "--seed", str(s)], check="accept", seed=s)


def accept(seed):
    g = _Gen(seed, "accept")
    return [_accept_req("accept", int(s)) for s in g.rng.choice(ACCEPT_SEEDS, 2, replace=False)]


# Known defects: fixed inputs the program gets wrong (ROADMAP item 3).  They
# run once per run, after the timed phase and outside every metric; the report
# says whether each is still wrong, so the defect stays visible while the timed
# requests hold only inputs the program is expected to get right.
KNOWN_DEFECTS = {
    "curves": [_Gen(0, "curves").dist_t(
        "defect-dist-confluent-12", complex(0.869042, 0.0),
        [(v, 0.0, k) for v in (0.0, 0.909235, 1.95931, 3.33205, 4.85293, 5.92633)
         for k in (0, 1)], logpow=1)],
    "matrices": [],
    "queries": [],
    "accept": [_accept_req("defect-accept-criterion-10", CRITERION_10_FAILS[0])],
}


GENERATORS = {"curves": curves, "matrices": matrices, "queries": queries, "accept": accept}

# request kinds each workload must contain (checked by the self-test)
KINDS = {
    "curves": {"converge-interval-chi", "converge-interval-const", "converge-muntz-chi",
               "converge-muntz-monomial", "converge-constant-chi", "dist-large-chi",
               "dist-confluent"},
    "matrices": {"op-apply-large", "atomic-dist-large", "laguerre-large"},
    "queries": {"dist-closed", "dist-double", "dist-hard-clustered", "dist-hard-edge",
                "muntz-symbolic", "muntz-explicit", "sarason-closed", "sarason-quadrature",
                "laguerre-small", "op-apply-small", "op-apply-monomial", "op-pick",
                "atomic-proj", "atomic-dist-small", "converge-small"},
    "accept": {"accept"},
}


def requests_for(workload, seed):
    return GENERATORS[workload](seed)


def known_defects_for(workload):
    return KNOWN_DEFECTS[workload]
