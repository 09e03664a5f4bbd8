"""Audit every distance route on seeded hard inputs against an independent Gram solve.

    python3 tools/audit_distances.py --seed N --count K

Run it from the root of a checkout; it imports monospan from ./src.  It
draws K seeded inputs, each a target f and a monomial set S, of four kinds
in turn: exponents near the edge Re s = -1/2, clusters spaced 1e-9 to
1e-3, spread complex exponents, and windows of consecutive integers; about
one set in four carries log powers.  A target is an uncut monomial c x^t
(the closed form) or a sum of one to three terms c x^t (ln x)^k
chi_[a,1].  Every sixth input is a sliding-window curve instead: windows of
one list that start one to three entries apart and grow and shrink, solved
by one core.distances call, as a curve is.

Each input is solved under precision "double" and "extended", and each
result is held to the bound of its route against the oracle distance d:

- closed-form: |got - d| <= (n + 2) 2^-51 d, n the entries of S;
- double: |got^2 - d^2| <= 16 * 10^g * 2^-52 * ||f||^2, 10^g the reported
  condition estimate, the bound core.DistanceResult states;
- extended(dps=N): |got - d| <= 1e-13 (1 + d), the ladder's agreement rule.

A NumericalError is a typed failure, not a violation.  A violation listed in
KNOWN, by seed and case, is a known defect: it goes to stderr with its
reason, not to the list, so that any other violation still shows.  The oracle solves
the normal equations by mpmath's LU on the closed moments, the cut ones
through the lower incomplete gamma function, so it shares no code with the
Schur recursion.  Its digits follow the data: it starts at g + 40, g the
Blaschke growth of the nodes, and doubles them until two solves agree on d
to 1e-20 (a Gram matrix singular at some digits counts as no solve); an
oracle that has not settled at 3200 digits is reported too.
The last line of stdout is the JSON list of violations, empty when every
result keeps its bound or is listed in KNOWN; a summary of the routes seen
goes to stderr.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import sys

import mpmath as mp
import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from monospan.core import MonomialSet, PiecewiseMonomial, distances  # noqa: E402
from monospan.errors import NumericalError  # noqa: E402

_KINDS = ("edge", "clustered", "spread", "integer")
_ORACLE_MAX_DPS = 3200
# (seed, case, precision) -> why that result breaks its bound
KNOWN = {
    (7, 46, "double"): "the target's two terms cancel 95-fold and their rounding stays in the double "
                       "||f||^2 and pairings: d^2 is off by 3.9 times the bound (ROADMAP item 1)",
}


def _draw_set(rng, kind: str) -> MonomialSet:
    n = int(rng.integers(1, 11))
    if kind == "edge":
        z = -0.5 + 10 ** rng.uniform(-12.0, -1.0, n) + 1j * rng.uniform(-0.3, 0.3, n) * (rng.random(n) < 0.5)
    elif kind == "clustered":
        z = rng.uniform(0.0, 4.0) + 10 ** rng.uniform(-9.0, -3.0) * np.arange(n)
    elif kind == "spread":
        z = rng.uniform(-0.4, 8.0, n) + 1j * rng.uniform(-3.0, 3.0, n) * (rng.random(n) < 0.5)
    else:
        z = int(rng.integers(0, 30)) + 1.0 + np.arange(n)
    z = list(dict.fromkeys(np.asarray(z, dtype=complex).tolist()))
    if rng.random() < 0.25:  # log powers 0..m-1 on each exponent, m of 1 to 3
        m = rng.integers(1, 4, len(z)).tolist()
        return MonomialSet([s for s, k in zip(z, m) for _ in range(k)], [j for k in m for j in range(k)])
    return MonomialSet(z)


def _draw_target(rng) -> PiecewiseMonomial:
    def exponent():
        return complex(rng.uniform(-0.45, 3.0), rng.uniform(-1.0, 1.0) * (rng.random() < 0.3))

    def coeff():
        return complex(rng.normal(), rng.normal() * (rng.random() < 0.3))

    if rng.random() < 0.3:
        return PiecewiseMonomial(((coeff(), exponent(), 0.0),))
    terms = []
    for _ in range(int(rng.integers(1, 4))):
        cut = float(rng.uniform(0.1, 0.9)) if rng.random() < 0.6 else 0.0
        terms.append((coeff(), exponent(), cut, int(rng.integers(0, 3))))
    return PiecewiseMonomial(tuple(terms))


def _windows(rng) -> list[MonomialSet]:
    """Windows of one seeded list, each starting 1-3 entries after the last, 2 to 10 entries long."""
    count = int(rng.integers(4, 9))
    values = rng.uniform(-0.4, 6.0, 3 * count + 10).tolist()
    starts = np.cumsum(rng.integers(1, 4, count)) - 1
    return [MonomialSet(values[i:i + int(rng.integers(2, 11))]) for i in starts.tolist()]


def _moment(p, m: int, a: float):
    """The integral over [a, 1] of x^(p-1) (ln x)^m: (-1)^m gamma(m+1, p ln(1/a)) / p^(m+1)."""
    if a == 0.0:
        return (-1) ** m * mp.factorial(m) / p ** (m + 1)
    return (-1) ** m * mp.gammainc(m + 1, 0, -p * mp.log(mp.mpf(a))) / p ** (m + 1)


def _gram_distance(f: PiecewiseMonomial, S: MonomialSet):
    """d(f, M(S)) by an LU solve of the normal equations at the working precision."""
    s = [mp.mpc(z) for z in S.values.tolist()]
    k = S.logpows.tolist()
    n = len(s)
    terms = [(mp.mpc(c), mp.mpc(t.s), a, j) for c, t, a, j in f.terms]
    A = mp.matrix(n, n)  # A[i, j] = <m_j, m_i>
    for i in range(n):
        for j in range(n):
            A[i, j] = _moment(1 + s[j] + mp.conj(s[i]), k[i] + k[j], 0.0)
    b = mp.matrix([sum(c * _moment(1 + t + mp.conj(s[i]), j + k[i], a) for c, t, a, j in terms)
                   for i in range(n)])
    gram = [[ci * mp.conj(cj) * _moment(1 + ti + mp.conj(tj), ji + jj, max(ai, aj))
             for cj, tj, aj, jj in terms] for ci, ti, ai, ji in terms]
    norm = mp.re(mp.fsum(sum(gram, [])))
    alpha = mp.lu_solve(A, b)
    d2 = norm - mp.re(sum(alpha[i] * mp.conj(b[i]) for i in range(n)))
    return mp.sqrt(max(d2, 0)), norm


def _growth(S: MonomialSet) -> float:
    """max over j of sum over i < j of m_i (-log10 |b_i(w_j)|), at 60 digits; a pair equal there counts 60."""
    nodes = collections.Counter(S.values.tolist())
    with mp.workdps(60):
        w = [mp.mpc(mp.mpf(z.real) + mp.mpf(0.5), -mp.mpf(z.imag)) for z in nodes]
        rows = [0.0]
        for j, wj in enumerate(w):
            row = 0.0
            for wi, m in zip(w[:j], nodes.values()):
                r = abs((wj - wi) / (wj + mp.conj(wi)))
                row += m * (60.0 if r == 0 else float(-mp.log10(r)))
            rows.append(row)
    return max(rows)


def oracle(f: PiecewiseMonomial, S: MonomialSet) -> tuple[float, float] | None:
    """(d, ||f||^2) from LU solves whose digits double from g + 40 until two agree to 1e-20; None if none do."""
    dps, prev = int(_growth(S)) + 40, None
    while dps <= _ORACLE_MAX_DPS:
        with mp.workdps(dps):
            try:
                d, norm = _gram_distance(f, S)
            except ZeroDivisionError:  # the Gram matrix is singular at these digits
                d = None
            if None not in (d, prev) and abs(d - prev) <= mp.mpf(10) ** -20 * d:
                return float(d), float(norm)
            prev = d
        dps *= 2
    return None


def _violation(result, ref: float, norm: float, n: int) -> float | None:
    """The bound a result breaks, or None when it keeps it."""
    got, route = result.distance, result.precision
    if route == "closed-form":
        bound, err = (n + 2) * 2.0 ** -51 * ref + 5e-324, abs(got - ref)
    elif route == "double":
        bound, err = 16 * result.condition_estimate * 2.0 ** -52 * norm, abs(got ** 2 - ref ** 2)
    else:
        bound, err = 1e-13 * (1.0 + ref), abs(got - ref)
    return None if err <= bound else bound


def audit(seed: int, count: int) -> tuple[list, list, collections.Counter]:
    """(violations, known violations, results by route) over `count` inputs of `seed`."""
    rng = np.random.default_rng([seed, 20])
    violations, known, routes = [], [], collections.Counter()
    for case in range(count):
        f = _draw_target(rng)
        kind = "window" if case % 6 == 5 else _KINDS[case % 6 % 4]
        sets = _windows(rng) if kind == "window" else [_draw_set(rng, kind)]
        refs = [oracle(f, S) for S in sets]
        for precision in ("double", "extended"):
            for S, ref, result in zip(sets, refs, distances(f, sets, precision=precision)):
                route = "error" if isinstance(result, NumericalError) else result.precision.split("(")[0]
                routes[route] += 1
                entry = {"case": case, "kind": kind, "precision": precision,
                         "set": [[z.real, z.imag, int(k)] for z, k in zip(S.values.tolist(), S.logpows)],
                         "f": [[[c.real, c.imag], [t.re, t.im], a, k] for c, t, a, k in f.terms]}
                if ref is None:
                    violations.append({**entry, "problem": "oracle did not settle"})
                elif not isinstance(result, NumericalError):
                    bound = _violation(result, ref[0], ref[1], len(S))
                    if bound is not None:
                        entry.update(route=result.precision, got=result.distance, oracle=ref[0], bound=bound)
                        reason = KNOWN.get((seed, case, precision))
                        if reason is None:
                            violations.append(entry)
                        else:
                            known.append({**entry, "known": reason})
    return violations, known, routes


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--count", type=int, default=60)
    args = parser.parse_args()
    violations, known, routes = audit(args.seed, args.count)
    print(json.dumps(dict(sorted(routes.items()))), file=sys.stderr)
    for entry in known:
        print("known:", json.dumps(entry), file=sys.stderr)
    print(json.dumps(violations))


if __name__ == "__main__":
    main()
