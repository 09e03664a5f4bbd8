"""Self-test of the benchmark itself; run from the root of a checkout:

    python3 perfbench/selftest.py

It checks that the same seed gives a byte-identical request list, that each
workload's list covers every request kind it names, that correct outputs
pass their checks while corrupted ones fail, and that the span recorder
restores every function it wrapped.  Exits 0 when all hold.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402
from checks import Checker  # noqa: E402
from monospan import cli  # noqa: E402
from tracing import TRACED, Tracer  # noqa: E402


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.dispatch(argv)
    return code, out.getvalue()


def _perturb(obj):
    """Every number moved by 1 % plus 0.01 and every boolean flipped."""
    if isinstance(obj, dict):
        return {k: _perturb(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_perturb(v) for v in obj]
    if isinstance(obj, bool):
        return not obj
    if isinstance(obj, (int, float)):
        return obj * 1.01 + 0.01
    return obj


def main():
    problems = []
    for wl in workloads.WORKLOADS:
        a = json.dumps(workloads.requests_for(wl, 7), sort_keys=True)
        b = json.dumps(workloads.requests_for(wl, 7), sort_keys=True)
        c = json.dumps(workloads.requests_for(wl, 8), sort_keys=True)
        if a != b:
            problems.append(f"{wl}: seed 7 gave two different request lists")
        if a == c:
            problems.append(f"{wl}: seeds 7 and 8 gave the same request list")
        kinds = {r["kind"] for r in workloads.requests_for(wl, 7)}
        if kinds != workloads.KINDS[wl]:
            problems.append(f"{wl}: kinds {sorted(kinds ^ workloads.KINDS[wl])} missing or unnamed")

    checker = Checker(cli.schema_for)
    first = {}
    for r in workloads.requests_for("queries", 7):
        first.setdefault(r["kind"], r)
    checked = 0
    for kind, r in sorted(first.items()):
        code, text = _run(r["argv"])
        if checker.check(r, code, text) is not None:
            problems.append(f"{kind}: a correct output failed: {checker.check(r, code, text)}")
            continue
        bad = json.dumps(_perturb(json.loads(text)))
        for label, (c2, t2) in {"perturbed": (code, bad), "truncated": (code, text[: len(text) // 2]),
                                "exit code": (4, text)}.items():
            if checker.check(r, c2, t2) is None:
                problems.append(f"{kind}: a {label} output passed its check")
        checked += 1

    tracer = Tracer()
    originals = {(m, f): getattr(__import__(f"monospan.{m}", fromlist=[f]), f)
                 for m, fs in TRACED.items() for f in fs}
    tracer.install()
    r = first["converge-small"]
    code, text = _run(r["argv"])
    tracer.uninstall()
    if checker.check(r, code, text) is not None:
        problems.append("a traced request gave a different output")
    if not tracer.calls.get("cli.dispatch") or not tracer.calls.get("convergence.distance_curve"):
        problems.append(f"the traced request recorded no spans: {dict(tracer.calls)}")
    for (m, f), fn in originals.items():
        if getattr(__import__(f"monospan.{m}", fromlist=[f]), f) is not fn:
            problems.append(f"monospan.{m}.{f} was not restored")

    for p in problems:
        print("FAIL", p)
    print(f"selftest: {len(problems)} problems; {checked} request kinds checked with corrupted outputs")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
