"""The monospan benchmark: one closed-loop client, seeded `mono` requests, checked outputs.

    python3 perfbench/run.py --workload curves|matrices|queries|accept \\
        --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports the package from ./src and
writes scratch files (request lists, worker output, span dumps) under
./.perfbench.  Steps:

1. Build the workload's request list from the seed and compute a reference
   for every request (not timed, not part of set-up).
2. Set-up: launch fresh interpreters that import monospan.cli and report
   when they could send a first request; setup_s is the median over these
   probes and the workload process itself.
3. The workload process (worker.py) sends the requests through
   monospan.cli.dispatch one at a time, in whole passes over the list,
   until the request time adds up to S seconds.
4. Every output is checked (checks.py).  A request fails on a nonzero exit
   code, an exception, a schema violation or a value outside its reference
   tolerance.
5. The workload's known defects (workloads.KNOWN_DEFECTS: fixed inputs the
   program gets wrong) run once after the timed phase; the report says for
   each whether it is still wrong.  They count in no metric.

The last line of stdout is the result object.  With --trace 0 it holds the
end-to-end metrics; with --trace 1 the per-layer metrics of a traced run
(spans recorded around each layer's public functions, see tracing.py),
normalised per pass over the request list.  The line before it is a report
with the metrics that have no fixed place in the result (latency tail,
failed ratio, request counts), the environment, the first failures and
the known defects.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_PROBES = 3
RUN_BUDGET_S = 150.0  # wall time the timed phases may use, counted from the start
DEADLINE_S = 170.0  # a workload process still running then is killed
# one BLAS thread: the client is single-threaded, and on a small shared machine a
# multi-threaded BLAS makes timings depend on how many cores happen to be idle
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def _environment(seed, blas_threads):
    import mpmath
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads,
        "blas_env": CHILD_ENV,
        "machine": platform.machine(),
        "seed": seed,
    }


def _now():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _probe(worker, env):
    launch = _now()
    out = subprocess.run([sys.executable, worker, "--probe"], capture_output=True, text=True,
                         timeout=60, check=True, env=env).stdout
    return json.loads(out.strip().splitlines()[-1])["ready"] - launch


def _tail(lat_ms):
    """The highest percentile with at least ten requests beyond it, or None."""
    n = len(lat_ms)
    if n <= 10:
        return None
    return {"value": sorted(lat_ms)[n - 11], "percentile": 100.0 * (n - 10) / n,
            "count": n, "beyond": 10}


def _layer_metrics(summary, requests):
    tr = summary["trace"]
    k = summary["traced_passes"]
    calls = tr["calls"]
    tot = tr["total_s"]
    self_s = tr["self_s"]
    layer = tr["layer_self_s"]
    cnt = tr["counts"]
    wall = summary["traced_busy_s"]

    def per(v):
        return v / k

    m = {}

    def put(name, value, unit):
        m[name] = {"value": value, "unit": unit}

    from tracing import LAYERS

    for lay in LAYERS:
        put(f"{lay}.self_s", per(layer.get(lay, 0.0)), "s")
        put(f"{lay}.share", layer.get(lay, 0.0) / wall, "ratio")
    put("cli.dispatch.calls", per(calls.get("cli.dispatch", 0)), "count")
    for fn in ("core.gram_build", "core.distance_to_span", "core.closed_form",
               "convergence.distance_curve", "sarason.forward_quadrature",
               "quadrature.integrate", "laguerre.eval_e", "operators.hat_matrix",
               "atomic.model_space_distance"):
        put(f"{fn}.calls", per(calls.get(fn, 0)), "count")
    for fn in ("core.gram_build", "core.closed_form", "core.muntz_verdict",
               "sarason.forward_quadrature", "quadrature.integrate", "laguerre.eval_e",
               "laguerre.expand_monomial", "operators.hat_matrix",
               "operators.pick_positivity_check", "atomic.model_space_distance"):
        put(f"{fn}.s", per(tot.get(fn, 0.0)), "s")
    for i in range(1, 11):
        put(f"acceptance.criterion_{i}.s", per(tot.get(f"acceptance.criterion_{i}", 0.0)), "s")
    dts = calls.get("core.distance_to_span", 0)
    ext = cnt.get("core.distance_to_span.extended", 0)
    put("core.distance_to_span.self_s", per(self_s.get("core.distance_to_span", 0.0)), "s")
    put("core.distance_to_span.errors", per(cnt.get("core.distance_to_span.errors", 0)), "count")
    put("core.distance_to_span.extended_share", ext / dts if dts else 0.0, "ratio")
    put("core.distance_to_span.dps_mean",
        cnt.get("core.distance_to_span.dps_sum", 0) / ext if ext else 0.0, "digits")
    points = cnt.get("convergence.points", 0)
    returned = k * sum(r["spec"]["nmax"] for r in requests if r["spec"]["check"] == "converge")
    put("convergence.points", per(points), "count")
    put("convergence.useful_point_ratio", returned / points if points else 0.0, "ratio")
    put("quadrature.cells", per(cnt.get("quadrature.cells", 0)), "count")
    put("laguerre.expand_monomial.coeffs", per(cnt.get("laguerre.expand_monomial.coeffs", 0)),
        "count")
    put("operators.hat_matrix.entries", per(cnt.get("operators.hat_matrix.entries", 0)), "count")
    put("atomic.model_space_distance.order_sum",
        per(cnt.get("atomic.model_space_distance.order_sum", 0)), "count")
    put("trace.overhead_ratio",
        (summary["traced_busy_s"] / k) / (summary["busy_s"] / summary["passes"]), "ratio")
    return m


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    started = _now()

    if not os.path.isfile(os.path.join(ROOT, "src", "monospan", "cli.py")):
        print(f"perfbench: no monospan sources under {ROOT}/src", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import workloads
    from checks import Checker
    from monospan.cli import schema_for

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    requests = workloads.requests_for(args.workload, args.seed)
    defects = workloads.known_defects_for(args.workload)
    checker = Checker(schema_for)
    t0 = _now()
    for r in requests + defects:
        checker.reference(r["spec"])
    reference_s = _now() - t0

    scratch = os.path.join(ROOT, ".perfbench")
    os.makedirs(scratch, exist_ok=True)
    tag = f"{args.workload}-{args.seed}-{args.trace}"
    req_path = os.path.join(scratch, f"requests-{tag}.json")
    out_path = os.path.join(scratch, f"outputs-{tag}.jsonl")
    trace_path = os.path.join(scratch, f"spans-{tag}.jsonl")
    defects_path = os.path.join(scratch, f"defects-{tag}.json")
    with open(req_path, "w") as fh:
        json.dump([r["argv"] for r in requests], fh)
    with open(defects_path, "w") as fh:
        json.dump([r["argv"] for r in defects], fh)

    worker = os.path.join(HERE, "worker.py")
    env = dict(os.environ, **CHILD_ENV)
    setup = [_probe(worker, env) for _ in range(SETUP_PROBES)]

    remaining = RUN_BUDGET_S - (_now() - started)
    wall_cap = max(10.0, remaining - 15.0) / (2 if args.trace else 1)
    cmd = [sys.executable, worker, "--requests", req_path, "--out", out_path,
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--wall-cap", repr(wall_cap), "--known-defects", defects_path]
    if args.trace:
        cmd += ["--trace-file", trace_path]
    launch = _now()
    proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                            env=env)
    try:
        _, err = proc.communicate(timeout=max(1.0, started + DEADLINE_S - _now()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print("perfbench: the workload process did not finish in time", file=sys.stderr)
        return 3
    if proc.returncode != 0:
        print(f"perfbench: the workload process exited {proc.returncode}:\n{err[-3000:]}",
              file=sys.stderr)
        return 3

    outputs = {}
    summary = None
    known_defects = {}
    with open(out_path) as fh:
        for line in fh:
            rec = json.loads(line)
            if "summary" in rec:
                summary = rec["summary"]
            elif "defect" in rec:
                req = defects[rec["defect"]]
                verdict = (("error", f"exception {rec['exception']}") if rec["exception"]
                           else checker.check(req, rec["code"], rec["stdout"]))
                known_defects[req["kind"]] = ("still wrong: " + ": ".join(verdict)[:300]
                                              if verdict else "now correct")
            else:
                outputs[(rec["index"], rec["variant"])] = rec
    setup.append(summary["ready"] - launch)

    verdicts = {}
    for key, rec in outputs.items():
        req = requests[key[0]]
        if rec["exception"]:
            verdicts[key] = ("error", f"exception {rec['exception']}")
        else:
            verdicts[key] = checker.check(req, rec["code"], rec["stdout"])
    lat_all = summary["latencies"] + summary.get("traced_latencies", [])
    attempted = len(lat_all)
    failed = 0
    wrong = 0
    failures = {}
    for idx, _, _, variant in lat_all:
        verdict = verdicts[(idx, variant)]
        if verdict is not None:
            failed += 1
            wrong += verdict[0] == "wrong"
            failures.setdefault(f"{requests[idx]['kind']}#{idx}", ": ".join(verdict))

    lat_ms = [1e3 * dt for _, dt, _, _ in summary["latencies"]]
    p50_ms = statistics.median(lat_ms)
    throughput = len(lat_ms) / summary["busy_s"]
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "requests_per_pass": len(requests),
        "passes": summary["passes"],
        "whole_passes": summary["whole_passes"],
        "attempted": attempted,
        "failed": failed,
        "failed_ratio": failed / attempted,
        "wrong_outputs": wrong,
        "latency_p50_ms": {"value": p50_ms, "count": len(lat_ms)},
        "latency_tail_ms": _tail(lat_ms),
        "throughput_rps": throughput,
        "setup_samples_s": setup,
        "reference_s": reference_s,
        "environment": _environment(args.seed, summary["blas_threads"]),
        "failures": dict(list(failures.items())[:10]),
        "known_defects": known_defects,
    }
    if args.trace:
        report["trace_spans"] = summary["trace"]["spans"]
        report["trace_file"] = os.path.relpath(trace_path, ROOT)
        metrics = _layer_metrics(summary, requests)
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "throughput_rps": {"value": throughput, "unit": "1/s"},
            "latency_p50_ms": {"value": p50_ms, "unit": "ms"},
            "peak_rss_mb": {"value": summary["maxrss_kb"] / 1024.0, "unit": "MB"},
        }
    print(json.dumps(report, sort_keys=True))
    print(json.dumps({"correct": wrong == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
