"""The workload process: imports monospan.cli fresh and runs requests closed-loop.

    python3 perfbench/worker.py --probe
        import monospan.cli, print the CLOCK_MONOTONIC time at which the first
        request could be sent, and exit (the set-up probe).

    python3 perfbench/worker.py --requests FILE --out FILE --seconds S --trace 0|1
        run the request list in passes until the request time adds up to S
        seconds (whole passes only), writing one JSON line per output to
        check and a summary line at the end.  With --trace 1 the passes are
        split: untraced passes for S/2 seconds, then as many traced passes.
        With --known-defects FILE, each request in that list then runs once,
        untimed and untraced, and its output is written with its index there.

Requests go through monospan.cli.dispatch one at a time; stdout and stderr
are captured.  The clock only runs inside dispatch, so writing outputs for
checking does not count as request time.
"""

from __future__ import annotations

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import monospan.cli  # noqa: E402

READY = time.clock_gettime(time.CLOCK_MONOTONIC)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402


def _blas_threads():
    """OpenBLAS's thread count, read from the library numpy loaded, if it can be found."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line and ".so" in line}
    except OSError:
        return None
    for path in paths:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _run_one(argv):
    out, err = io.StringIO(), io.StringIO()
    exc = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = monospan.cli.dispatch(argv)
    except Exception as e:  # the request failed; record it and keep the loop going
        code, exc = None, f"{type(e).__name__}: {e}"
    dt = time.perf_counter() - t0
    return dt, code, out.getvalue(), err.getvalue(), exc


def _phase(argvs, seconds, wall_cap, sink, seen, tracer=None, passes=None):
    """Run whole passes until `seconds` of request time (or exactly `passes`).

    A phase that runs past `wall_cap` seconds of wall time stops after the
    current request, so that a slow program still ends the run in time.
    Each latency entry is [request index, seconds, exit code, output variant];
    variant 0 is the first output seen for that request.
    """
    lat = []
    busy = 0.0
    done = 0
    wall0 = time.monotonic()
    while True:
        for idx, argv in enumerate(argvs):
            if tracer is not None:
                tracer.request = idx
            dt, code, text, err, exc = _run_one(argv)
            busy += dt
            variants = seen.setdefault(idx, {})
            key = (code, hash(text), exc)
            if key not in variants:  # first output of this request, or a changed one
                variants[key] = len(variants)
                sink.write(json.dumps({"index": idx, "variant": variants[key], "code": code,
                                       "stdout": text, "stderr": err[-2000:],
                                       "exception": exc}) + "\n")
            lat.append([idx, dt, code, variants[key]])
            if time.monotonic() - wall0 > wall_cap:
                return lat, busy, done, False
        done += 1
        if (passes is not None and done >= passes) or (passes is None and busy >= seconds):
            return lat, busy, done, True


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--probe", action="store_true")
    ap.add_argument("--requests")
    ap.add_argument("--out")
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--wall-cap", type=float, default=60.0)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--trace-file")
    ap.add_argument("--known-defects")
    args = ap.parse_args()
    if args.probe:
        print(json.dumps({"ready": READY}))
        return
    with open(args.requests) as fh:
        argvs = json.load(fh)
    seen = {}
    summary = {"ready": READY, "blas_threads": _blas_threads()}
    with open(args.out, "w") as sink:
        if not args.trace:
            lat, busy, passes, whole = _phase(argvs, args.seconds, args.wall_cap, sink, seen)
            summary.update(latencies=lat, busy_s=busy, passes=passes, whole_passes=whole)
        else:
            from tracing import Tracer

            lat, busy, passes, whole = _phase(argvs, args.seconds / 2, args.wall_cap, sink, seen)
            tracer = Tracer()
            tracer.install()
            try:
                tlat, tbusy, tpasses, twhole = _phase(argvs, None, args.wall_cap, sink, seen, tracer,
                                                      passes=passes)
            finally:
                tracer.uninstall()
            summary.update(latencies=lat, busy_s=busy, passes=passes, whole_passes=whole and twhole,
                           traced_latencies=tlat, traced_busy_s=tbusy, traced_passes=tpasses,
                           trace=tracer.summary())
            if args.trace_file:
                tracer.write(args.trace_file)
        summary["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if args.known_defects:
            with open(args.known_defects) as fh:
                for idx, argv in enumerate(json.load(fh)):
                    _, code, text, err, exc = _run_one(argv)
                    sink.write(json.dumps({"defect": idx, "code": code, "stdout": text,
                                           "stderr": err[-2000:], "exception": exc}) + "\n")
        sink.write(json.dumps({"summary": summary}) + "\n")


if __name__ == "__main__":
    main()
