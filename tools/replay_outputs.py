"""Replay the benchmark's request lists on two checkouts and print the outputs that differ.

    python3 tools/replay_outputs.py BASE_ROOT HEAD_ROOT

BASE_ROOT and HEAD_ROOT are checkouts of this repository.  The request lists
come from HEAD_ROOT's perfbench/workloads.py: seeds 1 and 2 of every workload,
then each workload's known defects (fixed inputs the program gets wrong).
Each checkout runs them through monospan.cli.dispatch in its own interpreter,
with its own src first on the path.  Every request whose exit code, stdout or
stderr differs is printed with both sides' values, then a count line.  The
script reports; it exits 0 whether or not outputs differ.

    python3 tools/replay_outputs.py --record SRC < argvs.json > outputs.json

is the per-checkout half: it imports monospan from SRC, reads a JSON list of
argv lists and writes a JSON list of [exit code, stdout, stderr].  A request
that raises records exit code null and the exception as its stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shlex
import subprocess
import sys

SEEDS = (1, 2)


def record(argvs: list) -> list:
    from monospan import cli

    out = []
    for argv in argvs:
        stdout, stderr = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = cli.dispatch(argv)
        except Exception as e:  # a crash is an output too: record it and go on
            code = None
            stderr.write(f"{type(e).__name__}: {e}")
        out.append([code, stdout.getvalue(), stderr.getvalue()])
    return out


def _side(root: str, argvs: list) -> list:
    done = subprocess.run([sys.executable, os.path.abspath(__file__), "--record", os.path.join(root, "src")],
                          input=json.dumps(argvs), capture_output=True, text=True, cwd=root, check=True)
    return json.loads(done.stdout)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("roots", nargs="*", metavar="ROOT")
    ap.add_argument("--record", metavar="SRC")
    args = ap.parse_args(argv)
    if args.record:
        sys.path.insert(0, os.path.abspath(args.record))
        json.dump(record(json.load(sys.stdin)), sys.stdout)
        return 0
    if len(args.roots) != 2:
        ap.error("give BASE_ROOT and HEAD_ROOT")
    base, head = map(os.path.abspath, args.roots)
    sys.path.insert(0, os.path.join(head, "perfbench"))
    import workloads

    labels, argvs = [], []
    for name in workloads.WORKLOADS:
        for seed in SEEDS:
            for i, req in enumerate(workloads.requests_for(name, seed)):
                labels.append(f"{name} seed {seed} #{i} {req['kind']}")
                argvs.append(req["argv"])
        for req in workloads.known_defects_for(name):
            labels.append(f"{name} known defect {req['kind']}")
            argvs.append(req["argv"])
    changed = 0
    for label, argv, old, new in zip(labels, argvs, _side(base, argvs), _side(head, argvs)):
        if old != new:
            changed += 1
            print(f"{label}: mono {shlex.join(argv)}")
            for what, a, b in zip(("exit code", "stdout", "stderr"), old, new):
                if a != b:
                    print(f"  {what}: {a!r}\n    -> {b!r}")
    print(f"{changed} of {len(argvs)} requests changed output")
    return 0


if __name__ == "__main__":
    sys.exit(main())
