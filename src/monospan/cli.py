"""Command-line entry point: JSON/CSV I/O over every module, with run manifests.

Every invocation can record a manifest (--manifest PATH) holding the
command, its fully parsed parameters, the precision mode, the seed, and
the tool version; re-running through --from-manifest reproduces the output
byte for byte in the same precision mode.  Complex numbers are serialized
as [re, im] pairs everywhere.  Exit codes: 0 success, 1 failed acceptance
criteria, 2 usage error, 3 domain error, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
import warnings
from functools import lru_cache
from importlib import resources

import numpy as np

from . import __version__
from .acceptance import DEFAULT_SEED
from .atomic import AtomicMeasure, AtomicSpaceParams, model_space_distance, proj_norm_sq
from .convergence import (
    PiecewiseMonomial,
    _distance_point,
    constant_family,
    interval_family,
    limit_membership_test,
    muntz_limit_experiment,
)
from .core import (
    Exponent, MonomialSet, complex_field, int_field, list_field, muntz_verdict, real_field,
    required_field,
)
from .errors import DomainError, MonomialError, NumericalError
from .laguerre import LaguerreExpansion, apply_J_expansion, apply_J_monomial, expand_monomial
from .operators import PhiSpec, apply_hat, monomial_operator, pick_positivity_check
from .sarason import (
    SampledFunction,
    forward_indicator,
    forward_monomial,
    forward_quadrature,
    monomial_function,
)

_COMMANDS = ("muntz", "dist", "sarason", "laguerre", "op", "atomic", "converge", "accept")


class UsageError(Exception):
    """Malformed command line or request body; maps to exit code 2."""


# --- small codecs -------------------------------------------------------------


def _parse_complex(text: str, what: str) -> complex:
    parts = str(text).split(",")
    try:
        if len(parts) == 1:
            return complex(float(parts[0]), 0.0)
        if len(parts) == 2:
            return complex(float(parts[0]), float(parts[1]))
    except ValueError:
        pass
    raise UsageError(f"{what} must be 're' or 're,im', got {text!r}")


def _complex_list(value, what: str) -> list[complex]:
    return [complex_field(v, what) for v in list_field(value, f"{what} list")]


def _pair(z) -> list[float]:
    z = complex(z)
    return [float(z.real), float(z.imag)]


def _load_json(text: str, what: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise UsageError(f"{what} is not valid JSON: {exc}") from exc


def _sanitize(obj):
    """JSON-safe copy: numpy scalars unwrapped, non-finite floats to null."""
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        f = float(obj)
        return f if math.isfinite(f) else None
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def schema_for(name: str) -> dict:
    """The published JSON schema for a subcommand's output (or 'manifest')."""
    if name not in _COMMANDS + ("manifest",):
        raise DomainError(f"no schema named {name!r}")
    path = resources.files("monospan").joinpath(f"schemas/{name}.schema.json")
    return json.loads(path.read_text())


# --- parameter builders (argv -> canonical JSON-typed dicts) ------------------


def _require(value, flag: str):
    if value is None:
        raise UsageError(f"missing required flag {flag}")
    return value


def _params_dist(args) -> dict:
    if (args.t is None) == (args.f is None):
        raise UsageError("dist needs exactly one of --t or --f")
    spec = None
    if args.f is not None:
        spec = _load_json(args.f, "--f") if args.f.lstrip().startswith("{") else args.f
    return {
        "t": _pair(_parse_complex(args.t, "--t")) if args.t is not None else None,
        "logpow": int(args.logpow),
        "f": spec,
        "set": _load_json(_require(args.set, "--set"), "--set"),
        "format": args.format,
    }


def _params_muntz(args) -> dict:
    seq = _load_json(_require(args.seq, "--seq"), "--seq")
    return {"criterion": args.criterion, "seq": seq, "format": args.format}


def _params_sarason(args) -> dict:
    return {
        "verb": args.verb,
        "f": _load_json(_require(args.f, "--f"), "--f"),
        "z": _pair(_parse_complex(_require(args.z, "--z"), "--z")),
        "format": args.format,
    }


def _params_laguerre(args) -> dict:
    return {
        "verb": args.verb,
        "s": _pair(_parse_complex(_require(args.s, "--s"), "--s")),
        "n": int(args.n) if args.n is not None else None,
        "format": args.format,
    }


def _params_op(args) -> dict:
    params: dict = {"verb": args.verb, "format": args.format}
    if args.verb == "apply":
        params["op"] = _require(args.op, "--op")
        params["input"] = _load_json(_require(args.input, "--input"), "--input")
    else:
        params["phi"] = _load_json(_require(args.phi, "--phi"), "--phi")
        params["M"] = float(_require(args.M, "--M"))
        params["grid"] = _load_json(_require(args.grid, "--grid"), "--grid")
    return params


def _params_atomic(args) -> dict:
    params: dict = {"verb": args.verb, "format": args.format}
    params["s"] = _pair(_parse_complex(_require(args.s, "--s"), "--s"))
    if args.verb == "proj":
        params["tau"] = _pair(_parse_complex(_require(args.tau, "--tau"), "--tau"))
        params["w"] = float(_require(args.w, "--w"))
    else:
        params["measure"] = _load_json(_require(args.measure, "--measure"), "--measure")
        params["n"] = int(args.n) if args.n is not None else 4096
    return params


def _params_converge(args) -> dict:
    fspec = _require(args.f, "--f")
    fval = _load_json(fspec, "--f") if fspec.lstrip().startswith("{") else fspec
    params: dict = {
        "family": args.family,
        "f": fval,
        "nmax": int(_require(args.nmax, "--nmax")),
        "format": args.format,
    }
    if args.family == "interval":
        params["rho"] = float(_require(args.rho, "--rho"))
    elif args.family == "muntz":
        params["seq"] = _load_json(_require(args.seq, "--seq"), "--seq")
    else:
        params["set"] = _load_json(_require(args.set, "--set"), "--set")
    return params


def _params_accept(args) -> dict:
    return {"suite": args.suite, "format": args.format}


_PARAM_BUILDERS = {
    "dist": _params_dist,
    "muntz": _params_muntz,
    "sarason": _params_sarason,
    "laguerre": _params_laguerre,
    "op": _params_op,
    "atomic": _params_atomic,
    "converge": _params_converge,
    "accept": _params_accept,
}


# --- handlers (canonical params -> payload dict, exit code) -------------------

# a --from-manifest body may lack any parameter, so handlers read each one
# through required_field: a missing key is a domain error, not a KeyError
_PARAMS = "the parameter object"


def _normalize_seq(seq):
    if isinstance(seq, list):
        return [complex_field(v, "sequence entry") for v in seq]
    if isinstance(seq, dict):
        return seq
    raise UsageError("sequence must be a JSON array or a generator object")


def _run_dist(params: dict, precision: str, seed) -> tuple[dict, int]:
    S = MonomialSet.from_json(required_field(params, "set", _PARAMS))
    t = required_field(params, "t", _PARAMS)
    if t is not None:
        t = complex_field(t, "--t")
        f = PiecewiseMonomial.monomial(Exponent(t.real, t.imag, params.get("logpow", 0)))
    else:
        f = PiecewiseMonomial.from_spec(required_field(params, "f", _PARAMS))
    point = _distance_point(f, S, precision)
    payload = {
        "distance": float(point.distance),
        "method": point.method,
        "condition_estimate": float(point.condition_estimate),
    }
    return payload, 0


def _run_muntz(params: dict, precision: str, seed) -> tuple[dict, int]:
    seq = _normalize_seq(required_field(params, "seq", _PARAMS))
    verdict = muntz_verdict(seq, required_field(params, "criterion", _PARAMS))
    return verdict.to_json(), 0


def _sarason_eval(spec: dict, z: complex) -> tuple[complex, float | None, str]:
    if not isinstance(spec, dict) or "kind" not in spec:
        raise UsageError("function spec must be an object with a 'kind' field")
    kind = spec["kind"]
    if kind == "monomial":
        s = complex_field(spec.get("s", 0.0), "monomial exponent")
        logpow = int_field(spec.get("logpow", 0), "monomial logpow")
        if logpow == 0:
            return forward_monomial(s).evaluate(z), None, "closed-form"
        res = forward_quadrature(monomial_function(Exponent(s.real, s.imag, logpow)), z)
        return res.value, res.error, "quadrature"
    if kind == "indicator":
        s = real_field(spec.get("s", 1.0), "indicator cutoff s")
        return forward_indicator(s).evaluate(z), None, "closed-form"
    if kind == "linear-combination":
        total = 0j
        err = 0.0
        exact = True
        for item in list_field(spec.get("terms", []), "combination terms"):
            v, e, _ = _sarason_eval(required_field(item, "f", "combination term"), z)
            c = complex_field(item.get("coeff", 1.0), "combination coefficient")
            total += c * v
            if e is not None:
                exact = False
                err += abs(c) * e
        return total, (None if exact else err), "composite"
    if kind == "table":
        xs = list_field(required_field(spec, "x", "table spec"), "table x")
        xs = np.array([real_field(v, "table x") for v in xs])
        ys = np.array(_complex_list(required_field(spec, "y", "table spec"), "table value"))
        if len(xs) != len(ys) or len(xs) < 2:
            raise UsageError("table spec needs matching x and y arrays with >= 2 entries")
        if np.any(np.diff(xs) <= 0) or xs[0] <= 0 or xs[-1] > 1:
            raise UsageError("table x values must increase strictly inside (0, 1]")

        def ev(x):
            xa = np.asarray(x, dtype=float)
            return np.interp(xa, xs, ys.real) + 1j * np.interp(xa, xs, ys.imag)

        bp = tuple(float(v) for v in xs if 0 < v < 1)
        res = forward_quadrature(SampledFunction(ev, bp), z)
        return res.value, res.error, "quadrature"
    raise DomainError(f"unknown function spec kind {kind!r}")


def _run_sarason(params: dict, precision: str, seed) -> tuple[dict, int]:
    z = complex_field(required_field(params, "z", _PARAMS), "--z")
    value, err, method = _sarason_eval(required_field(params, "f", _PARAMS), z)
    payload = {
        "z": _pair(z),
        "value": _pair(value),
        "error_estimate": None if err is None else float(err),
        "method": method,
    }
    return payload, 0


def _run_laguerre(params: dict, precision: str, seed) -> tuple[dict, int]:
    s = complex_field(required_field(params, "s", _PARAMS), "--s")
    n = required_field(params, "n", _PARAMS)
    exp = expand_monomial(s, None if n is None else int_field(n, "--n"))
    payload = {
        "s": _pair(s),
        "n": len(exp.coeffs) - 1,
        "coefficients": [_pair(c) for c in exp.coeffs],
        "tail_norm_sq": float(exp.tail_norm_sq),
        "norm_sq": float(exp.norm_sq),
    }
    return payload, 0


def _phi_from_spec(spec: dict) -> PhiSpec:
    if not isinstance(spec, dict) or "kind" not in spec:
        raise UsageError("phi spec must be an object with a 'kind' field")
    kind = spec["kind"]
    if kind == "identity":
        return PhiSpec("poly", (0.0, 1.0))
    if kind == "poly":
        return PhiSpec("poly", tuple(_complex_list(spec.get("coeffs", []), "phi coefficient")))
    if kind == "rational":
        return PhiSpec(
            "rational",
            tuple(_complex_list(spec.get("coeffs", []), "phi numerator")),
            tuple(_complex_list(spec.get("denom", []), "phi denominator")),
        )
    if kind == "table":
        entries = []
        for entry in list_field(spec.get("entries", []), "phi table entries"):
            w, v = list_field(entry, "phi table entry", 2)
            entries.append((complex_field(w, "table point"), complex_field(v, "table value")))
        return PhiSpec("table", table=tuple(entries))
    raise DomainError(f"unknown phi kind {kind!r}")


def _run_op(params: dict, precision: str, seed) -> tuple[dict, int]:
    if required_field(params, "verb", _PARAMS) == "pick":
        phi = _phi_from_spec(required_field(params, "phi", _PARAMS))
        grid = _complex_list(required_field(params, "grid", _PARAMS), "grid point")
        M = real_field(required_field(params, "M", _PARAMS), "--M")
        passes, smallest = pick_positivity_check(phi, M, grid)
        payload = {
            "passes": bool(passes),
            "min_eigenvalue": float(smallest),
            "M": M,
            "grid_size": len(grid),
        }
        return payload, 0

    op = required_field(params, "op", _PARAMS)
    spec = required_field(params, "input", _PARAMS)
    if not isinstance(spec, dict) or "kind" not in spec:
        raise UsageError("--input must be an object with a 'kind' field")
    if spec["kind"] == "monomial":
        s = complex_field(spec.get("s", 0.0), "input exponent")
        coeff = complex_field(spec.get("coeff", 1.0), "input coefficient")
        if op == "J":
            c, e = apply_J_monomial(s)
            c = coeff * c
        else:
            c, e = monomial_operator(op).apply(coeff, s)
        payload = {"kind": "monomial", "coeff": _pair(c), "s": _pair(e.s)}
        return payload, 0
    if spec["kind"] == "coefficients":
        vec = np.array(_complex_list(spec.get("values", []), "coefficient"))
        if vec.size == 0:
            raise UsageError("coefficient input must be nonempty")
        if op == "J":
            out = apply_J_expansion(LaguerreExpansion(vec)).coeffs
        else:
            out = apply_hat(op, vec)
        payload = {"kind": "coefficients", "values": [_pair(v) for v in out]}
        return payload, 0
    raise DomainError(f"unknown input kind {spec['kind']!r}")


def _run_atomic(params: dict, precision: str, seed) -> tuple[dict, int]:
    s = complex_field(required_field(params, "s", _PARAMS), "--s")
    if required_field(params, "verb", _PARAMS) == "proj":
        tau = complex_field(required_field(params, "tau", _PARAMS), "--tau")
        w = real_field(required_field(params, "w", _PARAMS), "--w")
        p = AtomicSpaceParams(tau, w)
        payload = {
            "tau": _pair(tau),
            "w": w,
            "s": _pair(s),
            "proj_norm_sq": float(proj_norm_sq(p, s)),
            "c": None if p.c is None else float(p.c),
            "wp": float(p.wp),
        }
        return payload, 0
    mu = AtomicMeasure.from_json(required_field(params, "measure", _PARAMS))
    N = int_field(required_field(params, "n", _PARAMS), "--n")
    d = model_space_distance(expand_monomial(s), mu, N)
    payload = {
        "distance": float(d),
        "N": N,
        "s": _pair(s),
        "total_mass": float(mu.total_mass),
    }
    return payload, 0


def _run_converge(params: dict, precision: str, seed) -> tuple[dict, int]:
    family = required_field(params, "family", _PARAMS)
    if family == "interval":
        fam = interval_family(real_field(required_field(params, "rho", _PARAMS), "--rho"))
    elif family == "muntz":
        seq = _normalize_seq(required_field(params, "seq", _PARAMS))
    elif family == "constant":
        fam = constant_family(MonomialSet.from_json(required_field(params, "set", _PARAMS)))
    else:
        raise UsageError(f"unknown family {family!r}")
    f = PiecewiseMonomial.from_spec(required_field(params, "f", _PARAMS))
    nmax = int_field(required_field(params, "nmax", _PARAMS), "--nmax")
    if family == "muntz":
        report = muntz_limit_experiment(seq, f, nmax, precision=precision)
    else:
        report = limit_membership_test(f, fam, nmax, precision=precision)
    payload = {
        "family": report.description,
        "n": list(range(1, nmax + 1)),
        "distance": [float(d) for d in report.distances],
        "condition_estimate": [float(c) for c in report.conditions],
        "verdict": report.verdict,
        "fitted_limit": float(report.fitted_limit),
        "density_verdict": report.density_verdict,
        "agreement": report.agreement,
    }
    return payload, 0


def _run_accept(params: dict, precision: str, seed) -> tuple[dict, int]:
    from .acceptance import run_suite

    suite = required_field(params, "suite", _PARAMS)
    if suite != "primary":
        raise UsageError(f"unknown suite {suite!r}")
    results = run_suite(seed=seed if seed is not None else DEFAULT_SEED)
    payload = {
        "suite": suite,
        "seed": seed if seed is not None else DEFAULT_SEED,
        "all_passed": all(r.passed for r in results),
        "criteria": [
            {"index": r.index, "name": r.name, "passed": r.passed, "detail": r.detail}
            for r in results
        ],
    }
    return payload, 0 if payload["all_passed"] else 1


_HANDLERS = {
    "dist": _run_dist,
    "muntz": _run_muntz,
    "sarason": _run_sarason,
    "laguerre": _run_laguerre,
    "op": _run_op,
    "atomic": _run_atomic,
    "converge": _run_converge,
    "accept": _run_accept,
}


# --- rendering and manifests ---------------------------------------------------


def _render(command: str, fmt: str, payload: dict) -> str:
    if fmt == "json":
        return json.dumps(_sanitize(payload), indent=2, sort_keys=True, allow_nan=False) + "\n"
    if command == "converge":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["n", "distance", "condition_estimate"])
        for n, d, c in zip(payload["n"], payload["distance"], payload["condition_estimate"]):
            writer.writerow([n, repr(float(d)), repr(float(c))])
        return buf.getvalue()
    if command == "accept":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["index", "name", "passed", "detail"])
        for row in payload["criteria"]:
            writer.writerow([row["index"], row["name"],
                             "true" if row["passed"] else "false", row["detail"]])
        return buf.getvalue()
    raise UsageError(f"subcommand {command!r} has no CSV form; use --format json")


def _write_text(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
        return
    with open(out_path, "w", newline="") as fh:
        fh.write(text)


def _manifest_dict(command: str, params: dict, precision: str, seed) -> dict:
    return {
        "command": command,
        "parameters": params,
        "precision": precision,
        "seed": seed,
        "tool_version": __version__,
    }


def _read_manifest(path: str) -> dict:
    try:
        with open(path) as fh:
            man = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read manifest {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"manifest {path} is not valid JSON: {exc}") from exc
    for key in ("command", "parameters", "precision", "tool_version"):
        if key not in man:
            raise UsageError(f"manifest {path} is missing the {key!r} field")
    if man["command"] not in _COMMANDS:
        raise UsageError(f"manifest names unknown command {man['command']!r}")
    if man["precision"] not in ("double", "extended"):
        raise UsageError(f"manifest names unknown precision {man['precision']!r}")
    return man


# --- parser and dispatch --------------------------------------------------------


@lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The `mono` argument parser, built once per process; parse_args leaves it unchanged."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--precision", choices=["double", "extended"], default="double",
                        help="float64 with an extended-precision fallback, or forced extended")
    common.add_argument("--out", metavar="PATH", help="write output here instead of stdout")
    common.add_argument("--format", choices=["json", "csv"], default="json")
    common.add_argument("--manifest", metavar="PATH",
                        help="record a reproducible run manifest at PATH")
    common.add_argument("--from-manifest", metavar="PATH", dest="from_manifest",
                        help="re-run a recorded manifest (other input flags are ignored)")

    parser = argparse.ArgumentParser(
        prog="mono",
        description="Numerics for monomial subspaces of L2[0,1].",
    )
    parser.add_argument("--version", action="version", version=f"mono {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = sub.add_parser("dist", parents=[common],
                       help="distance from a function to the span of a monomial set")
    p.add_argument("--t", help="monomial exponent 're[,im]' for f = x^t")
    p.add_argument("--logpow", type=int, default=0, help="log power k for f = x^t (ln x)^k")
    p.add_argument("--f", help="piecewise-monomial spec (shorthand or JSON) instead of --t")
    p.add_argument("--set", help='monomial set JSON {"exponents": [...]}')

    p = sub.add_parser("muntz", parents=[common], help="density verdict for an exponent sequence")
    p.add_argument("--criterion", choices=["classical", "real", "complex"], default="complex")
    p.add_argument("--seq", help="sequence JSON: array or generator spec")

    p = sub.add_parser("sarason", parents=[common], help="transform to the Hardy space of the disk")
    p.add_argument("verb", choices=["eval"])
    p.add_argument("--f", help="function spec JSON")
    p.add_argument("--z", help="disk point 're[,im]'")

    p = sub.add_parser("laguerre", parents=[common], help="Laguerre-basis coordinates")
    p.add_argument("verb", choices=["expand"])
    p.add_argument("--s", help="monomial exponent 're[,im]'")
    p.add_argument("--n", type=int, help="truncation order (defaults to a tail below 1e-16)")

    p = sub.add_parser("op", parents=[common], help="monomial operators and the Pick test")
    p.add_argument("verb", choices=["apply", "pick"])
    p.add_argument("--op", choices=["H", "X", "V", "J"], help="operator for apply")
    p.add_argument("--input", help="input JSON: monomial or coefficient vector")
    p.add_argument("--phi", help="phi spec JSON for pick")
    p.add_argument("--M", type=float, help="norm bound for pick")
    p.add_argument("--grid", help="JSON array of exponent grid points for pick")

    p = sub.add_parser("atomic", parents=[common], help="atomic spaces and model-space distances")
    p.add_argument("verb", choices=["proj", "dist"])
    p.add_argument("--tau", help="unimodular atom 're[,im]' for proj")
    p.add_argument("--w", type=float, help="atom mass for proj")
    p.add_argument("--s", help="probe exponent 're[,im]'")
    p.add_argument("--measure", help='measure JSON {"atoms": [{"tau": [re,im], "w": ...}]}')
    p.add_argument("--n", type=int, help="Toeplitz truncation order (default 4096)")

    p = sub.add_parser("converge", parents=[common], help="distance curves along subspace families")
    p.add_argument("--family", choices=["interval", "muntz", "constant"], required=False)
    p.add_argument("--rho", type=float, help="density parameter for the interval family")
    p.add_argument("--seq", help="sequence JSON for the muntz family")
    p.add_argument("--set", help="monomial set JSON for the constant family")
    p.add_argument("--f", help="target function spec (shorthand or JSON)")
    p.add_argument("--nmax", type=int, help="curve length")

    p = sub.add_parser("accept", parents=[common], help="run the acceptance suite")
    p.add_argument("--suite", choices=["primary"], required=False)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help="seed for the randomized property suites")

    return parser


def dispatch(argv=None) -> int:
    """Parse argv, run the subcommand, write artifacts; returns the exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return int(code) if isinstance(code, int) else 0 if code is None else 2

    try:
        command = args.command
        if args.from_manifest:
            man = _read_manifest(args.from_manifest)
            if man["command"] != command:
                raise UsageError(
                    f"manifest records command {man['command']!r}; invoke that subcommand"
                )
            params = man["parameters"]
            precision = man["precision"]
            seed = man.get("seed")
            if not isinstance(params, dict) or "format" not in params:
                raise UsageError("manifest parameters must be an object with a 'format' field")
        else:
            if command == "converge" and args.family is None:
                raise UsageError("missing required flag --family")
            if command == "accept" and args.suite is None:
                raise UsageError("missing required flag --suite")
            params = _PARAM_BUILDERS[command](args)
            precision = args.precision
            seed = args.seed if command == "accept" else None
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                payload, code = _HANDLERS[command](params, precision, seed)
            finally:
                for note in caught:
                    print(f"mono: note: {note.message}", file=sys.stderr)
        _write_text(_render(command, params["format"], payload), args.out)
        if args.manifest:
            manifest = _manifest_dict(command, params, precision, seed)
            _write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", args.manifest)
        return code
    except UsageError as exc:
        print(f"mono: usage error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"mono: numerical failure: {exc}", file=sys.stderr)
        return 4
    except DomainError as exc:
        print(f"mono: domain error: {exc}", file=sys.stderr)
        return 3
    except MonomialError as exc:
        print(f"mono: error: {exc}", file=sys.stderr)
        return 4


def main() -> None:
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
