"""Command-line entry point: JSON/CSV I/O over every module, with run manifests.

Every invocation can record a manifest (--manifest PATH) holding the
command, its fully parsed parameters, the precision mode, the seed, and
the tool version; re-running through --from-manifest reproduces the output
byte for byte in the same precision mode.  Complex numbers are serialized
as [re, im] pairs everywhere.  Exit codes: 0 success, 1 failed acceptance
criteria, 2 usage error, 3 domain error, 4 numerical failure.

One table, `_TABLE`, declares each command's handler, help line and flags.  A
flag's name is both its `--name` and its manifest field.  The parser is built
from the table; `_params_from_argv` turns argv into the manifest's parameter
object (usage errors), and `_read_params` turns a parameter object, from argv
or from a manifest, into the typed values the handler reads (domain errors),
so both paths check every field with the same codec.
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
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .acceptance import DEFAULT_SEED
from .atomic import AtomicMeasure, AtomicSpaceParams, check_order, kernel_distance, proj_norm_sq
from .convergence import (
    constant_family, interval_family, limit_membership_test, muntz_limit_experiment,
)
from .core import (
    Exponent, MonomialSet, PiecewiseMonomial, complex_field, complex_list, distance, int_field,
    list_field, muntz_verdict, real_field, required_field, sequence_from_spec,
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


def _pair(z) -> list[float]:
    z = complex(z)
    return [float(z.real), float(z.imag)]


def _load_json(text: str, what: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise UsageError(f"{what} is not valid JSON: {exc}") from exc


def schema_for(name: str) -> dict:
    """The published JSON schema for a subcommand's output (or 'manifest')."""
    if name != "manifest" and name not in _TABLE:
        raise DomainError(f"no schema named {name!r}")
    path = resources.files("monospan").joinpath(f"schemas/{name}.schema.json")
    return json.loads(path.read_text())


# --- flags (argv -> parameter object -> typed values) ---------------------------

_REQUIRED = object()  # the default of a flag that must be given


class _Flag(NamedTuple):
    """One per-command flag: `--name` on the command line, `name` in the manifest."""

    name: str
    kind: str  # a key of _KINDS
    help: str | None = None
    default: object = _REQUIRED  # None: optional, null in the manifest when not given
    choices: tuple = ()
    when: tuple = ()  # the values of the command's first flag (verb or family) that take it


def _same(value, what: str):
    return value


def _spec_from_argv(text: str, what: str):
    """A piecewise-monomial target: a JSON object, or a shorthand such as chi:0.5."""
    return _load_json(text, what) if text.lstrip().startswith("{") else text


class _Kind(NamedTuple):
    """How a flag's value is read: argv text -> manifest value -> handler value."""

    argparse_type: Callable | None
    from_argv: Callable  # (argparse value, "--name") -> JSON value; raises UsageError
    from_json: Callable  # (JSON value, "--name") -> handler value; raises DomainError


# json and spec values go on unchanged to the domain parsers (MonomialSet.from_json,
# PiecewiseMonomial.from_spec, ...), which check them
_KINDS = {
    "text": _Kind(None, _same, _same),
    "int": _Kind(int, _same, int_field),
    "real": _Kind(float, _same, real_field),
    "complex": _Kind(None, lambda text, what: _pair(_parse_complex(text, what)), complex_field),
    "json": _Kind(None, _load_json, _same),
    "spec": _Kind(None, _spec_from_argv, _same),
}


def _flags_taken(command: str, values: dict):
    """The command's flags that apply, then --format.

    The first flag (a verb or a family) picks the others, so the caller stores
    its value in `values` before it takes the next flag.
    """
    flags = _TABLE[command].flags
    for flag in (*flags, _FORMAT):
        if not flag.when or values[flags[0].name] in flag.when:
            yield flag


def _params_from_argv(command: str, args) -> dict:
    """The manifest's parameter object from parsed argv; a missing flag is a usage error."""
    params: dict = {}
    for flag in _flags_taken(command, params):
        value = getattr(args, flag.name)
        if value is None:
            if flag.default is _REQUIRED:
                raise UsageError(f"missing required flag --{flag.name}")
            params[flag.name] = flag.default
        else:
            params[flag.name] = _KINDS[flag.kind].from_argv(value, f"--{flag.name}")
    return params


def _read_params(command: str, params: dict) -> dict:
    """The handler's typed values from a parameter object; a bad field is a domain error."""
    values: dict = {}
    for flag in _flags_taken(command, values):
        what = f"--{flag.name}"
        # a --from-manifest body may lack any parameter: a domain error, not a KeyError
        value = required_field(params, flag.name, "the parameter object")
        if flag.choices and value not in flag.choices:
            raise DomainError(f"{what} must be one of {', '.join(flag.choices)}, got {value!r}")
        if value is not None or flag.default is not None:  # an optional flag may be null
            value = _KINDS[flag.kind].from_json(value, what)
        values[flag.name] = value
    return values


# --- handlers (typed values -> payload dict, exit code) -------------------------


def _run_dist(v: dict, precision: str, seed) -> tuple[dict, int]:
    t = v["t"]
    if (t is None) == (v["f"] is None):
        raise UsageError("dist needs exactly one of --t or --f")
    S = MonomialSet.from_json(v["set"])
    if t is not None:
        f = PiecewiseMonomial.monomial(Exponent(t.real, t.imag, v["logpow"]))
    else:
        f = PiecewiseMonomial.from_spec(v["f"])
    res = distance(f, S, precision=precision)
    payload = {
        "distance": float(res.distance),
        "method": res.precision if res.precision == "closed-form" else f"gram-{res.precision}",
        "condition_estimate": float(res.condition_estimate),
    }
    return payload, 0


def _run_muntz(v: dict, precision: str, seed) -> tuple[dict, int]:
    verdict = muntz_verdict(v["seq"], v["criterion"])
    return verdict.to_json(), 0


def _sarason_eval(spec: dict, z: complex) -> tuple[complex, float | None, str]:
    if not isinstance(spec, dict) or "kind" not in spec:
        raise DomainError("function spec must be an object with a 'kind' field")
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
        ys = np.array(complex_list(required_field(spec, "y", "table spec"), "table value"))
        if len(xs) != len(ys) or len(xs) < 2:
            raise DomainError("table spec needs matching x and y arrays with >= 2 entries")
        if np.any(np.diff(xs) <= 0) or xs[0] <= 0 or xs[-1] > 1:
            raise DomainError("table x values must increase strictly inside (0, 1]")

        def ev(x):
            xa = np.asarray(x, dtype=float)
            return np.interp(xa, xs, ys.real) + 1j * np.interp(xa, xs, ys.imag)

        bp = tuple(float(v) for v in xs if 0 < v < 1)
        res = forward_quadrature(SampledFunction(ev, bp), z)
        return res.value, res.error, "quadrature"
    raise DomainError(f"unknown function spec kind {kind!r}")


def _run_sarason(v: dict, precision: str, seed) -> tuple[dict, int]:
    value, err, method = _sarason_eval(v["f"], v["z"])
    payload = {
        "z": _pair(v["z"]),
        "value": _pair(value),
        "error_estimate": None if err is None else float(err),
        "method": method,
    }
    return payload, 0


def _run_laguerre(v: dict, precision: str, seed) -> tuple[dict, int]:
    exp = expand_monomial(v["s"], v["n"])
    payload = {
        "s": _pair(v["s"]),
        "n": len(exp.coeffs) - 1,
        "coefficients": exp.coeffs,
        "tail_norm_sq": float(exp.tail_norm_sq),
        "norm_sq": float(exp.norm_sq),
    }
    return payload, 0


def _phi_from_spec(spec: dict) -> PhiSpec:
    if not isinstance(spec, dict) or "kind" not in spec:
        raise DomainError("phi spec must be an object with a 'kind' field")
    kind = spec["kind"]
    if kind == "identity":
        return PhiSpec("poly", (0.0, 1.0))
    if kind == "poly":
        return PhiSpec("poly", tuple(complex_list(spec.get("coeffs", []), "phi coefficient")))
    if kind == "rational":
        return PhiSpec(
            "rational",
            tuple(complex_list(spec.get("coeffs", []), "phi numerator")),
            tuple(complex_list(spec.get("denom", []), "phi denominator")),
        )
    if kind == "table":
        entries = []
        for entry in list_field(spec.get("entries", []), "phi table entries"):
            w, v = list_field(entry, "phi table entry", 2)
            entries.append((complex_field(w, "table point"), complex_field(v, "table value")))
        return PhiSpec("table", table=tuple(entries))
    raise DomainError(f"unknown phi kind {kind!r}")


def _run_op(v: dict, precision: str, seed) -> tuple[dict, int]:
    if v["verb"] == "pick":
        phi = _phi_from_spec(v["phi"])
        grid = complex_list(v["grid"], "grid point")
        passes, smallest = pick_positivity_check(phi, v["M"], grid)
        payload = {
            "passes": bool(passes),
            "min_eigenvalue": float(smallest),
            "M": v["M"],
            "grid_size": len(grid),
        }
        return payload, 0

    op = v["op"]
    spec = v["input"]
    if not isinstance(spec, dict) or "kind" not in spec:
        raise DomainError("--input must be an object with a 'kind' field")
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
        vec = np.array(complex_list(spec.get("values", []), "coefficient"))
        if vec.size == 0:
            raise DomainError("coefficient input must be nonempty")
        if op == "J":
            out = apply_J_expansion(LaguerreExpansion(vec)).coeffs
        else:
            out = apply_hat(op, vec)
        payload = {"kind": "coefficients", "values": out}
        return payload, 0
    raise DomainError(f"unknown input kind {spec['kind']!r}")


def _run_atomic(v: dict, precision: str, seed) -> tuple[dict, int]:
    s = v["s"]
    if v["verb"] == "proj":
        tau, w = v["tau"], v["w"]
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
    mu = AtomicMeasure.from_json(v["measure"])
    d = kernel_distance(mu, s)
    check_order(v["n"])  # --n no longer changes the distance, but keeps its range
    payload = {
        "distance": float(d),
        "N": v["n"],
        "s": _pair(s),
        "total_mass": float(mu.total_mass),
    }
    return payload, 0


def _run_converge(v: dict, precision: str, seed) -> tuple[dict, int]:
    family = v["family"]
    if family == "interval":
        fam = interval_family(v["rho"])
    elif family == "muntz":
        seq = sequence_from_spec(v["seq"])
    else:
        fam = constant_family(MonomialSet.from_json(v["set"]))
    f = PiecewiseMonomial.from_spec(v["f"])
    nmax = v["nmax"]
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


def _run_accept(v: dict, precision: str, seed) -> tuple[dict, int]:
    from .acceptance import run_suite

    seed = DEFAULT_SEED if seed is None else int_field(seed, "seed")
    results = run_suite(seed=seed)
    payload = {
        "suite": v["suite"],
        "seed": seed,
        "all_passed": all(r.passed for r in results),
        "criteria": [
            {"index": r.index, "name": r.name, "passed": r.passed, "detail": r.detail}
            for r in results
        ],
    }
    return payload, 0 if payload["all_passed"] else 1


# --- the command table ------------------------------------------------------------


class _Command(NamedTuple):
    """A subcommand: its handler, its help line, and its flags in the order they are read."""

    handler: Callable[[dict, str, object], tuple[dict, int]]
    help: str
    flags: tuple[_Flag, ...]


# every command takes --format
_FORMAT = _Flag("format", "text", default="json", choices=("json", "csv"))

_TABLE = {
    "dist": _Command(_run_dist, "distance from a function to the span of a monomial set", (
        _Flag("t", "complex", "monomial exponent 're[,im]' for f = x^t", default=None),
        _Flag("logpow", "int", "log power k for f = x^t (ln x)^k", default=0),
        _Flag("f", "spec", "piecewise-monomial spec (shorthand or JSON) instead of --t",
              default=None),
        _Flag("set", "json", 'monomial set JSON {"exponents": [...]}'),
    )),
    "muntz": _Command(_run_muntz, "density verdict for an exponent sequence", (
        _Flag("criterion", "text", default="complex", choices=("classical", "real", "complex")),
        _Flag("seq", "json", "sequence JSON: array or generator spec"),
    )),
    "sarason": _Command(_run_sarason, "transform to the Hardy space of the disk", (
        _Flag("verb", "text", choices=("eval",)),
        _Flag("f", "json", "function spec JSON"),
        _Flag("z", "complex", "disk point 're[,im]'"),
    )),
    "laguerre": _Command(_run_laguerre, "Laguerre-basis coordinates", (
        _Flag("verb", "text", choices=("expand",)),
        _Flag("s", "complex", "monomial exponent 're[,im]'"),
        _Flag("n", "int", "truncation order (defaults to a tail below 1e-16)", default=None),
    )),
    "op": _Command(_run_op, "monomial operators and the Pick test", (
        _Flag("verb", "text", choices=("apply", "pick")),
        _Flag("op", "text", "operator for apply", choices=("H", "X", "V", "J"), when=("apply",)),
        _Flag("input", "json", "input JSON: monomial or coefficient vector", when=("apply",)),
        _Flag("phi", "json", "phi spec JSON for pick", when=("pick",)),
        _Flag("M", "real", "norm bound for pick", when=("pick",)),
        _Flag("grid", "json", "JSON array of exponent grid points for pick", when=("pick",)),
    )),
    "atomic": _Command(_run_atomic, "atomic spaces and model-space distances", (
        _Flag("verb", "text", choices=("proj", "dist")),
        _Flag("s", "complex", "probe exponent 're[,im]'"),
        _Flag("tau", "complex", "unimodular atom 're[,im]' for proj", when=("proj",)),
        _Flag("w", "real", "atom mass for proj", when=("proj",)),
        _Flag("measure", "json", 'measure JSON {"atoms": [{"tau": [re,im], "w": ...}]}',
              when=("dist",)),
        _Flag("n", "int", "echoed as N and checked to lie in 2..8192; the distance is exact "
              "and does not depend on it (default 4096)", default=4096, when=("dist",)),
    )),
    "converge": _Command(_run_converge, "distance curves along subspace families", (
        _Flag("family", "text", choices=("interval", "muntz", "constant")),
        _Flag("f", "spec", "target function spec (shorthand or JSON)"),
        _Flag("nmax", "int", "curve length"),
        _Flag("rho", "real", "density parameter for the interval family", when=("interval",)),
        _Flag("seq", "json", "sequence JSON for the muntz family", when=("muntz",)),
        _Flag("set", "json", "monomial set JSON for the constant family", when=("constant",)),
    )),
    "accept": _Command(_run_accept, "run the acceptance suite", (
        _Flag("suite", "text", choices=("primary",)),
    )),
}


# --- rendering and manifests ---------------------------------------------------


def _json_text(obj, level: int) -> str:
    """obj as JSON at depth `level`, laid out as json.dumps(obj, indent=2, sort_keys=True) does.

    Numpy scalars are unwrapped, a non-finite float is written as null, and a
    one-dimensional complex ndarray as its list of [re, im] pairs.  Dict keys
    must be strings; anything else raises TypeError, as json.dumps does.  One
    walk writes the text: the indented json.dumps never takes the C encoder, and
    would need a sanitized copy of the payload first.
    """
    if isinstance(obj, str):
        return json.encoder.encode_basestring_ascii(obj)
    if obj is None:
        return "null"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return int.__repr__(int(obj))
    if isinstance(obj, (float, np.floating)):
        f = float(obj)
        return float.__repr__(f) if math.isfinite(f) else "null"
    outer = "\n" + "  " * level
    inner = outer + "  "
    if isinstance(obj, np.ndarray) and obj.dtype.kind == "c" and obj.ndim == 1:
        if obj.size == 0 or not np.isfinite(obj).all():  # the per-entry path writes the nulls
            return _json_text([[c.real, c.imag] for c in obj.tolist()], level)
        # every float of the array formatted by one %-operation over a repeated template
        pair = "[" + inner + "  %r," + inner + "  %r" + inner + "]"
        flat = np.ascontiguousarray(obj, dtype=complex).view(np.float64).tolist()
        return "[" + inner + ("," + inner).join([pair] * obj.size) % tuple(flat) + outer + "]"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [_json_text(v, level + 1) for v in obj]
        return "[" + inner + ("," + inner).join(items) + outer + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [json.encoder.encode_basestring_ascii(key) + ": " + _json_text(obj[key], level + 1)
                 for key in sorted(obj)]
        return "{" + inner + ("," + inner).join(items) + outer + "}"
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _render(command: str, fmt: str, payload: dict) -> str:
    if fmt == "json":
        return _json_text(payload, 0) + "\n"
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
    if not isinstance(man, dict):
        raise UsageError(f"manifest {path} must hold a JSON object, got {man!r}")
    for key in ("command", "parameters", "precision", "tool_version"):
        if key not in man:
            raise UsageError(f"manifest {path} is missing the {key!r} field")
    if man["command"] not in _TABLE:
        raise UsageError(f"manifest names unknown command {man['command']!r}")
    if man["precision"] not in ("double", "extended"):
        raise UsageError(f"manifest names unknown precision {man['precision']!r}")
    return man


# --- parser and dispatch --------------------------------------------------------


def _add_flag(parser: argparse.ArgumentParser, flag: _Flag) -> None:
    if flag.name == "verb":  # positional: `mono op pick ...`
        parser.add_argument("verb", choices=flag.choices)
    else:
        parser.add_argument(f"--{flag.name}", type=_KINDS[flag.kind].argparse_type,
                            choices=flag.choices or None, help=flag.help)


@lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The `mono` argument parser, built once per process; parse_args leaves it unchanged."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--precision", choices=["double", "extended"], default="double",
                        help="float64 with an extended-precision fallback, or forced extended")
    common.add_argument("--out", metavar="PATH", help="write output here instead of stdout")
    _add_flag(common, _FORMAT)
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
    for command, spec in _TABLE.items():
        p = sub.add_parser(command, parents=[common], help=spec.help)
        for flag in spec.flags:
            _add_flag(p, flag)
    # the seed is the manifest's top-level field, not one of accept's parameters
    sub.choices["accept"].add_argument("--seed", type=int, default=DEFAULT_SEED,
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
            params = _params_from_argv(command, args)
            precision = args.precision
            seed = args.seed if command == "accept" else None
        values = _read_params(command, params)
        # argv's verb always matches; only a manifest can record another one
        if values.get("verb") != getattr(args, "verb", None):
            raise UsageError(f"manifest records verb {values['verb']!r}; invoke that verb")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                payload, code = _TABLE[command].handler(values, precision, seed)
            finally:
                for note in caught:
                    print(f"mono: note: {note.message}", file=sys.stderr)
        _write_text(_render(command, values["format"], payload), args.out)
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
