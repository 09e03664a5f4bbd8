"""End-to-end CLI tests: schemas, manifests, exit codes, worked values."""

import json
import math

import jsonschema
import numpy as np
import pytest

import monospan.cli as cli
import monospan.convergence as cv
import monospan.core as core
from monospan.cli import dispatch, schema_for
from monospan.core import MonomialSet, PiecewiseMonomial, distance

X0_SET = '{"exponents":[{"re":0,"im":0,"logpow":0}]}'
X2_SET = '{"exponents":[{"re":2}]}'


def run(capsys, argv):
    code = dispatch(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 0, err
    return json.loads(out)


def _manifest(command, **parameters):
    return {"command": command, "parameters": {"format": "json", **parameters},
            "precision": "double", "seed": None, "tool_version": "0.1.0"}


def validate(name, payload):
    jsonschema.validate(payload, schema_for(name))


def test_dist_monomial_worked_value(capsys):
    payload = run_json(capsys, ["dist", "--t", "1", "--set", X0_SET])
    validate("dist", payload)
    assert payload["method"] == "closed-form"
    assert abs(payload["distance"] - 1 / (2 * math.sqrt(3))) < 1e-12


def test_dist_gram_route_matches_quadrature_value(capsys):
    payload = run_json(capsys, ["dist", "--f", "chi:0.5", "--set", X2_SET])
    validate("dist", payload)
    assert payload["method"] == "gram-double"
    expected = math.sqrt(0.5 - 5 * (0.875 / 3) ** 2)
    assert abs(payload["distance"] - expected) < 1e-12


def test_dist_f_and_t_agree_on_confluent_set(capsys):
    conf = '{"exponents":[{"re":1},{"re":1,"logpow":1}]}'
    by_f = run_json(capsys, ["dist", "--f", "monomial:1.5", "--set", conf])
    by_t = run_json(capsys, ["dist", "--t", "1.5", "--set", conf])
    assert by_f == by_t
    # dist(x^t, span{x^s, x^s ln x}) = (|t-s| / |t+s+1|)^2 / sqrt(2t+1)
    assert by_f["distance"] == pytest.approx(0.5 * (1 / 7) ** 2, rel=1e-9)


def test_muntz_affine_classical_dense(capsys):
    payload = run_json(
        capsys,
        ["muntz", "--criterion", "classical", "--seq", '{"kind":"affine","a":1,"b":0}'],
    )
    validate("muntz", payload)
    assert payload["verdict"] == "dense"


def test_muntz_geometric_not_dense(capsys):
    payload = run_json(
        capsys, ["muntz", "--seq", '{"kind":"geometric","base":1,"ratio":2}']
    )
    validate("muntz", payload)
    assert payload["verdict"] == "not-dense"


_GEOMETRIC_1E100 = '{"kind":"geometric","ratio":1e100}'


@pytest.mark.parametrize("seq, criterion, reason", [
    (_GEOMETRIC_1E100, "complex", "geometric majorant: terms decay like 1e-100^k"),
    (_GEOMETRIC_1E100, "real", "geometric majorant: terms decay like 1e-100^k"),
    ("[1, 2e154]", "complex", "geometric majorant: consecutive term ratios <= 1.33e-154"),
    ("[1, 2e154]", "real", "geometric majorant: consecutive term ratios <= 8.33e-155"),
])
def test_muntz_terms_past_1e154_do_not_overflow(capsys, seq, criterion, reason):
    # the series terms divide by |s + 1|^2 or (2 s + 1)^2, which overflow past 1.34e154
    payload = run_json(capsys, ["muntz", "--criterion", criterion, "--seq", seq])
    validate("muntz", payload)
    assert (payload["verdict"], payload["reason"]) == ("not-dense", reason)


@pytest.mark.parametrize("seq, nmax", [("[1, 2e154]", 1), (_GEOMETRIC_1E100, 2)])
def test_converge_on_terms_past_1e154(capsys, seq, nmax):
    payload = run_json(capsys, ["converge", "--family", "muntz", "--f", "chi:0.5",
                                "--nmax", str(nmax), "--seq", seq])
    validate("converge", payload)
    assert payload["density_verdict"] == "not-dense"
    # x^s for s >= 1e100 adds nothing to x's share of chi_[1/2,1]: d^2 = 1/2 - 3 (3/8)^2
    assert payload["distance"] == [pytest.approx(math.sqrt(0.5 - 3 * 0.375**2), rel=1e-14)] * nmax


def test_sarason_eval_monomial(capsys):
    payload = run_json(
        capsys, ["sarason", "eval", "--f", '{"kind":"monomial","s":[1,0]}', "--z", "0.3,0.2"]
    )
    validate("sarason", payload)
    assert payload["method"] == "closed-form"
    assert payload["error_estimate"] is None


def test_sarason_eval_combination_quadrature(capsys):
    spec = (
        '{"kind":"linear-combination","terms":['
        '{"coeff":[1,0],"f":{"kind":"monomial","s":[1,0],"logpow":1}},'
        '{"coeff":[0.5,0],"f":{"kind":"indicator","s":0.5}}]}'
    )
    payload = run_json(capsys, ["sarason", "eval", "--f", spec, "--z", "0.1,0.1"])
    validate("sarason", payload)
    assert payload["method"] == "composite"
    assert payload["error_estimate"] is not None


def test_laguerre_expand(capsys):
    payload = run_json(capsys, ["laguerre", "expand", "--s", "1", "--n", "5"])
    validate("laguerre", payload)
    assert payload["coefficients"][0] == [0.5, 0.0]
    assert abs(payload["norm_sq"] - 1 / 3) < 1e-14


def test_laguerre_expand_huge_s_takes_the_clamped_order(capsys):
    """Once s/(s+1) rounds to 1 the default order is the clamp 4096, not a division by zero."""
    for flags, s in ((["--s", "1e17"], 1e17), (["--s=0,1e17"], 1e17j)):
        payload = run_json(capsys, ["laguerre", "expand", *flags])
        assert payload["n"] == 4096 and len(payload["coefficients"]) == 4097
        # the whole norm 1/(2 Re s + 1) is left in the tail bound
        assert payload["tail_norm_sq"] == pytest.approx(1 / (2 * s.real + 1), rel=1e-12)


def test_op_apply_monomial(capsys):
    payload = run_json(
        capsys,
        ["op", "apply", "--op", "H", "--input", '{"kind":"monomial","coeff":[1,0],"s":[2,0]}'],
    )
    validate("op", payload)
    assert payload["s"] == [2.0, 0.0]
    assert abs(payload["coeff"][0] - 1 / 3) < 1e-14


def test_op_apply_coefficients(capsys):
    payload = run_json(
        capsys,
        ["op", "apply", "--op", "X", "--input", '{"kind":"coefficients","values":[[1,0],[0,0],[0,0]]}'],
    )
    validate("op", payload)
    assert abs(payload["values"][0][0] - 0.5) < 1e-14


def test_op_pick_pass_and_fail(capsys):
    ok = run_json(
        capsys, ["op", "pick", "--phi", '{"kind":"identity"}', "--M", "2.1", "--grid", "[[0,0],[1,0],[2,0]]"]
    )
    validate("op", ok)
    assert ok["passes"] is True
    bad = run_json(
        capsys, ["op", "pick", "--phi", '{"kind":"identity"}', "--M", "1", "--grid", "[[0,0],[1,0]]"]
    )
    validate("op", bad)
    assert bad["passes"] is False
    assert abs(bad["min_eigenvalue"] + 0.1545084971874737) < 1e-12


def test_atomic_proj(capsys):
    payload = run_json(capsys, ["atomic", "proj", "--tau", "1", "--w", "0.5", "--s", "0"])
    validate("atomic", payload)
    assert abs(payload["proj_norm_sq"] - (1 - math.exp(-1))) < 1e-14
    assert payload["c"] is None


def test_atomic_dist(capsys):
    """The exact distance e^(-w) at every --n, echoed as N, with no truncation note."""
    for n in ("64", "512"):
        code, out, err = run(capsys, ["atomic", "dist", "--measure", '{"atoms":[{"tau":[1,0],"w":0.5}]}',
                                      "--s", "0", "--n", n])
        assert (code, err) == (0, "")
        payload = json.loads(out)
        validate("atomic", payload)
        assert abs(payload["distance"] - math.exp(-0.5)) < 1e-14
        assert payload["N"] == int(n)
        assert payload["total_mass"] == 0.5


def test_atomic_dist_past_1e16(capsys):
    # alpha = conj(s)/(conj(s)+1) rounds to 1 here, which exited 3 with "|z| = 1.0 is not
    # inside the open disk"; the distance is e^(-w Re((tau+alpha)/(tau-alpha))) / sqrt(2s + 1)
    payload = run_json(capsys, ["atomic", "dist", "--measure", '{"atoms":[{"tau":[0,1],"w":0.5}]}',
                                "--s", "1e17", "--n", "256"])
    validate("atomic", payload)
    assert payload["distance"] == pytest.approx(2.2360679774997897e-09, rel=1e-14)
    # an atom near 1 with |tau| < 1 (inside the unimodular check's 1e-12) stays below 1/sqrt(2s + 1)
    payload = run_json(capsys, ["atomic", "dist", "--measure", '{"atoms":[{"tau":[0.9999999999995,1e-8],"w":1}]}',
                                "--s", "1e17", "--n", "256"])
    assert 0 < payload["distance"] <= 1 / math.sqrt(2e17 + 1)


def test_converge_interval_json(capsys):
    payload = run_json(
        capsys,
        ["converge", "--family", "interval", "--rho", "0.25", "--f", "chi:0.5", "--nmax", "5"],
    )
    validate("converge", payload)
    assert payload["n"] == [1, 2, 3, 4, 5]
    assert abs(payload["distance"][0] - 0.273226) < 1e-4
    assert payload["density_verdict"] is None


def test_converge_muntz_json(capsys):
    payload = run_json(
        capsys,
        [
            "converge", "--family", "muntz",
            "--seq", '{"kind":"geometric","base":1,"ratio":2}',
            "--f", "monomial:0.5", "--nmax", "32",
        ],
    )
    validate("converge", payload)
    assert payload["verdict"] == "not-in-limit"
    assert payload["density_verdict"] == "not-dense"
    assert payload["agreement"] is True


def test_converge_extended_verdict_reads_the_printed_curve(capsys):
    exps = ",".join(f'{{"re":{0.3 * k:.1f}}}' for k in range(8))
    payload = run_json(
        capsys,
        [
            "converge", "--family", "constant", "--set", f'{{"exponents":[{exps}]}}',
            "--f", "chi:0.5", "--nmax", "4", "--precision", "extended",
        ],
    )
    # a constant curve fits to its own value, up to the rounding of the fit
    assert payload["fitted_limit"] == pytest.approx(payload["distance"][-1], rel=1e-12)


@pytest.mark.parametrize(
    "family",
    [
        ["--family", "interval", "--rho", "0.25"],
        ["--family", "muntz", "--seq", '{"kind":"affine","a":1}'],
        ["--family", "constant", "--set", X2_SET],
    ],
)
def test_converge_computes_one_curve(monkeypatch, capsys, family):
    import monospan.cli as cli
    import monospan.convergence as cv

    original = cv.distance_curve
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for mod in (cv, cli):
        if getattr(mod, "distance_curve", None) is original:
            monkeypatch.setattr(mod, "distance_curve", counting)
    run_json(capsys, ["converge", *family, "--f", "chi:0.5", "--nmax", "4"])
    assert len(calls) == 1


def test_converge_csv_header_and_rows(capsys):
    code, out, err = run(
        capsys,
        [
            "converge", "--family", "interval", "--rho", "0.25",
            "--f", "chi:0.5", "--nmax", "3", "--format", "csv",
        ],
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "n,distance,condition_estimate"
    assert len(lines) == 4
    first = lines[1].split(",")
    assert first[0] == "1"
    assert abs(float(first[1]) - 0.273226) < 1e-4


def test_accept_runs_and_validates(capsys):
    payload = run_json(capsys, ["accept", "--suite", "primary"])
    validate("accept", payload)
    assert payload["all_passed"] is True
    assert [c["index"] for c in payload["criteria"]] == list(range(1, 11))


def test_manifest_written_and_validates(tmp_path, capsys):
    man = tmp_path / "m.json"
    out1 = tmp_path / "o1.json"
    code, _, _ = run(
        capsys,
        ["dist", "--f", "chi:0.5", "--set", X2_SET, "--manifest", str(man), "--out", str(out1)],
    )
    assert code == 0
    manifest = json.loads(man.read_text())
    validate("manifest", manifest)
    assert manifest["command"] == "dist"
    assert manifest["tool_version"] == "0.1.0"


def test_manifest_replay_byte_identical(tmp_path, capsys):
    man = tmp_path / "m.json"
    out1 = tmp_path / "o1.json"
    out2 = tmp_path / "o2.json"
    args = [
        "converge", "--family", "interval", "--rho", "0.25",
        "--f", "chi:0.5", "--nmax", "4", "--format", "csv",
        "--manifest", str(man), "--out", str(out1),
    ]
    assert dispatch(args) == 0
    assert dispatch(["converge", "--from-manifest", str(man), "--out", str(out2)]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()


# every command and verb or family: the README examples, then the other two families
ROUND_TRIP = {
    "dist-t": (["dist", "--t", "1", "--set", X0_SET], {"t", "logpow", "f", "set"}),
    "dist-f": (["dist", "--f", "chi:0.5", "--set", X2_SET], {"t", "logpow", "f", "set"}),
    "muntz": (
        ["muntz", "--criterion", "classical", "--seq", '{"kind":"affine","a":1,"b":0}'],
        {"criterion", "seq"},
    ),
    "sarason-eval": (
        ["sarason", "eval", "--f", '{"kind":"monomial","s":[1,0]}', "--z", "0.3,0.2"],
        {"verb", "f", "z"},
    ),
    "laguerre-expand": (["laguerre", "expand", "--s", "1", "--n", "5"], {"verb", "s", "n"}),
    "op-apply-H": (
        ["op", "apply", "--op", "H", "--input", '{"kind":"monomial","coeff":[1,0],"s":[2,0]}'],
        {"verb", "op", "input"},
    ),
    "op-apply-X": (
        ["op", "apply", "--op", "X", "--input",
         '{"kind":"coefficients","values":[[1,0],[0,0],[0,0]]}'],
        {"verb", "op", "input"},
    ),
    "op-pick": (
        ["op", "pick", "--phi", '{"kind":"identity"}', "--M", "2.1", "--grid", "[[0,0],[1,0],[2,0]]"],
        {"verb", "phi", "M", "grid"},
    ),
    "atomic-proj": (
        ["atomic", "proj", "--tau", "1", "--w", "0.5", "--s", "0"], {"verb", "s", "tau", "w"},
    ),
    "atomic-dist": (
        ["atomic", "dist", "--measure", '{"atoms":[{"tau":[1,0],"w":0.5}]}', "--s", "0",
         "--n", "2048"],
        {"verb", "s", "measure", "n"},
    ),
    "converge-interval": (
        ["converge", "--family", "interval", "--rho", "0.25", "--f", "chi:0.5", "--nmax", "10",
         "--format", "csv"],
        {"family", "f", "nmax", "rho"},
    ),
    "accept": (["accept", "--suite", "primary"], {"suite"}),
    "converge-muntz": (
        ["converge", "--family", "muntz", "--seq", '{"kind":"affine","a":1}', "--f", "chi:0.5",
         "--nmax", "4"],
        {"family", "f", "nmax", "seq"},
    ),
    "converge-constant": (
        ["converge", "--family", "constant", "--set", X2_SET, "--f", "chi:0.5", "--nmax", "4"],
        {"family", "f", "nmax", "set"},
    ),
}


@pytest.mark.parametrize("argv, keys", ROUND_TRIP.values(), ids=ROUND_TRIP)
def test_manifest_round_trip(tmp_path, capsys, argv, keys):
    man = tmp_path / "m.json"
    code, out, _ = run(capsys, argv + ["--manifest", str(man)])
    assert code == 0
    manifest = json.loads(man.read_text())
    validate("manifest", manifest)
    assert set(manifest["parameters"]) == keys | {"format"}
    replay = argv[:2] if argv[0] in ("sarason", "laguerre", "op", "atomic") else argv[:1]
    assert run(capsys, replay + ["--from-manifest", str(man)]) == (0, out, "")


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


def _pair_lists(obj):
    """obj with each complex array turned into its list of [re, im] pairs, entry by entry."""
    if isinstance(obj, np.ndarray):
        return [cli._pair(z) for z in obj]
    if isinstance(obj, dict):
        return {k: _pair_lists(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_pair_lists(v) for v in obj]
    return obj


def _json_oracle(obj):
    """The indented json.dumps of a sanitized copy: the reference for cli._json_text."""
    return json.dumps(_sanitize(_pair_lists(obj)), indent=2, sort_keys=True, allow_nan=False)


def test_json_text_matches_json_dumps_on_command_payloads(monkeypatch, capsys):
    assert {argv[0] for argv, _ in ROUND_TRIP.values()} == set(cli._TABLE)
    payloads = []
    render = cli._render
    monkeypatch.setattr(cli, "_render", lambda command, fmt, payload: (
        payloads.append(payload), render(command, fmt, payload))[1])
    for argv, _ in ROUND_TRIP.values():
        assert run(capsys, argv)[0] == 0
    assert len(payloads) == len(ROUND_TRIP)
    for payload in payloads:
        assert cli._json_text(payload, 0) == _json_oracle(payload)


_NAN, _INF = float("nan"), float("inf")
JSON_VALUES = {
    "floats": [-0.0, 5e-324, 1e16, 1e-5, _NAN, _INF, -_INF, 0.1, 1e22, 2.0**-1074 * 3],
    "numpy-scalars": [np.float32(0.1), np.int64(-7), np.bool_(True), np.bool_(False),
                      np.float64(_NAN), None, True, False, 0, 2**70],
    "non-ascii": "x\u00f1\u20ac\U0001f600",
    "control": "tab\tnl\nquote\"back\\ \x00\x1f\x7f",
    "empty-list": [],
    "empty-dict": {},
    "tuple": (1, 2.5, "a", ()),
    "nested": {"b": [[], {}], "a": {"z": (None,), "y": -0.0}},
    "complex-empty": np.zeros(0, dtype=complex),
    "complex-one": np.array([1 + 2j]),
    "complex-nan": np.array([complex(_NAN, 1.0), 3 + 0j]),
    "complex-inf": np.array([2 + 0j, complex(1.0, -_INF)]),
    "complex-slice": (np.arange(12) * (0.1 + 0.3j))[::3],
    "complex-negative-zero": np.array([complex(1.0, -0.0), complex(-0.0, -0.0)]),
    "complex64": np.array([0.1 + 0.2j], dtype=np.complex64),
}


@pytest.mark.parametrize("value", JSON_VALUES.values(), ids=JSON_VALUES)
def test_json_text_matches_json_dumps_on_edge_values(value):
    for obj in (value, {"k": value, "a": [value, {"v": value}]}):
        assert cli._json_text(obj, 0) == _json_oracle(obj)


def test_json_text_rejects_what_json_dumps_rejects():
    for obj in (1j, np.array([1.0]), object(), {"k": np.complex128(1j)}):
        with pytest.raises(TypeError):
            json.dumps(_sanitize(obj))
        with pytest.raises(TypeError):
            cli._json_text(obj, 0)


def test_usage_errors_exit_2(capsys):
    cases = [
        ["dist", "--set", X0_SET],  # neither --t nor --f
        ["dist", "--t", "1", "--f", "chi:0.5", "--set", X0_SET],  # both
        ["dist", "--t", "1", "--set", "{not json"],
        ["muntz", "--seq", '{"kind":"affine","a":1}', "--format", "csv"],  # csv unsupported here
        ["converge", "--f", "chi:0.5", "--nmax", "3"],  # missing --family
        ["nonsense"],
    ]
    for argv in cases:
        code, _, _ = run(capsys, argv)
        assert code == 2, argv


@pytest.mark.parametrize("t, f", [(None, None), ([1.0, 0.0], "chi:0.5")])
def test_dist_needs_one_of_t_and_f_from_argv_and_manifest(capsys, tmp_path, t, f):
    argv = ["dist", "--set", X0_SET] + ["--t", "1"] * (t is not None) + ["--f", f] * (f is not None)
    err = "mono: usage error: dist needs exactly one of --t or --f\n"
    assert run(capsys, argv) == (2, "", err)
    man = tmp_path / "manifest.json"
    man.write_text(json.dumps(_manifest("dist", t=t, logpow=0, f=f, set=json.loads(X0_SET))))
    assert run(capsys, ["dist", "--from-manifest", str(man)]) == (2, "", err)


def test_negative_complex_flag_needs_equals_form(capsys):
    """argparse reads '-0.49,3' after a space as an option; joined by '=' it is the value."""
    payload = run_json(capsys, ["laguerre", "expand", "--s=-0.49,3", "--n", "2"])
    assert payload["s"] == [-0.49, 3.0]
    code, _, err = run(capsys, ["laguerre", "expand", "--s", "-0.49,3", "--n", "2"])
    assert code == 2 and "expected one argument" in err


_BULK_PAIRS = ([[0.1 * k, -k] for k in range(1000)], [[1.5, -0.0], [2, 3], [1e308, -1e-320]],
               [[2, 3], [-4, 2**53 + 1]])


@pytest.mark.parametrize("values", [
    *_BULK_PAIRS,
    [1, 2.5], [[1, 2], [3]], [[1, 2, 3]], [[[1, 2], [3, 4]]], [], [[1, None]], [{"re": 1}],
    [["1.5", "2"]], [[1.5, "2"]], [[True, 1.5]], [[True, False]], [True], [[2**63 + 1, 0.25]],
    [[float("nan"), 1.0]], [[1e999, 0.0]], [[10**400, 0.5]], "[[1, 2]]",
    [[True, "2"], [0, 0]], [[True, 2.0], [0, 0]], [[0.5, "1"], [1, 0], [2, 0]], [[1, 2.0], [3, False]],
    [0.1 * k - 50 for k in range(1000)], [1, -0.0, 2**53 + 1, 1e308, -1e-320], [1.5, True], [0.5, "1"],
    [2**63 + 1, 0.25], [1, float("inf")], [1.5, [2, 3]],
])
def test_complex_list_bulk_matches_per_entry(values):
    """The bulk route gives complex_field's values, and each malformed list its error."""
    def per_entry(value, what):
        return [core.complex_field(v, what) for v in core.list_field(value, f"{what} list")]

    results = []
    for parse in (core.complex_list, per_entry):
        try:
            results.append([(z.real, z.imag) for z in parse(values, "coefficient")])
        except cli.DomainError as exc:
            results.append(str(exc))
    assert repr(results[0]) == repr(results[1])  # repr tells -0.0 from 0.0


def test_complex_list_takes_the_bulk_route(monkeypatch):
    expected = [[complex(float(a), float(b)) for a, b in values] for values in _BULK_PAIRS]
    reals = [0.1 * k - 50 for k in range(1000)] + [1, -0.0, 2**53 + 1]
    monkeypatch.setattr(core, "complex_field", None)  # the per-entry route would raise
    assert [core.complex_list(values, "coefficient") for values in _BULK_PAIRS] == expected
    assert repr(core.complex_list(reals, "entry")) == repr([complex(x) for x in reals])


def test_from_manifest_command_mismatch_exit_2(tmp_path, capsys):
    man = tmp_path / "m.json"
    assert dispatch(["dist", "--t", "1", "--set", X0_SET, "--manifest", str(man), "--out", str(tmp_path / "o.json")]) == 0
    code, _, err = run(capsys, ["muntz", "--from-manifest", str(man)])
    assert code == 2
    assert "dist" in err
    # the positional verb must match the manifest's, as the command must
    assert dispatch(["atomic", "proj", "--tau", "1", "--w", "0.5", "--s", "0",
                     "--manifest", str(man), "--out", str(tmp_path / "o.json")]) == 0
    code, _, err = run(capsys, ["atomic", "dist", "--from-manifest", str(man)])
    assert code == 2
    assert "'proj'" in err
    # a manifest body that is not a JSON object
    man.write_text("5")
    code, _, err = run(capsys, ["dist", "--from-manifest", str(man)])
    assert code == 2
    assert err.startswith("mono: usage error:")


def test_domain_errors_exit_3(capsys):
    cases = [
        ["atomic", "proj", "--tau", "2,0", "--w", "1", "--s", "0"],
        ["sarason", "eval", "--f", '{"kind":"monomial","s":[1,0]}', "--z", "1.5,0"],
        ["dist", "--t", "-0.6", "--set", X0_SET],
        ["converge", "--family", "interval", "--rho", "1.5", "--f", "chi:0.5", "--nmax", "3"],
        # --n no longer changes the distance but keeps its range 2..8192
        ["atomic", "dist", "--measure", '{"atoms":[{"tau":[1,0],"w":0.5}]}', "--s", "0", "--n", "1"],
        ["atomic", "dist", "--measure", '{"atoms":[{"tau":[1,0],"w":0.5}]}', "--s", "0", "--n", "9000"],
    ]
    for argv in cases:
        code, _, err = run(capsys, argv)
        assert code == 3, (argv, err)


@pytest.mark.parametrize(
    "argv",
    [
        ["muntz", "--seq", '{"kind":"affine","a":"x"}'],
        ["muntz", "--seq", '{"kind":"affine","a":[1,2,3]}'],
        ["muntz", "--seq", '{"kind":"geometric"}'],
        ["dist", "--f", '{"terms":[{"t":[1]}]}', "--set", X0_SET],
        ["atomic", "dist", "--s", "0.5", "--measure", '{"atoms":[{"tau":"a","w":1}]}'],
        ["atomic", "dist", "--s", "0.5", "--measure", '{"atoms":[{"tau":[1,0]}]}'],
        ["atomic", "dist", "--s", "0.5", "--measure", '{"atoms":[{"tau":[1,0],"w":"x"}]}'],
        ["dist", "--t", "1", "--set", '{"exponents":[{"re":"x"}]}'],
        ["dist", "--t", "1", "--set", '{"exponents":[{"re":0,"logpow":"x"}]}'],
        ["dist", "--t", "1", "--set", '{"exponents":5}'],
        ["dist", "--f", '{"terms":[{"t":1,"a":"x"}]}', "--set", X0_SET],
        ["muntz", "--seq", '{"kind":"geometric","ratio":"x"}'],
        ["muntz", "--seq", '{"kind":"explicit","values":5}'],
        ["sarason", "eval", "--f", '{"kind":"indicator","s":"x"}', "--z", "0.2"],
        ["sarason", "eval", "--f", '{"kind":"monomial","s":1,"logpow":"x"}', "--z", "0.2"],
        ["sarason", "eval", "--f", '{"kind":"table","y":[1,2]}', "--z", "0.2"],
        ["sarason", "eval", "--f", '{"kind":"linear-combination","terms":[{"coeff":1}]}',
         "--z", "0.2"],
        ["op", "pick", "--phi", '{"kind":"identity"}', "--M", "2", "--grid", "5"],
        ["op", "pick", "--phi", '{"kind":"table","entries":[[1]]}', "--M", "2", "--grid", "[0]"],
        ["op", "apply", "--op", "H", "--input", '{"kind":"coefficients","values":5}'],
        ["dist", "--f", "chi:x", "--set", X0_SET],
        ["dist", "--f", "monomial:x", "--set", X0_SET],
        ["converge", "--family", "interval", "--rho", "0.25", "--f", "chi:x", "--nmax", "3"],
        ["converge", "--family", "interval", "--rho", "0.25", "--f", "monomial:x", "--nmax", "3"],
        ["dist", "--t", "1", "--set", '{"exponents":[5]}'],
        # a dict in place of a path is a manifest body, written to a file first
        ["atomic", "dist", "--from-manifest",
         _manifest("atomic", verb="dist", s=[0.5, 0], measure={"atoms": [{"tau": [1, 0], "w": 1}]},
                   n="x")],
        ["atomic", "proj", "--from-manifest",
         _manifest("atomic", verb="proj", s=[0.5, 0], tau=[1, 0], w="x")],
        ["op", "pick", "--from-manifest",
         _manifest("op", verb="pick", phi={"kind": "identity"}, M="x", grid=[0])],
        ["laguerre", "expand", "--from-manifest", _manifest("laguerre", verb="expand", s=[1, 0], n="x")],
        ["converge", "--from-manifest",
         _manifest("converge", family="interval", f="chi:0.5", nmax=3, rho="x")],
        ["converge", "--from-manifest",
         _manifest("converge", family="interval", f="chi:0.5", nmax="x", rho=0.25)],
        # a manifest whose parameters lack a key the handler reads
        ["converge", "--from-manifest", _manifest("converge", family="interval", f="chi:0.5", rho=0.25)],
        ["dist", "--from-manifest", _manifest("dist", f=None, set={"exponents": [{"re": 0}]})],
        ["muntz", "--from-manifest", _manifest("muntz", criterion="complex")],
        ["sarason", "eval", "--from-manifest", _manifest("sarason", verb="eval", f={"kind": "indicator"})],
        ["laguerre", "expand", "--from-manifest", _manifest("laguerre", verb="expand", s=[1, 0])],
        ["op", "pick", "--from-manifest", _manifest("op", phi={"kind": "identity"}, M=2, grid=[0])],
        ["atomic", "proj", "--from-manifest", _manifest("atomic", verb="proj", tau=[1, 0], w=1)],
        ["accept", "--from-manifest", _manifest("accept")],
        # NaN and infinity parse as JSON numbers but are no input values
        ["op", "apply", "--op", "H", "--input",
         '{"kind":"coefficients","values":[[NaN,0],[1,0],[2,0]]}'],
        ["op", "pick", "--phi", '{"kind":"identity"}', "--M", "nan", "--grid", "[0]"],
        ["muntz", "--seq", "[1,2,NaN]"],
        # an integer field holding a boolean or a number with a fractional part
        ["dist", "--t", "1", "--set", '{"exponents":[{"re":0},{"re":0,"logpow":1.5}]}'],
        ["dist", "--t", "1", "--set", '{"exponents":[{"re":0},{"re":0,"logpow":true}]}'],
        ["sarason", "eval", "--f", '{"kind":"monomial","s":1,"logpow":0.9}', "--z", "0.2"],
        ["converge", "--from-manifest",
         _manifest("converge", family="interval", f="chi:0.5", nmax=3.7, rho=0.25)],
        ["accept", "--from-manifest", dict(_manifest("accept", suite="primary"), seed="x")],
        ["accept", "--from-manifest", dict(_manifest("accept", suite="primary"), seed=2.5)],
        # a manifest value outside the flag's choices
        ["op", "pick", "--from-manifest",
         _manifest("op", verb="frob", op="H", input={"kind": "monomial", "s": [1, 0]})],
        ["converge", "--from-manifest",
         dict(_manifest("converge", family="interval", f="chi:0.5", nmax=3, rho=0.25),
              parameters={"format": "xml", "family": "interval", "f": "chi:0.5", "nmax": 3,
                          "rho": 0.25})],
        ["converge", "--from-manifest",
         _manifest("converge", family="bogus", f="chi:0.5", nmax=3, rho=0.25)],
        ["accept", "--from-manifest", _manifest("accept", suite="bogus")],
        # a manifest lacking a parameter that has a default on the command line
        ["dist", "--from-manifest",
         _manifest("dist", t=[1, 0], f=None, set={"exponents": [{"re": 0}]})],
        # a real field holding a boolean, and a monomial shorthand with a third part
        ["sarason", "eval", "--f", '{"kind":"indicator","s":true}', "--z", "0.2"],
        ["atomic", "proj", "--from-manifest",
         _manifest("atomic", verb="proj", s=[0.5, 0], tau=[1, 0], w=True)],
        ["dist", "--f", "monomial:1,2,3", "--set", X0_SET],
        # a function term key that is not coeff, t, a or logpow, and a logpow that is no integer
        ["dist", "--f", '{"terms":[{"t":1,"bogus":7}]}', "--set", X0_SET],
        ["dist", "--f", '{"terms":[{"t":1,"logpow":1.5}]}', "--set", X0_SET],
        # JSON that parses but has the wrong shape: a sequence that is neither array nor
        # object, a spec without 'kind', a bad table, no coefficients
        ["muntz", "--seq", "5"],
        ["sarason", "eval", "--f", "[1]", "--z", "0.2"],
        ["sarason", "eval", "--f", '{"kind":"table","x":[0.5],"y":[1,2]}', "--z", "0.2"],
        ["sarason", "eval", "--f", '{"kind":"table","x":[0.5,0.4],"y":[1,2]}', "--z", "0.2"],
        ["op", "pick", "--phi", '{"coeffs":[1]}', "--M", "2", "--grid", "[0]"],
        ["op", "apply", "--op", "H", "--input", "[1]"],
        ["op", "apply", "--op", "H", "--input", '{"kind":"coefficients","values":[]}'],
    ],
)
def test_malformed_json_fields_exit_3(capsys, tmp_path, argv):
    if isinstance(argv[-1], dict):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(argv[-1]))
        argv = argv[:-1] + [str(path)]
    code, _, err = run(capsys, argv)
    assert code == 3
    assert err.startswith("mono: domain error:")


@pytest.mark.parametrize("argv, entry", [
    (["op", "apply", "--op", "H", "--input", '{"kind":"coefficients","values":[[true,"2"],[0,0]]}'],
     "coefficient must be a number or an [re, im] pair, got [True, '2']"),
    (["op", "apply", "--op", "H", "--input", '{"kind":"coefficients","values":[[true,2.0],[0,0]]}'],
     "coefficient must be a number or an [re, im] pair, got [True, 2.0]"),
    (["muntz", "--seq", '[[0.5,"1"],[1,0],[2,0]]'],
     "sequence entry must be a number or an [re, im] pair, got [0.5, '1']"),
])
def test_booleans_and_strings_in_pairs_exit_3(capsys, argv, entry):
    assert run(capsys, argv) == (3, "", f"mono: domain error: {entry}\n")


def test_json_term_logpow_matches_t_flag(capsys):
    """A JSON term's logpow builds the target --t/--logpow builds."""
    by_json = run_json(capsys, ["dist", "--f", '{"terms":[{"t":1,"logpow":2}]}', "--set", X0_SET])
    by_flag = run_json(capsys, ["dist", "--t", "1", "--logpow", "2", "--set", X0_SET])
    assert by_json == by_flag
    # ||x (ln x)^2||^2 = 4!/3^5 and <x (ln x)^2, 1> = 2/2^3
    assert by_json["distance"] == pytest.approx(math.sqrt(24 / 243 - 1 / 16), rel=1e-14)


def test_op_apply_X_at_index_2000_matches_closed_form(capsys):
    """Column n of C* starts at 2^-n, below the smallest double past n = 1074.

    X-hat e_2000 has entry g[2000, 2001] = 2^-4001 C(4000, 2000) at row 2000.
    """
    N, k = 2048, 2000
    values = [[1.0 if j == k else 0.0, 0.0] for j in range(N)]
    payload = run_json(capsys, ["op", "apply", "--op", "X", "--input",
                                json.dumps({"kind": "coefficients", "values": values})])
    exact = math.comb(2 * k, k) / 2 ** (2 * k + 1)
    got = payload["values"][k]
    assert abs(got[0] - exact) <= 1e-12 * exact and got[1] == 0.0


def test_malformed_flag_text_exit_2(capsys):
    code, _, err = run(capsys, ["dist", "--t", "1,2,3", "--set", X0_SET])
    assert code == 2
    assert err.startswith("mono: usage error:")


def test_numerical_error_exit_4(capsys):
    code, _, err = run(
        capsys,
        ["dist", "--f", "chi:0.5", "--set", '{"exponents":[{"re":0},{"re":1e-200}]}'],
    )
    assert code == 4
    assert "note" in err  # the conditioning escalation is reported


def test_constant_family_curve_solves_once(capsys, monkeypatch):
    set_json = '{"exponents":[{"re":1},{"re":2.5},{"re":4}]}'
    point = distance(PiecewiseMonomial.indicator(0.5), MonomialSet.from_json(json.loads(set_json)))
    calls = []
    solve, cond = np.linalg.solve, np.linalg.cond
    monkeypatch.setattr(np.linalg, "solve", lambda *a: calls.append("solve") or solve(*a))
    monkeypatch.setattr(np.linalg, "cond", lambda *a: calls.append("cond") or cond(*a))
    payload = run_json(capsys, ["converge", "--family", "constant", "--set", set_json,
                                "--f", "chi:0.5", "--nmax", "6"])
    assert calls == ["cond", "solve"]  # one Gram condition estimate and one solve for six points
    assert payload["distance"] == [point.distance] * 6
    assert payload["condition_estimate"] == [point.condition_estimate] * 6


def test_version_flag(capsys):
    code, out, _ = run(capsys, ["--version"])
    assert code == 0
    assert "0.1.0" in out
