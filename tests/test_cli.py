"""End-to-end CLI tests: schemas, manifests, exit codes, worked values."""

import contextlib
import csv
import io
import json
import math
import re
import signal
import time

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


def test_dist_closed_form_takes_confluent_sets(capsys):
    # t in the set gives 0.0 exactly, which no Gram rung can (d^2 <= 0 on each), and a set of
    # 70 entries, past the 64 a Gram route takes, is no limit for the product
    member = '{"exponents":[{"re":1},{"re":1,"logpow":1},{"re":2.5}]}'
    payload = run_json(capsys, ["dist", "--t", "1", "--set", member])
    assert payload == {"condition_estimate": 1.0, "distance": 0.0, "method": "closed-form"}
    big = json.dumps({"exponents": [{"re": 0.5 * k, "logpow": j} for k in range(35) for j in (0, 1)]})
    payload = run_json(capsys, ["dist", "--t", "0.3", "--set", big])
    assert payload["method"] == "closed-form"
    # (prod over k < 35 of |0.3 - k/2| / (1.3 + k/2))^2 / sqrt(1.6), at 60 digits
    assert payload["distance"] == pytest.approx(1.4193483860029594691e-11, rel=72 * 2.0 ** -51, abs=0)


@pytest.mark.parametrize("coeff", ["1e308", "[1.7e308, 1.7e308]"])
def test_dist_closed_form_past_the_float_range_exits_4(capsys, coeff):
    # a product past the float range is a numerical failure, not a null distance, and so is
    # |c| past it although both parts of c are finite
    f = '{"terms":[{"coeff":%s,"t":-0.45}]}' % coeff
    code, out, err = run(capsys, ["dist", "--f", f, "--set", X2_SET])
    assert (code, out) == (4, "")
    assert err.startswith("mono: numerical failure: closed-form distance |c| * 3.0382667715343263 is past the float range")


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
_POWERS_OF_512 = json.dumps([2.0 ** (9 * k) for k in range(64)])  # a full tail window, up to 3e170


@pytest.mark.parametrize("seq, criterion, reason", [
    (_GEOMETRIC_1E100, "complex", "geometric majorant: terms decay like 1e-100^k"),
    (_GEOMETRIC_1E100, "real", "geometric majorant: terms decay like 1e-100^k"),
    pytest.param(_POWERS_OF_512, "complex", "geometric majorant: consecutive term ratios <= 0.00519",
                 id="512^k-complex"),
    pytest.param(_POWERS_OF_512, "real", "geometric majorant: consecutive term ratios <= 0.00325",
                 id="512^k-real"),
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
    # a two-term explicit list is shorter than a tail window: no hard density verdict
    assert payload["density_verdict"] == ("undetermined" if seq.startswith("[") else "not-dense")
    # x^s for s >= 1e100 adds nothing to x's share of chi_[1/2,1]: d^2 = 1/2 - 3 (3/8)^2
    assert payload["distance"] == [pytest.approx(math.sqrt(0.5 - 3 * 0.375**2), rel=1e-14)] * nmax


def test_sarason_eval_monomial(capsys):
    payload = run_json(
        capsys, ["sarason", "eval", "--f", '{"kind":"monomial","s":[1,0]}', "--z", "0.3,0.2"]
    )
    validate("sarason", payload)
    assert payload["method"] == "closed-form"
    assert payload["error_estimate"] is None


@pytest.mark.parametrize("spec, z, value", [
    ('{"kind":"indicator","s":1}', "0.3,-0.2", "1.0,\n    0.0"),  # mass 0: no atoms
    ('{"kind":"indicator"}', "-0.5,0.4", "1.0,\n    0.0"),  # s defaults to 1
    ('{"kind":"indicator","s":0.3}', "0.999999999999999", "0.0,\n    0.0"),  # the factor underflows
], ids=["s=1", "default-s", "near-1"])
def test_sarason_eval_indicator_edges(capsys, spec, z, value):
    code, out, err = run(capsys, ["sarason", "eval", "--f", spec, f"--z={z}"])
    re, im = (float(v) for v in z.split(",")) if "," in z else (float(z), 0.0)
    assert (code, err) == (0, "")
    assert out == (f'{{\n  "error_estimate": null,\n  "method": "closed-form",\n  "value": [\n    {value}\n  ],\n'
                   f'  "z": [\n    {re!r},\n    {im!r}\n  ]\n}}\n')


@pytest.mark.parametrize("spec, z, value, error", [
    ('{"kind":"monomial","s":0.5,"logpow":1}', "0.3", "-0.384087791495396", "8.468157768891261e-12"),
    ('{"kind":"monomial","s":0.5,"logpow":2}', "-0.4", "0.7978831671079586", "5.010587322961699e-12"),
    ('{"kind":"monomial","s":0.5,"logpow":3}', "0", "-1.1851851851855517", "9.740992485940861e-12"),
    ('{"kind":"monomial","s":[2,0],"logpow":1}', "-0.4", "-0.09695290858724817", "3.1246529815592883e-12"),
    ('{"kind":"monomial","s":[2,0],"logpow":2}', "0.9", "0.011574074074074072", "9.726496273980077e-15"),
    ('{"kind":"monomial","s":0,"logpow":1}', "0", "-0.9999999999992117", "6.477271135458213e-12"),
])
def test_sarason_eval_real_log_monomial_bytes(capsys, spec, z, value, error):
    """Real s and real z print an imaginary part of 0.0, not -0.0, and these exact quadrature bytes."""
    code, out, err = run(capsys, ["sarason", "eval", "--f", spec, f"--z={z}"])
    assert (code, err) == (0, "")
    assert out == (f'{{\n  "error_estimate": {error},\n  "method": "quadrature",\n  "value": [\n    {value},\n'
                   f'    0.0\n  ],\n  "z": [\n    {float(z)!r},\n    0.0\n  ]\n}}\n')


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


_PICK_GRID = [0, 1, 0.5 + 0.5j, 2, 0.3 - 1.2j]


def _grid_json(grid):
    return json.dumps([[complex(s).real, complex(s).imag] for s in grid])


@pytest.mark.parametrize("M, passes", [(4.0, True), (0.5, False)])
def test_op_pick_rational_matches_a_numpy_pick_matrix(capsys, M, passes):
    num, den = [1, 0.5 + 0.25j], [3, -1]  # phi(w) = (1 + (0.5+0.25i) w) / (3 - w), pole at w = 3
    phi = '{"kind":"rational","coeffs":[[1,0],[0.5,0.25]],"denom":[[3,0],[-1,0]]}'
    payload = run_json(capsys, ["op", "pick", "--phi", phi, "--M", str(M), "--grid", _grid_json(_PICK_GRID)])
    s = np.array(_PICK_GRID, dtype=complex)
    w = 1 / (1 + s)
    v = np.polyval(num[::-1], w) / np.polyval(den[::-1], w)
    P = (M**2 - v[:, None] * v.conj()[None, :]) / (1 + s[:, None] + s.conj()[None, :])
    smallest = np.linalg.eigvalsh(P)[0]
    assert payload["min_eigenvalue"] == pytest.approx(smallest, rel=1e-12, abs=1e-14)
    assert payload["passes"] is passes is bool(smallest >= 0)
    assert payload["grid_size"] == len(_PICK_GRID)


@pytest.mark.parametrize("denom, message", [
    ("[0.5,-1]", "denominator root (0.5+0j) lies in the closed disk |w-1| <= 1"),
    ("[2,-1]", "denominator root (2+0j) lies in the closed disk |w-1| <= 1"),
    ("[[1,1],[-1,0]]", "denominator root (1+1j) lies in the closed disk |w-1| <= 1"),
    ("[0,[0,0]]", "rational denominator is identically zero"),
], ids=["root-inside", "root-at-w=2", "root-at-w=1+i", "zero"])
def test_op_pick_rational_denominator_vanishing_on_the_closed_disk_exits_3(capsys, denom, message):
    phi = f'{{"kind":"rational","coeffs":[1],"denom":{denom}}}'
    code, out, err = run(capsys, ["op", "pick", "--phi", phi, "--M", "2", "--grid", "[0]"])
    assert (code, out, err) == (3, "", f"mono: domain error: {message}\n")


def test_op_pick_table_of_exact_values_prints_the_poly_bytes(capsys):
    coeffs = [0.5, 0.25 - 0.1j, -0.3j]
    poly = run(capsys, ["op", "pick", "--phi", json.dumps({"kind": "poly", "coeffs": [
        [c.real, c.imag] for c in map(complex, coeffs)]}), "--M", "1.2", "--grid", _grid_json(_PICK_GRID)])
    entries = []
    for s in _PICK_GRID:
        w = 1 / (1 + complex(s))  # the point phi_of_H reads, and Horner's value there
        v = 0j
        for c in coeffs[::-1]:
            v = v * w + c
        entries.append([[w.real, w.imag], [v.real, v.imag]])
    table = run(capsys, ["op", "pick", "--phi", json.dumps({"kind": "table", "entries": entries}),
                         "--M", "1.2", "--grid", _grid_json(_PICK_GRID)])
    assert poly[0] == 0 and poly == table


def test_atomic_proj(capsys):
    payload = run_json(capsys, ["atomic", "proj", "--tau", "1", "--w", "0.5", "--s", "0"])
    validate("atomic", payload)
    assert abs(payload["proj_norm_sq"] - (1 - math.exp(-1))) < 1e-14
    assert payload["c"] is None


@pytest.mark.parametrize("s", ["0.3,1e200", "0.3,-1e200", "1e200,0.2", "1e308,1"])
def test_atomic_proj_past_1e154_prints_its_underflowed_value(capsys, s):
    # (1+2u)^2 or 4(c-v)^2 overflowed (OverflowError), and at u = 1e308, 1+2u = inf gave NaN
    # (printed null); the projection's norm is then below 1e-300 and rounds to 0
    payload = run_json(capsys, ["atomic", "proj", "--tau=0.6,0.8", "--w=0.5", f"--s={s}"])
    assert payload["proj_norm_sq"] == 0.0


@pytest.mark.parametrize("phi, M, message", [
    ('{"kind":"poly","coeffs":[0.1,1e308]}', "1", "numerical failure: the Pick matrix has an entry past"),
    ('{"kind":"poly","coeffs":[0.1,0.2]}', "1e308", "numerical failure: the Pick matrix has an entry past"),
    ('{"kind":"rational","coeffs":[0.2],"denom":[3,1e-320]}', "1",
     "numerical failure: denominator roots of ((3+0j), (1e-320+0j)) are not finite in double"),
], ids=["poly-1e308", "M-1e308", "denominator-1e-320"])
def test_op_pick_past_the_float_range_exits_4(capsys, phi, M, message):
    # these raised LinAlgError, OverflowError and LinAlgError
    code, out, err = run(capsys, ["op", "pick", "--phi", phi, f"--M={M}", "--grid", "[0.5,1.5]"])
    assert (code, out) == (4, "") and err.startswith(f"mono: {message}")


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


def test_accept_csv_rows_are_the_json_criteria(capsys):
    payload = run_json(capsys, ["accept", "--suite", "primary", "--seed", "7"])
    code, out, err = run(capsys, ["accept", "--suite", "primary", "--seed", "7", "--format", "csv"])
    assert (code, err) == (0, "")
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["index", "name", "passed", "detail"]
    assert rows[1:] == [[str(c["index"]), c["name"], "true" if c["passed"] else "false", c["detail"]]
                        for c in payload["criteria"]]
    assert len(rows) == 11


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
    assert "numerical failure" in err


def test_constant_family_curve_solves_once(capsys, monkeypatch):
    set_json = '{"exponents":[{"re":1},{"re":2.5},{"re":4}]}'
    point = distance(PiecewiseMonomial.indicator(0.5), MonomialSet.from_json(json.loads(set_json)))
    passes, rung = [], core._schur_rung
    monkeypatch.setattr(core, "_schur_rung", lambda *a: passes.append(a) or rung(*a))
    payload = run_json(capsys, ["converge", "--family", "constant", "--set", set_json,
                                "--f", "chi:0.5", "--nmax", "6"])
    assert len(passes) == 1  # one Schur pass for six points
    assert payload["distance"] == [point.distance] * 6
    assert payload["condition_estimate"] == [point.condition_estimate] * 6


def test_version_flag(capsys):
    code, out, _ = run(capsys, ["--version"])
    assert code == 0
    assert "0.1.0" in out


_SET2 = '{"exponents":[{"re":0.3},{"re":2}]}'
# one short request per command and verb (accept aside), with every kind of target and input
_SWEEP_TEMPLATES = [
    ["dist", "--t=1,0.5", "--set", _SET2],
    ["dist", "--t=0.5", "--logpow", "1", "--set", '{"exponents":[{"re":0},{"re":0,"logpow":1}]}'],
    ["dist", "--t=0.5", "--logpow", "13", "--set", '{"exponents":[{"re":2}]}'],
    ["dist", "--f", '{"terms":[{"coeff":2,"t":0.2,"a":0.3,"logpow":1},{"t":1.5}]}', "--set", _SET2],
    ["dist", "--f", '{"terms":[{"t":0.2,"a":0.3,"logpow":1}]}', "--set", _SET2],
    ["dist", "--precision", "extended", "--f", '{"terms":[{"coeff":[1,0.5],"t":[0.2,0.1],"a":0.3}]}',
     "--set", _SET2],
    ["dist", "--f", "chi:0.5", "--set", _SET2],
    ["muntz", "--seq", "[1, 2.5, 4]"],
    ["muntz", "--criterion", "real", "--seq", '{"kind":"geometric","first":1,"ratio":2}'],
    ["muntz", "--seq", '{"kind":"affine","a":1,"b":2}'],
    ["sarason", "eval", "--f", '{"kind":"monomial","s":[0.5,0.2],"logpow":1}', "--z=0.3,0.1"],
    ["sarason", "eval", "--f", '{"kind":"indicator","s":0.5}', "--z=0.2,0.1"],
    ["sarason", "eval", "--f", '{"kind":"table","x":[0.2,1],"y":[1,[0.5,0.1]]}', "--z=0.2"],
    ["sarason", "eval", "--f",
     '{"kind":"linear-combination","terms":[{"coeff":2,"f":{"kind":"monomial","s":1}}]}', "--z=0.2"],
    ["laguerre", "expand", "--s=0.5,0.2", "--n", "5"],
    ["op", "apply", "--op", "H", "--input", '{"kind":"monomial","s":[0.5,0.1],"coeff":2}'],
    ["op", "apply", "--op", "J", "--input", '{"kind":"monomial","s":0.5}'],
    ["op", "apply", "--op", "X", "--input", '{"kind":"coefficients","values":[1,[0.5,0.1]]}'],
    ["op", "apply", "--op", "J", "--input", '{"kind":"coefficients","values":[1,0.5]}'],
    ["op", "pick", "--phi", '{"kind":"poly","coeffs":[0.1,0.2]}', "--M=1", "--grid", "[0.5,[1.5,0.2]]"],
    ["op", "pick", "--phi", '{"kind":"rational","coeffs":[0.2],"denom":[3,1]}', "--M=1",
     "--grid", "[0.5,1.5]"],
    ["op", "pick", "--phi", '{"kind":"table","entries":[[0.5,0.2],[[1.5,0.1],0.3]]}', "--M=1",
     "--grid", "[0.5,[1.5,0.1]]"],
    ["atomic", "proj", "--tau=0.6,0.8", "--w=0.5", "--s=0.3,1"],
    ["atomic", "dist", "--s=0.3,0.2", "--measure", '{"atoms":[{"tau":[0,1],"w":0.5}]}', "--n", "64"],
    ["converge", "--family", "interval", "--rho", "0.25", "--f", "chi:0.3", "--nmax", "3"],
    ["converge", "--family", "interval", "--rho", "0.25", "--f", "monomial:0.5", "--nmax", "3"],
    ["converge", "--family", "muntz", "--seq", "[1,2,3.5]", "--f", "chi:0.5", "--nmax", "2"],
    ["converge", "--family", "constant", "--set", _SET2, "--f", "monomial:0.5,0.2", "--nmax", "3"],
]
_SWEEP_VALUES = ["0", "-0.5", "-0.4999999999999", "1", "-1", "3", "13", "1e16", "1e200", "-1e200", "1e308",
                 "1e-320", "0.9999999999999999"]
_NUMBER = re.compile(r"(?<![\w.])\d+(?:\.\d+)?(?:e-?\d+)?(?![\w.])")


def _sweep():
    """Each template with one numeric literal replaced by one of the sweep values, every way."""
    for template in _SWEEP_TEMPLATES:
        for i, word in enumerate(template):
            if word.startswith("--") and "=" not in word:
                continue  # a flag name
            for m in _NUMBER.finditer(word):
                for v in _SWEEP_VALUES:
                    yield [*template[:i], word[:m.start()] + v + word[m.end():], *template[i + 1:]]


class _Overdue(Exception):
    pass


def test_no_input_escapes_dispatch():
    # every request ends in an exit code, 0 or a typed error, within a second of CPU time: no
    # traceback, no unbounded allocation or loop.  CPU time, so that load on the host does not
    # decide the bound; the wall-clock alarm only ends a hang
    def overdue(*_):
        raise _Overdue

    previous = signal.signal(signal.SIGALRM, overdue)
    bad, count = [], 0
    try:
        for argv in _sweep():
            count += 1
            start = time.process_time()
            signal.setitimer(signal.ITIMER_REAL, 5.0)  # ends a hang; the bound below is 1 s
            try:
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                    result = dispatch(argv)
            except Exception as exc:
                result = f"{type(exc).__name__}: {exc}"
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            elapsed = time.process_time() - start
            if result not in (0, 2, 3, 4) or elapsed >= 1.0:
                bad.append((result, round(elapsed, 2), argv))
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert count > 1000
    assert bad == []
