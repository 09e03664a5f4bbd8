"""End-to-end CLI tests: schemas, manifests, exit codes, worked values."""

import json
import math

import jsonschema
import pytest

import monospan.convergence as cv
from monospan.cli import dispatch, schema_for
from monospan.convergence import PiecewiseMonomial
from monospan.core import MonomialSet

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
    payload = run_json(
        capsys,
        ["atomic", "dist", "--measure", '{"atoms":[{"tau":[1,0],"w":0.5}]}', "--s", "0", "--n", "512"],
    )
    validate("atomic", payload)
    assert abs(payload["distance"] - 0.6022) < 5e-4
    assert payload["total_mass"] == 0.5


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


def test_usage_errors_exit_2(capsys):
    cases = [
        ["dist", "--set", X0_SET],  # neither --t nor --f
        ["dist", "--t", "1", "--f", "chi:0.5", "--set", X0_SET],  # both
        ["dist", "--t", "1", "--set", "{not json"],
        ["muntz", "--seq", '{"kind":"affine","a":1}', "--format", "csv"],  # csv unsupported here
        ["converge", "--f", "chi:0.5", "--nmax", "3"],  # missing --family
        ["nonsense"],
        ["sarason", "eval", "--f", '{"kind":"table","x":[0.5],"y":[1,2]}', "--z", "0.2"],
        ["op", "apply", "--op", "H", "--input", '{"kind":"coefficients","values":[]}'],
    ]
    for argv in cases:
        code, _, _ = run(capsys, argv)
        assert code == 2, argv


def test_from_manifest_command_mismatch_exit_2(tmp_path, capsys):
    man = tmp_path / "m.json"
    assert dispatch(["dist", "--t", "1", "--set", X0_SET, "--manifest", str(man), "--out", str(tmp_path / "o.json")]) == 0
    code, _, err = run(capsys, ["muntz", "--from-manifest", str(man)])
    assert code == 2
    assert "dist" in err


def test_domain_errors_exit_3(capsys):
    cases = [
        ["atomic", "proj", "--tau", "2,0", "--w", "1", "--s", "0"],
        ["sarason", "eval", "--f", '{"kind":"monomial","s":[1,0]}', "--z", "1.5,0"],
        ["dist", "--t", "-0.6", "--set", X0_SET],
        ["converge", "--family", "interval", "--rho", "1.5", "--f", "chi:0.5", "--nmax", "3"],
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
    point = cv._distance_point(
        PiecewiseMonomial.indicator(0.5), MonomialSet.from_json(json.loads(set_json)), "double"
    )
    calls = []
    solve = cv._distance_point
    monkeypatch.setattr(cv, "_distance_point", lambda *a: calls.append(a) or solve(*a))
    payload = run_json(capsys, ["converge", "--family", "constant", "--set", set_json,
                                "--f", "chi:0.5", "--nmax", "6"])
    assert len(calls) == 1
    assert payload["distance"] == [point.distance] * 6
    assert payload["condition_estimate"] == [point.condition_estimate] * 6


def test_version_flag(capsys):
    code, out, _ = run(capsys, ["--version"])
    assert code == 0
    assert "0.1.0" in out
