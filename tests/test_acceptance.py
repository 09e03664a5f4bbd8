"""Acceptance gate: one test, and one pass/fail line, per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines, or `mono accept --suite primary` for the JSON/CSV report.
"""

from monospan import acceptance


def _report(result):
    status = "PASS" if result.passed else "FAIL"
    print(f"{status} criterion {result.index} ({result.name}): {result.detail} [{result.elapsed_s:.2f} s]")
    assert result.passed, f"criterion {result.index} ({result.name}): {result.detail}"


def test_criterion_01_transform_isometry():
    _report(acceptance.criterion_1())


def test_criterion_02_indicator_transform():
    _report(acceptance.criterion_2())


def test_criterion_03_basis_and_j_routes():
    _report(acceptance.criterion_3())


def test_criterion_04_interval_family_distances():
    _report(acceptance.criterion_4())


def test_criterion_05_density_vs_curves():
    _report(acceptance.criterion_5())


def test_criterion_06_atomic_and_model_distances():
    _report(acceptance.criterion_6())


def test_criterion_07_conjugation_identity():
    _report(acceptance.criterion_7())


def test_criterion_08_operator_routes():
    _report(acceptance.criterion_8())


def test_criterion_09_bessel_inverse():
    _report(acceptance.criterion_9())


def test_criterion_10_randomized_properties():
    _report(acceptance.criterion_10(acceptance.DEFAULT_SEED))


def test_criterion_03_evaluates_each_node_array_once(monkeypatch):
    # the 66 integrals share node arrays; the basis rows are computed once per array
    seen = []
    eval_basis = acceptance.eval_basis

    def counting(n, x):
        seen.append(x.tobytes())
        return eval_basis(n, x)

    monkeypatch.setattr(acceptance, "eval_basis", counting)
    result = acceptance.criterion_3()
    assert seen and len(seen) == len(set(seen))
    assert result.detail == (
        "max orthonormality defect 2.704e-11 (tol 1e-8); max J route deviation 2.001e-16 (tol 1e-10)"
    )
