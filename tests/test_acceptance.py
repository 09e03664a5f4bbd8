"""Acceptance gate: one test, and one pass/fail line, per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines, or `mono accept --suite primary` for the JSON/CSV report.
"""

import pytest

from monospan import acceptance, quadrature


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


@pytest.mark.parametrize("seed", [7, 23, 24, 27, 31, 34, 36, 42, 52, 59, 63])
def test_criterion_10_passes_on_seeds_with_ill_conditioned_sets(seed):
    # each seed draws a set on which a float64 LU solve of the Gram system misses the
    # closed form by more than 1e-8; the Schur recursion in complex128 meets it
    _report(acceptance.criterion_10(seed))


def test_criterion_02_detail():
    result = acceptance.criterion_2()
    assert result.detail == (
        "max closed-form vs quadrature deviation 2.434e-12 (tol 1e-8); runtime within 10 s budget"
    )


def test_criterion_03_evaluates_each_node_array_once(monkeypatch):
    # the 66 integrals run as one lockstep family: each round evaluates the basis
    # once, on the nodes of every cell the round bisects, whichever members own them
    calls, rounds = [], []
    eval_basis, gk15 = acceptance.eval_basis, quadrature._gk15
    monkeypatch.setattr(acceptance, "eval_basis", lambda n, x: calls.append(len(x)) or eval_basis(n, x))
    monkeypatch.setattr(quadrature, "_gk15", lambda f, cells: rounds.append(len(cells)) or gk15(f, cells))
    result = acceptance.criterion_3()
    assert calls == [15 * n for n in rounds] and len(rounds) == 107
    assert result.detail == (
        "max orthonormality defect 2.704e-11 (tol 1e-8); max J route deviation 2.001e-16 (tol 1e-10)"
    )
