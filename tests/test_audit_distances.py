"""tools/audit_distances.py: seeded hard inputs held to each route's bound against an LU oracle."""

import importlib.util
from pathlib import Path

import pytest

from monospan.core import DistanceResult, MonomialSet, PiecewiseMonomial

_ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("audit_distances", _ROOT / "tools" / "audit_distances.py")
audit = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(audit)


def test_one_seed_keeps_every_bound():
    violations, known, routes = audit.audit(7, 48)
    assert violations == []
    # the one known defect of this seed still shows; once the double route keeps its bound on
    # targets whose terms cancel, this fails and the case leaves audit.KNOWN
    assert [(e["case"], e["precision"]) for e in known] == [(46, "double")]
    # every route, sliding windows on the ladder's tree among them, was checked
    assert min(routes["closed-form"], routes["double"], routes["extended"]) >= 5, routes


def test_the_oracle_follows_the_data_and_flags_a_result_past_its_bound():
    # a cluster spaced 1e-6: LU is singular at the first digits the growth asks for, and
    # the doubled ones settle on the closed form
    S = MonomialSet([1.0 + 1e-6 * k for k in range(6)])
    d, norm = audit.oracle(PiecewiseMonomial.monomial(0.3), S)
    prod = 1.0
    for s in S.values.real.tolist():
        prod *= abs(0.3 - s) / (1.3 + s)
    assert abs(d - prod / 1.6 ** 0.5) <= 1e-14 * d and norm == pytest.approx(1 / 1.6, rel=1e-15)
    f = PiecewiseMonomial.indicator(0.4)
    ref, norm = audit.oracle(f, MonomialSet([0.5, 2.0]))
    for route, cond in (("double", 1.0), ("extended(dps=50)", 1.0)):
        assert audit._violation(DistanceResult(ref, cond, route), ref, norm, 2) is None
        assert audit._violation(DistanceResult(ref * (1 + 1e-9), cond, route), ref, norm, 2) is not None
