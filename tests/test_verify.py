"""Variance bound checks and threshold searches."""

import json
import math

import pytest

from cvforge.graphs import nullifiers_1d, nullifiers_3d
from cvforge.pipeline import PipelineConfig, build
from cvforge.verify import VerifyError, find_threshold, vlf_check

# 2 exp(-1) and 2 exp(-0.4): wire variance just below / well above the bound
WIRE_PASS = 0.7357588823428847
WIRE_FAIL = 1.3406400920712787
# 4 exp(-1): bilayer variance at r = 0.5, above the bound
BILAYER_FAIL = 1.4715177646857693


def _wire_report(r, n_max=0, n_bins=4):
    cfg = PipelineConfig.one_d(n_max, n_bins, r)
    state, reg, _ = build(cfg)
    return vlf_check(state, nullifiers_1d(reg))


def test_wire_passes_above_threshold():
    assert math.isclose(WIRE_PASS, 2 * math.exp(-1.0), rel_tol=1e-15)
    report = _wire_report(0.5)
    assert report.all_pass
    assert report.exit_code == 0
    assert abs(report.max_variance - WIRE_PASS) < 1e-12
    assert all(row.passed for row in report.rows)


def test_wire_fails_below_threshold():
    assert math.isclose(WIRE_FAIL, 2 * math.exp(-0.4), rel_tol=1e-15)
    report = _wire_report(0.2)
    assert not report.all_pass
    assert report.exit_code == 2
    assert not any(row.passed for row in report.rows)
    assert abs(report.min_variance - WIRE_FAIL) < 1e-12


def test_bilayer_fails_at_half():
    assert math.isclose(BILAYER_FAIL, 4 * math.exp(-1.0), rel_tol=1e-15)
    cfg = PipelineConfig.three_d(1, 4, 0.5)
    state, reg, _ = build(cfg)
    report = vlf_check(state, nullifiers_3d(reg))
    assert not report.all_pass
    assert abs(report.max_variance - BILAYER_FAIL) < 1e-12


def test_bound_is_strict():
    # a variance exactly equal to the bound must not count as passing
    state, nulls = _build_for_bound(0.5)
    probe = vlf_check(state, nulls)
    pinned = vlf_check(state, nulls, bound=probe.max_variance)
    assert not pinned.all_pass
    assert all(
        not row.passed
        for row in pinned.rows
        if row.variance == probe.max_variance
    )


def test_report_table_and_json(tmp_path):
    report = _wire_report(0.5)
    doc = report.to_json()
    assert doc["kind"] == "1d"
    assert doc["bound"] == 1.0
    assert [row["name"] for row in doc["rows"]] == [row.name for row in report.rows]
    out = tmp_path / "vlf.json"
    report.write_json(out)
    assert json.loads(out.read_text())["all_pass"] is True

    failing = _wire_report(0.2).to_json()
    assert failing["all_pass"] is False
    assert not any(row["passed"] for row in failing["rows"])


def test_custom_bound():
    report = vlf_check(
        *_build_for_bound(0.5), bound=0.5
    )
    assert not report.all_pass
    assert report.bound == 0.5


def _build_for_bound(r):
    cfg = PipelineConfig.one_d(0, 4, r)
    state, reg, _ = build(cfg)
    return state, nullifiers_1d(reg)


def test_wire_threshold_is_half_log_two():
    cfg = PipelineConfig.one_d(0, 4, 0.1)
    result = find_threshold(cfg, tol=1e-7)
    assert abs(result.r - math.log(2) / 2) < 1e-6
    assert abs(result.db - 3.0102999566398116) < 1e-4
    assert result.evaluations > 0


def test_bilayer_threshold_is_log_two():
    cfg = PipelineConfig.three_d(1, 4, 0.1)
    result = find_threshold(cfg, tol=1e-7)
    assert abs(result.r - math.log(2)) < 1e-6
    assert abs(result.db - 6.020599913279623) < 1e-4


def test_threshold_needs_a_straddling_bracket():
    cfg = PipelineConfig.one_d(0, 4, 0.1)
    with pytest.raises(VerifyError):
        find_threshold(cfg, r_lo=1.0, r_hi=2.0)  # both sides already pass


def test_threshold_rejects_bad_bracket():
    cfg = PipelineConfig.one_d(0, 4, 0.1)
    with pytest.raises(VerifyError):
        find_threshold(cfg, r_lo=1.0, r_hi=0.5)
    with pytest.raises(VerifyError):
        find_threshold(cfg, tol=0.0)
