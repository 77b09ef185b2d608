"""Lattice builds: variances, traces, stages, sweeps."""

import json
import math

import numpy as np
import pytest

from cvforge.cli import main
from cvforge.gaussian import check_symplectic
from cvforge.graphs import nullifiers_1d, nullifiers_3d
from cvforge.lattice import Field, ModeId, Nopa, rail_of
from cvforge.pipeline import (
    NopaSettings,
    PipelineConfig,
    PipelineError,
    VarianceTable,
    build,
    build_1d,
    build_3d,
    delay_permutation,
    passive_layer_matrix,
    replay,
    squeezing_db,
    sweep,
)

# frozen closed-form targets, rederived inline where used
TWO_EXP_M16 = 0.40379303598931077  # 2 exp(-1.6), wire lattice at r = 0.8
FOUR_EXP_M2 = 0.5413411329464508  # 4 exp(-2), bilayer lattice at r = 1


def test_config_validation_wire():
    with pytest.raises(PipelineError):
        PipelineConfig(kind="2d", n_max=1, n_bins=4, nopas=())
    with pytest.raises(PipelineError):
        PipelineConfig.one_d(1, 1, 0.5)  # single bin: no gap to verify
    with pytest.raises(PipelineError):
        PipelineConfig(
            kind="1d", n_max=1, n_bins=4, nopas=(NopaSettings(1, 0.5),)
        )  # wire pump must be centered
    with pytest.raises(PipelineError):
        NopaSettings(0, -0.2)


def test_config_validation_bilayer():
    with pytest.raises(PipelineError):
        PipelineConfig.three_d(1, 5, 0.5)  # odd bin count
    with pytest.raises(PipelineError):
        PipelineConfig(
            kind="3d",
            n_max=1,
            n_bins=4,
            nopas=(NopaSettings(1, 0.5), NopaSettings(-2, 0.5)),
        )  # offsets must cancel
    with pytest.raises(PipelineError):
        PipelineConfig(
            kind="3d",
            n_max=1,
            n_bins=4,
            nopas=(NopaSettings(0, 0.5), NopaSettings(0, 0.5)),
        )  # same pump needs the explicit escape hatch
    cfg = PipelineConfig.three_d(1, 4, 0.5, offsets=(0, 0), allow_same_pump=True)
    assert cfg.allow_same_pump
    with pytest.raises(PipelineError):
        PipelineConfig.three_d(1, 4, 0.5, offsets=(-1, 1))  # positive first


def test_wire_nullifiers_hit_closed_form():
    r = 0.8
    assert math.isclose(TWO_EXP_M16, 2 * math.exp(-2 * r), rel_tol=1e-15)
    cfg = PipelineConfig.one_d(1, 6, r)
    state, reg, _ = build_1d(cfg)
    for n in nullifiers_1d(reg):
        assert abs(n.variance(state) - TWO_EXP_M16) < 1e-12


def test_wire_asymmetric_squeezing_splits_families():
    r_x, r_p = 0.9, 0.4
    cfg = PipelineConfig.one_d(0, 4, r_x, r_p)
    state, reg, _ = build_1d(cfg)
    nulls = nullifiers_1d(reg)
    for n in nulls.select(family="x"):
        assert abs(n.variance(state) - 2 * math.exp(-2 * r_x)) < 1e-12
    for n in nulls.select(family="p"):
        assert abs(n.variance(state) - 2 * math.exp(-2 * r_p)) < 1e-12


def test_bilayer_nullifiers_hit_closed_form():
    r = 1.0
    assert math.isclose(FOUR_EXP_M2, 4 * math.exp(-2 * r), rel_tol=1e-15)
    cfg = PipelineConfig.three_d(1, 6, r)
    state, reg, _ = build_3d(cfg)
    for n in nullifiers_3d(reg):
        assert abs(n.variance(state) - FOUR_EXP_M2) < 1e-12


def test_state_stays_pure_through_stages():
    cfg = PipelineConfig.one_d(1, 4, 0.7)
    for stage in ("squeezed", "delayed", "full"):
        state, _, _ = build_1d(cfg, stage=stage)
        assert state.is_pure()
    cfg3 = PipelineConfig.three_d(1, 4, 0.7)
    for stage in ("squeezed", "delayed", "dual_rail", "full"):
        state, _, _ = build_3d(cfg3, stage=stage)
        assert state.is_pure()


def test_unknown_stage_rejected():
    cfg = PipelineConfig.one_d(0, 4, 0.5)
    with pytest.raises(PipelineError):
        build_1d(cfg, stage="polished")
    with pytest.raises(PipelineError):
        build_3d(PipelineConfig.three_d(1, 4, 0.5), stage="dual")
    with pytest.raises(PipelineError):
        build_1d(PipelineConfig.three_d(1, 4, 0.5))


def test_trace_replay_is_bit_identical():
    cfg = PipelineConfig.three_d(1, 4, 0.9)
    state, _, trace = build_3d(cfg)
    again = replay(trace)
    assert np.array_equal(state.cov, again.cov)
    assert np.array_equal(state.mean, again.mean)


def test_trace_stage_counts_are_nested():
    cfg = PipelineConfig.one_d(1, 4, 0.5)
    _, _, trace = build_1d(cfg)
    counts = trace.stage_counts
    assert list(counts) == ["squeezed", "delayed", "full"]
    assert counts["squeezed"] < counts["delayed"] < counts["full"]
    assert counts["full"] == len(trace.records)
    partial = replay(trace, stage="squeezed")
    direct, _, _ = build_1d(cfg, stage="squeezed")
    assert np.array_equal(partial.cov, direct.cov)


def test_trace_json_serializes(tmp_path):
    import json

    cfg = PipelineConfig.one_d(0, 2, 0.5)
    _, _, trace = build_1d(cfg)
    doc = trace.to_json()
    text = json.dumps(doc)
    back = json.loads(text)
    assert back["stage"] == "full"
    assert back["metadata"]["kind"] == "1d"
    kinds = {rec["kind"] for rec in back["records"]}
    assert kinds == {"tms", "delay", "bs"}


def test_wire_rejects_nothing_with_centered_pump():
    cfg = PipelineConfig.one_d(2, 4, 0.5)
    _, _, trace = build_1d(cfg)
    assert trace.rejected_pairs == {"n1": ()}


def test_bilayer_rejects_window_edges():
    cfg = PipelineConfig.three_d(1, 4, 0.5)
    _, _, trace = build_3d(cfg)
    # offset +1 cannot pair line -1 (partner 2); offset -1 cannot pair +1
    assert trace.rejected_pairs["n1"] == (-1,)
    assert trace.rejected_pairs["n2"] == (1,)


def test_edge_flags_mark_wrapped_idlers(tmp_path):
    # registry.json flags the idlers at bin 0, whose content wrapped around
    # the ring, at every stage from the delay on
    docs = {
        "1d": ({"kind": "1d", "n_max": 1, "n_bins": 5, "r": 0.5}, (Nopa.N1,)),
        "3d": ({"kind": "3d", "n_max": 1, "n_bins": 4, "r": 0.5},
               (Nopa.N1, Nopa.N2)),
    }
    for kind, (doc, nopas) in docs.items():
        config = tmp_path / f"{kind}.json"
        config.write_text(json.dumps(doc))
        wrapped = {(nopa.value, n) for nopa in nopas for n in (-1, 0, 1)}
        for stage in ("squeezed", "full"):
            out = tmp_path / f"{kind}-{stage}"
            assert main(["build", "--config", str(config), "--out", str(out),
                         "--stage", stage]) == 0
            modes = json.loads((out / "registry.json").read_text())["modes"]
            flagged = {(m["nopa"], m["freq_index"]) for m in modes
                       if m["edge"] and m["field"] == "idler" and m["time_bin"] == 0}
            assert sum(m["edge"] for m in modes) == len(flagged)
            assert flagged == (set() if stage == "squeezed" else wrapped)


def test_wire_rails_are_mutually_independent():
    # no covariance between modes of different rails in the final state
    cfg = PipelineConfig.one_d(1, 6, 0.8)
    state, reg, _ = build_1d(cfg)
    rails = {}
    for m in reg:
        rails.setdefault(rail_of(m.freq_index, m.time_bin), []).append(
            reg.index_of(m)
        )
    n = reg.size
    for a in rails:
        for b in rails:
            if a >= b:
                continue
            rows = np.array(rails[a] + [n + i for i in rails[a]])
            cols = np.array(rails[b] + [n + i for i in rails[b]])
            cross = state.cov[np.ix_(rows, cols)]
            assert np.max(np.abs(cross)) < 1e-12


def test_passive_layer_is_signed_orthogonal():
    cfg = PipelineConfig.three_d(1, 4, 0.6)
    _, reg, trace = build_3d(cfg)
    o = passive_layer_matrix(trace)
    assert np.max(np.abs(o @ o.T - np.eye(reg.size))) < 1e-12
    full = np.block(
        [[o, np.zeros_like(o)], [np.zeros_like(o), o]]
    )
    assert check_symplectic(full)


def test_delay_permutation_shifts_idler_bins():
    cfg = PipelineConfig.one_d(0, 3, 0.5)
    _, reg, trace = build_1d(cfg)
    perm = delay_permutation(trace)
    src = reg.index_of(ModeId(Nopa.N1, Field.IDLER, 0, 0))
    dst = reg.index_of(ModeId(Nopa.N1, Field.IDLER, 0, 1))
    assert perm[src] == dst
    sig = reg.index_of(ModeId(Nopa.N1, Field.SIGNAL, 0, 0))
    assert perm[sig] == sig


def test_squeezing_db_conversion():
    # 20 r / ln 10; r = ln(2)/2 is the canonical 3.0103 dB point
    assert math.isclose(
        squeezing_db(math.log(2) / 2), 3.0102999566398116, rel_tol=1e-15
    )
    assert squeezing_db(0.0) == 0.0


def test_sweep_table_rows_and_csv(tmp_path):
    cfg = PipelineConfig.one_d(0, 4, 0.5)
    table = sweep(cfg, [0.0, 0.5])
    # 2 r-points x (1 rail x 3 gaps x 2 families)
    assert len(table.rows) == 2 * 6
    r_vals = sorted({row[0] for row in table.rows})
    assert r_vals == [0.0, 0.5]
    for row in table.at(0.5):
        assert abs(row[4] - 2 * math.exp(-1.0)) < 1e-12
        assert row[5] == 1.0
        assert math.isclose(row[1], squeezing_db(0.5), rel_tol=1e-15)
    path = tmp_path / "sweep.csv"
    table.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "r,db,family,k,variance,bound"
    assert len(lines) == 1 + len(table.rows)


def test_sweep_rejects_negative_r():
    cfg = PipelineConfig.one_d(0, 4, 0.5)
    with pytest.raises(PipelineError):
        sweep(cfg, [0.5, -0.1])


def test_build_dispatches_on_kind():
    s1, _, _ = build(PipelineConfig.one_d(0, 4, 0.5))
    s3, _, _ = build(PipelineConfig.three_d(1, 4, 0.5))
    assert s1.n_modes == 8
    assert s3.n_modes == 48


def test_with_squeezing_rebuilds_sources():
    cfg = PipelineConfig.three_d(1, 4, 0.5, r_p=0.9)
    flat = cfg.with_squeezing(1.1)
    assert all(s.r_x == 1.1 and s.r_p == 1.1 for s in flat.nopas)
    assert [s.pump_offset for s in flat.nopas] == [1, -1]
