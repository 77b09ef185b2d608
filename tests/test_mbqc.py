"""Teleportation steps, measurement plans, gate extraction, macronodes."""

import importlib.util
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from cvforge.lattice import AncillaId, Field, LatticeConfig, ModeId, Nopa
from cvforge.mbqc import (
    INPUT,
    Macronode,
    MbqcError,
    MeasurementPlan,
    PlanStep,
    angles_from_sum_diff,
    effective_gate,
    extract_gate,
    gate_as_rotation_squeeze_rotation,
    identity_angles,
    macronode_map,
    rotation_matrix,
    run_plan,
    squeeze_matrix,
    sum_diff_angles,
    teleport_gate_closed_form,
    teleport_step,
    two_step_closed_form,
    verify_rsr_composition,
    wire_pair_labels,
)
from cvforge.pipeline import PipelineConfig, build, build_1d


# --- closed forms ---------------------------------------------------------


def test_identity_angles_give_identity():
    gate = teleport_gate_closed_form(*identity_angles())
    assert np.allclose(gate, np.eye(2), atol=1e-12)


def test_closed_form_has_unit_determinant():
    for ta, tb in [(0.3, -0.9), (1.1, 0.2), (-0.4, 1.3), (2.0, 0.1)]:
        gate = teleport_gate_closed_form(ta, tb)
        assert abs(np.linalg.det(gate) - 1.0) < 1e-12


def test_closed_form_matches_its_decomposition():
    for ta, tb in [(0.9, 0.1), (1.2, -0.3), (0.5, -1.0)]:
        phi1, s, phi2 = gate_as_rotation_squeeze_rotation(ta, tb)
        rebuilt = (
            rotation_matrix(phi1) @ squeeze_matrix(s) @ rotation_matrix(phi2)
        )
        assert np.allclose(rebuilt, teleport_gate_closed_form(ta, tb), atol=1e-12)


def test_angle_helpers_roundtrip():
    ta, tb = 0.7, -1.9
    back = angles_from_sum_diff(*sum_diff_angles(ta, tb))
    assert back == pytest.approx((ta, tb), abs=1e-15)


def test_equal_angles_are_degenerate():
    with pytest.raises(MbqcError):
        teleport_gate_closed_form(0.4, 0.4)
    with pytest.raises(MbqcError):
        teleport_gate_closed_form(0.4, 0.4 - math.pi)


def test_decomposition_needs_principal_branch():
    # t- < 0 has no real log of tan(t-/2)
    with pytest.raises(MbqcError):
        gate_as_rotation_squeeze_rotation(0.1, 0.9)


def test_two_step_closed_form_is_rotation_squeeze_rotation():
    tp1, tp2, tm2 = 0.6, -0.8, 1.2
    gate = two_step_closed_form(tp1, tp2, tm2)
    outer = -math.pi / 2 - tp2 / 2
    expected = (
        rotation_matrix(outer)
        @ squeeze_matrix(math.log(math.tan(tm2 / 2)))
        @ rotation_matrix(outer - tp1)
    )
    assert np.allclose(gate, expected, atol=1e-12)
    with pytest.raises(MbqcError):
        two_step_closed_form(0.1, 0.1, -0.5)


# --- plans ----------------------------------------------------------------


def test_plan_step_validation():
    with pytest.raises(MbqcError):
        PlanStep(math.inf, 0.0)
    with pytest.raises(MbqcError):
        PlanStep(0.25, 0.25)


def test_plan_from_bare_list():
    plan = MeasurementPlan.from_json(
        [{"theta_a": 0.1, "theta_b": -0.4}, {"theta_a": 0.2, "theta_b": 0.9}]
    )
    assert plan.rail == 0
    assert len(plan) == 2
    assert plan.steps[0].outcome_a is None


def test_plan_from_object_with_outcomes():
    plan = MeasurementPlan.from_json(
        {
            "rail": 1,
            "steps": [
                {"wire_site": 0, "theta_a": 0.1, "theta_b": 0.7,
                 "outcome": [1.5, -0.5]},
                {"theta_a": 0.3, "theta_b": -0.2, "outcome": "sample"},
                {"theta_a": 0.4, "theta_b": -0.1, "outcome_b": 2.0},
            ],
        }
    )
    assert plan.rail == 1
    assert plan.steps[0].outcome_a == 1.5
    assert plan.steps[0].outcome_b == -0.5
    assert plan.steps[1].outcome_a is None
    assert plan.steps[2].outcome_a is None
    assert plan.steps[2].outcome_b == 2.0


def test_plan_json_roundtrip(tmp_path):
    plan = MeasurementPlan(
        (PlanStep(0.1, 0.9, 1.0, 2.0), PlanStep(0.2, -0.3)), rail=1
    )
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(plan.to_json()))
    assert MeasurementPlan.load(path) == plan


def test_plan_parse_errors():
    with pytest.raises(MbqcError):
        MeasurementPlan.from_json("not a plan")
    with pytest.raises(MbqcError):
        MeasurementPlan.from_json({"rail": 0, "angles": []})
    with pytest.raises(MbqcError):
        MeasurementPlan.from_json({"rail": "left", "steps": []})
    with pytest.raises(MbqcError):
        MeasurementPlan.from_json([{"theta_a": 0.1}])
    with pytest.raises(MbqcError):
        MeasurementPlan.from_json(
            [{"theta_a": 0.1, "theta_b": 0.5, "phase": 2}]
        )
    with pytest.raises(MbqcError):
        MeasurementPlan.from_json(
            [{"wire_site": 3, "theta_a": 0.1, "theta_b": 0.5}]
        )
    with pytest.raises(MbqcError):
        MeasurementPlan.from_json(
            [{"theta_a": 0.1, "theta_b": 0.5, "outcome": [1.0]}]
        )
    with pytest.raises(MbqcError):
        MeasurementPlan.from_json([["theta_a", 0.1]])


def test_ideal_product_applies_steps_in_order():
    s1, s2 = PlanStep(0.3, -0.6), PlanStep(1.0, 0.2)
    plan = MeasurementPlan((s1, s2))
    g1 = teleport_gate_closed_form(s1.theta_a, s1.theta_b)
    g2 = teleport_gate_closed_form(s2.theta_a, s2.theta_b)
    assert np.allclose(plan.ideal_product(), g2 @ g1, atol=1e-14)
    assert not np.allclose(g2 @ g1, g1 @ g2, atol=1e-6)


# --- running plans --------------------------------------------------------


def _squeezed_wire(n_max=0, n_bins=4, r=1.0):
    cfg = PipelineConfig.one_d(n_max, n_bins, r)
    state, reg, _ = build_1d(cfg, stage="squeezed")
    return state, reg


def test_empty_plan_leaves_input_untouched():
    state, _ = _squeezed_wire()
    result = run_plan(state, MeasurementPlan(()), input_mean=(0.7, -0.2))
    assert result.logical == INPUT
    assert result.records == ()
    x, p = result.state.mode_quadratures(INPUT)
    assert abs(x - 0.7) < 1e-14
    assert abs(p + 0.2) < 1e-14


def test_run_plan_rejects_existing_input_label():
    state, _ = _squeezed_wire()
    occupied = state.append_vacuum([INPUT])
    with pytest.raises(MbqcError):
        run_plan(occupied, MeasurementPlan(()))


def test_run_plan_rejects_overlong_plan():
    state, _ = _squeezed_wire(n_bins=2)
    steps = tuple(PlanStep(0.1, 0.9, 0.0, 0.0) for _ in range(3))
    with pytest.raises(MbqcError):
        run_plan(state, MeasurementPlan(steps))


def test_run_plan_reports_missing_wire_modes():
    state, _ = _squeezed_wire(n_max=0)
    plan = MeasurementPlan((PlanStep(0.1, 0.9, 0.0, 0.0),), rail=3)
    with pytest.raises(MbqcError, match="missing or already consumed"):
        run_plan(state, plan)


def test_wire_pair_labels_alternate_rails():
    assert wire_pair_labels(1, 0) == (
        ModeId(Nopa.N1, Field.SIGNAL, 1, 0),
        ModeId(Nopa.N1, Field.IDLER, -1, 0),
    )
    assert wire_pair_labels(1, 1) == (
        ModeId(Nopa.N1, Field.SIGNAL, -1, 1),
        ModeId(Nopa.N1, Field.IDLER, 1, 1),
    )


def test_feedforward_cancels_outcome_dependence():
    # the corrected logical state must not depend on the homodyne results
    state, _ = _squeezed_wire(r=1.0)
    plans = [
        MeasurementPlan((PlanStep(0.3, -0.8, a, b),))
        for a, b in [(0.0, 0.0), (2.5, -1.3)]
    ]
    results = [
        run_plan(state.copy(), p, input_mean=(0.4, 0.9)) for p in plans
    ]
    means = [r.state.mode_quadratures(r.logical) for r in results]
    assert np.allclose(means[0], means[1], atol=1e-12)
    covs = [
        r.state.cov for r in results
    ]
    assert np.allclose(covs[0], covs[1], atol=1e-12)


def test_sampled_run_is_seed_deterministic():
    state, _ = _squeezed_wire()
    plan = MeasurementPlan((PlanStep(0.3, -0.8), PlanStep(1.1, 0.4)))
    runs = []
    for _ in range(2):
        rng = np.random.default_rng(11)
        runs.append(run_plan(state.copy(), plan, rng=rng))
    assert runs[0].records == runs[1].records
    assert np.array_equal(runs[0].state.mean, runs[1].state.mean)
    outcomes = {rec.outcome_a for rec in runs[0].records}
    assert len(outcomes) == 2  # actually sampled, not silently pinned


def test_run_records_carry_gains_and_consumed_pair(tmp_path):
    state, _ = _squeezed_wire()
    plan = MeasurementPlan((PlanStep(0.3, -0.8, 0.0, 0.0),))
    result = run_plan(state, plan)
    record = result.records[0]
    assert record.consumed == (INPUT, ModeId(Nopa.N1, Field.SIGNAL, 0, 0))
    assert record.logical == ModeId(Nopa.N1, Field.IDLER, 0, 0)
    assert np.array(record.gains).shape == (2, 2)
    path = tmp_path / "records.jsonl"
    result.write_records(path)
    lines = path.read_text().splitlines()
    assert len(lines) == 1
    doc = json.loads(lines[0])
    assert doc["theta_a"] == 0.3
    assert doc["logical"] == "n1:i[+0]@0"


# --- streamed window against the dense lattice ----------------------------


def _dense_run_plan(state, plan, input_mean=(0.0, 0.0), rng=None,
                    input_label=INPUT):
    """Oracle: teleport_step applied to the whole lattice, step by step."""
    current = state.append_vacuum([input_label])
    current.displace(input_label, *input_mean)
    logical = input_label
    records = []
    for site, step in enumerate(plan.steps):
        signal, idler = wire_pair_labels(plan.rail, site)
        current, record = teleport_step(
            current, logical, signal, idler, step.theta_a, step.theta_b,
            outcome_a=step.outcome_a, outcome_b=step.outcome_b, rng=rng,
        )
        records.append(record)
        logical = idler
    return current, logical, records


def _assert_matches_dense(result, dense_state, dense_logical, dense_records):
    bound = 1e-12 * max(1.0, float(np.max(np.abs(dense_state.cov))))
    assert result.state.registry == dense_state.registry
    assert result.state.registry.labels == dense_state.registry.labels
    assert result.logical == dense_logical
    assert np.max(np.abs(result.state.mean - dense_state.mean)) <= bound
    assert np.max(np.abs(result.state.cov - dense_state.cov)) <= bound
    assert len(result.records) == len(dense_records)
    for got, want in zip(result.records, dense_records):
        assert (got.consumed, got.logical) == (want.consumed, want.logical)
        assert abs(got.outcome_a - want.outcome_a) <= bound
        assert abs(got.outcome_b - want.outcome_b) <= bound
        assert np.max(np.abs(np.array(got.gains) - np.array(want.gains))) <= bound


def _asymmetric_wire(r, r_p, n_bins=3):
    """Squeezed wire with r != r_p and a displaced mean on every mode."""
    cfg = PipelineConfig.one_d(1, n_bins, r, r_p)
    state, _, _ = build_1d(cfg, stage="squeezed")
    state.mean[:] = np.random.default_rng(3).normal(size=state.mean.shape)
    return state


_ANGLES = ((0.3, -0.8), (1.1, 0.2), (-0.4, 0.9))


@pytest.mark.parametrize("r, r_p", [(1.3, 0.9), (8.0, 6.5)])
@pytest.mark.parametrize("rail", [0, 1, -1])
@pytest.mark.parametrize("sampled", [False, True])
def test_streamed_run_matches_dense_lattice(r, r_p, rail, sampled):
    state = _asymmetric_wire(r, r_p)
    pins = ((0.7, -1.2), (-0.3, 0.45), (2.0, 0.1))
    plan = MeasurementPlan(
        tuple(
            PlanStep(ta, tb) if sampled else PlanStep(ta, tb, *pin)
            for (ta, tb), pin in zip(_ANGLES, pins)
        ),
        rail=rail,
    )
    mean0, cov0 = state.mean.copy(), state.cov.copy()
    result = run_plan(state, plan, input_mean=(0.4, -0.9),
                      rng=np.random.default_rng(5))
    assert np.array_equal(state.mean, mean0)
    assert np.array_equal(state.cov, cov0)
    dense = _dense_run_plan(state, plan, input_mean=(0.4, -0.9),
                            rng=np.random.default_rng(5))
    _assert_matches_dense(result, *dense)


def test_streamed_chain_on_two_rails_matches_dense_lattice():
    state = _asymmetric_wire(2.0, 1.4, n_bins=4)
    alice, bob = AncillaId("alice"), AncillaId("bob")
    plan_a = MeasurementPlan(
        (PlanStep(*identity_angles()), PlanStep(0.9, 0.9 - math.pi / 2)),
        rail=0,
    )
    plan_b = MeasurementPlan(
        (PlanStep(1.1, 0.3), PlanStep(0.2, -1.0, 0.5, -0.5),
         PlanStep(-0.6, 0.8)),
        rail=1,
    )
    rng = np.random.default_rng(42)
    first = run_plan(state, plan_a, (1.0, 0.0), rng, alice)
    second = run_plan(first.state, plan_b, (0.0, 1.0), rng, bob)
    rng = np.random.default_rng(42)
    d_state, d_logical, d_records = _dense_run_plan(
        state, plan_a, (1.0, 0.0), rng, alice
    )
    _assert_matches_dense(first, d_state, d_logical, d_records)
    _assert_matches_dense(
        second, *_dense_run_plan(d_state, plan_b, (0.0, 1.0), rng, bob)
    )
    reg, m = second.state.registry, second.state.n_modes
    ia, ib = reg.index_of(first.logical), reg.index_of(second.logical)
    cross = second.state.cov[np.ix_([ia, m + ia], [ib, m + ib])]
    assert np.all(cross == 0.0)


def test_empty_streamed_plan_matches_dense_lattice():
    state = _asymmetric_wire(1.3, 0.9)
    result = run_plan(state, MeasurementPlan(()), input_mean=(0.7, -0.2))
    _assert_matches_dense(
        result, *_dense_run_plan(state, MeasurementPlan(()), (0.7, -0.2))
    )


def test_run_plan_rejects_entangled_wire():
    cfg = PipelineConfig.one_d(0, 3, 1.0)
    full, _, _ = build_1d(cfg, stage="full")
    plan = MeasurementPlan((PlanStep(0.3, -0.8, 0.0, 0.0),))
    with pytest.raises(MbqcError, match="squeezed stage"):
        run_plan(full, plan)


def test_run_plan_rejects_asymmetric_pair_covariance():
    state, _ = _squeezed_wire()
    signal, idler = wire_pair_labels(0, 0)
    i, j = state.registry.index_of(signal), state.registry.index_of(idler)
    state.cov[i, j] += 1e-9
    plan = MeasurementPlan((PlanStep(0.3, -0.8, 0.0, 0.0),))
    with pytest.raises(MbqcError, match="asymmetric"):
        run_plan(state, plan)


def test_sampled_plan_without_generator_is_rejected():
    state, _ = _squeezed_wire()
    with pytest.raises(ValueError, match="numpy Generator"):
        run_plan(state, MeasurementPlan((PlanStep(0.3, -0.8),)))


def test_two_channel_demo_keeps_logical_modes_uncorrelated(monkeypatch, capsys):
    path = Path(__file__).resolve().parents[1] / "scripts" / "two_channel_demo.py"
    spec = importlib.util.spec_from_file_location("two_channel_demo", path)
    demo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(demo)
    monkeypatch.setattr(sys, "argv", [str(path), "--bins", "4"])
    demo.main()
    out = capsys.readouterr().out
    line = next(l for l in out.splitlines() if "between the two logical" in l)
    assert float(line.rsplit(":", 1)[1]) == 0.0


# --- gate extraction ------------------------------------------------------


def test_single_step_gate_approaches_closed_form():
    gate = effective_gate(8.0, 0.3, -0.8)
    assert gate.residual < 1e-4
    assert abs(gate.det - 1.0) < 1e-3
    assert np.allclose(
        gate.ideal, teleport_gate_closed_form(0.3, -0.8), atol=1e-14
    )


def test_identity_plan_extracts_identity():
    gate = effective_gate(8.0, *identity_angles())
    assert np.max(np.abs(gate.matrix - np.eye(2))) < 1e-5


def test_extracted_noise_is_positive_and_decays_with_squeezing():
    norms = []
    rs = [3.0, 5.0, 7.0]
    for r in rs:
        gate = effective_gate(r, 0.3, -0.8)
        assert gate.noise_floor > -1e-9
        norms.append(np.max(np.abs(gate.noise)))
    slope = np.polyfit(rs, np.log(norms), 1)[0]
    assert abs(slope + 2.0) < 0.05


def test_multi_step_extraction_matches_composed_ideal():
    plan = MeasurementPlan(
        (
            PlanStep(0.3, -0.8, 0.0, 0.0),
            PlanStep(1.0, 0.2, 0.0, 0.0),
            PlanStep(-0.4, 0.9, 0.0, 0.0),
        )
    )
    gate = extract_gate(8.0, plan)
    assert gate.residual < 1e-4
    doc = gate.to_json()
    assert abs(doc["ideal_det"] - 1.0) < 1e-12
    assert doc["metadata"]["steps"] == 3


def test_extract_gate_rejects_empty_plan():
    with pytest.raises(MbqcError):
        extract_gate(5.0, MeasurementPlan(()))


def test_two_step_composition_matches_three_angle_form():
    residual = verify_rsr_composition(0.4, -0.7, 1.1, r=6.0)
    assert residual < 1e-3
    # deviation shrinks with squeezing
    assert verify_rsr_composition(0.4, -0.7, 1.1, r=7.0) < verify_rsr_composition(
        0.4, -0.7, 1.1, r=4.0
    )


# --- macronodes -----------------------------------------------------------


def test_macronode_requires_matching_site():
    with pytest.raises(MbqcError):
        Macronode(
            ModeId(Nopa.N1, Field.SIGNAL, 0, 0),
            ModeId(Nopa.N1, Field.IDLER, 0, 1),
        )


def test_macronode_map_inverse_is_exact():
    state, _, _ = build(PipelineConfig.three_d(1, 4, 0.9))
    mapped, _ = macronode_map(state)
    back, _ = macronode_map(mapped, inverse=True)
    assert np.max(np.abs(back.cov - state.cov)) < 1e-12


def test_macronode_map_twice_is_swap_with_sign():
    state, reg, _ = build(PipelineConfig.one_d(1, 4, 0.8))
    twice, macs = macronode_map(macronode_map(state)[0])
    o = np.zeros((reg.size, reg.size))
    for mac in macs:
        i, j = reg.index_of(mac.signal), reg.index_of(mac.idler)
        o[i, j] = -1.0
        o[j, i] = 1.0
    full = np.block([[o, np.zeros_like(o)], [np.zeros_like(o), o]])
    assert np.max(np.abs(twice.cov - full @ state.cov @ full.T)) < 1e-12


def test_macronode_roles_alternate_down_the_rail():
    state, _, _ = build(PipelineConfig.one_d(0, 4, 0.5))
    _, macs = macronode_map(state)
    assert len(macs) == 4
    for mac in macs:
        expected = "wire" if mac.signal.time_bin % 2 == 0 else "control"
        assert mac.role == expected
    keys = [(m.signal.nopa.value, m.signal.freq_index, m.signal.time_bin)
            for m in macs]
    assert keys == sorted(keys)


def test_macronode_map_rejects_ancillas_and_unpaired_sites():
    state, reg, _ = build(PipelineConfig.one_d(0, 4, 0.5))
    with_probe = state.append_vacuum([AncillaId("probe")])
    with pytest.raises(MbqcError):
        macronode_map(with_probe)
    lopsided = state.marginalize([ModeId(Nopa.N1, Field.IDLER, 0, 2)])
    with pytest.raises(MbqcError, match="unpaired"):
        macronode_map(lopsided)


@pytest.mark.parametrize("n_max", [1, 2])
def test_distributed_basis_components(n_max):
    # after pairing, the bilayer lattice falls apart into fixed-size pieces
    # joined only by signal-idler edges of a single weight magnitude
    from cvforge.graphs import (
        cluster_adjacency,
        connected_components,
        even_bin_mask,
        z_from_state,
    )

    r = 3.5
    state, reg, _ = build(PipelineConfig.three_d(n_max, 6, r))
    mapped, _ = macronode_map(state)
    weights = cluster_adjacency(z_from_state(mapped), mask=even_bin_mask(reg))
    comps = connected_components(weights, threshold=1e-2)
    assert len(comps) == 12
    assert {len(c) for c in comps} == {4 * n_max + 2}
    half_tanh = math.tanh(2 * r) / 2
    for i in range(reg.size):
        for j in range(i + 1, reg.size):
            if abs(weights[i, j]) > 1e-2:
                assert abs(abs(weights[i, j]) - half_tanh) < 1e-6
                assert reg.labels[i].field != reg.labels[j].field
