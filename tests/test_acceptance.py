"""Acceptance gate: one criterion per test, one PASS/FAIL line each.

Run with ``python3 -m pytest tests/test_acceptance.py -v -s`` to see the
per-criterion lines as they print.
"""

import math
import time

import numpy as np

from cvforge.gaussian import (
    GaussianState,
    beamsplitter,
    phase_rotate,
    two_mode_squeeze,
)
from cvforge.graphs import (
    cluster_adjacency,
    connected_components,
    hgraph_from_trace,
    nullifiers_1d,
    nullifiers_3d,
    unit_cell_keys,
)
from cvforge.lattice import AncillaId, ModeRegistry
from cvforge.pipeline import (
    PipelineConfig,
    build,
    build_1d,
    delay_permutation,
)
from cvforge.verify import find_threshold
from oracle import (
    check_bipartite,
    check_self_inverse,
    check_symplectic,
    full_matrix,
    verify_rsr_composition,
    z_from_hgraph,
    z_from_state,
)


def report(name: str, ok: bool, detail: str) -> None:
    print(f"{name} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"{name}: {detail}"


def test_ac1_wire_nullifier_variances():
    start = time.perf_counter()
    worst = 0.0
    for n_max in (0, 1):
        for r in (0.0, 0.25, 0.5, 1.0, 2.0):
            cfg = PipelineConfig.one_d(n_max, 20, r)
            state, reg, _ = build(cfg)
            target = 2.0 * math.exp(-2.0 * r)
            for variance in (n.variance(state) for n in nullifiers_1d(reg)):
                worst = max(worst, abs(variance - target))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-9 and elapsed < 10.0
    report(
        "AC-1",
        ok,
        f"wire variances vs 2e^-2r: worst deviation {worst:.3e} "
        f"(tol 1e-9), {elapsed:.1f}s (limit 10s)",
    )


def test_ac2_variances_are_translation_invariant():
    worst_gap = 0.0
    worst_rail = 0.0
    for n_bins in (10, 50, 200):
        cfg = PipelineConfig.one_d(1, n_bins, 0.6)
        state, reg, _ = build(cfg)
        nulls = nullifiers_1d(reg)
        for family in ("x", "p"):
            by_rail = {}
            for n in (n for n in nulls if n.family == family):
                by_rail.setdefault(n.rail, []).append(n.variance(state))
            for values in by_rail.values():
                worst_gap = max(worst_gap, max(values) - min(values))
            rail_means = [np.mean(v) for v in by_rail.values()]
            worst_rail = max(worst_rail, max(rail_means) - min(rail_means))
    ok = worst_gap < 1e-10 and worst_rail < 1e-10
    report(
        "AC-2",
        ok,
        f"bin-to-bin spread {worst_gap:.3e}, rail-to-rail spread "
        f"{worst_rail:.3e} (tol 1e-10) for 10/50/200 bins",
    )


def test_ac3_squeezing_graph_closed_form():
    worst = 0.0
    structure = None
    for r in (0.0, 0.25, 0.7, 1.3, 2.1, 3.0):
        cfg = PipelineConfig.one_d(1, 8, r)
        state, _, trace = build_1d(cfg, stage="squeezed")
        hgraph = hgraph_from_trace(trace)
        if structure is None:
            bipartite, _ = check_bipartite(hgraph.matrix)
            structure = check_self_inverse(hgraph.matrix) and bipartite
        z = z_from_state(state)
        closed = z_from_hgraph(hgraph, r)
        worst = max(worst, float(np.max(np.abs(z.matrix - closed.matrix))))
    ok = bool(structure) and worst < 1e-9
    report(
        "AC-3",
        ok,
        f"complex graph vs i(cosh 2r I - sinh 2r G): worst deviation "
        f"{worst:.3e} (tol 1e-9), self-inverse+bipartite={structure}",
    )


def test_ac4_squeezing_thresholds():
    wire = find_threshold(PipelineConfig.one_d(0, 4, 0.1), tol=1e-7)
    bilayer = find_threshold(PipelineConfig.three_d(1, 4, 0.1), tol=1e-7)
    dev_1d = abs(wire.db - 3.0103)
    dev_3d = abs(bilayer.db - 6.0206)
    ok = dev_1d < 0.01 and dev_3d < 0.01
    report(
        "AC-4",
        ok,
        f"thresholds {wire.db:.4f} dB (target 3.0103) and "
        f"{bilayer.db:.4f} dB (target 6.0206), tol 0.01",
    )


def test_ac5_bilayer_families_and_weights():
    start = time.perf_counter()
    worst_var = 0.0
    families = set()
    for r in (0.0, 0.5, 1.5):
        cfg = PipelineConfig.three_d(1, 6, r)
        state, reg, _ = build(cfg)
        nulls = nullifiers_3d(reg)
        families.update(n.family for n in nulls)
        target = 4.0 * math.exp(-2.0 * r)
        for variance in (n.variance(state) for n in nulls):
            worst_var = max(worst_var, abs(variance - target))

    r = 3.5
    state, reg, trace = build(PipelineConfig.three_d(1, 6, r))
    laid_out = hgraph_from_trace(trace).permuted(delay_permutation(trace))
    weights = cluster_adjacency(state, laid_out)
    worst_w = 0.0
    n_edges = 0
    for i in range(reg.size):
        for j in range(i + 1, reg.size):
            if abs(weights[i, j]) > 1e-2:
                n_edges += 1
                worst_w = max(worst_w, abs(abs(weights[i, j]) - 0.25))
    elapsed = time.perf_counter() - start
    ok = (
        worst_var < 1e-9
        and len(families) == 4
        and n_edges > 0
        and worst_w < 1e-2
        and elapsed < 60.0
    )
    report(
        "AC-5",
        ok,
        f"4 families ({sorted(families)}) vs 4e^-2r: worst {worst_var:.3e} "
        f"(tol 1e-9); {n_edges} cluster edges within {worst_w:.3e} of "
        f"+/-1/4 (tol 1e-2); {elapsed:.1f}s (limit 60s)",
    )


def test_ac6_two_step_gate_composition():
    rng = np.random.default_rng(20260822)
    worst = 0.0
    for _ in range(100):
        tp1 = rng.uniform(-1.2, 1.2)
        tp2 = rng.uniform(-1.2, 1.2)
        tm2 = rng.uniform(0.3, math.pi - 0.3)
        worst = max(worst, verify_rsr_composition(tp1, tp2, tm2, r=8.0))

    rs = [4.0, 6.0, 8.0]
    residuals = [verify_rsr_composition(0.4, -0.7, 1.1, r=r) for r in rs]
    slope = float(np.polyfit(rs, np.log(residuals), 1)[0])
    ok = worst <= 1e-4 and abs(slope + 2.0) < 0.05
    report(
        "AC-6",
        ok,
        f"100 random triples at r=8: worst residual {worst:.3e} "
        f"(tol 1e-4); decay slope {slope:.4f} (target -2 +/- 0.05)",
    )


def test_ac7_same_pump_disconnects_the_lattice():
    counts = {}
    for name, cfg in (
        ("opposite", PipelineConfig.three_d(1, 4, 1.0)),
        (
            "same",
            PipelineConfig.three_d(
                1, 4, 1.0, offsets=(0, 0), allow_same_pump=True
            ),
        ),
    ):
        state, reg, trace = build(cfg)
        laid_out = hgraph_from_trace(trace).permuted(delay_permutation(trace))
        weights = cluster_adjacency(state, laid_out)
        comps = connected_components(
            weights, 1e-2, groups=unit_cell_keys(reg)
        )
        counts[name] = len(comps)
    ok = counts["opposite"] == 1 and counts["same"] == 2
    report(
        "AC-7",
        ok,
        f"cell-level components: opposite pumps {counts['opposite']} "
        f"(want 1), same pump {counts['same']} (want 2)",
    )


def _random_op(rng, n_modes):
    kind = rng.integers(0, 3)
    i, j = rng.choice(n_modes, size=2, replace=False)
    if kind == 0:
        return two_mode_squeeze(int(i), int(j), float(rng.uniform(0.0, 2.0)))
    if kind == 1:
        return beamsplitter(int(i), int(j))
    return phase_rotate(int(i), float(rng.uniform(-math.pi, math.pi)))


def _small_registry(n_modes):
    return ModeRegistry(AncillaId(f"m{i}") for i in range(n_modes))


def test_ac8_randomized_engine_invariants():
    rng = np.random.default_rng(8)
    total = 10_000
    per_kind = total // 3

    sympl_fail = 0
    for _ in range(per_kind + total - 3 * per_kind):
        n = int(rng.integers(2, 6))
        if not check_symplectic(full_matrix(_random_op(rng, n), n)):
            sympl_fail += 1

    purity_fail = 0
    for _ in range(per_kind):
        n = int(rng.integers(2, 5))
        state = GaussianState.vacuum(_small_registry(n))
        for _ in range(3):
            state.apply(_random_op(rng, n))
        if not state.is_pure():
            purity_fail += 1

    commute_fail = 0
    for _ in range(per_kind):
        n = 3
        registry = _small_registry(n)
        state = GaussianState.vacuum(registry)
        for _ in range(3):
            state.apply(_random_op(rng, n))
        labels = list(registry.labels)
        order = rng.permutation(n)
        measured, dropped = labels[order[0]], labels[order[1]]
        theta = float(rng.uniform(0.0, math.pi))
        a, _ = state.copy().homodyne(measured, theta, outcome=0.3)
        a = a.marginalize([dropped])
        b = state.copy().marginalize([dropped])
        b, _ = b.homodyne(measured, theta, outcome=0.3)
        if (
            np.max(np.abs(a.cov - b.cov)) > 1e-9
            or np.max(np.abs(a.mean - b.mean)) > 1e-9
        ):
            commute_fail += 1

    failures = sympl_fail + purity_fail + commute_fail
    ok = failures == 0
    report(
        "AC-8",
        ok,
        f"{total} randomized checks (symplectic form / purity / "
        f"measure-discard order): {failures} failures",
    )
