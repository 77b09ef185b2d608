"""H-graphs, complex graphs, cluster adjacency, nullifiers, components."""

import math

import numpy as np
import pytest

from cvforge.gaussian import (
    GaussianState,
    beamsplitter,
    phase_rotate,
    two_mode_squeeze,
)
from cvforge.graphs import (
    ComplexGraph,
    GraphError,
    HGraph,
    check_bipartite,
    check_self_inverse,
    cluster_adjacency,
    connected_components,
    even_bin_mask,
    frequency_triple,
    hgraph_from_trace,
    nullifiers_1d,
    nullifiers_3d,
    rotated_graph,
    unit_cell_keys,
    write_adjacency_json,
    write_edge_csv,
    z_from_hgraph,
    z_from_state,
)
from cvforge.lattice import Field, ModeId, ModeRegistry, Nopa
from cvforge.pipeline import (
    PipelineConfig,
    build,
    build_1d,
    build_3d,
    delay_permutation,
)
from cvforge.tolerances import PHYSICS_TOL


def matching_graph(n_pairs):
    """Perfect matching on 2*n_pairs vertices: self-inverse and bipartite."""
    n = 2 * n_pairs
    g = np.zeros((n, n))
    for i in range(n_pairs):
        g[2 * i, 2 * i + 1] = g[2 * i + 1, 2 * i] = 1.0
    return g


def test_check_self_inverse_on_matching_and_triangle():
    assert check_self_inverse(matching_graph(3))
    triangle = np.array(
        [[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]]
    )
    assert not check_self_inverse(triangle)
    assert not check_self_inverse(np.zeros((0, 0)))
    assert not check_self_inverse(np.zeros((2, 2)))  # G^2 = 0 != I


def test_check_bipartite_colors_matching():
    ok, colors = check_bipartite(matching_graph(2))
    assert ok
    assert colors[0] != colors[1] and colors[2] != colors[3]


def test_check_bipartite_returns_odd_cycle():
    triangle = np.array(
        [[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]]
    )
    ok, witness = check_bipartite(triangle)
    assert not ok
    assert len(witness) % 2 == 1  # odd cycle
    # witness vertices actually form a closed walk in the graph
    for a, b in zip(witness, witness[1:] + witness[:1]):
        assert triangle[a, b] != 0


def test_hgraph_requires_symmetry_and_matching_size():
    reg = ModeRegistry(["a", "b"])
    with pytest.raises(GraphError):
        HGraph(np.array([[0.0, 1.0], [0.0, 0.0]]), reg)
    with pytest.raises(GraphError):
        HGraph(np.zeros((3, 3)), reg)


def test_hgraph_edges_and_degree():
    reg = ModeRegistry(["a", "b", "c"])
    g = np.zeros((3, 3))
    g[0, 1] = g[1, 0] = 1.0
    hg = HGraph(g, reg)
    assert list(hg.edges()) == [("a", "b", 1.0)]
    assert hg.degree("b") == 1
    assert hg.degree("c") == 0
    assert hg.weight("a", "b") == 1.0


def test_hgraph_from_trace_collects_squeezing_layer():
    cfg = PipelineConfig.one_d(1, 4, 0.5)
    _, reg, trace = build_1d(cfg)
    hg = hgraph_from_trace(trace)
    # every mode was squeezed against exactly one partner
    degrees = np.count_nonzero(hg.matrix, axis=1)
    assert np.all(degrees == 1)
    assert hg.is_self_inverse()
    ok, _ = hg.two_coloring()
    assert ok


def test_hgraph_from_trace_rejects_duplicate_edge():
    cfg = PipelineConfig.one_d(0, 2, 0.5)
    _, reg, trace = build_1d(cfg)
    dup = trace.records[0]
    import dataclasses

    doubled = dataclasses.replace(trace, records=trace.records + (dup,))
    with pytest.raises(GraphError):
        hgraph_from_trace(doubled)


def test_occupied_subgraph_drops_spectators():
    # offset pump rejects the edge line, leaving unsqueezed spectators
    cfg3 = PipelineConfig.three_d(1, 4, 0.6)
    _, reg, trace = build_3d(cfg3)
    hg = hgraph_from_trace(trace)
    assert not hg.is_self_inverse()  # spectator rows spoil G^2 = I
    occ = hg.occupied_subgraph()
    assert occ.n_modes < hg.n_modes
    assert occ.is_self_inverse()
    ok, _ = occ.two_coloring()
    assert ok


def test_z_from_hgraph_two_mode_oracle():
    # hand-built target: Z = i (cosh 2r I - sinh 2r G) on one pair
    r = 0.45
    reg = ModeRegistry(["a", "b"])
    hg = HGraph(matching_graph(1), reg)
    z = z_from_hgraph(hg, r)
    target = 1j * np.array(
        [
            [math.cosh(2 * r), -math.sinh(2 * r)],
            [-math.sinh(2 * r), math.cosh(2 * r)],
        ]
    )
    assert np.allclose(z.matrix, target, atol=1e-14)
    z.validate()


def test_z_from_hgraph_rejects_bad_structure():
    reg = ModeRegistry(["a", "b", "c"])
    triangle = np.array(
        [[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]]
    )
    with pytest.raises(GraphError, match="self-inverse"):
        z_from_hgraph(HGraph(triangle, reg), 0.5)
    with pytest.raises(ValueError):
        z_from_hgraph(HGraph(matching_graph(1), ModeRegistry(["a", "b"])), -0.1)


def test_z_from_state_matches_hgraph_closed_form():
    r = 1.2
    cfg = PipelineConfig.one_d(1, 4, r)
    state, reg, trace = build_1d(cfg, stage="squeezed")
    z_direct = z_from_state(state)
    z_closed = z_from_hgraph(hgraph_from_trace(trace), r)
    assert np.max(np.abs(z_direct.matrix - z_closed.matrix)) < 1e-12
    z_direct.validate()


def test_z_from_state_after_delay_needs_permuted_graph():
    r = 0.9
    cfg = PipelineConfig.one_d(1, 4, r)
    state, reg, trace = build_1d(cfg, stage="delayed")
    laid_out = hgraph_from_trace(trace).permuted(delay_permutation(trace))
    z_closed = z_from_hgraph(laid_out, r)
    z_direct = z_from_state(state)
    assert np.max(np.abs(z_direct.matrix - z_closed.matrix)) < 1e-12


def test_z_from_state_rejects_impure_state():
    st = GaussianState.vacuum(ModeRegistry(["a", "b"]))
    st.apply(two_mode_squeeze(0, 1, 0.8))
    reduced = st.marginalize(["b"])
    with pytest.raises(GraphError, match="pure"):
        z_from_state(reduced)


def random_pure_state(rng, n):
    """Vacuum on n modes after a few random squeezers, splitters and turns."""
    st = GaussianState.vacuum(ModeRegistry(list(range(n))))
    for _ in range(4):
        i, j = (int(k) for k in rng.choice(n, size=2, replace=False))
        st.apply(two_mode_squeeze(i, j, float(rng.uniform(0.0, 1.0))))
        st.apply(beamsplitter(i, j))
        st.apply(phase_rotate(i, float(rng.uniform(0.0, 2 * math.pi))))
    return st


def purity_defect(state):
    """The statistic ``is_pure`` bounds: symplectic defect over covariance scale."""
    scale = max(1.0, float(np.max(np.abs(state.cov))))
    return float(np.max(np.abs(state.symplectic_eigenvalues() - 0.5))) / scale


@pytest.mark.parametrize("noise", ["identity", "random_psd"])
def test_z_from_state_purity_agrees_with_symplectic_spectrum(noise):
    # V + delta N on random pure states, delta from none to far above
    # PHYSICS_TOL: wherever is_pure's own statistic is more than 3x away
    # from the tolerance, z_from_state raises exactly when is_pure says
    # the state is mixed
    rng = np.random.default_rng(23)
    checked = 0
    for delta in (0.0, 1e-10, 1e-9, 1e-8, 1e-6):
        for _ in range(60):
            n = int(rng.integers(2, 5))
            st = random_pure_state(rng, n)
            g = rng.normal(size=(2 * n, 2 * n))
            extra = np.eye(2 * n) if noise == "identity" else g @ g.T / (2 * n)
            noisy = GaussianState(st.mean, st.cov + delta * extra, st.registry)
            d = purity_defect(noisy)
            if PHYSICS_TOL / 3 < d < 3 * PHYSICS_TOL:
                continue
            checked += 1
            if noisy.is_pure():
                z_from_state(noisy).validate()
            else:
                with pytest.raises(GraphError, match="pure"):
                    z_from_state(noisy)
    assert checked >= 200


@pytest.mark.parametrize("x_antisqueezed", [True, False])
def test_z_from_state_rejects_noise_on_strongly_squeezed_mode(x_antisqueezed):
    # one mode at r = 3 with 1e-8 I of excess noise: det V - 1/4 is about
    # 1e-8 e^6 / 2, so is_pure rejects it whichever quadrature is large
    big, small = math.exp(6.0) / 2, math.exp(-6.0) / 2
    diag = [big, small] if x_antisqueezed else [small, big]
    reg = ModeRegistry(["a"])
    pure = GaussianState(np.zeros(2), np.diag(diag), reg)
    z_from_state(pure)
    noisy = GaussianState(np.zeros(2), np.diag(diag) + 1e-8 * np.eye(2), reg)
    assert not noisy.is_pure()
    with pytest.raises(GraphError, match="pure"):
        z_from_state(noisy)


@pytest.mark.parametrize(
    "cfg",
    [PipelineConfig.one_d(1, 8, 3.5), PipelineConfig.three_d(1, 8, 3.5)],
    ids=["1d", "3d"],
)
def test_z_from_state_accepts_strongly_squeezed_lattice(cfg):
    # at r = 3.5 the position block's condition number is about e^14;
    # the purity test must not take on the round-off of solving with it
    state, _, _ = build(cfg)
    assert state.is_pure()
    z_from_state(state).validate()


def test_z_from_state_runs_no_eigensolve_on_success(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("eigensolve on the success path")

    st = random_pure_state(np.random.default_rng(2), 4)
    monkeypatch.setattr(GaussianState, "symplectic_eigenvalues", refuse)
    monkeypatch.setattr(np.linalg, "eigvals", refuse)
    z_from_state(st)


def test_z_from_state_rejects_asymmetric_real_part():
    # V_xx = I/2 and V_xp = A/2 give Re Z = A.  V_pp is built from the
    # symmetric part S of A, so the momentum block reconstructs exactly
    # and only the antisymmetric part K says the state is not pure.
    reg = ModeRegistry(["a", "b"])
    s = np.array([[0.3, 0.2], [0.2, -0.1]])
    k = np.array([[0.0, 0.1], [-0.1, 0.0]])
    eye = np.eye(2)

    def state_with(a):
        cov = np.block([[eye / 2, a / 2], [a.T / 2, eye / 2 + s @ s / 2]])
        return GaussianState(np.zeros(4), cov, reg)

    z = z_from_state(state_with(s))
    assert np.allclose(z.matrix, s + 1j * eye, atol=1e-14)
    with pytest.raises(GraphError, match="pure"):
        z_from_state(state_with(s + k))


def test_rotated_graph_quarter_turn_gives_cluster_form():
    # rotating one half of an EPR pair turns Z into sech/tanh cluster form
    r = 0.7
    reg = ModeRegistry(["a", "b"])
    st = GaussianState.vacuum(reg)
    st.apply(two_mode_squeeze(0, 1, r))
    z = z_from_state(st)
    rot = rotated_graph(z, ["b"])
    # edge weight tanh(2r), same sign as the squeezing edge; Im drops to sech
    t = math.tanh(2 * r)
    s = 1.0 / math.cosh(2 * r)
    target = np.array([[1j * s, t], [t, 1j * s]])
    assert np.allclose(rot.matrix, target, atol=1e-12)
    rot.validate()


def test_rotated_graph_matches_direct_rotation_of_state():
    # independent path: physically rotate the modes, then read Z again
    r = 0.6
    reg = ModeRegistry(["a", "b"])
    st = GaussianState.vacuum(reg)
    st.apply(two_mode_squeeze(0, 1, r))
    z_then_rotate = rotated_graph(z_from_state(st), ["b"])
    st.apply(phase_rotate(1, math.pi / 2))
    rotate_then_z = z_from_state(st)
    assert np.max(np.abs(z_then_rotate.matrix - rotate_then_z.matrix)) < 1e-12


def test_cluster_adjacency_weight_magnitude_is_half_tanh():
    r = 1.0
    cfg = PipelineConfig.one_d(1, 6, r)
    state, reg, trace = build_1d(cfg)
    laid_out = hgraph_from_trace(trace).permuted(delay_permutation(trace))
    w = cluster_adjacency(z_from_state(state), hgraph=laid_out)
    nz = np.abs(w[np.abs(w) > 1e-9])
    assert np.allclose(nz, math.tanh(2 * r) / 2, atol=1e-12)
    # each mode couples to its two neighboring sites' two slots
    degrees = np.count_nonzero(np.abs(w) > 1e-9, axis=1)
    assert set(degrees.tolist()) == {4}


def test_cluster_adjacency_default_mask_is_even_bins():
    r = 0.8
    cfg = PipelineConfig.one_d(0, 4, r)
    state, reg, trace = build_1d(cfg)
    explicit = cluster_adjacency(z_from_state(state), mask=even_bin_mask(reg))
    default = cluster_adjacency(z_from_state(state))
    assert np.array_equal(explicit, default)


def test_cluster_adjacency_rejects_dependent_mask():
    r = 0.8
    cfg = PipelineConfig.one_d(0, 4, r)
    state, reg, trace = build_1d(cfg)
    raw = hgraph_from_trace(trace)  # emission labels: edges within a bin
    with pytest.raises(GraphError, match="independent"):
        cluster_adjacency(z_from_state(state), hgraph=raw)


def test_nullifiers_1d_structure():
    cfg = PipelineConfig.one_d(1, 5, 0.5)
    _, reg, _ = build_1d(cfg)
    nulls = nullifiers_1d(reg)
    # one x and one p nullifier per rail per interior gap
    assert len(nulls) == 2 * 3 * 4
    assert nulls.vacuum_level == 2.0
    assert sorted(nulls.families()) == ["p", "x"]
    for n in nulls:
        assert len(n.terms) == 4
        assert {abs(c) for _, c in n.terms} == {1.0}
    # names are unique
    names = [n.name for n in nulls]
    assert len(set(names)) == len(names)


def test_nullifiers_1d_vacuum_level():
    cfg = PipelineConfig.one_d(0, 4, 0.0)
    state, reg, _ = build_1d(cfg, stage="squeezed")
    # at r = 0 the pipeline's squeezing layer leaves vacuum untouched
    nulls = nullifiers_1d(reg)
    for n in nulls:
        assert abs(n.variance(state) - 2.0) < 1e-12


def test_nullifiers_1d_select():
    cfg = PipelineConfig.one_d(1, 4, 0.5)
    _, reg, _ = build_1d(cfg)
    nulls = nullifiers_1d(reg)
    picked = nulls.select(family="x", rail=1)
    assert len(picked) == 3
    assert all(n.family == "x" and n.rail == 1 for n in picked)


def test_nullifiers_need_two_bins():
    reg = ModeRegistry(
        [
            ModeId(Nopa.N1, Field.SIGNAL, 0, 0),
            ModeId(Nopa.N1, Field.IDLER, 0, 0),
        ]
    )
    with pytest.raises(GraphError):
        nullifiers_1d(reg)


def test_frequency_triple_window():
    assert frequency_triple(0, 1) == (0, 1, -1)
    assert frequency_triple(-1, 2) == (-1, 2, 0)
    with pytest.raises(GraphError):
        frequency_triple(1, 1)  # partner -2 leaves the window


def test_nullifiers_3d_structure():
    cfg = PipelineConfig.three_d(2, 6, 0.5)
    _, reg, _ = build_3d(cfg)
    nulls = nullifiers_3d(reg)
    # triples centered at a in [1-n_max, n_max-1], four families, three bin pairs
    assert len(nulls) == 3 * 4 * 3
    assert nulls.vacuum_level == 4.0
    assert sorted(nulls.families()) == ["p1", "p2", "x1", "x2"]
    for n in nulls:
        assert len(n.terms) == 8
        assert n.gap % 2 == 0
        assert n.triple is not None


def test_nullifiers_3d_rejects_odd_bin_count():
    cfg = PipelineConfig.three_d(1, 6, 0.5)
    _, reg, _ = build_3d(cfg)
    # fabricate an odd-extent registry by dropping the last bin's modes
    drop = [m for m in reg if m.time_bin == 5]
    odd_reg = reg.without(drop)
    with pytest.raises(GraphError, match="even"):
        nullifiers_3d(odd_reg)


def test_connected_components_basic():
    w = np.zeros((5, 5))
    w[0, 1] = w[1, 0] = 1.0
    w[2, 3] = w[3, 2] = 0.5
    comps = connected_components(w, 0.1)
    assert comps == [[0, 1], [2, 3]]  # vertex 4 is isolated and dropped
    comps_keep = connected_components(w, 0.1, drop_isolated=False)
    assert [4] in comps_keep


def test_connected_components_threshold():
    w = np.zeros((4, 4))
    w[0, 1] = w[1, 0] = 1.0
    w[1, 2] = w[2, 1] = 1e-5
    assert len(connected_components(w, 1e-6)) == 1
    assert connected_components(w, 1e-2) == [[0, 1]]


def test_connected_components_grouping_fuses_vertices():
    w = np.zeros((4, 4))
    w[0, 1] = w[1, 0] = 1.0
    w[2, 3] = w[3, 2] = 1.0
    # two disjoint edges; fusing 1 and 2 into one group merges components
    groups = ["g0", "g1", "g1", "g2"]
    comps = connected_components(w, 0.1, groups=groups)
    assert comps == [["g0", "g1", "g2"]]
    with pytest.raises(GraphError):
        connected_components(w, 0.1, groups=["a"])


def test_unit_cell_keys_pair_bins():
    cfg = PipelineConfig.one_d(1, 4, 0.5)
    _, reg, _ = build_1d(cfg)
    keys = unit_cell_keys(reg)
    assert len(keys) == reg.size
    assert set(keys) == {(n, c) for n in (-1, 0, 1) for c in (0, 1)}


def test_graph_exports_are_deterministic(tmp_path):
    cfg = PipelineConfig.one_d(0, 4, 0.7)
    state, reg, trace = build_1d(cfg)
    w = cluster_adjacency(z_from_state(state))
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    n1 = write_edge_csv(w, reg, p1)
    n2 = write_edge_csv(w, reg, p2)
    assert n1 == n2 > 0
    assert p1.read_bytes() == p2.read_bytes()
    assert p1.read_text().splitlines()[0] == "mode_a,mode_b,weight"

    j1, j2 = tmp_path / "a.json", tmp_path / "b.json"
    write_adjacency_json(w, reg, j1)
    write_adjacency_json(w, reg, j2)
    assert j1.read_bytes() == j2.read_bytes()
    import json

    doc = json.loads(j1.read_text())
    assert len(doc["modes"]) == reg.size
    assert len(doc["edges"]) == n1


def loop_write_edge_csv(w, registry, path, threshold=1e-9):
    """Reference pairwise loop that ``write_edge_csv`` must match byte for byte."""
    labels = registry.labels
    count = 0
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("mode_a,mode_b,weight\n")
        for i in range(registry.size):
            for j in range(i + 1, registry.size):
                if abs(w[i, j]) > threshold:
                    fh.write(f"{labels[i]},{labels[j]},{w[i, j]:.17g}\n")
                    count += 1
    return count


def loop_write_adjacency_json(w, registry, path, threshold=1e-9):
    """Reference pairwise loop for ``write_adjacency_json``."""
    import json

    labels = registry.labels
    edges = [
        {"a": str(labels[i]), "b": str(labels[j]), "weight": w[i, j]}
        for i in range(registry.size)
        for j in range(i + 1, registry.size)
        if abs(w[i, j]) > threshold
    ]
    payload = {"modes": [str(lbl) for lbl in labels], "edges": edges}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


@pytest.mark.parametrize(
    "cfg",
    [PipelineConfig.one_d(1, 6, 0.8), PipelineConfig.three_d(1, 4, 0.8)],
    ids=["1d", "3d"],
)
def test_graph_exports_match_pairwise_loops(tmp_path, cfg):
    state, reg, _ = build(cfg)
    w = cluster_adjacency(z_from_state(state))
    new, ref = tmp_path / "new.csv", tmp_path / "ref.csv"
    count = write_edge_csv(w, reg, new)
    assert count == loop_write_edge_csv(w, reg, ref) > 0
    assert new.read_bytes() == ref.read_bytes()

    new, ref = tmp_path / "new.json", tmp_path / "ref.json"
    write_adjacency_json(w, reg, new)
    loop_write_adjacency_json(w, reg, ref)
    assert new.read_bytes() == ref.read_bytes()
