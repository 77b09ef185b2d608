"""Dense references the tests check the library against.

Nothing in the library, the CLI or the scripts reads these; each one
recomputes, by a second route, something the library computes or a
closed form it promises:

* the dense 2M x 2M matrix of a sparse op and its symplectic defect;
* the structural checks on an H-graph (self-inverse, bipartite) and the
  closed-form complex graph of a squeezing layer, ``i exp(-2 r G)``;
* the general complex-graph route to the cluster weights: Z of any pure
  state (x-p correlated or not), its quarter turn on a mask by the
  matrix Mobius map, and the real part of the result, which
  ``cvforge.graphs.cluster_adjacency`` must reproduce on lattice states;
* the physicality check on a complex graph Z;
* the rotation-squeeze-rotation algebra of the teleportation gates, and
  the two-step composition run through ``extract_gate``;
* the JSON form of a measurement plan, for round trips through
  ``MeasurementPlan.load``.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from cvforge.gaussian import DimensionError, SymplecticOp, omega_matrix
from cvforge.graphs import GraphError, HGraph
from cvforge.lattice import ModeId, ModeRegistry
from cvforge.mbqc import MbqcError, MeasurementPlan, PlanStep, extract_gate
from cvforge.tolerances import PHYSICS_TOL, STRUCTURAL_TOL


# ---------------------------------------------------------------------------
# Symplectic ops


def full_matrix(op: SymplecticOp, n_modes: int) -> np.ndarray:
    """Dense 2M x 2M symplectic matrix of a sparse op."""
    out = np.eye(2 * n_modes)
    if op.is_permutation:
        if len(op.perm) != n_modes:
            raise DimensionError("permutation length mismatch")
        out = np.zeros((2 * n_modes, 2 * n_modes))
        for src, dst in enumerate(op.perm):
            out[dst, src] = 1.0
            out[n_modes + dst, n_modes + src] = 1.0
        return out
    rows = op._rows(n_modes)
    out[np.ix_(rows, rows)] = op.block
    return out


def symplectic_defect(op: SymplecticOp) -> float:
    """Max-abs deviation of S Omega S^T from Omega on the local space."""
    if op.is_permutation:
        return 0.0
    s = len(op.support)
    omega = omega_matrix(s)
    return float(np.max(np.abs(op.block @ omega @ op.block.T - omega)))


def check_symplectic(op, tol: float = STRUCTURAL_TOL) -> bool:
    """Whether an op (or a raw 2M x 2M matrix) preserves the symplectic form."""
    if isinstance(op, SymplecticOp):
        return symplectic_defect(op) <= tol
    s = np.asarray(op, dtype=float)
    if s.ndim != 2 or s.shape[0] != s.shape[1] or s.shape[0] % 2:
        raise DimensionError(f"not a 2M x 2M matrix: shape {s.shape}")
    om = omega_matrix(s.shape[0] // 2)
    return float(np.max(np.abs(s @ om @ s.T - om))) <= tol


# ---------------------------------------------------------------------------
# Graphs


def check_self_inverse(matrix: np.ndarray, tol: float = STRUCTURAL_TOL) -> bool:
    """Whether ``matrix @ matrix`` is the identity within ``tol``.

    An empty matrix is vacuously not self-inverse; callers that trimmed
    away every occupied mode should treat that as a failed precondition
    rather than a pass.
    """
    m = np.asarray(matrix, dtype=float)
    if m.size == 0:
        return False
    defect = m @ m - np.eye(m.shape[0])
    return float(np.max(np.abs(defect))) <= tol


def check_bipartite(
    matrix: np.ndarray, tol: float = STRUCTURAL_TOL
) -> tuple[bool, np.ndarray | list[int]]:
    """Two-color the support of ``matrix``.

    Returns ``(True, colors)`` with ``colors[i]`` in {0, 1} (isolated
    vertices get color 0), or ``(False, cycle)`` where ``cycle`` is a
    vertex list tracing an odd cycle that obstructs the coloring.
    """
    m = np.asarray(matrix, dtype=float)
    n = m.shape[0]
    colors = np.full(n, -1, dtype=int)
    parent = np.full(n, -1, dtype=int)
    for start in range(n):
        if colors[start] >= 0:
            continue
        colors[start] = 0
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for v in np.nonzero(np.abs(m[u]) > tol)[0]:
                if colors[v] < 0:
                    colors[v] = 1 - colors[u]
                    parent[v] = u
                    queue.append(int(v))
                elif colors[v] == colors[u]:
                    return False, _odd_cycle(parent, u, int(v))
    return True, colors


def _odd_cycle(parent: np.ndarray, u: int, v: int) -> list[int]:
    # walk both endpoints up to the common ancestor of the BFS tree
    path_u, path_v = [u], [v]
    seen = {u: 0}
    node = u
    while parent[node] >= 0:
        node = int(parent[node])
        seen[node] = len(path_u)
        path_u.append(node)
    node = v
    while node not in seen:
        node = int(parent[node])
        path_v.append(node)
    return path_u[: seen[node] + 1][::-1] + path_v[:-1]


@dataclass(frozen=True)
class ComplexGraph:
    """Symmetric complex matrix Z encoding a pure Gaussian state.

    The state is the Gaussian wavefunction proportional to
    ``exp(i/2 x^T Z x)``; physicality requires Im Z positive definite.
    """

    matrix: np.ndarray
    registry: ModeRegistry

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (self.registry.size, self.registry.size):
            raise GraphError(
                f"Z is {m.shape}, registry has {self.registry.size} modes"
            )
        object.__setattr__(self, "matrix", m)

    def real_part(self) -> np.ndarray:
        return self.matrix.real.copy()


def z_from_state(state) -> ComplexGraph:
    """Recover Z from a pure Gaussian state's covariance matrix.

    With the covariance written in x-before-p block form, a pure state
    has ``Im Z = (2 V_xx)^-1`` and ``Re Z = V_xx^-1 V_xp``, and the
    covariance is pure exactly when those two are consistent with it:
    ``Re Z`` is symmetric and ``V_pp = Im Z / 2 + Re Z V_xx Re Z``
    (Menicucci, Flammia and van Loock, PRA 83, 042335 (2011)).  Times
    ``V_xx``, these are the top block row of ``V Omega V = Omega / 4``:
    ``V_xx V_xp^T - V_xp V_xx = 0`` and ``V_xx V_pp - V_xp V_xp = I/4``;
    for one mode the second reads ``det V - 1/4 = nu^2 - 1/4``.  Both are
    computed from V directly, without the solve's round-off, and held to
    ``PHYSICS_TOL`` times the covariance's largest entry, the bound
    ``GaussianState.is_pure`` puts on the symplectic spectrum.  That is
    the purity test, so no eigensolve runs on success; the symplectic
    spectrum is computed only to report a failure.
    """
    n = state.n_modes
    cov = state.cov
    xx = cov[:n, :n]
    xp = cov[:n, n:]
    pp = cov[n:, n:]
    xp_xx = xp @ xx
    asym = float(np.max(np.abs(xp_xx - xp_xx.T)))
    resid = float(np.max(np.abs(xx @ pp - xp @ xp - np.eye(n) / 4)))
    scale = max(1.0, float(np.max(np.abs(cov))))
    if not (asym < PHYSICS_TOL * scale and resid < PHYSICS_TOL * scale):
        nu = state.symplectic_eigenvalues()
        raise GraphError(
            f"state is not pure (largest symplectic eigenvalue {nu.max():.6g}; "
            f"Re Z asymmetry {asym:.3e} and momentum block defect "
            f"{resid:.3e} at scale {scale:.3e})"
        )
    try:
        imag = np.linalg.inv(2.0 * xx)
        real = np.linalg.solve(xx, xp)
    except np.linalg.LinAlgError as exc:
        raise GraphError(f"position block is singular: {exc}") from exc
    real = (real + real.T) / 2
    imag = (imag + imag.T) / 2
    return ComplexGraph(real + 1j * imag, state.registry)


def rotated_graph(z: ComplexGraph, mask: Iterable) -> ComplexGraph:
    """Quarter-turn the masked modes in phase space and transform Z.

    A phase-space rotation by pi/2 on a subset of modes acts on Z as the
    matrix Mobius map ``Z' = (C + D Z)(A + B Z)^-1`` where A, B, C, D are
    diagonal with entries (1, 0, 0, 1) on unmasked modes and (0, -1, 1, 0)
    on masked ones.
    """
    registry = z.registry
    masked = np.zeros(registry.size, dtype=bool)
    for label in mask:
        masked[registry.index_of(label)] = True
    a = np.where(masked, 0.0, 1.0)
    b = np.where(masked, -1.0, 0.0)
    c = np.where(masked, 1.0, 0.0)
    d = np.where(masked, 0.0, 1.0)
    numer = np.diag(c) + d[:, None] * z.matrix
    denom = np.diag(a) + b[:, None] * z.matrix
    try:
        out = np.linalg.solve(denom.T, numer.T).T
    except np.linalg.LinAlgError as exc:
        raise GraphError(f"rotation map is singular for this mask: {exc}") from exc
    out = (out + out.T) / 2
    return ComplexGraph(out, registry)


def even_bin_mask(registry: ModeRegistry) -> list[ModeId]:
    """Modes at even time bins: the canonical rotation mask.

    After the final beamsplitter layer the nullifier structure pairs each
    even bin with the following odd bin; rotating the even-bin half turns
    the pair correlations into cluster edges.
    """
    return [m for m in registry if isinstance(m, ModeId) and m.time_bin % 2 == 0]


def complex_cluster_adjacency(
    z: ComplexGraph,
    mask: Iterable | None = None,
    hgraph: HGraph | None = None,
) -> np.ndarray:
    """Real cluster edge weights after rotating the masked modes.

    The general complex route, kept as the differential reference for
    ``cvforge.graphs.cluster_adjacency``.  ``mask`` defaults to all modes
    at even time bins.  When ``hgraph`` is supplied, the mask is required
    to be an independent set of it: a squeezing edge inside the mask
    would mean the quarter turn acts on both ends of an interaction,
    which is not the intended reading.
    """
    if mask is None:
        mask_labels = even_bin_mask(z.registry)
    else:
        mask_labels = list(mask)
    if hgraph is not None:
        idx = [hgraph.registry.index_of(m) for m in mask_labels]
        inside = hgraph.matrix[np.ix_(idx, idx)]
        if np.count_nonzero(inside):
            bad = np.argwhere(inside)[0]
            a = mask_labels[int(bad[0])]
            b = mask_labels[int(bad[1])]
            raise GraphError(
                f"rotation mask is not independent in the H-graph: {a} -- {b}"
            )
    return rotated_graph(z, mask_labels).real_part()


def validate_complex_graph(z: ComplexGraph, tol: float = PHYSICS_TOL) -> None:
    """Raise ``GraphError`` unless Z is symmetric with Im Z positive definite."""
    asym = float(np.max(np.abs(z.matrix - z.matrix.T), initial=0.0))
    if asym > tol:
        raise GraphError(f"Z is not symmetric (max asymmetry {asym:.3e})")
    eigs = np.linalg.eigvalsh((z.matrix.imag + z.matrix.imag.T) / 2)
    if eigs.min() <= tol:
        raise GraphError(
            f"Im Z must be positive definite (min eigenvalue {eigs.min():.3e})"
        )


def z_from_hgraph(hgraph: HGraph, r: float) -> ComplexGraph:
    """Closed-form Z of the squeezing layer acting on vacuum.

    The layer exponentiates the adjacency: ``Z = i exp(-2 r G)``, which
    for a self-inverse G collapses to ``i (cosh 2r I - sinh 2r G)``.
    Purely imaginary, as it must be before any of the modes are rotated.
    The two structural preconditions are checked and reported separately
    so a failure says which one broke.
    """
    if r < 0:
        raise ValueError(f"squeezing parameter must be nonnegative, got {r}")
    g = hgraph.matrix
    if not check_self_inverse(g):
        defect = np.abs(g @ g - np.eye(g.shape[0])) if g.size else np.zeros((1, 1))
        raise GraphError(
            f"H-graph is not self-inverse (max |G^2 - I| = {defect.max():.3e})"
        )
    ok, witness = check_bipartite(g)
    if not ok:
        raise GraphError(f"H-graph has an odd cycle through vertices {witness}")
    n = g.shape[0]
    z = 1j * (np.cosh(2 * r) * np.eye(n) - np.sinh(2 * r) * g)
    return ComplexGraph(z, hgraph.registry)


# ---------------------------------------------------------------------------
# Gate algebra


def rotation_matrix(phi: float) -> np.ndarray:
    """Phase-space rotation by phi, acting on (x, p)."""
    c, s = math.cos(phi), math.sin(phi)
    return np.array([[c, -s], [s, c]])


def squeeze_matrix(s: float) -> np.ndarray:
    """Squeeze x by e^-s and stretch p by e^s."""
    return np.diag([math.exp(-s), math.exp(s)])


def angles_from_sum_diff(theta_plus: float, theta_minus: float) -> tuple[float, float]:
    return (theta_plus + theta_minus) / 2, (theta_plus - theta_minus) / 2


def two_step_closed_form(
    theta_plus_1: float, theta_plus_2: float, theta_minus_2: float
) -> np.ndarray:
    """Composed gate of two steps with the first difference angle at pi/2.

    Fixing ``t-1 = pi/2`` makes the first step a pure rotation, and the
    pair composes to
    ``R(-pi/2 - t+2/2) S(ln tan(t-2/2)) R(-pi/2 - t+2/2 - t+1)``:
    arbitrary rotation, squeeze, rotation from three free angles.
    """
    tan_half = math.tan(theta_minus_2 / 2)
    if tan_half <= 0:
        raise MbqcError(
            f"second difference angle {theta_minus_2} is outside (0, pi)"
        )
    outer = -math.pi / 2 - theta_plus_2 / 2
    return (
        rotation_matrix(outer)
        @ squeeze_matrix(math.log(tan_half))
        @ rotation_matrix(outer - theta_plus_1)
    )


def verify_rsr_composition(
    theta_plus_1: float,
    theta_plus_2: float,
    theta_minus_2: float,
    r: float,
) -> float:
    """Residual between a two-step run and its composed closed form.

    The first step fixes its difference angle at pi/2 (a pure rotation);
    the second supplies the squeeze.  Returns the worst entry deviation
    between the extracted composed gate and the three-angle closed form,
    which decays as e^-2r.
    """
    target = two_step_closed_form(theta_plus_1, theta_plus_2, theta_minus_2)
    ta1, tb1 = angles_from_sum_diff(theta_plus_1, math.pi / 2)
    ta2, tb2 = angles_from_sum_diff(theta_plus_2, theta_minus_2)
    plan = MeasurementPlan(
        (PlanStep(ta1, tb1, 0.0, 0.0), PlanStep(ta2, tb2, 0.0, 0.0))
    )
    gate = extract_gate(r, plan)
    return float(np.max(np.abs(gate.matrix - target)))


# ---------------------------------------------------------------------------
# Plans


def plan_to_json(plan: MeasurementPlan) -> dict:
    """The plan as the JSON document ``MeasurementPlan.from_json`` reads."""
    return {
        "rail": plan.rail,
        "steps": [
            {
                "wire_site": i,
                "theta_a": s.theta_a,
                "theta_b": s.theta_b,
                "outcome": (
                    "sample"
                    if s.outcome_a is None and s.outcome_b is None
                    else [s.outcome_a, s.outcome_b]
                ),
            }
            for i, s in enumerate(plan.steps)
        ],
    }
