"""Dense references the tests check the library against.

Nothing in the library, the CLI or the scripts reads these; each one
recomputes, by a second route, something the library computes or a
closed form it promises:

* the dense 2M x 2M matrix of a sparse op and its symplectic defect;
* the structural checks on an H-graph (self-inverse, bipartite) and the
  closed-form complex graph of a squeezing layer, ``i exp(-2 r G)``;
* the physicality check on a complex graph Z;
* the rotation-squeeze-rotation algebra of the teleportation gates, and
  the two-step composition run through ``extract_gate``;
* the JSON form of a measurement plan, for round trips through
  ``MeasurementPlan.load``.
"""

from __future__ import annotations

import math
from collections import deque

import numpy as np

from cvforge.gaussian import DimensionError, SymplecticOp, omega_matrix
from cvforge.graphs import ComplexGraph, GraphError, HGraph
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
