"""Graph-theoretic views of the entangled state.

Two layers live here:

* the H-graph: which mode pairs were two-mode squeezed, as a signed
  adjacency matrix over the mode registry;
* the cluster adjacency: the real weighted graph left after rotating the
  even-bin modes of a lattice by a quarter turn in phase space, read off
  the inverse of the position block.  The general complex-graph route it
  replaces lives on in ``tests/oracle.py`` as the reference.

Nullifier construction for the one-dimensional wire lattice and the
bilayer square lattice also lives here, since the nullifier patterns are
what the cluster graph is read against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .lattice import Field, ModeId, ModeRegistry, Nopa, rail_line
from .tolerances import PHYSICS_TOL


class GraphError(ValueError):
    """A graph-side precondition failed."""


# ---------------------------------------------------------------------------
# H-graph


@dataclass(frozen=True)
class HGraph:
    """Signed adjacency of two-mode-squeezing interactions.

    ``matrix[i, j]`` is nonzero when modes ``i`` and ``j`` of ``registry``
    were squeezed against each other, with the sign carrying the relative
    phase of the interaction.
    """

    matrix: np.ndarray
    registry: ModeRegistry

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=float)
        if m.shape != (self.registry.size, self.registry.size):
            raise GraphError(
                f"adjacency is {m.shape}, registry has {self.registry.size} modes"
            )
        if float(np.max(np.abs(m - m.T), initial=0.0)) > 0:
            raise GraphError("H-graph adjacency must be exactly symmetric")
        object.__setattr__(self, "matrix", m)

    @property
    def n_modes(self) -> int:
        return self.registry.size

    def permuted(self, perm: np.ndarray) -> "HGraph":
        """Graph after moving mode contents, ``dest[i] = perm[i]``.

        A comb delay relabels which physical slot holds which squeezed
        partner; the adjacency follows by conjugation with the same
        permutation while the registry keeps its fixed label order.
        """
        perm = np.asarray(perm, dtype=np.intp)
        if sorted(perm.tolist()) != list(range(self.n_modes)):
            raise GraphError("not a permutation of the registry")
        out = np.zeros_like(self.matrix)
        out[np.ix_(perm, perm)] = self.matrix
        return HGraph(out, self.registry)


def hgraph_from_trace(trace) -> HGraph:
    """Collect the squeezing layer of a pipeline trace into an H-graph.

    Only two-mode-squeeze records contribute; the passive layers (delays,
    rotations, beamsplitters) act after the graph is set and are ignored.
    Re-squeezing the same pair is rejected: the adjacency is meant to be
    read as a single squeezing layer, and a duplicate would silently
    change the effective interaction strength.
    """
    registry = trace.registry
    n = registry.size
    matrix = np.zeros((n, n))
    for record in trace.records:
        if record.kind != "tms":
            continue
        a, b = record.labels
        i, j = registry.index_of(a), registry.index_of(b)
        if matrix[i, j] != 0.0:
            raise GraphError(f"duplicate squeezing edge between {a} and {b}")
        matrix[i, j] = matrix[j, i] = 1.0
    return HGraph(matrix, registry)


# ---------------------------------------------------------------------------
# Cluster adjacency


def cluster_adjacency(state, hgraph: HGraph) -> np.ndarray:
    """Real cluster edge weights after a quarter turn of the even-bin modes.

    A pure state with no x-p correlation has the complex graph
    ``Z = i Y`` with ``Y = (2 V_x)^-1`` (Menicucci, Flammia and van Loock,
    PRA 83, 042335 (2011)).  Rotating the modes E at even time bins by a
    quarter turn leaves real weights ``W_UE = -Y_UE Y_EE^-1`` between E
    and the other modes U, and none within E or within U.

    Both preconditions are read off the covariance without an
    eigensolve: ``V_xp`` and ``V_x V_p - I/4`` must vanish to
    ``PHYSICS_TOL`` times the covariance's largest entry; for a state
    with ``V_xp = 0`` the second is the purity condition
    ``V Omega V = Omega / 4``.  The mask E must also be an independent
    set of ``hgraph``, the squeezing graph in the lattice's final
    labels: a squeezing edge inside E would mean the quarter turn acts
    on both ends of an interaction, which is not the intended reading.
    An odd wire ring fails this check.
    """
    registry = state.registry
    for m in registry:
        if not isinstance(m, ModeId):
            raise GraphError(f"registry contains non-lattice mode {m}")
    n = state.n_modes
    cov = state.cov
    xx = cov[:n, :n]
    correlation = float(np.max(np.abs(cov[:n, n:])))
    defect = xx @ cov[n:, n:]
    defect.flat[:: n + 1] -= 0.25
    resid = float(np.max(np.abs(defect)))
    scale = max(1.0, float(np.max(np.abs(cov))))
    if not (correlation < PHYSICS_TOL * scale and resid < PHYSICS_TOL * scale):
        raise GraphError(
            "cluster weights need a pure state with uncorrelated x and p "
            f"(max |V_xp| {correlation:.3e}, momentum block defect "
            f"{resid:.3e} at scale {scale:.3e})"
        )

    even = np.array([m.time_bin % 2 == 0 for m in registry])
    e, u = np.flatnonzero(even), np.flatnonzero(~even)
    mask = [registry.labels[i] for i in e]
    idx = [hgraph.registry.index_of(m) for m in mask]
    inside = hgraph.matrix[np.ix_(idx, idx)]
    if np.count_nonzero(inside):
        a, b = np.argwhere(inside)[0]
        raise GraphError(
            "rotation mask is not independent in the H-graph: "
            f"{mask[int(a)]} -- {mask[int(b)]}"
        )

    try:
        y = np.linalg.inv(2.0 * xx)
        y = (y + y.T) / 2
        w_eu = -np.linalg.solve(y[np.ix_(e, e)], y[np.ix_(e, u)])
    except np.linalg.LinAlgError as exc:
        raise GraphError(f"position block is singular: {exc}") from exc
    weights = np.zeros((n, n))
    weights[np.ix_(e, u)] = w_eu
    weights[np.ix_(u, e)] = w_eu.T
    return weights


# ---------------------------------------------------------------------------
# Components


def connected_components(
    weights: np.ndarray,
    threshold: float,
    groups: Sequence | None = None,
    drop_isolated: bool = True,
) -> list[list]:
    """Connected components of a weighted graph, optionally coarse-grained.

    Edges with ``|weight| >= threshold`` connect vertices.  When
    ``groups`` assigns a key to each vertex, vertices sharing a key are
    fused before the component search, and components come back as sorted
    lists of keys; otherwise they are sorted lists of vertex indices.
    Vertices (or fused groups) with no surviving edge are dropped unless
    ``drop_isolated`` is false.
    """
    w = np.asarray(weights, dtype=float)
    n = w.shape[0]
    if groups is None:
        keys = list(range(n))
    else:
        if len(groups) != n:
            raise GraphError(f"got {len(groups)} group keys for {n} vertices")
        keys = list(groups)
    distinct = sorted(set(keys), key=repr)
    key_index = {k: i for i, k in enumerate(distinct)}
    vertex_group = [key_index[k] for k in keys]

    adjacency: list[set[int]] = [set() for _ in distinct]
    has_edge = [False] * len(distinct)
    rows, cols = np.nonzero(np.abs(w) >= threshold)
    for i, j in zip(rows, cols):
        gi, gj = vertex_group[int(i)], vertex_group[int(j)]
        if gi == gj:
            has_edge[gi] = True
            continue
        adjacency[gi].add(gj)
        adjacency[gj].add(gi)
        has_edge[gi] = has_edge[gj] = True

    seen = [False] * len(distinct)
    components: list[list] = []
    for start in range(len(distinct)):
        if seen[start]:
            continue
        if drop_isolated and not has_edge[start]:
            seen[start] = True
            continue
        seen[start] = True
        stack = [start]
        members = []
        while stack:
            u = stack.pop()
            members.append(u)
            for v in adjacency[u]:
                if not seen[v]:
                    seen[v] = True
                    stack.append(v)
        components.append(sorted((distinct[m] for m in members), key=repr))
    components.sort(key=lambda comp: (len(comp), repr(comp)))
    return components


def unit_cell_keys(registry: ModeRegistry) -> list[tuple[int, int]]:
    """Group key per mode: frequency line and time-bin pair.

    The lattice's natural unit cell spans two consecutive time bins (the
    nullifiers live on even-odd bin pairs), with the signal and idler
    slots of each line fused.  Component counts at this granularity
    answer whether the sheets of the final graph hang together.
    """
    keys = []
    for m in registry:
        if not isinstance(m, ModeId):
            raise GraphError(f"registry contains non-lattice mode {m}")
        keys.append((m.freq_index, m.time_bin // 2))
    return keys


# ---------------------------------------------------------------------------
# Nullifiers


@dataclass(frozen=True)
class Nullifier:
    """One linear quadrature combination that the ideal state annihilates.

    ``terms`` maps modes to signed unit coefficients on a single
    quadrature axis; ``family`` names which of the lattice's pattern
    families it belongs to, ``gap`` the earlier of the two time bins it
    straddles.  ``rail`` is set for wire lattices, ``triple`` for the
    bilayer lattice's frequency triples.
    """

    name: str
    family: str
    axis: str
    gap: int
    terms: tuple[tuple[ModeId, float], ...]
    rail: int | None = None
    triple: tuple[int, int, int] | None = None

    def measurement_terms(self) -> list[tuple[ModeId, str, float]]:
        return [(mode, self.axis, coeff) for mode, coeff in self.terms]

    def variance(self, state) -> float:
        return state.variance(self.measurement_terms())


@dataclass(frozen=True)
class NullifierSet:
    """All nullifiers of a lattice build, with the vacuum reference level.

    ``vacuum_level`` is the variance each combination takes on vacuum
    (the sum of squared coefficients over 2); squeezing below it is the
    entanglement witness the verification layer checks.
    """

    nullifiers: tuple[Nullifier, ...]
    registry: ModeRegistry
    kind: str
    vacuum_level: float

    def __iter__(self) -> Iterator[Nullifier]:
        return iter(self.nullifiers)

    def __len__(self) -> int:
        return len(self.nullifiers)

def _registry_extent(registry: ModeRegistry) -> tuple[int, int]:
    n_max = 0
    n_bins = 0
    for m in registry:
        if not isinstance(m, ModeId):
            raise GraphError(f"registry contains non-lattice mode {m}")
        n_max = max(n_max, abs(m.freq_index))
        n_bins = max(n_bins, m.time_bin + 1)
    if n_bins == 0:
        raise GraphError("registry is empty")
    return n_max, n_bins


def nullifiers_1d(registry: ModeRegistry) -> NullifierSet:
    """Nullifiers of the wire lattice, one x and one p per rail per gap.

    Each rail alternates between a frequency line and its pump partner
    as the time bin advances.  For the gap between bins k and k+1 the
    squeezed combinations mix the four modes at the rail's two sites:
    sums of positions with a sign flip on the later idler, and momenta
    with the earlier site negated.  Interior gaps only; the wrap-around
    gap closes the ring but is not part of the advertised lattice.
    """
    n_max, n_bins = _registry_extent(registry)
    if n_bins < 2:
        raise GraphError("need at least two time bins to form a gap")
    if not any(isinstance(m, ModeId) and m.nopa is Nopa.N1 for m in registry):
        raise GraphError("registry has no primary-source modes")

    nullifiers: list[Nullifier] = []
    for rail in range(-n_max, n_max + 1):
        for k in range(n_bins - 1):
            m_here = rail_line(rail, k)
            m_next = rail_line(rail, k + 1)
            here_s = ModeId(Nopa.N1, Field.SIGNAL, m_here, k)
            here_i = ModeId(Nopa.N1, Field.IDLER, m_here, k)
            next_s = ModeId(Nopa.N1, Field.SIGNAL, m_next, k + 1)
            next_i = ModeId(Nopa.N1, Field.IDLER, m_next, k + 1)
            for mode in (here_s, here_i, next_s, next_i):
                if mode not in registry:
                    raise GraphError(f"registry is missing lattice mode {mode}")
            x_terms = ((here_s, 1.0), (here_i, 1.0), (next_s, 1.0), (next_i, -1.0))
            p_terms = ((here_s, -1.0), (here_i, -1.0), (next_s, 1.0), (next_i, -1.0))
            nullifiers.append(
                Nullifier(
                    name=f"x:rail{rail:+d}:gap{k}",
                    family="x",
                    axis="x",
                    gap=k,
                    terms=x_terms,
                    rail=rail,
                )
            )
            nullifiers.append(
                Nullifier(
                    name=f"p:rail{rail:+d}:gap{k}",
                    family="p",
                    axis="p",
                    gap=k,
                    terms=p_terms,
                    rail=rail,
                )
            )
    return NullifierSet(tuple(nullifiers), registry, "1d", 2.0)


_BILAYER_PATTERNS = {
    # family -> (axis, signs at (a, even bin), partner line, signs at (partner, odd bin))
    "x1": ("x", (1, 1, 1, 1), "b", (-1, 1, -1, 1)),
    "p1": ("p", (-1, -1, -1, -1), "b", (-1, 1, -1, 1)),
    "x2": ("x", (-1, -1, 1, 1), "c", (-1, 1, 1, -1)),
    "p2": ("p", (1, 1, -1, -1), "c", (-1, 1, 1, -1)),
}


def frequency_triple(a: int, n_max: int) -> tuple[int, int, int]:
    """Center line ``a`` with its two pump partners ``(1 - a, -1 - a)``.

    The two sources pump with offsets +1 and -1, so line ``a`` pairs
    upward with ``1 - a`` and downward with ``-1 - a``; all three must
    sit inside the frequency window.
    """
    b, c = 1 - a, -1 - a
    for line in (a, b, c):
        if abs(line) > n_max:
            raise GraphError(
                f"frequency triple ({a}, {b}, {c}) leaves the window |n| <= {n_max}"
            )
    return a, b, c


def nullifiers_3d(registry: ModeRegistry) -> NullifierSet:
    """Nullifiers of the bilayer lattice: four families per triple per bin pair.

    Every interior frequency line ``a`` anchors a triple with its two
    pump partners.  On each even-odd bin pair, the four families combine
    the eight slots (signal and idler of both sources at two sites) with
    fixed sign patterns; two families live on the x axis and two on p.
    """
    n_max, n_bins = _registry_extent(registry)
    if n_bins % 2 != 0:
        raise GraphError(f"bilayer lattice needs an even bin count, got {n_bins}")
    if n_max < 1:
        raise GraphError("bilayer lattice needs at least three frequency lines")

    def slots(line: int, k: int) -> tuple[ModeId, ModeId, ModeId, ModeId]:
        made = (
            ModeId(Nopa.N1, Field.SIGNAL, line, k),
            ModeId(Nopa.N1, Field.IDLER, line, k),
            ModeId(Nopa.N2, Field.SIGNAL, line, k),
            ModeId(Nopa.N2, Field.IDLER, line, k),
        )
        for mode in made:
            if mode not in registry:
                raise GraphError(f"registry is missing lattice mode {mode}")
        return made

    nullifiers: list[Nullifier] = []
    for a in range(1 - n_max, n_max):
        triple = frequency_triple(a, n_max)
        partners = {"b": triple[1], "c": triple[2]}
        for k in range(0, n_bins - 1, 2):
            here = slots(a, k)
            for family, (axis, here_signs, partner_key, there_signs) in (
                _BILAYER_PATTERNS.items()
            ):
                there = slots(partners[partner_key], k + 1)
                terms = tuple(
                    (mode, float(s)) for mode, s in zip(here, here_signs)
                ) + tuple((mode, float(s)) for mode, s in zip(there, there_signs))
                nullifiers.append(
                    Nullifier(
                        name=f"{family}:line{a:+d}:gap{k}",
                        family=family,
                        axis=axis,
                        gap=k,
                        terms=terms,
                        triple=triple,
                    )
                )
    return NullifierSet(tuple(nullifiers), registry, "3d", 4.0)


# ---------------------------------------------------------------------------
# Exports


def _edges_above(weights, registry: ModeRegistry, threshold: float):
    """Pairs i < j with ``|w[i, j]| > threshold``, in row-major order."""
    w = np.asarray(weights, dtype=float)
    if w.shape != (registry.size, registry.size):
        raise GraphError(
            f"weights are {w.shape}, registry has {registry.size} modes"
        )
    rows, cols = np.nonzero(np.triu(np.abs(w) > threshold, 1))
    return rows.tolist(), cols.tolist(), w[rows, cols].tolist()


def write_edge_csv(
    weights: np.ndarray,
    registry: ModeRegistry,
    path,
    threshold: float = 1e-9,
) -> int:
    """Write ``mode_a,mode_b,weight`` rows for i < j, in registry order.

    Returns the number of edges written.  Deterministic: row order is
    fixed by the registry, weights are printed at full precision.
    """
    rows, cols, values = _edges_above(weights, registry, threshold)
    labels = registry.labels
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("mode_a,mode_b,weight\n")
        fh.writelines(
            f"{labels[i]},{labels[j]},{v:.17g}\n"
            for i, j, v in zip(rows, cols, values)
        )
    return len(values)


def write_adjacency_json(
    weights: np.ndarray,
    registry: ModeRegistry,
    path,
    threshold: float = 1e-9,
) -> None:
    """Write the graph as JSON: mode list plus an explicit edge list."""
    import json

    rows, cols, values = _edges_above(weights, registry, threshold)
    labels = registry.labels
    edges = [
        {"a": str(labels[i]), "b": str(labels[j]), "weight": v}
        for i, j, v in zip(rows, cols, values)
    ]
    payload = {"modes": [str(lbl) for lbl in labels], "edges": edges}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
