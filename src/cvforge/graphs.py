"""Graph-theoretic views of the entangled state.

Three layers live here:

* the H-graph: which mode pairs were two-mode squeezed, as a signed
  adjacency matrix over the mode registry;
* the complex graph: the symmetric matrix Z with Im Z > 0 that encodes a
  pure Gaussian state as a quadratic form on position space;
* the cluster adjacency: the real weighted graph left after rotating a
  chosen set of modes by a quarter turn in phase space.

Nullifier construction for the one-dimensional wire lattice and the
bilayer square lattice also lives here, since the nullifier patterns are
what the cluster graph is read against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

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
# Complex graph


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


def cluster_adjacency(
    z: ComplexGraph,
    mask: Iterable | None = None,
    hgraph: HGraph | None = None,
) -> np.ndarray:
    """Real cluster edge weights after rotating the masked modes.

    ``mask`` defaults to all modes at even time bins.  When ``hgraph`` is
    supplied, the mask is required to be an independent set of it: a
    squeezing edge inside the mask would mean the quarter turn acts on
    both ends of an interaction, which is not the intended reading.
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
