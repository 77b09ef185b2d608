"""Lattice assembly pipelines.

A pipeline turns parametric-oscillator output into an entangled lattice
in three passive steps: squeeze frequency pairs, delay the idler comb by
one time bin, interfere signal against idler at every site.  One source
gives the wire lattice; two sources with opposite pump offsets, cross
connected with a parity-alternating interferometer, give the bilayer
square lattice.

Every build is recorded as a trace of elementary operations.  Replaying
a trace reproduces the state bit for bit, and the trace is also what the
graph layer reads to recover which pairs were squeezed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Mapping, Sequence

import numpy as np

from .gaussian import (
    GaussianState,
    SymplecticOp,
    beamsplitter,
    delay_relabel,
    phase_rotate,
    two_mode_squeeze,
)
from .lattice import (
    Field,
    LatticeConfig,
    ModeId,
    ModeRegistry,
    Nopa,
    enumerate_modes,
    pair_partner,
)

LN10 = math.log(10.0)

STAGES_1D = ("squeezed", "delayed", "full")
STAGES_3D = ("squeezed", "delayed", "dual_rail", "full")


class PipelineError(ValueError):
    """A pipeline configuration or build step is invalid."""


def squeezing_db(r: float) -> float:
    """Convert a squeezing parameter to decibels of noise reduction."""
    return 20.0 * r / LN10


@dataclass(frozen=True)
class NopaSettings:
    """One parametric source: its pump offset and squeezing strengths.

    ``r_signal`` sets how strongly the position-sum quadratures are
    squeezed, ``r_idler`` the momentum side; leaving the latter unset
    makes the source symmetric.
    """

    pump_offset: int
    r_signal: float
    r_idler: float | None = None

    def __post_init__(self) -> None:
        for r in (self.r_signal, self.r_idler):
            if r is not None and not (math.isfinite(r) and r >= 0):
                raise PipelineError(f"squeezing must be finite and nonnegative, got {r}")

    @property
    def r_x(self) -> float:
        return self.r_signal

    @property
    def r_p(self) -> float:
        return self.r_signal if self.r_idler is None else self.r_idler


@dataclass(frozen=True)
class PipelineConfig:
    """Full description of a lattice build.

    ``kind`` is ``"1d"`` (one source, wire lattice) or ``"3d"`` (two
    sources, bilayer lattice).  The bilayer kind wants opposite unit
    pump offsets; ``allow_same_pump`` opens the degenerate variant where
    both sources share one pump, used as a control case.
    """

    kind: str
    n_max: int
    n_bins: int
    nopas: tuple[NopaSettings, ...]
    allow_same_pump: bool = False

    def __post_init__(self) -> None:
        if self.kind not in ("1d", "3d"):
            raise PipelineError(f"unknown pipeline kind {self.kind!r}")
        if self.n_max < 0:
            raise PipelineError(f"n_max must be nonnegative, got {self.n_max}")
        if self.n_bins < 2:
            raise PipelineError(f"need at least two time bins, got {self.n_bins}")
        nopas = tuple(self.nopas)
        object.__setattr__(self, "nopas", nopas)
        if self.kind == "1d":
            if len(nopas) != 1:
                raise PipelineError("wire lattice takes exactly one source")
            if nopas[0].pump_offset != 0:
                raise PipelineError(
                    "wire lattice requires a centered pump (offset 0); "
                    f"got {nopas[0].pump_offset}"
                )
        else:
            if len(nopas) != 2:
                raise PipelineError("bilayer lattice takes exactly two sources")
            if self.n_bins % 2 != 0:
                raise PipelineError(
                    f"bilayer lattice needs an even bin count, got {self.n_bins}"
                )
            d1, d2 = nopas[0].pump_offset, nopas[1].pump_offset
            if d1 == d2:
                if not self.allow_same_pump:
                    raise PipelineError(
                        "both sources share one pump; set allow_same_pump "
                        "to build this control case deliberately"
                    )
            elif d1 + d2 != 0:
                raise PipelineError(
                    f"pump offsets must be opposite, got ({d1}, {d2})"
                )
            elif d1 < d2:
                raise PipelineError(
                    "list the source with the positive pump offset first"
                )

    @classmethod
    def one_d(
        cls,
        n_max: int,
        n_bins: int,
        r: float,
        r_p: float | None = None,
    ) -> "PipelineConfig":
        return cls(
            kind="1d",
            n_max=n_max,
            n_bins=n_bins,
            nopas=(NopaSettings(0, r, r_p),),
        )

    @classmethod
    def three_d(
        cls,
        n_max: int,
        n_bins: int,
        r: float,
        r_p: float | None = None,
        offsets: tuple[int, int] = (1, -1),
        allow_same_pump: bool = False,
    ) -> "PipelineConfig":
        return cls(
            kind="3d",
            n_max=n_max,
            n_bins=n_bins,
            nopas=(
                NopaSettings(offsets[0], r, r_p),
                NopaSettings(offsets[1], r, r_p),
            ),
            allow_same_pump=allow_same_pump,
        )

    def with_squeezing(self, r: float) -> "PipelineConfig":
        """Same build with every source set to symmetric squeezing r."""
        return replace(
            self,
            nopas=tuple(
                NopaSettings(s.pump_offset, r, None) for s in self.nopas
            ),
        )

    @property
    def lattice(self) -> LatticeConfig:
        return LatticeConfig(self.n_max, self.n_bins)

    @property
    def nopa_names(self) -> tuple[Nopa, ...]:
        return (Nopa.N1,) if self.kind == "1d" else (Nopa.N1, Nopa.N2)


@dataclass(frozen=True)
class OpRecord:
    """One elementary operation, addressed by mode labels.

    ``kind`` is one of ``tms`` (two-mode squeeze), ``rot`` (phase
    rotation), ``delay`` (cyclic comb delay) or ``bs`` (balanced
    beamsplitter, first label on the difference port).
    """

    kind: str
    labels: tuple
    params: Mapping = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "kind": self.kind,
            "labels": [lbl.as_dict() for lbl in self.labels],
            "params": {
                k: (str(v) if isinstance(v, (Nopa, Field)) else v)
                for k, v in self.params.items()
            },
        }


@dataclass(frozen=True)
class PipelineTrace:
    """Replayable record of a build.

    ``stage_counts`` marks how many records each named stage ends at, in
    stage order; ``rejected_pairs`` lists, per source, the signal lines
    whose pump partner fell outside the frequency window and which were
    therefore left unsqueezed.
    """

    records: tuple[OpRecord, ...]
    registry: ModeRegistry
    stage: str
    stage_counts: Mapping[str, int]
    rejected_pairs: Mapping[str, tuple[int, ...]]
    metadata: Mapping = field(default_factory=dict)

    def records_through(self, stage: str) -> tuple[OpRecord, ...]:
        if stage not in self.stage_counts:
            raise PipelineError(
                f"unknown stage {stage!r}; trace has {list(self.stage_counts)}"
            )
        return self.records[: self.stage_counts[stage]]

    def to_json(self) -> dict:
        return {
            "stage": self.stage,
            "stage_counts": dict(self.stage_counts),
            "rejected_pairs": {k: list(v) for k, v in self.rejected_pairs.items()},
            "metadata": dict(self.metadata),
            "records": [rec.as_dict() for rec in self.records],
        }


def _materialize(record: OpRecord, registry: ModeRegistry) -> SymplecticOp:
    if record.kind == "tms":
        a, b = record.labels
        return two_mode_squeeze(
            registry.index_of(a),
            registry.index_of(b),
            record.params["r"],
            record.params["r_p"],
        )
    if record.kind == "rot":
        (label,) = record.labels
        return phase_rotate(registry.index_of(label), record.params["phi"])
    if record.kind == "delay":
        return delay_relabel(
            registry,
            Field(record.params["field"]),
            Nopa(record.params["nopa"]),
            record.params["delta_k"],
        )
    if record.kind == "bs":
        a, b = record.labels
        return beamsplitter(registry.index_of(a), registry.index_of(b))
    raise PipelineError(f"unknown record kind {record.kind!r}")


def replay(trace: PipelineTrace, stage: str | None = None) -> GaussianState:
    """Rebuild the state by applying the trace to vacuum.

    The same code path the builders use, so a replay is bit-identical to
    the original build.
    """
    state = GaussianState.vacuum(trace.registry)
    records = trace.records if stage is None else trace.records_through(stage)
    for record in records:
        state.apply(_materialize(record, trace.registry))
    return state


def passive_layer_matrix(trace: PipelineTrace) -> np.ndarray:
    """Mode-space matrix of everything after the squeezing layer.

    Delays are permutations, half-turn rotations are sign flips, and the
    balanced beamsplitter mixes two rows; all act identically on both
    quadratures, so the whole passive layer is one real signed-orthogonal
    matrix O with out = O @ in.  Conjugating the squeezing-layer graph by
    O is an independent route to the final edge weights.
    """
    registry = trace.registry
    n = registry.size
    out = np.eye(n)
    for record in trace.records:
        if record.kind == "tms":
            continue
        if record.kind == "rot":
            phi = float(record.params["phi"])
            if not math.isclose(abs(math.remainder(phi, 2 * math.pi)), math.pi):
                raise PipelineError(
                    f"rotation by {phi} has no real mode-space action"
                )
            out[registry.index_of(record.labels[0]), :] *= -1.0
        elif record.kind == "delay":
            op = _materialize(record, registry)
            permuted = np.empty_like(out)
            permuted[op.perm, :] = out
            out = permuted
        elif record.kind == "bs":
            i = registry.index_of(record.labels[0])
            j = registry.index_of(record.labels[1])
            row_i = (out[i, :] - out[j, :]) / math.sqrt(2.0)
            row_j = (out[i, :] + out[j, :]) / math.sqrt(2.0)
            out[i, :] = row_i
            out[j, :] = row_j
        else:
            raise PipelineError(f"unknown record kind {record.kind!r}")
    return out


def delay_permutation(trace: PipelineTrace) -> np.ndarray:
    """Composed mode permutation of all delay records, ``dest[i] = perm[i]``.

    Delays are the only relabeling steps; folding them into the
    squeezing graph puts that graph in the lattice's final site labels,
    where each edge straddles consecutive time bins.
    """
    n = trace.registry.size
    perm = np.arange(n, dtype=np.intp)
    for record in trace.records:
        if record.kind != "delay":
            continue
        op = _materialize(record, trace.registry)
        perm = op.perm[perm]
    return perm


def _squeeze_records(
    cfg: PipelineConfig, registry: ModeRegistry
) -> tuple[list[OpRecord], dict[str, tuple[int, ...]]]:
    records: list[OpRecord] = []
    rejected: dict[str, tuple[int, ...]] = {}
    freqs = list(cfg.lattice.freq_indices)
    for nopa, settings in zip(cfg.nopa_names, cfg.nopas):
        missed: list[int] = []
        for k in range(cfg.n_bins):
            for n in freqs:
                partner = pair_partner(n, settings.pump_offset)
                if abs(partner) > cfg.n_max:
                    if k == 0:
                        missed.append(n)
                    continue
                records.append(
                    OpRecord(
                        "tms",
                        (
                            ModeId(nopa, Field.SIGNAL, n, k),
                            ModeId(nopa, Field.IDLER, partner, k),
                        ),
                        {"r": settings.r_x, "r_p": settings.r_p},
                    )
                )
        rejected[nopa.value] = tuple(missed)
    return records, rejected


def _delay_record(nopa: Nopa, delta_k: int = 1) -> OpRecord:
    return OpRecord(
        "delay",
        (),
        {"field": Field.IDLER.value, "nopa": nopa.value, "delta_k": delta_k},
    )


def _finish_build(
    cfg: PipelineConfig,
    registry: ModeRegistry,
    records: list[OpRecord],
    boundaries: dict[str, int],
    rejected: dict[str, tuple[int, ...]],
    stage: str,
    stage_order: Sequence[str],
) -> tuple[GaussianState, ModeRegistry, PipelineTrace]:
    if stage not in stage_order:
        raise PipelineError(f"unknown stage {stage!r}; expected one of {stage_order}")
    trace = PipelineTrace(
        records=tuple(records[: boundaries[stage]]),
        registry=registry,
        stage=stage,
        stage_counts={
            s: boundaries[s]
            for s in stage_order
            if stage_order.index(s) <= stage_order.index(stage)
        },
        rejected_pairs=rejected,
        metadata={
            "kind": cfg.kind,
            "n_max": cfg.n_max,
            "n_bins": cfg.n_bins,
            "pump_offsets": [s.pump_offset for s in cfg.nopas],
            "r_signal": [s.r_x for s in cfg.nopas],
            "r_idler": [s.r_p for s in cfg.nopas],
        },
    )
    return replay(trace), registry, trace


def build_1d(
    cfg: PipelineConfig, stage: str = "full"
) -> tuple[GaussianState, ModeRegistry, PipelineTrace]:
    """Assemble the wire lattice, stopping at the requested stage.

    Stages: ``squeezed`` (pairwise squeezing only), ``delayed`` (idler
    comb shifted one bin around the ring), ``full`` (signal and idler
    interfered at every site).
    """
    if cfg.kind != "1d":
        raise PipelineError(f"build_1d got a {cfg.kind!r} configuration")
    registry = enumerate_modes(cfg.lattice, [Nopa.N1])
    records, rejected = _squeeze_records(cfg, registry)
    boundaries = {"squeezed": len(records)}
    records.append(_delay_record(Nopa.N1))
    boundaries["delayed"] = len(records)
    for k in range(cfg.n_bins):
        for n in cfg.lattice.freq_indices:
            records.append(
                OpRecord(
                    "bs",
                    (
                        ModeId(Nopa.N1, Field.SIGNAL, n, k),
                        ModeId(Nopa.N1, Field.IDLER, n, k),
                    ),
                )
            )
    boundaries["full"] = len(records)
    return _finish_build(
        cfg, registry, records, boundaries, rejected, stage, STAGES_1D
    )


def build_3d(
    cfg: PipelineConfig, stage: str = "full"
) -> tuple[GaussianState, ModeRegistry, PipelineTrace]:
    """Assemble the bilayer square lattice, stopping at the requested stage.

    Stages: ``squeezed`` (both sources squeezed, second-source pump phase
    folded into its partner's idlers as half-turn rotations), ``delayed``
    (both idler combs shifted), ``dual_rail`` (each source interfered
    internally), ``full`` (sources cross-connected, pairing alternating
    with time-bin parity).
    """
    if cfg.kind != "3d":
        raise PipelineError(f"build_3d got a {cfg.kind!r} configuration")
    registry = enumerate_modes(cfg.lattice, [Nopa.N1, Nopa.N2])
    records, rejected = _squeeze_records(cfg, registry)
    for n in cfg.lattice.freq_indices:
        for k in range(cfg.n_bins):
            records.append(
                OpRecord(
                    "rot",
                    (ModeId(Nopa.N1, Field.IDLER, n, k),),
                    {"phi": math.pi},
                )
            )
    boundaries = {"squeezed": len(records)}
    records.append(_delay_record(Nopa.N1))
    records.append(_delay_record(Nopa.N2))
    boundaries["delayed"] = len(records)
    for nopa in (Nopa.N1, Nopa.N2):
        for k in range(cfg.n_bins):
            for n in cfg.lattice.freq_indices:
                records.append(
                    OpRecord(
                        "bs",
                        (
                            ModeId(nopa, Field.SIGNAL, n, k),
                            ModeId(nopa, Field.IDLER, n, k),
                        ),
                    )
                )
    boundaries["dual_rail"] = len(records)
    for k in range(cfg.n_bins):
        for n in cfg.lattice.freq_indices:
            s1 = ModeId(Nopa.N1, Field.SIGNAL, n, k)
            i1 = ModeId(Nopa.N1, Field.IDLER, n, k)
            s2 = ModeId(Nopa.N2, Field.SIGNAL, n, k)
            i2 = ModeId(Nopa.N2, Field.IDLER, n, k)
            if k % 2 == 0:
                records.append(OpRecord("bs", (s1, i2)))
                records.append(OpRecord("bs", (i1, s2)))
            else:
                records.append(OpRecord("bs", (i2, s1)))
                records.append(OpRecord("bs", (s2, i1)))
    boundaries["full"] = len(records)
    return _finish_build(
        cfg, registry, records, boundaries, rejected, stage, STAGES_3D
    )


def build(cfg: PipelineConfig, stage: str = "full"):
    """Dispatch to the builder matching the configuration's kind."""
    return build_1d(cfg, stage) if cfg.kind == "1d" else build_3d(cfg, stage)
