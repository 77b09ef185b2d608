"""Mode bookkeeping for the time-frequency lattice.

Every optical mode is addressed by four coordinates: which parametric
source it came from (NOPA 1 or 2), whether it is a signal or idler field,
its comb-line index n (frequency omega_0 + n*Delta), and its time bin.
A ModeRegistry fixes a deterministic dense ordering over these labels so
covariance matrices, graphs and nullifiers all agree on indexing.

The down-conversion pairing rule lives here too: a pump at 2*omega_0 +
d*Delta couples comb line n to line d - n.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from typing import Hashable, Iterable, Iterator, Sequence


class LatticeError(ValueError):
    pass


class Nopa(str, Enum):
    N1 = "n1"
    N2 = "n2"


class Field(str, Enum):
    SIGNAL = "signal"
    IDLER = "idler"


@dataclass(frozen=True, order=True)
class ModeId:
    """One optical mode: (source, polarization role, comb line, time bin)."""

    nopa: Nopa
    field: Field
    freq_index: int
    time_bin: int

    def __post_init__(self) -> None:
        if self.time_bin < 0:
            raise LatticeError(f"time_bin must be >= 0, got {self.time_bin}")

    def shifted(self, delta_k: int, n_bins: int) -> "ModeId":
        """Same mode with its time-bin label advanced cyclically by delta_k."""
        return ModeId(self.nopa, self.field, self.freq_index,
                      (self.time_bin + delta_k) % n_bins)

    def as_dict(self) -> dict:
        return {"nopa": self.nopa.value, "field": self.field.value,
                "freq_index": self.freq_index, "time_bin": self.time_bin}

    def __str__(self) -> str:
        tag = "s" if self.field is Field.SIGNAL else "i"
        return f"{self.nopa.value}:{tag}[{self.freq_index:+d}]@{self.time_bin}"


@dataclass(frozen=True, order=True)
class AncillaId:
    """Extra non-lattice mode (e.g. a logical input appended for MBQC)."""

    name: str

    def as_dict(self) -> dict:
        return {"ancilla": self.name}

    def __str__(self) -> str:
        return f"anc:{self.name}"


@dataclass(frozen=True)
class LatticeConfig:
    """Comb geometry of a lattice.

    n_max bounds the comb-line index (|n| <= n_max) and n_bins counts
    time bins.  Pump offsets and squeezing belong to the sources
    (``pipeline.NopaSettings``), not to the geometry.
    """

    n_max: int
    n_bins: int

    def __post_init__(self) -> None:
        if self.n_max < 0:
            raise LatticeError(f"n_max must be >= 0, got {self.n_max}")
        if self.n_bins < 1:
            raise LatticeError(f"n_bins must be >= 1, got {self.n_bins}")

    @property
    def freq_indices(self) -> range:
        return range(-self.n_max, self.n_max + 1)


def pair_partner(n: int, d: int, n_max: int | None = None) -> int:
    """Comb line paired with n by a pump at offset d: n' = d - n.

    Energy conservation omega_s + omega_i = 2*omega_0 + d*Delta forces
    the partner index. With n_max given, an out-of-range input or
    partner raises instead of being silently accepted.
    """
    partner = d - n
    if n_max is not None:
        if abs(n) > n_max:
            raise LatticeError(f"comb line {n} outside [-{n_max}, {n_max}]")
        if abs(partner) > n_max:
            raise LatticeError(
                f"partner {partner} of line {n} (pump offset {d}) "
                f"outside [-{n_max}, {n_max}]")
    return partner


class ModeRegistry:
    """Immutable bijection between mode labels and dense indices 0..M-1.

    Labels are arbitrary hashable objects (ModeId for lattice modes,
    AncillaId for appended inputs). Ordering is fixed at construction
    and stable across runs for identical input, which is what makes
    exports bit-reproducible.
    """

    def __init__(self, labels: Iterable[Hashable]) -> None:
        self._labels: tuple[Hashable, ...] = tuple(labels)
        self._index: dict[Hashable, int] = {}
        for i, lab in enumerate(self._labels):
            if lab in self._index:
                raise LatticeError(f"duplicate mode label {lab!r}")
            self._index[lab] = i

    @property
    def size(self) -> int:
        return len(self._labels)

    def __len__(self) -> int:
        return len(self._labels)

    def __iter__(self) -> Iterator[Hashable]:
        return iter(self._labels)

    def __contains__(self, label: Hashable) -> bool:
        return label in self._index

    @property
    def labels(self) -> tuple[Hashable, ...]:
        return self._labels

    def index_of(self, label: Hashable) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise LatticeError(f"mode {label!r} not in registry") from None

    def without(self, labels: Iterable[Hashable]) -> "ModeRegistry":
        """Copy with the given labels removed; relative order preserved."""
        drop = set(labels)
        missing = drop - set(self._labels)
        if missing:
            raise LatticeError(f"cannot remove unregistered labels: {missing}")
        kept = [lab for lab in self._labels if lab not in drop]
        return ModeRegistry(kept)

    def with_extra(self, labels: Sequence[Hashable]) -> "ModeRegistry":
        """Copy with new labels appended after the existing ones."""
        return ModeRegistry(self._labels + tuple(labels))

    def select(self, *, nopa: Nopa | None = None, field: Field | None = None,
               freq_index: int | None = None,
               time_bin: int | None = None) -> list[ModeId]:
        """Lattice modes matching every given coordinate, registry order."""
        out = []
        for lab in self._labels:
            if not isinstance(lab, ModeId):
                continue
            if nopa is not None and lab.nopa is not nopa:
                continue
            if field is not None and lab.field is not field:
                continue
            if freq_index is not None and lab.freq_index != freq_index:
                continue
            if time_bin is not None and lab.time_bin != time_bin:
                continue
            out.append(lab)
        return out

    def to_json(self, *, delayed: bool) -> str:
        """Registry as JSON, one row per mode in index order.

        A row's ``edge`` marks an idler at bin 0 of a state whose idler
        combs have been delayed (``delayed``): its content wrapped around
        the ring from the last bin, so it has no predecessor in time.
        """
        rows = []
        for i, lab in enumerate(self._labels):
            d = lab.as_dict() if hasattr(lab, "as_dict") else {"label": str(lab)}
            d["index"] = i
            d["edge"] = (delayed and isinstance(lab, ModeId)
                         and lab.field is Field.IDLER and lab.time_bin == 0)
            rows.append(d)
        return json.dumps({"size": len(self._labels), "modes": rows}, indent=2)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ModeRegistry):
            return NotImplemented
        return self._labels == other._labels

    def __hash__(self) -> int:
        return hash(self._labels)

    def __repr__(self) -> str:
        return f"ModeRegistry(size={len(self._labels)})"


def enumerate_modes(cfg: LatticeConfig, nopas: Iterable[Nopa]) -> ModeRegistry:
    """Registry over the full lattice, ordered (nopa, field, freq, bin).

    The nested-loop order is the canonical ordering every downstream
    structure relies on; do not reorder.
    """
    wanted = set(nopas)
    if not wanted:
        raise LatticeError("at least one NOPA required")
    labels = []
    for nopa in Nopa:
        if nopa not in wanted:
            continue
        for fld in Field:
            for n in cfg.freq_indices:
                for k in range(cfg.n_bins):
                    labels.append(ModeId(nopa, fld, n, k))
    return ModeRegistry(labels)


def rail_line(rail: int, time_bin: int) -> int:
    """Frequency line a wire rail occupies at a given time bin.

    A rail is named by its line at bin zero; each delay-and-interfere
    step bounces it to the partner under the wire's centered pump, so it
    alternates between the starting line and ``-rail``.
    """
    return rail if time_bin % 2 == 0 else -rail
