"""Entanglement verification via nullifier variances.

The lattice is certified by the van Loock-Furusawa style criterion: every
nullifier combination must beat the unit variance bound strictly.  This
module evaluates the full table for a built state, renders it as JSON,
and locates the squeezing threshold where the criterion starts to hold.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Mapping

from .graphs import NullifierSet, nullifiers_1d, nullifiers_3d
from .lattice import enumerate_modes
from .pipeline import PipelineConfig, build, squeezing_db


class VerifyError(ValueError):
    """Verification could not be carried out as requested."""


@dataclass(frozen=True)
class VlfRow:
    """One nullifier's verdict: its variance against the bound."""

    name: str
    family: str
    gap: int
    variance: float
    bound: float
    passed: bool


@dataclass(frozen=True)
class VlfReport:
    """Verdicts for a whole nullifier set.

    ``all_pass`` demands a strict beat of the bound on every row; a
    variance sitting exactly at the bound fails, since the criterion
    certifies entanglement only below it.
    """

    rows: tuple[VlfRow, ...]
    kind: str
    bound: float
    metadata: Mapping = field(default_factory=dict)

    @property
    def all_pass(self) -> bool:
        return all(row.passed for row in self.rows)

    @property
    def min_variance(self) -> float:
        return min(row.variance for row in self.rows)

    @property
    def max_variance(self) -> float:
        return max(row.variance for row in self.rows)

    @property
    def exit_code(self) -> int:
        # 0 all rows pass, 2 any row fails; 1 is reserved for hard errors
        return 0 if self.all_pass else 2

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "bound": self.bound,
            "all_pass": self.all_pass,
            "min_variance": self.min_variance,
            "max_variance": self.max_variance,
            "metadata": dict(self.metadata),
            "rows": [
                {
                    "name": row.name,
                    "family": row.family,
                    "gap": row.gap,
                    "variance": row.variance,
                    "bound": row.bound,
                    "passed": row.passed,
                }
                for row in self.rows
            ],
        }

    def write_json(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json(), fh, indent=2)
            fh.write("\n")


def vlf_check(state, nullifiers: NullifierSet, bound: float = 1.0) -> VlfReport:
    """Evaluate every nullifier variance and compare against the bound."""
    if bound <= 0:
        raise VerifyError(f"bound must be positive, got {bound}")
    rows = []
    for n in nullifiers:
        var = n.variance(state)
        rows.append(
            VlfRow(
                name=n.name,
                family=n.family,
                gap=n.gap,
                variance=var,
                bound=bound,
                passed=var < bound,
            )
        )
    return VlfReport(
        rows=tuple(rows),
        kind=nullifiers.kind,
        bound=bound,
        metadata={"vacuum_level": nullifiers.vacuum_level},
    )


@dataclass(frozen=True)
class ThresholdResult:
    """Squeezing threshold where the worst nullifier crosses the bound."""

    r: float
    db: float
    bound: float
    evaluations: int


def _worst_variance(cfg: PipelineConfig, nulls: NullifierSet, r: float) -> float:
    state, _, _ = build(cfg.with_squeezing(r))
    return max(n.variance(state) for n in nulls)


def find_threshold(
    cfg: PipelineConfig,
    r_lo: float = 0.0,
    r_hi: float = 2.0,
    tol: float = 1e-6,
    bound: float = 1.0,
) -> ThresholdResult:
    """Bisect for the squeezing at which verification starts to pass.

    Requires the bracket to actually straddle the bound: the worst
    variance must sit at or above it at ``r_lo`` and strictly below at
    ``r_hi``.  The worst-case variance is monotone in r for these
    lattices, so plain bisection converges; ``tol`` bounds the width of
    the final bracket in r.
    """
    if not (0 <= r_lo < r_hi):
        raise VerifyError(f"bad bracket [{r_lo}, {r_hi}]")
    if tol <= 0:
        raise VerifyError(f"tolerance must be positive, got {tol}")
    registry = enumerate_modes(cfg.lattice, cfg.nopa_names)
    nulls = nullifiers_1d(registry) if cfg.kind == "1d" else nullifiers_3d(registry)
    lo_val = _worst_variance(cfg, nulls, r_lo)
    hi_val = _worst_variance(cfg, nulls, r_hi)
    evaluations = 2
    if lo_val < bound or hi_val >= bound:
        raise VerifyError(
            f"bracket does not straddle the bound: worst variance is "
            f"{lo_val:.6g} at r={r_lo} and {hi_val:.6g} at r={r_hi} "
            f"(bound {bound})"
        )
    lo, hi = r_lo, r_hi
    while hi - lo > tol:
        mid = (lo + hi) / 2
        evaluations += 1
        if _worst_variance(cfg, nulls, mid) < bound:
            hi = mid
        else:
            lo = mid
    r_star = (lo + hi) / 2
    return ThresholdResult(
        r=r_star, db=squeezing_db(r_star), bound=bound, evaluations=evaluations
    )
