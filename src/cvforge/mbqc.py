"""Measurement-based computation on the wire lattice.

A logical mode rides along a rail of the lattice: each step interferes
it with the next squeezed pair's signal, measures two rotated
quadratures, and leaves the logical content on the idler, transformed by
a single-mode Gaussian gate set by the two angles.  Feedforward
displacements proportional to the measurement outcomes make the result
outcome independent.

The closed-form per-step gate lives here alongside the simulation, so
extracted gates can always be checked against what the angles promise.
Its rotation-squeeze-rotation decomposition and the two-step composition,
which only the tests check against, are in ``tests/oracle.py``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .gaussian import GaussianState, beamsplitter
from .lattice import (
    AncillaId,
    Field,
    ModeId,
    ModeRegistry,
    Nopa,
    rail_line,
)
from .pipeline import PipelineConfig, build_1d
from .tolerances import STRUCTURAL_TOL, SYMMETRY_TOL

INPUT = AncillaId("input")


class MbqcError(ValueError):
    """A measurement-plan or teleportation-step precondition failed."""


# ---------------------------------------------------------------------------
# Closed forms


def identity_angles() -> tuple[float, float]:
    """Angle pair whose teleportation gate is exactly the identity."""
    return 0.0, -math.pi / 2


def sum_diff_angles(theta_a: float, theta_b: float) -> tuple[float, float]:
    return theta_a + theta_b, theta_a - theta_b


def teleport_gate_closed_form(theta_a: float, theta_b: float) -> np.ndarray:
    """Ideal single-step gate for measurement angles (theta_a, theta_b).

    In terms of the sum and difference angles the matrix is
    ``(-1/sin t-) [[sin t+, cos t- - cos t+], [cos t- + cos t+, sin t+]]``
    with determinant exactly one.  Equal angles (mod pi) measure the same
    quadrature twice and leave no gate; that pair is rejected.
    """
    tp, tm = sum_diff_angles(theta_a, theta_b)
    if abs(math.sin(tm)) < 1e-12:
        raise MbqcError(
            f"degenerate angle pair ({theta_a}, {theta_b}): "
            "both homodynes read the same quadrature"
        )
    return (-1.0 / math.sin(tm)) * np.array(
        [
            [math.sin(tp), math.cos(tm) - math.cos(tp)],
            [math.cos(tm) + math.cos(tp), math.sin(tp)],
        ]
    )


# ---------------------------------------------------------------------------
# Measurement plans


@dataclass(frozen=True)
class PlanStep:
    """Angles for one teleportation step, with optional fixed outcomes.

    ``outcome_a``/``outcome_b`` of ``None`` mean the homodyne result is
    sampled from the state's own statistics.
    """

    theta_a: float
    theta_b: float
    outcome_a: float | None = None
    outcome_b: float | None = None

    def __post_init__(self) -> None:
        for value in (self.theta_a, self.theta_b):
            if not math.isfinite(value):
                raise MbqcError(f"non-finite measurement angle {value}")
        # reject degenerate pairs up front rather than mid-run
        teleport_gate_closed_form(self.theta_a, self.theta_b)


def _plan_number(value, key: str, position: int, optional: bool = False):
    """A plan entry that must be a JSON number; ``None`` only if optional."""
    if value is None and optional:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise MbqcError(f"step {position}: {key} must be a number, got {value!r}")
    if not math.isfinite(value):
        raise MbqcError(f"step {position}: {key} must be finite, got {value!r}")
    return float(value)


@dataclass(frozen=True)
class MeasurementPlan:
    """Ordered teleportation steps along one rail of the wire lattice."""

    steps: tuple[PlanStep, ...]
    rail: int = 0

    def __len__(self) -> int:
        return len(self.steps)

    @classmethod
    def from_json(cls, payload) -> "MeasurementPlan":
        """Parse a plan from a JSON document.

        Accepts either a bare list of steps or ``{"rail": n, "steps":
        [...]}``.  Each step carries ``theta_a``/``theta_b`` plus either
        ``"outcome": [a, b]``, ``"outcome": "sample"`` (the default), or
        separate ``outcome_a``/``outcome_b`` entries.  A ``wire_site``
        entry, when present, must match the step's position.
        """
        if isinstance(payload, list):
            rail, raw_steps = 0, payload
        elif isinstance(payload, dict):
            extra = set(payload) - {"rail", "steps"}
            if extra:
                raise MbqcError(f"unknown plan keys {sorted(extra)}")
            rail = payload.get("rail", 0)
            raw_steps = payload.get("steps", [])
        else:
            raise MbqcError("plan must be a JSON list or object")
        if isinstance(rail, bool) or not isinstance(rail, int):
            raise MbqcError(f"rail must be an integer, got {rail!r}")
        steps = []
        allowed = {"wire_site", "theta_a", "theta_b", "outcome",
                   "outcome_a", "outcome_b"}
        for position, raw in enumerate(raw_steps):
            if not isinstance(raw, dict):
                raise MbqcError(f"step {position} is not an object")
            extra = set(raw) - allowed
            if extra:
                raise MbqcError(
                    f"step {position} has unknown keys {sorted(extra)}"
                )
            if "theta_a" not in raw or "theta_b" not in raw:
                raise MbqcError(f"step {position} needs theta_a and theta_b")
            site = raw.get("wire_site", position)
            if isinstance(site, bool) or not isinstance(site, int):
                raise MbqcError(
                    f"step {position}: wire_site must be an integer, got {site!r}"
                )
            if site != position:
                raise MbqcError(
                    f"step {position} names wire site {site}; steps must "
                    "walk the rail in order from site 0"
                )
            out_a = raw.get("outcome_a")
            out_b = raw.get("outcome_b")
            if "outcome" in raw:
                if raw["outcome"] == "sample":
                    pass
                elif (
                    isinstance(raw["outcome"], (list, tuple))
                    and len(raw["outcome"]) == 2
                ):
                    out_a, out_b = raw["outcome"]
                else:
                    raise MbqcError(
                        f"step {position}: outcome must be \"sample\" "
                        "or a two-element list"
                    )
            steps.append(
                PlanStep(
                    _plan_number(raw["theta_a"], "theta_a", position),
                    _plan_number(raw["theta_b"], "theta_b", position),
                    _plan_number(out_a, "outcome_a", position, optional=True),
                    _plan_number(out_b, "outcome_b", position, optional=True),
                )
            )
        return cls(tuple(steps), rail)

    @classmethod
    def load(cls, path) -> "MeasurementPlan":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(json.load(fh))

    def ideal_gates(self) -> list[np.ndarray]:
        return [
            teleport_gate_closed_form(s.theta_a, s.theta_b) for s in self.steps
        ]

    def ideal_product(self) -> np.ndarray:
        out = np.eye(2)
        for gate in self.ideal_gates():
            out = gate @ out
        return out


# ---------------------------------------------------------------------------
# The teleportation step


@dataclass(frozen=True)
class StepRecord:
    """What one executed step did: angles, outcomes, feedforward gains."""

    theta_a: float
    theta_b: float
    outcome_a: float
    outcome_b: float
    gains: tuple[tuple[float, float], tuple[float, float]]
    consumed: tuple
    logical: object

    def to_json(self) -> dict:
        return {
            "theta_a": self.theta_a,
            "theta_b": self.theta_b,
            "outcome_a": self.outcome_a,
            "outcome_b": self.outcome_b,
            "feedforward_gains": [list(row) for row in self.gains],
            "consumed": [str(lbl) for lbl in self.consumed],
            "logical": str(self.logical),
        }


def _restriction_indices(old: ModeRegistry, new: ModeRegistry) -> np.ndarray:
    x_rows = [old.index_of(label) for label in new]
    return np.array(x_rows + [old.size + i for i in x_rows], dtype=np.intp)


def _quad_vector(registry: ModeRegistry, label, theta: float) -> np.ndarray:
    vec = np.zeros(2 * registry.size)
    i = registry.index_of(label)
    vec[i] = math.cos(theta)
    vec[registry.size + i] = math.sin(theta)
    return vec


def teleport_step(
    state: GaussianState,
    input_label,
    signal_label,
    idler_label,
    theta_a: float,
    theta_b: float,
    outcome_a: float | None = None,
    outcome_b: float | None = None,
    rng: np.random.Generator | None = None,
    feedforward: bool = True,
) -> tuple[GaussianState, StepRecord]:
    """Teleport the logical mode through one squeezed pair.

    Interferes the input with the pair's signal (input on the difference
    port), homodynes the input at ``theta_a`` and the signal at
    ``theta_b``, and applies outcome-proportional displacements to the
    idler, which becomes the new logical mode.  The feedforward gains
    are computed analytically from the pre-measurement covariance, so
    after displacement the output mean is exactly outcome independent.
    """
    # reject a gate-less angle pair before consuming anything
    teleport_gate_closed_form(theta_a, theta_b)
    registry = state.registry
    for label in (input_label, signal_label, idler_label):
        if label not in registry:
            raise MbqcError(f"mode {label} is missing or already consumed")
    if len({input_label, signal_label, idler_label}) != 3:
        raise MbqcError("step needs three distinct modes")

    state.apply(
        beamsplitter(
            registry.index_of(input_label), registry.index_of(signal_label)
        )
    )

    # analytic outcome response, computed as the measurements happen
    c_a = _quad_vector(registry, input_label, theta_a)
    b_a = state.cov @ c_a
    v_a = float(c_a @ b_a)
    mid, value_a = state.homodyne(
        input_label, theta_a, outcome=outcome_a, rng=rng
    )
    keep_a = _restriction_indices(registry, mid.registry)
    b_a_rest = b_a[keep_a]

    c_b = _quad_vector(mid.registry, signal_label, theta_b)
    b_b = mid.cov @ c_b
    v_b = float(c_b @ b_b)
    overlap = float(c_b @ b_a_rest)
    out_state, value_b = mid.homodyne(
        signal_label, theta_b, outcome=outcome_b, rng=rng
    )
    keep_b = _restriction_indices(mid.registry, out_state.registry)

    d_a = b_a_rest / v_a - b_b * (overlap / (v_a * v_b))
    d_b = b_b / v_b
    j = out_state.registry.index_of(idler_label)
    rows = np.array([j, out_state.n_modes + j], dtype=np.intp)
    response = np.column_stack([d_a[keep_b][rows], d_b[keep_b][rows]])
    gains = -response

    if feedforward:
        shift = gains @ np.array([value_a, value_b])
        out_state.displace(idler_label, float(shift[0]), float(shift[1]))

    record = StepRecord(
        theta_a=theta_a,
        theta_b=theta_b,
        outcome_a=value_a,
        outcome_b=value_b,
        gains=tuple(tuple(float(x) for x in row) for row in gains),
        consumed=(input_label, signal_label),
        logical=idler_label,
    )
    return out_state, record


# ---------------------------------------------------------------------------
# Plans over the wire lattice


@dataclass(frozen=True)
class PlanResult:
    """Outcome of running a plan: final state plus per-step records."""

    state: GaussianState
    logical: object
    records: tuple[StepRecord, ...]
    plan: MeasurementPlan

    def write_records(self, path) -> None:
        """One JSON object per line, one line per executed step."""
        with open(path, "w", encoding="utf-8") as fh:
            for record in self.records:
                fh.write(json.dumps(record.to_json()) + "\n")


def wire_pair_labels(rail: int, site: int) -> tuple[ModeId, ModeId]:
    """Signal and idler consumed by a plan step at a wire site."""
    line = rail_line(rail, site)
    return (
        ModeId(Nopa.N1, Field.SIGNAL, line, site),
        ModeId(Nopa.N1, Field.IDLER, -line, site),
    )


def _independent_pair(
    state: GaussianState, site: int, signal, idler
) -> tuple[np.ndarray, np.ndarray]:
    """Mean and 4x4 covariance of one squeezed pair, checked independent.

    Returned in window order ``(x_s, x_i, p_s, p_i)``.  The pair's rows
    must carry no covariance with any other mode, to ``STRUCTURAL_TOL``
    relative to the pair's own scale, and its block must be symmetric to
    ``SYMMETRY_TOL``: that independence is what lets a step see only the
    logical mode and this pair.
    """
    registry = state.registry
    for label in (signal, idler):
        if label not in registry:
            raise MbqcError(f"mode {label} is missing or already consumed")
    m = state.n_modes
    i, j = registry.index_of(signal), registry.index_of(idler)
    rows = np.array([i, j, m + i, m + j], dtype=np.intp)
    strip = state.cov[rows]
    block = strip[:, rows]
    scale = max(1.0, float(np.max(np.abs(block))))
    strip[:, rows] = 0.0
    cross = float(np.max(np.abs(strip)))
    if cross > STRUCTURAL_TOL * scale:
        raise MbqcError(
            f"step {site}: pair {signal} / {idler} has covariance "
            f"{cross:.3e} with other modes; run_plan needs a wire stopped "
            "at the squeezed stage, whose pairs are independent"
        )
    asymmetry = float(np.max(np.abs(block - block.T)))
    if asymmetry > SYMMETRY_TOL * scale:
        raise MbqcError(
            f"step {site}: covariance of pair {signal} / {idler} is "
            f"asymmetric by {asymmetry:.3e}"
        )
    return state.mean[rows], block


def run_plan(
    state: GaussianState,
    plan: MeasurementPlan,
    input_mean: tuple[float, float] = (0.0, 0.0),
    rng: np.random.Generator | None = None,
    input_label=INPUT,
) -> PlanResult:
    """Walk a measurement plan down one rail of the squeezed wire.

    ``state`` must be a wire build stopped at the ``squeezed`` stage:
    the per-step beamsplitter is exactly the lattice's own entangling
    step, applied just before each pair is consumed.  The input mode,
    displaced to ``input_mean``, is teleported through one pair per
    step; the final logical mode is the last pair's idler (or the input
    itself, appended as an ancilla, for an empty plan).  ``rng`` is
    required when a step samples an outcome.

    As on time-multiplexed hardware, a step holds only three modes: the
    logical mode and the pair it consumes, gathered from ``state`` into
    a window on which :func:`teleport_step` runs.  Each pair must be
    uncorrelated with every other mode (checked; :class:`MbqcError`
    otherwise), so conditioning on its homodynes leaves the rest of the
    lattice untouched.  The result is written back once at the end, and
    ``state`` itself is not modified.
    """
    registry = state.registry
    if input_label in registry:
        raise MbqcError(f"registry already contains {input_label}")
    n_bins = 0
    for mode in registry:
        if isinstance(mode, ModeId):
            n_bins = max(n_bins, mode.time_bin + 1)
    if len(plan) > n_bins:
        raise MbqcError(
            f"plan has {len(plan)} steps but the wire only spans "
            f"{n_bins} time bins"
        )

    logical = GaussianState(
        np.array(input_mean, dtype=float),
        np.eye(2) / 2,
        ModeRegistry([input_label]),
    )
    # the pair's slots in the window (x_L, x_s, x_i, p_L, p_s, p_i)
    pair = np.array([1, 2, 4, 5], dtype=np.intp)
    records: list[StepRecord] = []
    for site, step in enumerate(plan.steps):
        signal, idler = wire_pair_labels(plan.rail, site)
        pair_mean, pair_cov = _independent_pair(state, site, signal, idler)
        window = logical.append_vacuum([signal, idler])
        window.mean[pair] = pair_mean
        window.cov[np.ix_(pair, pair)] = pair_cov
        logical, record = teleport_step(
            window,
            logical.registry.labels[0],
            signal,
            idler,
            step.theta_a,
            step.theta_b,
            outcome_a=step.outcome_a,
            outcome_b=step.outcome_b,
            rng=rng,
        )
        records.append(record)

    label = logical.registry.labels[0]
    if records:
        # every consumed label but the first, which is the input ancilla
        consumed = [lbl for rec in records for lbl in rec.consumed][1:]
        out = state.marginalize(consumed)
    else:
        out = state.append_vacuum([input_label])
    # the pair checks make the logical mode independent of every other mode
    k = out.registry.index_of(label)
    rows = np.array([k, out.n_modes + k], dtype=np.intp)
    out.cov[rows, :] = 0.0
    out.cov[:, rows] = 0.0
    out.cov[np.ix_(rows, rows)] = logical.cov
    out.mean[rows] = logical.mean
    return PlanResult(
        state=out, logical=label, records=tuple(records), plan=plan
    )


# ---------------------------------------------------------------------------
# Gate extraction


@dataclass(frozen=True)
class EffectiveGate:
    """Symplectic part and added noise of an executed teleportation.

    ``matrix`` is extracted from the mean response to basis input
    displacements; ``noise`` is the output covariance minus what the
    extracted matrix alone would produce from vacuum.  ``ideal`` is the
    closed-form gate the angles promise; ``residual`` the worst entry
    disagreement, which shrinks as e^-2r.
    """

    matrix: np.ndarray
    noise: np.ndarray
    ideal: np.ndarray
    residual: float
    r: float
    metadata: Mapping = field(default_factory=dict)

    @property
    def det(self) -> float:
        return float(np.linalg.det(self.matrix))

    def to_json(self) -> dict:
        return {
            "matrix": self.matrix.tolist(),
            "noise": self.noise.tolist(),
            "ideal": self.ideal.tolist(),
            "residual": self.residual,
            "det": self.det,
            "ideal_det": float(np.linalg.det(self.ideal)),
            "r": self.r,
            "metadata": dict(self.metadata),
        }


def _wire_probe(
    wire: GaussianState, plan: MeasurementPlan, input_mean: tuple[float, float]
) -> GaussianState:
    result = run_plan(wire, plan, input_mean=input_mean)
    spectators = [lbl for lbl in result.state.registry if lbl != result.logical]
    return result.state.marginalize(spectators)


def extract_gate(
    r: float, plan: MeasurementPlan, r_p: float | None = None
) -> EffectiveGate:
    """Probe a plan's composed action on a freshly built wire.

    The wire is squeezed by ``r`` in x and ``r_p`` (default ``r``) in p,
    as :meth:`PipelineConfig.one_d` takes them.  All outcomes are pinned
    to zero during probing: three mean probes give the symplectic part,
    a vacuum run gives the noise.  The plan's own outcomes are ignored,
    since a sampled outcome would make the mean differences meaningless.
    """
    pinned = MeasurementPlan(
        tuple(
            PlanStep(s.theta_a, s.theta_b, 0.0, 0.0) for s in plan.steps
        ),
        plan.rail,
    )
    if len(pinned) == 0:
        raise MbqcError("cannot extract a gate from an empty plan")
    cfg = PipelineConfig.one_d(abs(pinned.rail), max(len(pinned), 2), r, r_p)
    wire, _, _ = build_1d(cfg, stage="squeezed")
    base = _wire_probe(wire, pinned, (0.0, 0.0))
    push_x = _wire_probe(wire, pinned, (1.0, 0.0))
    push_p = _wire_probe(wire, pinned, (0.0, 1.0))
    label = base.registry.labels[0]
    b0 = np.array(base.mode_quadratures(label))
    col_x = np.array(push_x.mode_quadratures(label)) - b0
    col_p = np.array(push_p.mode_quadratures(label)) - b0
    matrix = np.column_stack([col_x, col_p])
    noise = base.cov - matrix @ (np.eye(2) / 2) @ matrix.T
    noise = (noise + noise.T) / 2
    ideal = pinned.ideal_product()
    residual = float(np.max(np.abs(matrix - ideal)))
    return EffectiveGate(
        matrix=matrix,
        noise=noise,
        ideal=ideal,
        residual=residual,
        r=r,
        metadata={
            "steps": len(pinned),
            "rail": pinned.rail,
            "r_p": cfg.nopas[0].r_p,
            "angles": [[s.theta_a, s.theta_b] for s in pinned.steps],
        },
    )


# ---------------------------------------------------------------------------
# Macronodes


@dataclass(frozen=True)
class Macronode:
    """A signal-idler pair at one lattice site, tagged with its role.

    Roles alternate down the rail: even time bins carry the logical wire,
    odd bins couple neighboring wires.  The tag is presentational; the
    basis change itself treats every site identically.
    """

    signal: ModeId
    idler: ModeId
    role: str = "wire"

    def __post_init__(self) -> None:
        if (
            self.signal.nopa != self.idler.nopa
            or self.signal.freq_index != self.idler.freq_index
            or self.signal.time_bin != self.idler.time_bin
        ):
            raise MbqcError(
                f"macronode must pair one site's signal and idler, got "
                f"{self.signal} / {self.idler}"
            )


def macronode_map(
    state: GaussianState, inverse: bool = False
) -> tuple[GaussianState, tuple[Macronode, ...]]:
    """Re-express a lattice state in the distributed sum/difference basis.

    Each site's signal and idler slots are interfered: the signal slot
    ends up holding their difference, the idler slot their sum.  Applying
    the map with ``inverse=True`` undoes it exactly; applying the forward
    map twice is a half turn, i.e. the original basis up to a swap of the
    two slots and a sign.
    """
    registry = state.registry
    sites: dict[tuple, dict[Field, ModeId]] = {}
    for mode in registry:
        if not isinstance(mode, ModeId):
            raise MbqcError(
                f"macronode pairing needs a pure lattice register, found {mode}"
            )
        key = (mode.nopa, mode.freq_index, mode.time_bin)
        sites.setdefault(key, {})[mode.field] = mode
    macronodes = []
    out = state.copy()
    for key in sorted(sites, key=lambda k: (k[0].value, k[1], k[2])):
        pair = sites[key]
        if set(pair) != {Field.SIGNAL, Field.IDLER}:
            raise MbqcError(
                f"unpaired macronode at source {key[0].value}, "
                f"line {key[1]}, bin {key[2]}"
            )
        signal, idler = pair[Field.SIGNAL], pair[Field.IDLER]
        i, j = registry.index_of(signal), registry.index_of(idler)
        out.apply(beamsplitter(j, i) if inverse else beamsplitter(i, j))
        macronodes.append(
            Macronode(
                signal,
                idler,
                role="wire" if signal.time_bin % 2 == 0 else "control",
            )
        )
    return out, tuple(macronodes)
