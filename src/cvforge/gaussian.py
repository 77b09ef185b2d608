"""Gaussian phase-space engine.

States are (mean, covariance) pairs over 2M quadratures in block order
x_1..x_M, p_1..p_M with hbar = 1, so vacuum variance is 1/2 and the
symplectic form is Omega = [[0, I], [-I, 0]].

Operations are symplectic maps stored sparsely: a local matrix over the
few modes they touch, or a pure mode permutation. Applying one updates
mean -> S mean and cov -> S cov S^T restricted to the touched rows and
columns, then re-symmetrizes, which keeps million-entry covariances
cheap for pipelines whose ops touch at most four modes.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Sequence

import numpy as np

from .lattice import Field, LatticeError, ModeRegistry, Nopa
from .tolerances import DEGENERATE_VARIANCE, PHYSICS_TOL

Axis = str  # "x" or "p"
Term = tuple[Hashable, Axis, float]


class DimensionError(ValueError):
    pass


class DegenerateMeasurementError(ValueError):
    """Homodyne on a quadrature whose marginal variance is numerically zero."""


def omega_matrix(n_modes: int) -> np.ndarray:
    """Symplectic form [[0, I], [-I, 0]] for n_modes modes."""
    eye = np.eye(n_modes)
    zero = np.zeros((n_modes, n_modes))
    return np.block([[zero, eye], [-eye, zero]])


class SymplecticOp:
    """Sparse symplectic transformation.

    Two storage forms: a local 2s x 2s matrix over an ordered support of
    s modes (local quadrature order x_s0..x_s(s-1), p_s0..p_s(s-1)),
    or a full mode permutation dest[i] = where mode i's content goes.
    """

    def __init__(self, name: str, *, support: Sequence[int] | None = None,
                 block: np.ndarray | None = None,
                 perm: np.ndarray | None = None,
                 params: dict | None = None) -> None:
        self.name = name
        self.params = dict(params or {})
        if (block is None) == (perm is None):
            raise DimensionError("exactly one of block/perm required")
        if block is not None:
            if support is None:
                raise DimensionError("block op requires a support")
            self.support = tuple(int(i) for i in support)
            if len(set(self.support)) != len(self.support):
                raise DimensionError(f"duplicate modes in support {self.support}")
            s = len(self.support)
            block = np.asarray(block, dtype=float)
            if block.shape != (2 * s, 2 * s):
                raise DimensionError(
                    f"block shape {block.shape} does not match support size {s}")
            self.block = block
            self.perm = None
        else:
            self.support = None
            self.block = None
            self.perm = np.asarray(perm, dtype=np.intp)
            if sorted(self.perm.tolist()) != list(range(len(self.perm))):
                raise DimensionError("perm is not a permutation")

    @property
    def is_permutation(self) -> bool:
        return self.perm is not None

    def _rows(self, n_modes: int) -> np.ndarray:
        sup = np.asarray(self.support, dtype=np.intp)
        if sup.size and sup.max() >= n_modes:
            raise DimensionError(
                f"support {self.support} exceeds mode count {n_modes}")
        return np.concatenate([sup, n_modes + sup])

    def __repr__(self) -> str:
        if self.is_permutation:
            return f"SymplecticOp({self.name}, perm over {len(self.perm)} modes)"
        return f"SymplecticOp({self.name}, support={self.support})"


def two_mode_squeeze(i: int, j: int, r: float,
                     r_p: float | None = None) -> SymplecticOp:
    """Two-mode squeezer correlating modes i and j.

    On vacuum: var(x_i - x_j) = e^{-2r} and var(p_i + p_j) = e^{-2r_p},
    with the conjugate combinations antisqueezed. r_p defaults to r
    (one pump drives both families); distinct values stay symplectic.
    """
    if i == j:
        raise DimensionError("two_mode_squeeze needs distinct modes")
    if r < 0 or (r_p is not None and r_p < 0):
        raise ValueError("squeezing parameter must be >= 0")
    rp = r if r_p is None else r_p
    a = (np.exp(rp) + np.exp(-r)) / 2
    b = (np.exp(rp) - np.exp(-r)) / 2
    g = (np.exp(r) + np.exp(-rp)) / 2
    d = -(np.exp(r) - np.exp(-rp)) / 2
    block = np.array([[a, b, 0, 0],
                      [b, a, 0, 0],
                      [0, 0, g, d],
                      [0, 0, d, g]])
    return SymplecticOp("tms", support=(i, j), block=block,
                        params={"r": float(r), "r_p": float(rp)})


def beamsplitter(i: int, j: int) -> SymplecticOp:
    """Balanced beamsplitter; the first argument carries the minus port.

    a_i' = (a_i - a_j)/sqrt2, a_j' = (a_i + a_j)/sqrt2, identically on
    x and p.
    """
    if i == j:
        raise DimensionError("beamsplitter needs distinct modes")
    h = np.array([[1.0, -1.0], [1.0, 1.0]]) / np.sqrt(2.0)
    block = np.zeros((4, 4))
    block[:2, :2] = h
    block[2:, 2:] = h
    return SymplecticOp("bs", support=(i, j), block=block)


def phase_rotate(i: int, phi: float) -> SymplecticOp:
    """Phase-space rotation: x -> x cos(phi) - p sin(phi), p -> x sin(phi) + p cos(phi)."""
    c, s = np.cos(phi), np.sin(phi)
    block = np.array([[c, -s], [s, c]])
    return SymplecticOp("rot", support=(i,), block=block,
                        params={"phi": float(phi)})


def delay_relabel(registry: ModeRegistry, field: Field, nopa: Nopa,
                  delta_k: int) -> SymplecticOp:
    """Advance the time-bin label of every matching mode by delta_k.

    The shift is cyclic over the configured bins, so the result is a
    genuine permutation (hence exactly symplectic): content from the last
    bins wraps around to the first ones.
    """
    if delta_k < 1:
        raise ValueError(f"delta_k must be >= 1, got {delta_k}")
    matching = registry.select(nopa=nopa, field=field)
    if not matching:
        raise LatticeError(f"no {nopa.value}/{field.value} modes in registry")
    n_bins = 1 + max(m.time_bin for m in matching)
    dest = np.arange(len(registry), dtype=np.intp)
    for mode in matching:
        dest[registry.index_of(mode)] = registry.index_of(
            mode.shifted(delta_k, n_bins))
    return SymplecticOp("delay", perm=dest,
                        params={"field": field.value, "nopa": nopa.value,
                                "delta_k": int(delta_k)})


class GaussianState:
    """Mean vector and covariance matrix over a mode registry."""

    def __init__(self, mean: np.ndarray, cov: np.ndarray,
                 registry: ModeRegistry) -> None:
        mean = np.asarray(mean, dtype=float)
        cov = np.asarray(cov, dtype=float)
        m = len(registry)
        if mean.shape != (2 * m,) or cov.shape != (2 * m, 2 * m):
            raise DimensionError(
                f"state arrays {mean.shape}/{cov.shape} do not match "
                f"{m} registered modes")
        self.mean = mean
        self.cov = cov
        self.registry = registry

    @classmethod
    def vacuum(cls, registry: ModeRegistry) -> "GaussianState":
        m = len(registry)
        if m == 0:
            raise DimensionError("empty registry")
        return cls(np.zeros(2 * m), np.eye(2 * m) / 2, registry)

    @property
    def n_modes(self) -> int:
        return len(self.registry)

    def copy(self) -> "GaussianState":
        return GaussianState(self.mean.copy(), self.cov.copy(), self.registry)

    # -- transformations -------------------------------------------------

    def apply(self, op: SymplecticOp) -> "GaussianState":
        """Apply a symplectic op in place; returns self for chaining."""
        m = self.n_modes
        if op.is_permutation:
            if len(op.perm) != m:
                raise DimensionError("permutation length mismatch")
            src = np.empty(m, dtype=np.intp)
            src[op.perm] = np.arange(m)
            rows = np.concatenate([src, m + src])
            self.mean = self.mean[rows]
            self.cov = self.cov[np.ix_(rows, rows)]
            return self
        if not op.support:
            return self
        rows = op._rows(m)
        self.mean[rows] = op.block @ self.mean[rows]
        self.cov[rows, :] = op.block @ self.cov[rows, :]
        self.cov[:, rows] = self.cov[:, rows] @ op.block.T
        # round-off asymmetry is confined to the support block: the mixed
        # rows and columns are the same products accumulated in the same
        # order, so only the small square needs re-symmetrizing
        sub = self.cov[np.ix_(rows, rows)]
        self.cov[np.ix_(rows, rows)] = (sub + sub.T) / 2
        return self

    def displace(self, label: Hashable, dx: float, dp: float) -> "GaussianState":
        i = self.registry.index_of(label)
        self.mean[i] += dx
        self.mean[self.n_modes + i] += dp
        return self

    def append_vacuum(self, labels: Sequence[Hashable]) -> "GaussianState":
        """New state with fresh vacuum modes appended to the registry."""
        new_reg = self.registry.with_extra(labels)
        m_old, m_new = self.n_modes, len(new_reg)
        mean = np.zeros(2 * m_new)
        cov = np.eye(2 * m_new) / 2
        old = np.concatenate([np.arange(m_old), m_new + np.arange(m_old)])
        mean[old] = self.mean
        cov[np.ix_(old, old)] = self.cov
        return GaussianState(mean, cov, new_reg)

    def marginalize(self, labels: Iterable[Hashable]) -> "GaussianState":
        """New state with the given modes discarded."""
        drop = list(labels)
        keep_reg = self.registry.without(drop)
        keep = np.array([self.registry.index_of(lab) for lab in keep_reg],
                        dtype=np.intp)
        m = self.n_modes
        rows = np.concatenate([keep, m + keep])
        return GaussianState(self.mean[rows], self.cov[np.ix_(rows, rows)],
                             keep_reg)

    # -- statistics ------------------------------------------------------

    def _coeff_vector(self, terms: Iterable[Term]) -> np.ndarray:
        m = self.n_modes
        c = np.zeros(2 * m)
        empty = True
        for label, axis, coeff in terms:
            i = self.registry.index_of(label)
            if axis == "x":
                c[i] += coeff
            elif axis == "p":
                c[m + i] += coeff
            else:
                raise ValueError(f"axis must be 'x' or 'p', got {axis!r}")
            empty = False
        if empty:
            raise ValueError("empty quadrature combination")
        return c

    def variance(self, terms: Iterable[Term]) -> float:
        c = self._coeff_vector(terms)
        return float(c @ self.cov @ c)

    def mode_quadratures(self, label: Hashable) -> tuple[float, float]:
        i = self.registry.index_of(label)
        return float(self.mean[i]), float(self.mean[self.n_modes + i])

    def symplectic_eigenvalues(self) -> np.ndarray:
        """Williamson spectrum; all 1/2 iff the state is pure."""
        m = self.n_modes
        ev = np.linalg.eigvals(omega_matrix(m) @ self.cov)
        nus = np.sort(np.abs(ev.imag))
        return nus[1::2]  # each value appears as +i nu and -i nu

    def is_pure(self, tol: float = PHYSICS_TOL) -> bool:
        # eigensolve error grows with the covariance norm, so the
        # tolerance must too or strongly squeezed pure states fail
        scale = max(1.0, float(np.max(np.abs(self.cov))))
        defect = float(np.max(np.abs(self.symplectic_eigenvalues() - 0.5)))
        return defect < tol * scale

    # -- measurement -----------------------------------------------------

    def homodyne(self, label: Hashable, theta: float,
                 outcome: float | None = None,
                 rng: np.random.Generator | None = None
                 ) -> tuple["GaussianState", float]:
        """Measure x cos(theta) + p sin(theta) on one mode.

        Returns the conditional state (measured mode removed) and the
        measured value; `outcome=None` samples it from the marginal with
        `rng`, which is then required so that every draw has a seed.
        """
        i = self.registry.index_of(label)
        m = self.n_modes
        c = np.zeros(2 * m)
        c[i] = np.cos(theta)
        c[m + i] = np.sin(theta)
        var = float(c @ self.cov @ c)
        if var < DEGENERATE_VARIANCE:
            raise DegenerateMeasurementError(
                f"marginal variance {var:.3e} on {label!r} at theta={theta}")
        mu = float(c @ self.mean)
        if outcome is None:
            if rng is None:
                raise ValueError(
                    f"sampling the homodyne outcome on {label!r} needs a "
                    "numpy Generator: pass rng=np.random.default_rng(seed) "
                    "or pin the outcome")
            value = float(rng.normal(mu, np.sqrt(var)))
        else:
            value = float(outcome)
        b = self.cov @ c
        mean = self.mean + b * ((value - mu) / var)
        cov = self.cov - np.outer(b, b) / var
        conditioned = GaussianState(mean, (cov + cov.T) / 2, self.registry)
        return conditioned.marginalize([label]), value

    def __repr__(self) -> str:
        return f"GaussianState({self.n_modes} modes)"


# -- covariance export ----------------------------------------------------


def write_covariance_csv(state: GaussianState, path: str) -> None:
    """Row-major CSV at 17 significant digits (round-trips f64 exactly).

    The bytes are those of ``np.savetxt(path, cov, delimiter=",",
    fmt="%.17g")``, but only entries other than +0.0 are formatted: a
    lattice covariance is almost all zeros.  -0.0, NaN and inf go
    through the same ``%.17g`` as every other nonzero entry.
    """
    n = state.cov.shape[1]
    with open(path, "w", encoding="utf-8") as fh:
        for row in state.cov:
            cells = ["0"] * n
            idx = np.flatnonzero((row != 0) | np.signbit(row))
            for j, value in zip(idx.tolist(), row[idx].tolist()):
                cells[j] = "%.17g" % value
            fh.write(",".join(cells) + "\n")
