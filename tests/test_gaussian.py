"""Covariance engine: operations, measurement, serialization."""

import math

import numpy as np
import pytest

from cvforge.gaussian import (
    DegenerateMeasurementError,
    DimensionError,
    GaussianState,
    beamsplitter,
    check_symplectic,
    delay_relabel,
    omega_matrix,
    phase_rotate,
    read_covariance_binary,
    read_covariance_csv,
    two_mode_squeeze,
    write_covariance_binary,
    write_covariance_csv,
)
from cvforge.lattice import Field, LatticeConfig, ModeId, ModeRegistry, Nopa, enumerate_modes
from cvforge.tolerances import PHYSICS_TOL, STRUCTURAL_TOL, SYMMETRY_TOL

# frozen closed-form targets; each is rederived inline before use
EXP_MINUS_2 = 0.1353352832366127  # exp(-2)
EXP_PLUS_2 = 7.38905609893065  # exp(+2)


def simple_registry(n):
    return ModeRegistry(list(range(n)))


def test_vacuum_has_half_variance_everywhere():
    st = GaussianState.vacuum(simple_registry(3))
    assert np.allclose(st.cov, np.eye(6) / 2)
    assert np.all(st.mean == 0)
    assert st.is_pure()


def test_omega_antisymmetric_squares_to_minus_identity():
    om = omega_matrix(4)
    assert np.array_equal(om, -om.T)
    assert np.array_equal(om @ om, -np.eye(8))


def test_two_mode_squeeze_variances_match_closed_form():
    assert math.isclose(EXP_MINUS_2, math.exp(-2.0), rel_tol=1e-15)
    r = 1.0
    st = GaussianState.vacuum(simple_registry(2))
    st.apply(two_mode_squeeze(0, 1, r))
    diff_x = st.variance([(0, "x", 1.0), (1, "x", -1.0)])
    sum_p = st.variance([(0, "p", 1.0), (1, "p", 1.0)])
    assert abs(diff_x - EXP_MINUS_2) < 1e-12
    assert abs(sum_p - EXP_MINUS_2) < 1e-12
    # the conjugate combinations antisqueeze
    sum_x = st.variance([(0, "x", 1.0), (1, "x", 1.0)])
    assert abs(sum_x - EXP_PLUS_2) < 1e-11


def test_two_mode_squeeze_single_mode_variance():
    # each mode alone sees symmetric thermal noise (e^-2r + e^2r)/4
    target = (math.exp(-2.0) + math.exp(2.0)) / 4
    assert math.isclose(target, 1.8810978455418157, rel_tol=1e-15)
    st = GaussianState.vacuum(simple_registry(2))
    st.apply(two_mode_squeeze(0, 1, 1.0))
    assert abs(st.variance([(0, "x", 1.0)]) - target) < 1e-12
    assert abs(st.variance([(1, "p", 1.0)]) - target) < 1e-12


def test_two_mode_squeeze_asymmetric_families():
    r, r_p = 0.7, 0.3
    st = GaussianState.vacuum(simple_registry(2))
    st.apply(two_mode_squeeze(0, 1, r, r_p))
    assert abs(
        st.variance([(0, "x", 1.0), (1, "x", -1.0)]) - math.exp(-2 * r)
    ) < 1e-12
    assert abs(
        st.variance([(0, "p", 1.0), (1, "p", 1.0)]) - math.exp(-2 * r_p)
    ) < 1e-12
    assert st.is_pure()


def test_two_mode_squeeze_rejects_bad_args():
    with pytest.raises(DimensionError):
        two_mode_squeeze(1, 1, 0.5)
    with pytest.raises(ValueError):
        two_mode_squeeze(0, 1, -0.5)


def test_ops_are_symplectic():
    ops = [
        two_mode_squeeze(0, 1, 0.9),
        two_mode_squeeze(0, 2, 0.4, 1.1),
        beamsplitter(1, 2),
        phase_rotate(0, 0.37),
    ]
    for op in ops:
        assert op.symplectic_defect() < STRUCTURAL_TOL
        assert check_symplectic(op.full_matrix(3), tol=STRUCTURAL_TOL)


def test_beamsplitter_convention_first_port_is_difference():
    # displace mode 1, interfere: the difference lands on mode 0
    st = GaussianState.vacuum(simple_registry(2))
    st.displace(0, 1.0, 0.0)
    st.apply(beamsplitter(0, 1))
    x0, _ = st.mode_quadratures(0)
    x1, _ = st.mode_quadratures(1)
    assert abs(x0 - 1 / math.sqrt(2)) < 1e-14
    assert abs(x1 - 1 / math.sqrt(2)) < 1e-14
    st2 = GaussianState.vacuum(simple_registry(2))
    st2.displace(1, 1.0, 0.0)
    st2.apply(beamsplitter(0, 1))
    x0, _ = st2.mode_quadratures(0)
    assert abs(x0 + 1 / math.sqrt(2)) < 1e-14


def test_beamsplitter_twice_is_half_turn_on_the_pair():
    st = GaussianState.vacuum(simple_registry(2))
    st.displace(0, 0.3, -0.2)
    st.displace(1, -1.1, 0.5)
    st.apply(beamsplitter(0, 1))
    st.apply(beamsplitter(0, 1))
    # (a0, a1) -> (-a1, a0)
    assert np.allclose(st.mode_quadratures(0), (1.1, -0.5), atol=1e-14)
    assert np.allclose(st.mode_quadratures(1), (0.3, -0.2), atol=1e-14)


def test_phase_rotate_quarter_turn_swaps_quadratures():
    st = GaussianState.vacuum(simple_registry(1))
    st.displace(0, 1.0, 0.0)
    st.apply(phase_rotate(0, math.pi / 2))
    x, p = st.mode_quadratures(0)
    assert abs(x) < 1e-14 and abs(p - 1.0) < 1e-14


def test_composition_matches_matrix_product():
    # applying ops in sequence equals applying the matrix product once
    rng = np.random.default_rng(42)
    n = 3
    ops = [
        two_mode_squeeze(0, 1, 0.6),
        beamsplitter(1, 2),
        phase_rotate(2, 1.1),
        two_mode_squeeze(2, 0, 0.3, 0.8),
    ]
    st = GaussianState.vacuum(simple_registry(n))
    mean0 = rng.normal(size=2 * n)
    st.mean[:] = mean0
    for op in ops:
        st.apply(op)
    total = np.eye(2 * n)
    for op in ops:
        total = op.full_matrix(n) @ total
    assert np.allclose(st.mean, total @ mean0, atol=1e-12)
    assert np.allclose(st.cov, total @ (np.eye(2 * n) / 2) @ total.T, atol=1e-12)


def test_delay_relabel_moves_content_cyclically():
    cfg = LatticeConfig(n_max=0, n_bins=3)
    reg = enumerate_modes(cfg, [Nopa.N1])
    st = GaussianState.vacuum(reg)
    tag = ModeId(Nopa.N1, Field.IDLER, 0, 2)
    st.displace(tag, 1.0, 0.0)
    op = delay_relabel(reg, Field.IDLER, Nopa.N1, 1)
    assert op.is_permutation
    st.apply(op)
    # content from the last bin wrapped to bin 0
    x, _ = st.mode_quadratures(ModeId(Nopa.N1, Field.IDLER, 0, 0))
    assert x == 1.0
    x, _ = st.mode_quadratures(tag)
    assert x == 0.0


def test_delay_relabel_leaves_signals_alone():
    cfg = LatticeConfig(n_max=1, n_bins=4)
    reg = enumerate_modes(cfg, [Nopa.N1])
    st = GaussianState.vacuum(reg)
    sig = ModeId(Nopa.N1, Field.SIGNAL, 1, 2)
    st.displace(sig, 0.0, -2.0)
    st.apply(delay_relabel(reg, Field.IDLER, Nopa.N1, 1))
    assert st.mode_quadratures(sig) == (0.0, -2.0)


def test_delay_relabel_validates_arguments():
    cfg = LatticeConfig(n_max=0, n_bins=3)
    reg = enumerate_modes(cfg, [Nopa.N1])
    with pytest.raises(ValueError):
        delay_relabel(reg, Field.IDLER, Nopa.N1, 0)
    from cvforge.lattice import LatticeError

    with pytest.raises(LatticeError):
        delay_relabel(reg, Field.IDLER, Nopa.N2, 1)


def test_apply_preserves_purity_and_symmetry():
    st = GaussianState.vacuum(simple_registry(3))
    rng = np.random.default_rng(0)
    for _ in range(12):
        i, j = rng.choice(3, size=2, replace=False)
        st.apply(two_mode_squeeze(int(i), int(j), float(rng.uniform(0, 1))))
        st.apply(beamsplitter(int(i), int(j)))
    assert np.allclose(st.cov, st.cov.T, atol=1e-12)
    assert st.is_pure()


def test_homodyne_conditioning_matches_schur_oracle():
    # independent oracle: explicit Gaussian conditioning on the x quadrature
    r = 5.0
    st = GaussianState.vacuum(simple_registry(2))
    st.apply(two_mode_squeeze(0, 1, r))
    cov = st.cov.copy()
    mean = st.mean.copy()
    c = np.zeros(4)
    c[0] = 1.0  # x of mode 0
    v = c @ cov @ c
    b = cov @ c
    w = 0.37
    cond_mean = mean + b * (w - c @ mean) / v
    cond_cov = cov - np.outer(b, b) / v
    keep = np.array([1, 3])  # x and p of mode 1
    oracle_mean = cond_mean[keep]
    oracle_cov = cond_cov[np.ix_(keep, keep)]

    after, value = st.homodyne(0, 0.0, outcome=w)
    assert value == w
    assert np.allclose(np.concatenate([after.mean]), oracle_mean, atol=1e-12)
    assert np.allclose(after.cov, oracle_cov, atol=1e-12)
    # strong squeezing: conditional x variance of the partner collapses
    assert after.cov[0, 0] < math.exp(-2 * r) * 2


def test_homodyne_removes_mode_and_samples_with_seed():
    st = GaussianState.vacuum(simple_registry(3))
    rng1 = np.random.default_rng(9)
    rng2 = np.random.default_rng(9)
    a1, v1 = st.copy().homodyne(1, 0.4, rng=rng1)
    a2, v2 = st.copy().homodyne(1, 0.4, rng=rng2)
    assert v1 == v2
    assert a1.n_modes == 2
    assert 1 not in a1.registry


def test_homodyne_sampling_requires_a_generator():
    st = GaussianState.vacuum(simple_registry(2))
    with pytest.raises(ValueError, match="numpy Generator"):
        st.homodyne(1, 0.4)
    # a pinned outcome draws nothing, so it needs no generator
    after, value = st.homodyne(1, 0.4, outcome=0.25)
    assert value == 0.25
    assert after.n_modes == 1


def test_homodyne_angle_rotates_measured_quadrature():
    st = GaussianState.vacuum(simple_registry(1))
    st.displace(0, 2.0, -1.0)
    theta = 0.6
    # measuring at angle theta reads cos(theta) x + sin(theta) p
    _, value = st.homodyne(0, theta, outcome=None, rng=np.random.default_rng(1))
    combo_mean = 2.0 * math.cos(theta) - 1.0 * math.sin(theta)
    # vacuum noise is 1/2; a draw should sit within 6 sigma of the mean
    assert abs(value - combo_mean) < 6 * math.sqrt(0.5)


def test_homodyne_degenerate_variance_rejected():
    r = 25.0
    st = GaussianState.vacuum(simple_registry(2))
    st.apply(two_mode_squeeze(0, 1, r))
    st2, _ = st.homodyne(0, 0.0, outcome=0.0)
    # partner x variance is now ~ e^-2r / 2, below the degeneracy floor
    with pytest.raises(DegenerateMeasurementError):
        st2.homodyne(1, 0.0, outcome=0.0)


def test_homodyne_then_marginalize_commutes():
    # measuring A then discarding B == discarding B then measuring A
    st = GaussianState.vacuum(simple_registry(3))
    st.apply(two_mode_squeeze(0, 1, 0.8))
    st.apply(beamsplitter(1, 2))
    st.displace(0, 0.4, -0.1)
    w = -0.23
    path1 = st.copy().homodyne(0, 0.9, outcome=w)[0].marginalize([1])
    path2 = st.copy().marginalize([1]).homodyne(0, 0.9, outcome=w)[0]
    assert path1.registry == path2.registry
    assert np.allclose(path1.mean, path2.mean, atol=1e-12)
    assert np.allclose(path1.cov, path2.cov, atol=1e-12)


def test_append_vacuum_keeps_existing_correlations():
    st = GaussianState.vacuum(simple_registry(2))
    st.apply(two_mode_squeeze(0, 1, 1.0))
    big = st.append_vacuum(["extra"])
    assert big.n_modes == 3
    i = big.registry.index_of("extra")
    assert big.cov[i, i] == 0.5
    sub = big.marginalize(["extra"])
    assert np.allclose(sub.cov, st.cov, atol=1e-15)


def test_displace_shifts_mean_only():
    st = GaussianState.vacuum(simple_registry(2))
    cov0 = st.cov.copy()
    st.displace(1, 3.0, -4.0)
    assert st.mode_quadratures(1) == (3.0, -4.0)
    assert np.array_equal(st.cov, cov0)


def test_covariance_csv_roundtrip(tmp_path):
    st = GaussianState.vacuum(simple_registry(2))
    st.apply(two_mode_squeeze(0, 1, 1.3))
    path = tmp_path / "cov.csv"
    write_covariance_csv(st, path)
    back = read_covariance_csv(path)
    assert np.array_equal(back, st.cov)


def test_covariance_csv_matches_savetxt(tmp_path):
    rng = np.random.default_rng(3)
    st = GaussianState.vacuum(simple_registry(3))
    st.cov = rng.normal(size=(6, 6))
    st.cov[rng.random((6, 6)) < 0.5] = 0.0
    st.cov[0, :6] = [-0.0, 5e-324, -2.5e-310, 1e300, -1e300, np.nan]
    st.cov[1, :3] = [np.inf, -np.inf, -np.nan]
    new, ref = tmp_path / "new.csv", tmp_path / "ref.csv"
    write_covariance_csv(st, new)
    np.savetxt(ref, st.cov, delimiter=",", fmt="%.17g")
    assert new.read_bytes() == ref.read_bytes()
    assert new.read_text().startswith("-0,4.9406564584124654e-324,")


@pytest.mark.parametrize("entry, value, accepted", [
    ((0, 1), np.nan, False), ((2, 2), np.inf, False), ((0, 3), -np.inf, False),
    ((1, 2), 1e-6, False), ((1, 2), 1e-12, True)])
def test_covariance_csv_requires_finite_symmetric(tmp_path, entry, value, accepted):
    st = GaussianState.vacuum(simple_registry(2))
    st.apply(two_mode_squeeze(0, 1, 1.3))
    # one entry only, so the matrix is no longer symmetric; 1e-12 stays
    # within SYMMETRY_TOL of the largest entry, cosh(2.6)/2
    assert 1e-12 < SYMMETRY_TOL * math.cosh(2.6) / 2 < 1e-6
    st.cov[entry] = value
    path = tmp_path / "cov.csv"
    write_covariance_csv(st, path)
    if accepted:
        assert np.array_equal(read_covariance_csv(path), st.cov)
    else:
        with pytest.raises(ValueError):
            read_covariance_csv(path)


def test_covariance_binary_roundtrip(tmp_path):
    st = GaussianState.vacuum(simple_registry(3))
    st.apply(two_mode_squeeze(0, 2, 0.9))
    st.apply(beamsplitter(0, 1))
    path = tmp_path / "cov.cvcm"
    write_covariance_binary(st, path)
    back = read_covariance_binary(path)
    assert np.array_equal(back, st.cov)


def test_covariance_binary_rejects_corrupt_header(tmp_path):
    path = tmp_path / "bad.cvcm"
    path.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(ValueError):
        read_covariance_binary(path)


def test_covariance_binary_rejects_size_mismatch(tmp_path):
    import struct

    path = tmp_path / "bad.cvcm"
    header = b"CVCM" + struct.pack("<I", 1)
    path.write_bytes(header + struct.pack("<Q", 10**6) + b"\x00" * 84)
    assert path.stat().st_size == 100
    with pytest.raises(ValueError, match="claims 1000000 modes"):
        read_covariance_binary(path)
    path.write_bytes(header + struct.pack("<Q", 1) + b"\x00" * 40)
    with pytest.raises(ValueError, match="file has 56 bytes"):
        read_covariance_binary(path)
    path.write_bytes(header + b"\x01")
    with pytest.raises(ValueError, match="truncated header"):
        read_covariance_binary(path)


def test_variance_requires_terms():
    st = GaussianState.vacuum(simple_registry(1))
    with pytest.raises(ValueError):
        st.variance([])
    with pytest.raises(ValueError):
        st.variance([(0, "y", 1.0)])
