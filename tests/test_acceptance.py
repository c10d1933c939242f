"""End-to-end acceptance checks for the headline quantitative results.

Each test prints a single PASS line with the measured values once its
assertions hold, so a verbose run reads as a per-criterion scoreboard.
"""
import math

import numpy as np
import pytest

from relangle.su2 import HalfInt, clebsch_gordan, couple_range, half, m_range, wigner_d_matrix
from relangle.states import (
    GenericState,
    averaged_state,
    averaged_state_oracle,
    coupled_basis_matrix,
)
from relangle.estimator import (
    BlockPovm,
    PovmSpec,
    fidelity,
    fidelity_montecarlo,
    signal_trig_blocks,
)
from relangle.optimizer import (
    helstrom_certificate,
    max_fidelity,
    optimize_state,
    two_term_nu,
)
from relangle.limits import (
    asymptotic_deviation,
    classical_fidelity,
    classical_sigma,
    default_sweep_grid,
    sweep_optimal_vs_j2,
)
from helpers import block_dims, max_symmetry_defect

BLIND_GUESS = 0.5 + math.pi / 8.0


def test_criterion_1_parallel_fidelity():
    result = max_fidelity(GenericState.parallel(), "1/2")
    assert result.fidelity == pytest.approx(0.90983, abs=5e-5)
    assert result.certified
    print(f"\ncriterion 1 PASS: F[parallel, j2=1/2] = {result.fidelity:.6f} "
          f"(target 0.90983 +- 5e-5)")


def test_criterion_2_antiparallel_fidelity():
    result = max_fidelity(GenericState.antiparallel(), "1/2")
    assert result.fidelity == pytest.approx(0.90982, abs=5e-5)
    assert result.certified
    print(f"\ncriterion 2 PASS: F[antiparallel, j2=1/2] = {result.fidelity:.6f} "
          f"(target 0.90982 +- 5e-5)")


def test_criterion_3_optimal_preparation():
    a_star, sector, result = optimize_state("1/2")
    assert a_star == pytest.approx(0.609, abs=0.005)
    assert result.fidelity == pytest.approx(0.91092, abs=5e-5)
    assert sector == half(0)
    assert result.certified
    print(f"\ncriterion 3 PASS: a* = {a_star:.5f} (target 0.609 +- 0.005), "
          f"F = {result.fidelity:.6f} (target 0.91092 +- 5e-5)")


def test_criterion_4_closed_form_nu():
    worst = 0.0
    for a in (0.1, 0.3, 0.5, 0.609, 0.7, 0.9):
        result = max_fidelity(GenericState.two_term(a), "1/2", certify=False)
        nu_num = result.povm.per_block[half("1/2")].mus[0]
        worst = max(worst, abs(nu_num - two_term_nu(a)))
    assert worst <= 1e-8
    print(f"\ncriterion 4 PASS: max |nu_closed - nu_numeric| = {worst:.2e} "
          f"(target <= 1e-8)")


def test_criterion_5_asymptotic_amplitude():
    a_star, _, _ = optimize_state(50)
    assert a_star == pytest.approx(0.595, abs=0.005)
    print(f"\ncriterion 5 PASS: a*(j2=50) = {a_star:.5f} (target 0.595 +- 0.005)")


def test_criterion_6_parallel_antiparallel_near_degeneracy():
    rows = sweep_optimal_vs_j2(default_sweep_grid())
    worst_gap = 0.0
    for row in rows:
        gap = row.f_parallel - row.f_antiparallel
        assert 0.0 <= gap <= 1e-4, f"j2={row.j2}: gap {gap}"
        assert row.f_opt >= row.f_parallel, f"j2={row.j2}: optimal curve dominated"
        worst_gap = max(worst_gap, gap)
    print(f"\ncriterion 6 PASS: 0 <= F_par - F_anti <= {worst_gap:.2e} over "
          f"{len(rows)} j2 values (target <= 1e-4), optimal curve dominates")


def test_criterion_7_quantum_classical_correspondence():
    j2 = half(100)
    worst_f = 0.0
    for state in (GenericState.two_term(0.609), GenericState.parallel(),
                  GenericState.antiparallel()):
        f_c = classical_fidelity(state).fidelity
        f_q = max_fidelity(state, j2, certify=False).fidelity
        worst_f = max(worst_f, abs(f_c - f_q))
    assert worst_f <= 1e-3
    opt = GenericState.two_term(0.609)
    worst_dev = max(asymptotic_deviation(opt, j2, b)
                    for b in np.linspace(0.0, math.pi, 20))
    assert worst_dev <= 1e-2
    print(f"\ncriterion 7 PASS: max |F_classical - F_quantum(j2=100)| = "
          f"{worst_f:.2e} (target <= 1e-3), max block deviation = {worst_dev:.2e} "
          f"(target <= 1e-2)")


def test_criterion_8_property_suite():
    # d-matrix unitarity
    worst_unitary = 0.0
    for twice_j in range(1, 9):
        j = HalfInt(twice_j)
        for beta in np.linspace(0.0, math.pi, 25):
            d = wigner_d_matrix(j, beta)[0]
            worst_unitary = max(worst_unitary,
                                float(np.abs(d.T @ d - np.eye(twice_j + 1)).max()))
    assert worst_unitary <= 1e-12

    # CG orthogonality
    worst_cg = 0.0
    for t1, t2 in ((1, 1), (2, 3), (4, 2), (6, 6)):
        j1, j2 = HalfInt(t1), HalfInt(t2)
        for J in couple_range(j1, j2):
            for Jp in couple_range(j1, j2):
                for M in m_range(J):
                    if abs(M.twice) > Jp.twice:
                        continue
                    s = sum(clebsch_gordan(j1, m1, j2, M - m1, J, M)
                            * clebsch_gordan(j1, m1, j2, M - m1, Jp, M)
                            for m1 in m_range(j1)
                            if abs((M - m1).twice) <= j2.twice)
                    worst_cg = max(worst_cg, abs(s - (1.0 if J == Jp else 0.0)))
    assert worst_cg <= 1e-12

    # averaged-state and classical-sigma structure
    worst_struct = 0.0
    for state in (GenericState.two_term(0.609), GenericState.parallel()):
        for beta in (0.3, 1.6, 2.9):
            rho = averaged_state(state, "5/2", beta)
            worst_struct = max(worst_struct, abs(rho.trace() - 1.0),
                               max_symmetry_defect(rho),
                               max(0.0, -min(float(np.linalg.eigvalsh(mat).min())
                                             for _, mat in rho.blocks.values())))
            sigma = classical_sigma(state, beta)
            worst_struct = max(worst_struct, abs(sigma.trace() - 1.0))
            for _, mat in sigma.blocks.values():
                worst_struct = max(worst_struct, float(np.abs(mat - mat.T).max()),
                                   max(0.0, -float(np.linalg.eigvalsh(mat).min())))
    assert worst_struct <= 1e-12

    # closed-form measurement operators vs direct quadrature
    from numpy.polynomial.legendre import leggauss
    nodes, w = leggauss(200)
    betas = (nodes + 1.0) * (math.pi / 2.0)
    w = w * (math.pi / 2.0)
    state = GenericState.two_term(0.609)
    mu = 1.3
    weights = w * np.cos((mu - betas) / 2.0) ** 2 * np.sin(betas) / 2.0
    trig = signal_trig_blocks(state, half(2))
    worst_quad = 0.0
    acc = {J: np.zeros_like(blk.k0) for J, blk in trig.blocks.items()}
    for b, ww in zip(betas, weights):
        rho = averaged_state(state, 2, b)
        for J in acc:
            acc[J] += ww * rho.block(J)
    for J, blk in trig.blocks.items():
        worst_quad = max(worst_quad, float(np.abs(blk.at(mu) - acc[J]).max()))
    assert worst_quad <= 1e-9

    # Haar Monte-Carlo oracle, 1e6 samples, 4 sigma
    state = GenericState.antiparallel()
    j2 = half("1/2")
    beta = math.pi / 3
    mean, stderr = averaged_state_oracle(state, j2, beta, samples=1000000, seed=2)
    rho = averaged_state(state, j2, beta)
    V, labels = coupled_basis_matrix(state, j2)
    coupled = np.zeros((len(labels), len(labels)))
    for c1, (J, M, j1) in enumerate(labels):
        for c2, (Jp, Mp, j1p) in enumerate(labels):
            if J == Jp and M == Mp:
                basis = rho.basis(J)
                if j1 in basis and j1p in basis:
                    coupled[c1, c2] = rho.block(J)[
                        basis.index(j1), basis.index(j1p)] / (J.twice + 1)
    expect = V @ coupled @ V.T
    assert np.all(np.abs(mean - expect) < 4.0 * stderr + 1e-10)

    # Helstrom certificate for every reported optimum
    worst_cert = 0.0
    for state in (GenericState.parallel(), GenericState.antiparallel(),
                  GenericState.two_term(0.609)):
        for j2 in ("1/2", 2, "9/2"):
            result = max_fidelity(state, j2)
            assert result.certified
            worst_cert = min(worst_cert, result.certificate_min_eigenvalue)
    assert worst_cert >= -1e-9

    # Monte-Carlo fidelity consistency
    state = GenericState.two_term(0.609)
    result = max_fidelity(state, "1/2", certify=False)
    est, err = fidelity_montecarlo(state, "1/2", result.povm,
                                   samples=1000000, seed=8)
    assert abs(est - result.fidelity) < 4.0 * err

    # blind-guess floor, independent of the preparation
    worst_floor = 0.0
    for state in (GenericState.parallel(), GenericState.two_term(0.3)):
        dims = block_dims(state, "3/2")
        povm = PovmSpec({J: BlockPovm([math.pi / 2], [np.eye(dim)]) for J, dim in dims.items()})
        worst_floor = max(worst_floor,
                          abs(fidelity(state, "3/2", povm) - BLIND_GUESS))
    assert worst_floor <= 1e-10

    print(f"\ncriterion 8 PASS: unitarity {worst_unitary:.1e}, CG orthogonality "
          f"{worst_cg:.1e}, state structure {worst_struct:.1e}, quadrature "
          f"{worst_quad:.1e}, oracle/MC within 4 sigma, certificates >= "
          f"{worst_cert:.1e}, blind-guess floor {worst_floor:.1e}")
