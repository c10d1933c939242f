import math
import re
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import block_diag, expm

from relangle import states
from relangle.su2 import DomainError, _highest_weight_vector, half, m_range
from relangle.states import (
    GenericState,
    averaged_state,
    averaged_state_oracle,
    coupled_basis_matrix,
    coupling_structure,
    signal_density,
    state_from_text,
    state_to_text,
)
from relangle.estimator import fidelity_montecarlo, signal_trig_blocks
from relangle.optimizer import max_fidelity
from helpers import (
    blocks_from_full_matrix,
    cg_averaged_state,
    coherent_overlap_distribution,
    is_coherent,
    max_symmetry_defect,
)


def count_kernel_calls(monkeypatch) -> list:
    """Record the arguments of every 6j kernel call the multipole table makes."""
    calls = []
    real = states._six_j

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(states, "_six_j", counting)
    return calls


STATES = [
    GenericState.parallel(),
    GenericState.antiparallel(),
    GenericState.two_term(0.609),
    GenericState.coherent("3/2"),
    GenericState.from_dict("1/2", {"1/2": 0.8, "3/2": 0.6}),
]


class TestGenericState:
    def test_normalization_enforced(self):
        with pytest.raises(DomainError):
            GenericState.from_dict(0, {0: 0.5, 1: 0.5})

    def test_duplicate_labels_rejected(self):
        with pytest.raises(DomainError):
            GenericState(half(0), ((half(1), 0.6), (half(1), 0.8)))

    def test_negative_m1_rejected(self):
        with pytest.raises(DomainError):
            GenericState.from_dict(-1, {1: 1.0})

    def test_complex_amplitude_rejected(self):
        with pytest.raises(DomainError):
            GenericState(half(0), ((half(0), 1.0j),))

    def test_label_weight_consistency(self):
        with pytest.raises(DomainError):
            GenericState.from_dict(1, {0: 1.0})
        with pytest.raises(DomainError):
            GenericState.from_dict("1/2", {1: 1.0})

    def test_two_term_family(self):
        st = GenericState.two_term(0.6)
        assert st.m1 == 0
        assert st.amplitude(0) == 0.6
        assert st.amplitude(1) == pytest.approx(0.8)
        assert st.amplitude(2) == 0.0
        with pytest.raises(DomainError):
            GenericState.two_term(1.2)

    def test_named_preparations(self):
        assert is_coherent(GenericState.parallel())
        anti = GenericState.antiparallel()
        assert not is_coherent(anti)
        assert anti.amplitude(0) == pytest.approx(1.0 / math.sqrt(2.0))


class TestCouplingStructure:
    def test_parallel_j2_half(self):
        struct = coupling_structure(GenericState.parallel().j_labels, "1/2")
        assert [(str(J), len(basis)) for J, basis in struct] == [("1/2", 1), ("3/2", 1)]

    def test_two_term_j2_half(self):
        struct = dict(coupling_structure(GenericState.two_term(0.6).j_labels, "1/2"))
        assert len(struct[half("1/2")]) == 2  # repeated representation
        assert len(struct[half("3/2")]) == 1


class TestAveragedState:
    def test_domain_checks(self):
        with pytest.raises(DomainError):
            averaged_state(GenericState.parallel(), "1/2", -0.1)
        with pytest.raises(DomainError):
            averaged_state(GenericState.parallel(), "1/2", 4.0)
        with pytest.raises(DomainError):
            averaged_state(GenericState.parallel(), 0, 0.5)

    @pytest.mark.parametrize("state", STATES)
    @pytest.mark.parametrize("beta", [0.0, 0.3, math.pi / 2, 2.8, math.pi])
    def test_trace_symmetry_positivity(self, state, beta):
        for j2 in ("1/2", 2, "7/2"):
            rho = averaged_state(state, j2, beta)
            assert rho.trace() == pytest.approx(1.0, abs=1e-12)
            assert max_symmetry_defect(rho) < 1e-12
            assert min(np.linalg.eigvalsh(mat).min() for _, mat in rho.blocks.values()) > -1e-12

    def test_aligned_coherent_occupies_stretch_state(self):
        rho = averaged_state(GenericState.parallel(), "1/2", 0.0)
        assert float(rho.block("3/2")[0, 0]) == pytest.approx(1.0, abs=1e-14)
        assert float(rho.block("1/2")[0, 0]) == pytest.approx(0.0, abs=1e-14)

    def test_multipole_table_built_once_per_key(self, monkeypatch):
        state = GenericState.from_dict("1/2", {"1/2": 0.8, "3/2": 0.6})
        j2 = half(2)
        povm = max_fidelity(state, j2, certify=False).povm
        calls = count_kernel_calls(monkeypatch)
        states._multipoles.cache_clear()
        averaged_state(state, j2, 0.1)
        assert calls  # the warm-up builds the table
        calls.clear()
        for beta in np.linspace(0.0, math.pi, 20):
            averaged_state(state, j2, beta)
        fidelity_montecarlo(state, j2, povm, 100, 0)
        signal_trig_blocks(GenericState.from_dict("1/2", {"1/2": 0.6, "3/2": 0.8}), j2)
        assert calls == []
        averaged_state(state, half(3), 0.1)  # a new key builds its own table
        assert calls

    @pytest.mark.parametrize("m1, labels", [(0, (0, 1)), ("1/2", ("1/2", "3/2")), (1, (1, 2, 3))])
    def test_cold_table_cost_does_not_grow_with_j2(self, m1, labels, monkeypatch):
        calls = count_kernel_calls(monkeypatch)
        counts = []
        for j2 in (half(10), half(10 ** 4)):
            states._multipoles.cache_clear()
            states._multipoles(half(m1), tuple(map(half, labels)), j2)
            counts.append(len(calls))
            calls.clear()
        assert counts[0] == counts[1] > 0

    @pytest.mark.parametrize("state", STATES)
    def test_matches_clebsch_gordan_route(self, state):
        for j2 in ("1/2", "1", "7/2", 10, 30, 100):
            for beta in (0.0, 0.4, 1.9, math.pi):
                want = cg_averaged_state(state, j2, beta)
                got = averaged_state(state, j2, beta)
                assert list(got.blocks) == list(want.blocks)
                for J, (basis, mat) in want.blocks.items():
                    assert got.basis(J) == basis
                    assert np.abs(got.block(J) - mat).max() <= 1e-13

    def test_beta_continuity(self):
        state = GenericState.two_term(0.6)
        h = 1e-6
        for beta in np.linspace(0.01, math.pi - 0.01, 9):
            hi = averaged_state(state, "3/2", beta + h)
            lo = averaged_state(state, "3/2", beta - h)
            for J in hi.blocks:
                deriv = (hi.block(J) - lo.block(J)) / (2.0 * h)
                assert np.abs(deriv).max() < 10.0


class TestOverlapDistribution:
    def test_aligned(self):
        p = coherent_overlap_distribution(GenericState.parallel(), "1/2", 0.0)
        assert p[half("3/2")] == pytest.approx(1.0, abs=1e-14)
        assert p[half("1/2")] == pytest.approx(0.0, abs=1e-14)

    def test_antialigned(self):
        # |1 1> x |1/2 -1/2> resolved in the coupled basis
        p = coherent_overlap_distribution(GenericState.parallel(), "1/2", math.pi)
        assert p[half("1/2")] == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert p[half("3/2")] == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_normalized(self):
        for beta in (0.2, 1.1, 2.5):
            p = coherent_overlap_distribution(GenericState.coherent(2), "3/2", beta)
            assert sum(p.values()) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_non_coherent(self):
        with pytest.raises(DomainError):
            coherent_overlap_distribution(GenericState.antiparallel(), "1/2", 0.3)


BAD_BETAS = [math.nan, math.inf, -0.2, 3.5]


def dense_rotation(js, alpha, beta, gamma):
    """Block-diagonal D(alpha, beta, gamma) over js, from expm(-i beta J_y)."""
    blocks = []
    for j in js:
        ms = np.array([float(m) for m in m_range(half(j))])
        jv = float(half(j))
        raising = np.sqrt(jv * (jv + 1) - ms[:-1] * (ms[:-1] + 1))  # <m+1|J+|m>
        jy = (np.diag(raising, -1) - np.diag(raising, 1)) / 2j
        blocks.append(np.exp(-1j * alpha * ms)[:, None] * expm(-1j * beta * jy)
                      * np.exp(-1j * gamma * ms)[None, :])
    return block_diag(*blocks)


def rotated_vectors(state, j2, beta, *rotations):
    """The oracle's rows (D1 (x) D2)(alpha, beta', gamma) |Psi(beta)>, one per Euler-angle triple."""
    alphas, betas, gammas = (np.array(angles) for angles in zip(*rotations))
    w = _highest_weight_vector(half(j2), beta)
    return states._rotated_signal(state, half(j2), w, alphas, betas, gammas)


class TestOracle:
    @pytest.mark.parametrize("state", [
        GenericState.two_term(0.6),
        GenericState.from_dict("1/2", {"1/2": 0.8, "3/2": 0.6}),
        GenericState.from_dict(1, {1: math.cos(0.4), 2: math.sin(0.4)}),
    ], ids=["m1=0", "m1=1/2", "m1=1"])
    @pytest.mark.parametrize("j2", ["1/2", "1", "3/2", "2", "40"])
    @pytest.mark.parametrize("rotation", [(0.3, 1.2, 2.5), (5.9, 2.8, 0.7), (1.7, 0.05, 4.4)])
    def test_fixed_rotation_matches_dense_conjugation(self, state, j2, rotation):
        beta = 1.3
        u = np.kron(dense_rotation(state.j_labels, *rotation),
                    dense_rotation([half(j2)], *rotation))
        rho = signal_density(state, j2, beta)
        (v,) = rotated_vectors(state, j2, beta, rotation)
        assert np.abs(np.outer(v, v.conj()) - u @ rho @ u.conj().T).max() < 1e-12

    def test_peak_memory_bounded(self):
        # one full 20000-sample batch; a (20000, 16, 16) complex stack alone is 82 MB
        state = GenericState.two_term(0.6)
        averaged_state_oracle(state, "3/2", 1.0, samples=10, seed=0)  # warm the caches
        tracemalloc.start()
        try:
            averaged_state_oracle(state, "3/2", 1.0, samples=20000, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20e6

    @pytest.mark.parametrize("samples", [0, 1, 10.5, 10.0, "10", None])
    def test_rejects_bad_samples(self, samples):
        with pytest.raises(DomainError):
            averaged_state_oracle(GenericState.antiparallel(), "1/2", 0.7, samples=samples, seed=0)

    @pytest.mark.parametrize("seed", [None, -1, 1.5, "3", True, False])
    def test_rejects_bad_seed(self, seed):
        with pytest.raises(DomainError, match="seed"):
            averaged_state_oracle(GenericState.antiparallel(), "1/2", 0.7, samples=10, seed=seed)

    @pytest.mark.parametrize("beta", BAD_BETAS)
    def test_rejects_bad_beta(self, beta):
        state = GenericState.antiparallel()
        with pytest.raises(DomainError):
            averaged_state_oracle(state, "1/2", beta, samples=10, seed=0)
        with pytest.raises(DomainError):
            signal_density(state, "1/2", beta)
        with pytest.raises(DomainError):
            averaged_state(state, "1/2", beta)

    def test_identity_rotation_returns_unrotated_density(self):
        state = GenericState.antiparallel()
        (v,) = rotated_vectors(state, "1/2", 0.7, (0.0, 0.0, 0.0))
        rho = signal_density(state, "1/2", 0.7)
        # v is real and v v^T is rho = psi psi^T, so v is signal_density's vector up to sign
        assert np.abs(v.imag).max() < 1e-15
        assert np.abs(np.outer(v.real, v.real) - rho).max() < 1e-15

    def test_deterministic(self):
        state = GenericState.two_term(0.6)
        m1, s1 = averaged_state_oracle(state, "1/2", 1.0, samples=2000, seed=11)
        m2, s2 = averaged_state_oracle(state, "1/2", 1.0, samples=2000, seed=11)
        assert np.array_equal(m1, m2)
        assert np.array_equal(s1, s2)

    def test_sums_match_per_sample_outer_products(self):
        # the chunk products V^T conj(V) and (|V|^2)^T |V|^2 reorder the per-sample sums of
        # v v^dag and |v v^dag|^2; 3000 samples are one draw and three chunks of 1024 at d = 16
        state, j2, beta, samples, seed = GenericState.two_term(0.6), half("3/2"), 1.0, 3000, 5
        rng = np.random.default_rng(seed)
        al = rng.uniform(0.0, 2.0 * math.pi, samples)
        bt = np.arccos(rng.uniform(-1.0, 1.0, samples))
        gm = rng.uniform(0.0, 2.0 * math.pi, samples)
        v = states._rotated_signal(state, j2, _highest_weight_vector(j2, beta), al, bt, gm)
        outer = v[:, :, None] * v[:, None, :].conj()
        want_mean = outer.mean(axis=0)
        want_var = np.maximum((np.abs(outer) ** 2).mean(axis=0) - np.abs(want_mean) ** 2, 0.0)
        mean, stderr = averaged_state_oracle(state, j2, beta, samples, seed)
        assert np.abs(mean - want_mean).max() < 1e-12
        assert np.abs(stderr ** 2 * samples - want_var).max() < 1e-12

    def test_agrees_with_closed_form_blocks(self):
        # the group average is uniform over M within each (J, j1, j1') sector,
        # so the closed-form blocks predict the full matrix entrywise
        state = GenericState.antiparallel()
        j2 = half("1/2")
        beta = math.pi / 3
        mean, stderr = averaged_state_oracle(state, j2, beta, samples=200000, seed=3)
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
        gap = np.abs(mean - expect)
        assert np.all(gap < 4.0 * stderr + 1e-10)

    def test_reduction_roundtrip(self):
        state = GenericState.two_term(0.7)
        rho_full = signal_density(state, 1, 0.9)
        blocks = blocks_from_full_matrix(state, 1, rho_full)
        assert blocks.trace() == pytest.approx(1.0, abs=1e-12)


class TestSerialization:
    @pytest.mark.parametrize("state", STATES)
    def test_roundtrip(self, state):
        text = state_to_text(state)
        back = state_from_text(text)
        assert back.m1 == state.m1
        assert back.j_labels == state.j_labels
        assert np.allclose(back.amplitude_vector, state.amplitude_vector, atol=0)

    def test_format(self):
        text = state_to_text(GenericState.from_dict("1/2", {"1/2": 0.8, "3/2": 0.6}))
        lines = text.strip().splitlines()
        assert lines[0] == "m1=1/2"
        assert lines[1].startswith("j1=1/2 a=")

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_amplitude_rejected(self, value):
        with pytest.raises(DomainError):
            state_from_text(f"m1=0\nj1=0 a={value}\nj1=1 a={value}\n")

    @pytest.mark.parametrize("text", [
        "m1=0\nj1=0 a=1\nj1=0 a=1\n",
        "m1=1/2\nj1=1/2 a=0.6\nj1=0.5 a=0.8\n",
        "m1=0\nm1=0\nj1=0 a=1\n",
    ])
    def test_repeated_line_rejected(self, text):
        with pytest.raises(ValueError, match="repeated"):
            state_from_text(text)

    def test_malformed_input(self):
        with pytest.raises(ValueError):
            state_from_text("j1=0 a=1.0\n")  # missing m1
        with pytest.raises(ValueError):
            state_from_text("m1=0\nnonsense\n")
        for line in ("j1=0", "j1=0 a=0.6 x"):
            with pytest.raises(ValueError, match=re.escape(f"malformed amplitude line: {line!r}")):
                state_from_text(f"m1=0\n{line}\n")
