import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from relangle.su2 import DomainError, HalfInt, half
from relangle.states import GenericState
from relangle.estimator import (
    PairEstimate,
    PovmSpec,
    SingleEstimate,
    TrigBlock,
    _lambda_min,
    block_dims,
    fidelity,
    fidelity_montecarlo,
    signal_trig_blocks,
)
import relangle.optimizer as optimizer_module
from relangle.limits import default_sweep_grid
from relangle.optimizer import (
    CERTIFICATE_GRID_MIN,
    CERTIFICATE_PASS,
    UnsupportedBlockError,
    _amplitude_grid,
    _block_optimum,
    _certificate,
    _fidelities,
    helstrom_certificate,
    max_fidelity,
    optimal_pair,
    optimal_single_estimate,
    optimize_state,
    optimize_trig_blocks,
    two_term_nu,
)

THREE_TERM = GenericState.from_dict(0, {0: 0.5, 1: 0.5, 2: math.sqrt(0.5)})

# (a*, F) from optimize_state at its defaults for each j2 of default_sweep_grid(),
# as returned by the golden-section refinement that preceded the batched bracket
# search (1001-point grid, golden section to 1e-8); printed with repr() once.
PINNED_OPTIMA = {
    "1/2": (0.6092510254958579, 0.9109224222553606),
    "1": (0.6056721993551222, 0.9201004743959045),
    "3/2": (0.6035028065654271, 0.925629751931201),
    "2": (0.6020471434977133, 0.9293255627255799),
    "5/2": (0.6010027512417644, 0.9319702273656398),
    "3": (0.6002168750599226, 0.9339563831076472),
    "7/2": (0.5996040998237759, 0.9355027597316452),
    "4": (0.5991128926505684, 0.9367408688459379),
    "9/2": (0.5987103730030114, 0.9377545371329966),
    "5": (0.5983744854100637, 0.9385997232871568),
    "11/2": (0.5980899509259456, 0.9393152104470169),
    "6": (0.5978458286190176, 0.9399287263902132),
    "13/2": (0.597634107419931, 0.9404606207945376),
    "7": (0.5974486860716055, 0.9409261662609412),
    "15/2": (0.597284984773635, 0.941337048735182),
    "8": (0.5971393792326793, 0.9417023620071838),
    "17/2": (0.5970090606699072, 0.9420292886900601),
    "9": (0.596891700810916, 0.942323577235475),
    "19/2": (0.5967855065300418, 0.942589882869225),
    "10": (0.5966888884458752, 0.9428320156817375),
    "15": (0.596054159943002, 0.9444218839990351),
    "20": (0.595721098806165, 0.9452552781408344),
    "30": (0.5953768891041162, 0.9461159948786502),
    "50": (0.5950930809268953, 0.9468251562991415),
    "100": (0.5948751081689199, 0.9473695210947439),
}


def random_povm(dims, rng):
    per_block = {}
    for J, dim in dims.items():
        if dim == 1 or rng.uniform() < 0.3:
            per_block[J] = SingleEstimate(rng.uniform(0.0, math.pi))
        else:
            theta = rng.uniform(0.0, math.pi)
            v = np.array([math.cos(theta), math.sin(theta)])
            p = np.outer(v, v)
            per_block[J] = PairEstimate(rng.uniform(0.0, math.pi / 2),
                                        p, np.eye(2) - p)
    return PovmSpec(per_block)


class TestSingleEstimate:
    def test_higher_block_peak_at_half_pi(self):
        mu, _ = optimal_single_estimate(GenericState.two_term(0.6), "1/2", "3/2")
        assert mu == pytest.approx(math.pi / 2, abs=1e-12)

    def test_parallel_blocks_match_grid_scan(self):
        from scipy.optimize import brentq
        state = GenericState.parallel()
        trig = signal_trig_blocks(state, half("1/2"))
        for J, blk in trig.blocks.items():
            mu_star, val = optimal_single_estimate(state, "1/2", J)
            t0, t1, t2 = blk.trace_coeffs()
            f = lambda m: t0 + t1 * np.sin(m) + t2 * np.cos(m)  # a float or the whole grid
            grid = np.linspace(0.0, math.pi, 100001)
            k = int(np.argmax(f(grid)))
            # refine by rooting the numerical derivative; function-value search
            # alone floors at sqrt(eps) near the peak
            h = 1e-6
            df = lambda m: (f(m + h) - f(m - h)) / (2.0 * h)
            lo, hi = grid[max(k - 2, 0)], grid[min(k + 2, grid.size - 1)]
            mu_num = brentq(df, lo, hi, xtol=1e-12)
            assert abs(mu_star - mu_num) < 1e-8
            assert val == pytest.approx(f(mu_star), abs=1e-14)

    def test_rejects_wrong_dimension(self):
        with pytest.raises(UnsupportedBlockError):
            optimal_single_estimate(GenericState.two_term(0.6), "1/2", "1/2")


def dense_pair_reference(blk, points=200001):
    """max over mu in [0, pi/2] of tr A(mu) + sum of positive eigenvalues of A(pi - mu) - A(mu)."""
    mu = np.linspace(0.0, math.pi / 2.0, points)[:, None, None]
    a_mu = blk.k0 + np.sin(mu) * blk.k1 + np.cos(mu) * blk.k2
    a_conj = blk.k0 + np.sin(mu) * blk.k1 - np.cos(mu) * blk.k2
    eigs = np.linalg.eigvalsh(a_conj - a_mu)
    vals = np.trace(a_mu, axis1=1, axis2=2) + np.where(eigs > 0.0, eigs, 0.0).sum(axis=1)
    return float(vals.max())


def povm_value(blk, estimate):
    if isinstance(estimate, SingleEstimate):
        return float(np.trace(blk.at(estimate.mu)))
    return sum(float(np.trace(blk.at(mu) @ e)) for mu, e in estimate.elements())


SIGNAL_CASES = [
    (GenericState.two_term(0.609), j2) for j2 in ("1/2", 1, "5/2", 7)
] + [
    (GenericState.from_dict("1/2", {"1/2": 0.8, "3/2": 0.6}), j2) for j2 in ("1/2", 2, "9/2")
] + [
    (GenericState.from_dict(1, {1: math.cos(0.4), 2: math.sin(0.4)}), j2) for j2 in (1, "3/2", 6)
]

NEGATIVE_K1_BLOCKS = [
    TrigBlock((half(0),), np.array([[0.3]]), np.array([[-0.1]]), np.array([[0.05]])),
    TrigBlock((half(0),), np.array([[0.3]]), np.array([[-0.1]]), np.array([[-0.05]])),
    TrigBlock((half(0), half(1)), np.array([[0.2, 0.01], [0.01, 0.1]]),
              np.array([[-0.05, 0.02], [0.02, 0.01]]),
              np.array([[0.03, -0.04], [-0.04, -0.02]])),
]


class TestBlockOptimum:
    """The closed form against a dense scan of the (nu, pi - nu) pair objective."""

    @pytest.mark.parametrize("state,j2", SIGNAL_CASES)
    def test_signal_blocks_match_dense_scan(self, state, j2):
        for J, blk in signal_trig_blocks(state, half(j2)).blocks.items():
            estimate, contrib = _block_optimum(J, blk)
            ref = dense_pair_reference(blk)
            assert ref - 1e-13 <= contrib <= ref + 1e-10
            assert povm_value(blk, estimate) == pytest.approx(contrib, abs=1e-13)

    @pytest.mark.parametrize("blk", NEGATIVE_K1_BLOCKS)
    def test_negative_trace_k1_takes_endpoint(self, blk):
        estimate, contrib = _block_optimum(half(0), blk)
        ref = dense_pair_reference(blk)
        assert contrib == pytest.approx(ref, abs=1e-15)
        assert povm_value(blk, estimate) == pytest.approx(contrib, abs=1e-15)
        mus = ([estimate.mu] if isinstance(estimate, SingleEstimate)
               else [mu for mu, _ in estimate.elements()])
        assert all(mu in (0.0, math.pi) for mu in mus)


class TestPairEstimateBlock:
    def test_rejects_wrong_dimension(self):
        with pytest.raises(UnsupportedBlockError):
            optimal_pair(GenericState.two_term(0.6), "1/2", "3/2")

    @pytest.mark.parametrize("a", [0.1, 0.3, 0.5, 0.609, 0.7, 0.9])
    def test_closed_form_nu(self, a):
        nu, pair, _ = optimal_pair(GenericState.two_term(a), "1/2", "1/2")
        assert abs(nu - two_term_nu(a)) < 1e-8
        assert pair.nu == nu

    def test_closed_form_nu_domain(self):
        assert two_term_nu(0.0) == two_term_nu(1.0) == math.pi / 2.0
        for a in (math.nan, math.inf, -math.inf, -0.5, 1.5):
            with pytest.raises(DomainError):
                two_term_nu(a)

    def test_degenerate_amplitudes(self):
        # off-diagonal vanishes; the pair construction must still be valid
        for a in (0.0, 1.0):
            nu, pair, contrib = optimal_pair(GenericState.two_term(a), "1/2", "1/2")
            total = pair.proj_nu + pair.proj_conjugate
            assert np.abs(total - np.eye(2)).max() < 1e-12
            assert contrib > 0.0

    def test_eigenvector_structure(self):
        # the difference operator is off-diagonal, so projectors lie along (1, +-1)
        _, pair, _ = optimal_pair(GenericState.two_term(0.609), "1/2", "1/2")
        plus = np.array([1.0, 1.0]) / math.sqrt(2.0)
        minus = np.array([1.0, -1.0]) / math.sqrt(2.0)
        spans = sorted([abs(plus @ pair.proj_nu @ plus),
                        abs(minus @ pair.proj_nu @ minus)])
        assert spans[0] == pytest.approx(0.0, abs=1e-12)
        assert spans[1] == pytest.approx(1.0, abs=1e-12)

    def test_pair_relabeling_symmetry(self):
        state = GenericState.two_term(0.5)
        nu, pair, contrib = optimal_pair(state, "1/2", "1/2")
        blk = signal_trig_blocks(state, half("1/2")).blocks[half("1/2")]
        swapped = (float(np.trace(blk.at(nu) @ pair.proj_nu))
                   + float(np.trace(blk.at(math.pi - nu) @ pair.proj_conjugate)))
        relabeled = (float(np.trace(blk.at(math.pi - nu) @ pair.proj_conjugate))
                     + float(np.trace(blk.at(nu) @ pair.proj_nu)))
        assert swapped == relabeled
        assert contrib == pytest.approx(swapped, abs=1e-14)


class TestMaxFidelity:
    def test_contributions_sum(self):
        result = max_fidelity(GenericState.two_term(0.609), "1/2")
        assert result.fidelity == pytest.approx(
            sum(result.per_block_contributions.values()), abs=1e-12)

    def test_certified(self):
        result = max_fidelity(GenericState.parallel(), "1/2")
        assert result.certified
        assert result.certificate_min_eigenvalue >= -1e-9

    def test_rejects_large_blocks(self):
        # three j1 values all couple into J=1 with j2=1: dimension 3
        with pytest.raises(UnsupportedBlockError, match="J=1 "):
            max_fidelity(THREE_TERM, 1)

    @pytest.mark.parametrize("state", [GenericState.parallel(),
                                       GenericState.antiparallel(),
                                       GenericState.two_term(0.609)])
    def test_dominates_random_povms(self, state):
        rng = np.random.default_rng(17)
        dims = block_dims(state, "1/2")
        result = max_fidelity(state, "1/2")
        assert result.certified
        for _ in range(20):
            competitor = random_povm(dims, rng)
            f = fidelity(state, "1/2", competitor)
            assert f <= result.fidelity + 1e-7


class TestCertificate:
    def test_suboptimal_povm_detected(self):
        state = GenericState.parallel()
        dims = block_dims(state, "1/2")
        povm = PovmSpec({J: SingleEstimate(0.0) for J in dims})
        assert helstrom_certificate(state, "1/2", povm) < -1e-3

    def test_optimal_two_term_passes(self):
        result = max_fidelity(GenericState.two_term(0.609), "1/2", certify=False)
        assert helstrom_certificate(GenericState.two_term(0.609), "1/2",
                                    result.povm) >= -1e-9

    def test_three_dim_block_unsupported(self):
        # j2 = 1 couples all three labels into J = 1; the closed form covers 1x1 and 2x2
        povm = PovmSpec({J: SingleEstimate(1.0) for J in block_dims(THREE_TERM, "1")})
        with pytest.raises(UnsupportedBlockError, match="J=1"):
            helstrom_certificate(THREE_TERM, "1", povm)


def scan_reference(trig, povm, grid=1001):
    """Per-block eigvalsh scan of Upsilon - A(mu), independent of the closed form."""
    worst = math.inf
    for J, blk in trig.blocks.items():
        upsilon = np.zeros((blk.dim, blk.dim))
        for mu, element in povm.elements(J, blk.dim):
            upsilon += blk.at(mu) @ element
        upsilon = (upsilon + upsilon.T) / 2.0
        for mu in np.linspace(0.0, math.pi, grid):
            worst = min(worst, float(np.linalg.eigvalsh(upsilon - blk.at(mu)).min()))
    return worst


SCALE_FREE = st.floats(-1e3, 1e3, allow_nan=False, allow_subnormal=False)


def assert_lambda_min_matches_eigvalsh(a, b, c):
    ref = np.linalg.eigvalsh(np.array([[a, b], [b, c]]))[0]
    assert abs(_lambda_min(a, b, c) - ref) <= 1e-14 * max(abs(a), abs(b), abs(c))


class TestClosedFormCertificate:
    @given(SCALE_FREE, SCALE_FREE, SCALE_FREE)
    @example(1.0, 1e-200, 1.0)
    @example(1e-3, 1e3, -1e-3)
    def test_lambda_min_matches_eigvalsh(self, a, b, c):
        assert_lambda_min_matches_eigvalsh(a, b, c)

    @given(SCALE_FREE, SCALE_FREE)
    def test_lambda_min_degenerate_cases(self, x, y):
        assert_lambda_min_matches_eigvalsh(x, 0.0, y)  # b = 0
        assert_lambda_min_matches_eigvalsh(x, y, x)  # a = c
        assert _lambda_min(x, 0.0, x) == x  # a 1-dim block enters exactly
        assert _lambda_min(0.0, 0.0, 0.0) == 0.0

    @pytest.mark.parametrize("state", [
        GenericState.two_term(0.609),
        GenericState.parallel(),
        GenericState.from_dict(0, {0: math.cos(0.7), 3: -math.sin(0.7)}),
        GenericState.from_dict("1/2", {"1/2": math.cos(1.1), "5/2": math.sin(1.1)}),
        GenericState.from_dict(1, {1: math.cos(0.4), 2: math.sin(0.4)}),
    ], ids=["two_term", "parallel", "m1=0", "m1=1/2", "m1=1"])
    @pytest.mark.parametrize("j2", ["1/2", "1", "7/2", "25", "100"])
    def test_matches_eigvalsh_scan(self, state, j2):
        trig = signal_trig_blocks(state, half(j2))
        povm = max_fidelity(state, j2, certify=False).povm
        assert _certificate(trig, povm, 1001) == pytest.approx(
            scan_reference(trig, povm), abs=1e-14)

    def test_found_m1_state_still_fails(self):
        # the (nu, pi - nu) pair is not optimal for this m1 = 1 superposition
        state = GenericState.from_dict(1, {1: math.cos(0.4), 2: math.sin(0.4)})
        trig = signal_trig_blocks(state, half(1))
        povm = max_fidelity(state, 1, certify=False).povm
        cert = helstrom_certificate(state, 1, povm)
        assert cert < -1e-3
        assert cert == pytest.approx(scan_reference(trig, povm), abs=1e-14)

    def test_no_eigensolver_on_the_certificate_path(self, monkeypatch):
        state = GenericState.two_term(0.6)
        povm = max_fidelity(state, "1/2", certify=False).povm

        def refuse(*args, **kwargs):
            raise AssertionError("eigensolver called")
        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        monkeypatch.setattr(np.linalg, "eigh", refuse)
        povm.validate(block_dims(state, "1/2"))
        assert helstrom_certificate(state, "1/2", povm) >= CERTIFICATE_PASS

    def test_nan_block_is_not_skipped(self):
        # the reduction over blocks must propagate NaN, never drop it
        state = GenericState.two_term(0.6)
        povm = max_fidelity(state, "1/2", certify=False).povm
        povm.per_block[half("3/2")] = SingleEstimate(math.nan)
        assert math.isnan(_certificate(signal_trig_blocks(state, half("1/2")), povm, 1001))


def nan_pair(pair):
    return PairEstimate(math.nan, pair.proj_nu, pair.proj_conjugate)


def nan_projector(pair):
    return PairEstimate(pair.nu, np.full((2, 2), math.nan), pair.proj_conjugate)


class TestNonFinitePovm:
    """One block of the optimal POVM for two_term(0.6) at j2 = 1/2 replaced by a non-finite one."""

    @pytest.fixture(params=["pair_nan_nu", "nan_projector", "single_nan"])
    def povm(self, request):
        state = GenericState.two_term(0.6)
        povm = max_fidelity(state, "1/2", certify=False).povm
        J = half("1/2") if request.param != "single_nan" else half("3/2")
        replace = {"pair_nan_nu": nan_pair, "nan_projector": nan_projector,
                   "single_nan": lambda _: SingleEstimate(math.nan)}[request.param]
        povm.per_block[J] = replace(povm.per_block[J])
        return state, povm

    def test_certificate_rejects(self, povm):
        state, povm = povm
        with pytest.raises(DomainError, match="non-finite"):
            helstrom_certificate(state, "1/2", povm)

    def test_fidelity_and_montecarlo_reject(self, povm):
        state, povm = povm
        with pytest.raises(DomainError):
            fidelity(state, "1/2", povm)
        with pytest.raises(DomainError):
            fidelity_montecarlo(state, "1/2", povm, samples=10, seed=0)


class TestCertificateGrid:
    @pytest.mark.parametrize("grid", [0, 1, CERTIFICATE_GRID_MIN - 1, 101.0, 1001.5, "1001", None])
    def test_rejects_bad_grid(self, grid, monkeypatch):
        state = GenericState.parallel()
        povm = max_fidelity(state, "1/2", certify=False).povm
        trig = signal_trig_blocks(state, half("1/2"))

        def refuse(*args):
            raise AssertionError("certificate ran before the grid check")
        monkeypatch.setattr(optimizer_module, "_certificate", refuse)
        with pytest.raises(DomainError):
            helstrom_certificate(state, "1/2", povm, grid=grid)
        with pytest.raises(DomainError):
            optimize_trig_blocks(trig, grid=grid)

    def test_minimum_grid_accepted(self):
        state = GenericState.parallel()
        povm = max_fidelity(state, "1/2", certify=False).povm
        for grid in (CERTIFICATE_GRID_MIN, np.int64(CERTIFICATE_GRID_MIN)):
            assert helstrom_certificate(state, "1/2", povm, grid=grid) >= CERTIFICATE_PASS


class TestOptimizeState:
    def test_rejects_zero_j2(self):
        with pytest.raises(DomainError):
            optimize_state(0)

    def test_spin_half_optimum(self):
        a_star, sector, result = optimize_state("1/2")
        assert a_star == pytest.approx(0.609, abs=0.005)
        assert sector == half(0)
        assert result.fidelity == pytest.approx(0.91092, abs=5e-5)
        assert result.certified

    def test_single_interior_peak(self):
        # exactly one sign change of the finite-difference gradient
        grid = np.linspace(0.0, 1.0, 101)
        vals = [max_fidelity(GenericState.two_term(a), "1/2", certify=False).fidelity
                for a in grid]
        diffs = np.sign(np.diff(vals))
        changes = np.count_nonzero(np.diff(diffs[diffs != 0.0]))
        assert changes == 1

    @pytest.mark.parametrize("twice_j2", [1, 2, 4, 9, 20])
    def test_m1_zero_sector_wins(self, twice_j2):
        a_star, sector, result = optimize_state(HalfInt(twice_j2))
        par = max_fidelity(GenericState.parallel(), HalfInt(twice_j2), certify=False)
        assert sector == half(0)
        assert result.fidelity >= par.fidelity - 1e-9


def eigen_fidelity(state, j2):
    """Sum of block values with ||k2||_1 from eigvalsh, independent of the optimizer."""
    total = 0.0
    for blk in signal_trig_blocks(state, half(j2)).blocks.values():
        t0, t1, _ = blk.trace_coeffs()
        total += t0 + math.hypot(max(t1, 0.0), np.abs(np.linalg.eigvalsh(blk.k2)).sum())
    return total


class TestBatchedFidelities:
    @pytest.mark.parametrize("j2", ["1/2", "3/2", "7", "50", "100"])
    def test_two_term_grid_matches_per_state_solve(self, j2):
        a = np.linspace(0.0, 1.0, 101)
        rows = np.stack([a, np.sqrt(1.0 - a * a)], axis=1)
        batched = _fidelities(half(0), (half(0), half(1)), half(j2), rows)
        assert batched.shape == a.shape
        for ai, f in zip(a, batched):
            state = GenericState.two_term(ai)
            assert f == pytest.approx(max_fidelity(state, j2, certify=False).fidelity, abs=1e-14)
            assert f == pytest.approx(eigen_fidelity(state, j2), abs=1e-14)

    @pytest.mark.parametrize("m1, labels", [("1/2", ("1/2", "3/2")), ("1", ("1", "2"))])
    def test_general_rows_match_per_state_solve(self, m1, labels):
        rng = np.random.default_rng(7)
        rows = rng.normal(size=(40, 2))
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
        labels = tuple(half(j) for j in labels)
        for j2 in ("1/2", "2", "15"):
            batched = _fidelities(half(m1), labels, half(j2), rows)
            for row, f in zip(rows, batched):
                state = GenericState.from_dict(m1, dict(zip(labels, row)))
                assert f == pytest.approx(max_fidelity(state, j2, certify=False).fidelity,
                                          abs=1e-14)
                assert f == pytest.approx(eigen_fidelity(state, j2), abs=1e-14)


class TestSearchParameters:
    @pytest.fixture(autouse=True)
    def no_search(self, monkeypatch):
        # a parameter check placed after the search would fail here, not hang
        def refuse(*args):
            raise AssertionError("search ran before the parameter check")
        monkeypatch.setattr(optimizer_module, "_fidelities", refuse)

    @pytest.mark.parametrize("coarse_step", [0.0, -0.1, math.nan, math.inf, 0.6, 2.0])
    def test_rejects_bad_coarse_step(self, coarse_step):
        with pytest.raises(DomainError):
            optimize_state("1/2", coarse_step=coarse_step)

    @pytest.mark.parametrize("tol", [0.0, -1e-8, math.nan, math.inf])
    def test_rejects_bad_tol(self, tol):
        with pytest.raises(DomainError):
            optimize_state("1/2", tol=tol)


class TestBatchedSearch:
    @pytest.mark.parametrize("j2", default_sweep_grid(), ids=str)
    def test_matches_pinned_optima(self, j2):
        a_ref, f_ref = PINNED_OPTIMA[str(j2)]
        a_star, sector, result = optimize_state(j2)
        assert sector == half(0)
        assert abs(a_star - a_ref) <= 1e-7
        assert abs(result.fidelity - f_ref) <= 1e-14

    def test_two_block_solves_per_search(self, monkeypatch):
        calls = []
        solve = optimizer_module.optimize_trig_blocks

        def counting(*args, **kwargs):
            calls.append(kwargs.get("certify", True))
            return solve(*args, **kwargs)

        monkeypatch.setattr(optimizer_module, "optimize_trig_blocks", counting)
        a_star, _, result = optimize_state("1/2")
        assert len(calls) <= 2
        assert result.certified

    def test_widest_coarse_step_still_converges(self):
        a_star, _, _ = optimize_state("1/2", coarse_step=0.5)
        assert abs(a_star - PINNED_OPTIMA["1/2"][0]) <= 1e-7

    def test_tiny_tol_stops_when_the_bracket_stalls(self, monkeypatch):
        # the bracket cannot shrink below the float spacing near a*; a search
        # that kept going would fail on the pass count here instead of hanging
        passes = []
        evaluate = optimizer_module._fidelities

        def counting(*args):
            passes.append(1)
            assert len(passes) <= 20, "bracket search did not stop"
            return evaluate(*args)

        monkeypatch.setattr(optimizer_module, "_fidelities", counting)
        a_star, _, result = optimize_state("1/2", tol=1e-300)
        assert abs(a_star - PINNED_OPTIMA["1/2"][0]) <= 1e-7
        assert result.fidelity >= PINNED_OPTIMA["1/2"][1] - 1e-14


class TestAmplitudeGrid:
    def coarse_grid(self, monkeypatch, **kwargs):
        grids = []
        evaluate = optimizer_module._fidelities

        def recording(m1, labels, j2, rows):
            grids.append(rows[:, 0].copy())
            return evaluate(m1, labels, j2, rows)

        monkeypatch.setattr(optimizer_module, "_fidelities", recording)
        optimize_state("1/2", **kwargs)
        return grids[0]

    def test_search_values_a_equal_one(self, monkeypatch):
        grid = self.coarse_grid(monkeypatch, coarse_step=0.3)
        assert grid.tolist() == [0.0, 0.3, 0.6, 0.8999999999999999, 1.0]

    def test_default_grid_unchanged(self, monkeypatch):
        # the grid before a = 1 was always included, min(1, i * step) for i <= 1000
        grid = self.coarse_grid(monkeypatch)
        assert np.array_equal(grid, np.minimum(1.0, np.arange(1001) * 0.001))

    @pytest.mark.parametrize("step", [0.001, 0.01, 0.07, 0.1, 0.25, 0.3, 1.0 / 3.0, 0.4, 0.5])
    def test_endpoints_once_and_increasing(self, step):
        grid = _amplitude_grid(step)
        assert grid[0] == 0.0 and grid[-1] == 1.0
        assert np.count_nonzero(grid == 1.0) == 1
        assert np.all(np.diff(grid) > 0.0)
        assert np.diff(grid).max() <= step * (1.0 + 1e-12)
