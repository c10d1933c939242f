import math
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from relangle.su2 import DomainError, HalfInt, half
from relangle.states import GenericState
from relangle.estimator import (
    BlockPovm,
    PovmSpec,
    StructureMismatchError,
    TrigBlock,
    TrigBlocks,
    _lambda_min,
    fidelity,
    fidelity_montecarlo,
    signal_trig_blocks,
)
import relangle.estimator as estimator_module
import relangle.optimizer as optimizer_module
from relangle import limits
from relangle.limits import classical_trig_blocks, default_sweep_grid, sweep_optimal_vs_j2
from relangle.optimizer import (
    CERTIFICATE_PASS,
    UnsupportedBlockError,
    _certificate,
    _quadratic_roots,
    _search,
    _two_term_optimum,
    helstrom_certificate,
    max_fidelity,
    optimize_state,
    optimize_trig_blocks,
    two_term_nu,
)
from relangle.cli import _amplitude_grid
from helpers import block_dims, geometry_blocks, reference_fidelities

THREE_TERM = GenericState.from_dict(0, {0: 0.5, 1: 0.5, 2: math.sqrt(0.5)})

# (a*, F) from optimize_state at its defaults for each j2 of default_sweep_grid(),
# as returned by the golden-section refinement that preceded the batched bracket
# search (1001-point grid, golden section to 1e-8); printed with repr() once.
# F at j2 = 30 and 100 is the nearest float to its 40-digit value at the pinned a*
# (0.94611599487863143041 and 0.94736952109471712728), from an mpmath evaluation of the
# Clebsch-Gordan route with exact sympy coefficients; the float route read 1.9e-14 and
# 2.7e-14 above it there.  The closed-form root's a* lies within 2.9e-8 of every pinned a*,
# and F at it within 5.8e-15 of every pinned F: F is flat to roundoff that close to a*.
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
    "30": (0.5953768891041162, 0.9461159948786314),
    "50": (0.5950930809268953, 0.9468251562991415),
    "100": (0.5948751081689199, 0.9473695210947171),
}


def random_povm(dims, rng):
    per_block = {}
    for J, dim in dims.items():
        if dim == 1 or rng.uniform() < 0.3:
            per_block[J] = BlockPovm([rng.uniform(0.0, math.pi)], [np.eye(dim)])
        else:
            theta = rng.uniform(0.0, math.pi)
            v = np.array([math.cos(theta), math.sin(theta)])
            p = np.outer(v, v)
            nu = rng.uniform(0.0, math.pi / 2)
            per_block[J] = BlockPovm([nu, math.pi - nu], [p, np.eye(2) - p])
    return PovmSpec(per_block)


class TestSingleEstimate:
    def test_higher_block_peak_at_half_pi(self):
        single = max_fidelity(GenericState.two_term(0.6), "1/2", certify=False).povm.per_block[half("3/2")]
        assert single.mus.shape == (1,)
        assert single.mus[0] == pytest.approx(math.pi / 2, abs=1e-12)

    def test_parallel_blocks_match_grid_scan(self):
        from scipy.optimize import brentq
        state = GenericState.parallel()
        trig = signal_trig_blocks(state, half("1/2"))
        result = max_fidelity(state, "1/2", certify=False)
        for J, blk in trig.blocks.items():
            single, val = result.povm.per_block[J], result.per_block_contributions[J]
            (mu_star,) = single.mus
            t0, t1, t2 = (float(np.trace(k)) for k in (blk.k0, blk.k1, blk.k2))
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


def dense_pair_reference(blk, points=200001):
    """max over mu in [0, pi/2] of tr A(mu) + sum of positive eigenvalues of A(pi - mu) - A(mu)."""
    mu = np.linspace(0.0, math.pi / 2.0, points)[:, None, None]
    a_mu = blk.k0 + np.sin(mu) * blk.k1 + np.cos(mu) * blk.k2
    a_conj = blk.k0 + np.sin(mu) * blk.k1 - np.cos(mu) * blk.k2
    eigs = np.linalg.eigvalsh(a_conj - a_mu)
    vals = np.trace(a_mu, axis1=1, axis2=2) + np.where(eigs > 0.0, eigs, 0.0).sum(axis=1)
    return float(vals.max())


def povm_value(blk, estimate):
    return sum(float(np.trace(blk.at(mu) @ e)) for mu, e in zip(estimate.mus, estimate.elements))


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


def solve_alone(blk, J=half(0)):
    """optimize_trig_blocks on a family of the one block: its BlockPovm and contribution."""
    result = optimize_trig_blocks(TrigBlocks.of({J: blk}), certify=False)
    return result.povm.per_block[J], result.per_block_contributions[J]


class TestBlockOptimum:
    """The closed form against a dense scan of the (nu, pi - nu) pair objective."""

    @pytest.mark.parametrize("state,j2", SIGNAL_CASES)
    def test_signal_blocks_match_dense_scan(self, state, j2):
        result = max_fidelity(state, j2, certify=False)
        for J, blk in signal_trig_blocks(state, half(j2)).blocks.items():
            estimate, contrib = result.povm.per_block[J], result.per_block_contributions[J]
            ref = dense_pair_reference(blk)
            assert ref - 1e-13 <= contrib <= ref + 1e-10
            assert povm_value(blk, estimate) == pytest.approx(contrib, abs=1e-13)

    @pytest.mark.parametrize("blk", NEGATIVE_K1_BLOCKS)
    def test_negative_trace_k1_takes_endpoint(self, blk):
        estimate, contrib = solve_alone(blk)
        ref = dense_pair_reference(blk)
        assert contrib == pytest.approx(ref, abs=1e-15)
        assert povm_value(blk, estimate) == pytest.approx(contrib, abs=1e-15)
        assert all(mu in (0.0, math.pi) for mu in estimate.mus)


class TestPairEstimateBlock:
    @pytest.mark.parametrize("a", [0.1, 0.3, 0.5, 0.609, 0.7, 0.9])
    def test_closed_form_nu(self, a):
        pair = max_fidelity(GenericState.two_term(a), "1/2", certify=False).povm.per_block[half("1/2")]
        nu, conjugate = pair.mus
        assert abs(nu - two_term_nu(a)) < 1e-8
        assert conjugate == math.pi - nu

    def test_closed_form_nu_domain(self):
        assert two_term_nu(0.0) == two_term_nu(1.0) == math.pi / 2.0
        for a in (math.nan, math.inf, -math.inf, -0.5, 1.5):
            with pytest.raises(DomainError):
                two_term_nu(a)

    def test_degenerate_amplitudes(self):
        # off-diagonal vanishes; the pair construction must still be valid
        for a in (0.0, 1.0):
            result = max_fidelity(GenericState.two_term(a), "1/2", certify=False)
            pair, contrib = result.povm.per_block[half("1/2")], result.per_block_contributions[half("1/2")]
            total = pair.elements.sum(axis=0)
            assert np.abs(total - np.eye(2)).max() < 1e-12
            assert contrib > 0.0

    def test_eigenvector_structure(self):
        # the difference operator is off-diagonal, so projectors lie along (1, +-1)
        pair = max_fidelity(GenericState.two_term(0.609), "1/2", certify=False).povm.per_block[half("1/2")]
        proj_nu = pair.elements[0]
        plus = np.array([1.0, 1.0]) / math.sqrt(2.0)
        minus = np.array([1.0, -1.0]) / math.sqrt(2.0)
        spans = sorted([abs(plus @ proj_nu @ plus),
                        abs(minus @ proj_nu @ minus)])
        assert spans[0] == pytest.approx(0.0, abs=1e-12)
        assert spans[1] == pytest.approx(1.0, abs=1e-12)

    def test_pair_relabeling_symmetry(self):
        state = GenericState.two_term(0.5)
        result = max_fidelity(state, "1/2", certify=False)
        pair, contrib = result.povm.per_block[half("1/2")], result.per_block_contributions[half("1/2")]
        nu = pair.mus[0]
        proj_nu, proj_conjugate = pair.elements
        blk = signal_trig_blocks(state, half("1/2")).blocks[half("1/2")]
        swapped = (float(np.trace(blk.at(nu) @ proj_nu))
                   + float(np.trace(blk.at(math.pi - nu) @ proj_conjugate)))
        relabeled = (float(np.trace(blk.at(math.pi - nu) @ proj_conjugate))
                     + float(np.trace(blk.at(nu) @ proj_nu)))
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
        povm = PovmSpec({J: BlockPovm([0.0], [np.eye(dim)]) for J, dim in dims.items()})
        assert helstrom_certificate(state, "1/2", povm) < -1e-3

    def test_optimal_two_term_passes(self):
        result = max_fidelity(GenericState.two_term(0.609), "1/2", certify=False)
        assert helstrom_certificate(GenericState.two_term(0.609), "1/2",
                                    result.povm) >= -1e-9

    def test_three_dim_block_unsupported(self):
        # j2 = 1 couples all three labels into J = 1; the closed form covers 1x1 and 2x2
        povm = PovmSpec({J: BlockPovm([1.0], [np.eye(dim)])
                         for J, dim in block_dims(THREE_TERM, "1").items()})
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
        assert _certificate(trig, povm) == pytest.approx(
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
        povm.per_block[half("3/2")] = BlockPovm([math.nan], [[[1.0]]])
        assert math.isnan(_certificate(signal_trig_blocks(state, half("1/2")), povm))


def nan_pair(pair):
    return BlockPovm(np.full(2, math.nan), pair.elements)


def nan_projector(pair):
    return BlockPovm(pair.mus, [np.full((2, 2), math.nan), pair.elements[1]])


class TestNonFinitePovm:
    """One block of the optimal POVM for two_term(0.6) at j2 = 1/2 replaced by a non-finite one."""

    @pytest.fixture(params=["pair_nan_nu", "nan_projector", "single_nan"])
    def povm(self, request):
        state = GenericState.two_term(0.6)
        povm = max_fidelity(state, "1/2", certify=False).povm
        J = half("1/2") if request.param != "single_nan" else half("3/2")
        replace = {"pair_nan_nu": nan_pair, "nan_projector": nan_projector,
                   "single_nan": lambda _: BlockPovm([math.nan], [[[1.0]]])}[request.param]
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
    # the mu grid is fixed: no grid argument is taken, whatever its value
    @pytest.mark.parametrize("grid", [0, 1, 100, 101.0, 1001.5, "1001", None])
    def test_rejects_bad_grid(self, grid, monkeypatch):
        state = GenericState.parallel()
        povm = max_fidelity(state, "1/2", certify=False).povm
        trig = signal_trig_blocks(state, half("1/2"))

        def refuse(*args):
            raise AssertionError("certificate ran with a grid argument")
        monkeypatch.setattr(optimizer_module, "_certificate", refuse)
        with pytest.raises(TypeError):
            helstrom_certificate(state, "1/2", povm, grid=grid)
        with pytest.raises(TypeError):
            optimize_trig_blocks(trig, grid=grid)


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

    @pytest.mark.parametrize("below, sector", [(2e-9, half(1)), (0.5e-9, half(0))],
                             ids=["parallel-wins", "tie-goes-to-m1-zero"])
    def test_tie_rule_picks_the_sector(self, below, sector, monkeypatch):
        # the two-term value at a* set just below F_par: beyond 1e-9 the parallel state wins;
        # a* and the antiparallel value that come with it keep their own values
        optimum = optimizer_module._two_term_optimum

        def lowered(j2):
            a_star, _, f_anti = optimum(j2)
            f_par = max_fidelity(GenericState.parallel(), j2, certify=False).fidelity
            return a_star, f_par - below, f_anti

        monkeypatch.setattr(optimizer_module, "_two_term_optimum", lowered)
        a_star, got, result = optimize_state("3/2")
        assert got == sector
        searched_a, *_, searched_sector = optimizer_module._search("3/2")
        assert (searched_sector, optimizer_module._preparation(searched_a, searched_sector)) == (
            sector, GenericState.two_term(a_star) if sector == 0 else GenericState.parallel())
        assert result.certified
        (row,) = sweep_optimal_vs_j2(["3/2"])
        assert row.a_star == a_star
        if sector == half(1):
            par = max_fidelity(GenericState.parallel(), "3/2")
            assert result.fidelity == par.fidelity == row.f_opt == row.f_parallel
            assert result.certificate_min_eigenvalue == par.certificate_min_eigenvalue
            assert result.povm.per_block.keys() == par.povm.per_block.keys()


class TestSearchParameters:
    # the search's step and tolerance are fixed: optimize_state takes neither
    @pytest.fixture(autouse=True)
    def no_search(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("search ran with a step or tolerance argument")
        monkeypatch.setattr(optimizer_module, "_two_term_optimum", refuse)

    @pytest.mark.parametrize("coarse_step", [0.0, -0.1, math.nan, math.inf, 0.6, 2.0])
    def test_rejects_bad_coarse_step(self, coarse_step):
        with pytest.raises(TypeError):
            optimize_state("1/2", coarse_step=coarse_step)

    @pytest.mark.parametrize("tol", [0.0, -1e-8, math.nan, math.inf])
    def test_rejects_bad_tol(self, tol):
        with pytest.raises(TypeError):
            optimize_state("1/2", tol=tol)


class TestBatchedSearch:
    @pytest.mark.parametrize("j2", default_sweep_grid(), ids=str)
    def test_matches_pinned_optima(self, j2):
        a_ref, f_ref = PINNED_OPTIMA[str(j2)]
        a_star, sector, result = optimize_state(j2)
        assert sector == half(0)
        assert abs(a_star - a_ref) <= 1e-7
        assert abs(result.fidelity - f_ref) <= 1e-14

    @pytest.mark.parametrize("j2", default_sweep_grid(), ids=str)
    def test_search_state_is_the_one_certified(self, j2, monkeypatch):
        solved = []
        solve = optimizer_module.max_fidelity

        def recording(state, j2, certify=True):
            solved.append(state)
            return solve(state, j2, certify)

        a_star, f_opt, _, _, sector = _search(j2)
        state = optimizer_module._preparation(a_star, sector)
        monkeypatch.setattr(optimizer_module, "max_fidelity", recording)
        got_a, got_sector, result = optimize_state(j2)
        assert solved == [state]
        assert (got_a, got_sector) == (a_star, sector)
        # F_opt is the value the search maximised; the solve values the state built from a*
        assert abs(result.fidelity - f_opt) <= 1e-15
        assert state == GenericState.two_term(a_star)

    def test_one_certified_solve_per_search(self, monkeypatch):
        calls = []
        solve = optimizer_module.optimize_trig_blocks

        def counting(*args, **kwargs):
            calls.append(kwargs.get("certify", True))
            return solve(*args, **kwargs)

        monkeypatch.setattr(optimizer_module, "optimize_trig_blocks", counting)
        a_star, _, result = optimize_state("1/2")
        assert calls == [True]
        assert result.certified

    def test_sweep_row_solves_and_certifies_nothing(self, monkeypatch):
        # a row is the closed form on two cached geometries: no family, array pass, solve,
        # certificate or eigensolver, under whichever module holds the name
        def refuse(*args, **kwargs):
            raise AssertionError("a sweep row built, valued, solved or certified a family")

        lookups = []
        geometry = optimizer_module._geometry

        def counting(*key):
            lookups.append(key)
            return geometry(*key)

        for module in (estimator_module, optimizer_module, limits):
            for name in ("_products", "_contributions", "signal_trig_blocks",
                         "optimize_trig_blocks", "_certificate"):
                monkeypatch.setattr(module, name, refuse, raising=False)
        monkeypatch.setattr(np.linalg, "eigh", refuse)
        monkeypatch.setattr(optimizer_module, "_geometry", counting)
        (row,) = sweep_optimal_vs_j2(["7/2"])
        assert row.f_opt >= row.f_parallel
        assert len(lookups) == 2


TWO_TERM = (half(0), (half(0), half(1)))
ROOT_J2 = default_sweep_grid() + [half(10 ** 3), half(10 ** 4), half(10 ** 6)]

# a* at 40 digits: F(a) rebuilt in mpmath at 50 digits from the exact ratios that su2._racah
# and su2._six_j return for _multipoles (each entry the square root of one ratio, the k1
# weights with mpmath's pi), its eigen-decomposed ||k2||_1 included, and dF/da = 0 solved with
# mpmath.findroot.  The float root read 5.4e-16 and 9.8e-17 from these values.
A_STAR_40_DIGITS = {
    "1/2": "0.6092510124428706266574774709491220531640",
    "100": "0.5948751174787453434122822684055196672106",
}


def two_term_rows(a):
    a = np.atleast_1d(a)
    return np.stack([a, np.sqrt(1.0 - a * a)], axis=1)


class TestTwoTermOptimum:
    @pytest.mark.parametrize("j2", ROOT_J2, ids=str)
    def test_global_maximum_over_the_family(self, j2):
        grid = two_term_rows(np.linspace(0.0, 1.0, 10 ** 4))
        a_star, f_opt, f_anti = _two_term_optimum(j2)
        at_root, anti = reference_fidelities(*TWO_TERM, j2, two_term_rows([a_star, 0.5 ** 0.5]))
        assert at_root >= reference_fidelities(*TWO_TERM, j2, grid).max() - 1e-15
        # the returned values are F at a* and at a = b = 1/sqrt(2)
        assert abs(f_opt - at_root) <= 1e-15 and abs(f_anti - anti) <= 1e-15

    @pytest.mark.parametrize("j2", ROOT_J2, ids=str)
    def test_zero_k2_diagonal_and_positive_trace_k1(self, j2):
        # one block on both labels; the others hold label 1 alone
        blocks = geometry_blocks(*TWO_TERM, j2).values()
        ((_, (_, _, g2)),) = [blk for blk in blocks if len(blk[0]) == 2]
        assert all(basis == (half(1),) for basis, _ in blocks if len(basis) == 1)
        assert g2[0, 0] == 0.0 and g2[1, 1] == 0.0
        assert all(np.all(g1.diagonal() > 0.0) for _, (_, g1, _) in blocks)

    @pytest.mark.parametrize("j2", sorted(A_STAR_40_DIGITS), ids=str)
    def test_matches_40_digit_value(self, j2):
        assert abs(_two_term_optimum(half(j2))[0] - float(A_STAR_40_DIGITS[j2])) <= 1e-12

    @pytest.mark.parametrize("j2", ROOT_J2, ids=str)
    def test_matches_the_np_roots_optimum(self, j2):
        assert abs(_two_term_optimum(j2)[0] - np_roots_optimum(j2)) <= 1e-15


def np_roots_optimum(j2):
    """_two_term_optimum with the quadratic solved by np.roots and the candidates as arrays."""
    stacks = optimizer_module._geometry(*TWO_TERM, j2)[1]
    g0, g1, g2 = stacks[2][2][:, 0]
    l0, l1 = g0.diagonal() + [0.0, optimizer_module._block_value(*stacks[1][2][..., 0, 0])[0].sum()]
    t0, t1 = g1.diagonal()
    q0, q1, q2 = t0 * t0, 2.0 * t0 * t1 + 4.0 * g2[0, 1] ** 2, t1 * t1
    dl2, alpha, beta = 4.0 * (l1 - l0) ** 2, 2.0 * q0 - q1, q1 - 2.0 * q2
    roots = np.roots([dl2 * q2 - beta * beta, dl2 * q1 - 2.0 * alpha * beta, dl2 * q0 - alpha * alpha])
    s = np.maximum(roots.real, 0.0)
    a2, b2 = np.append([1.0, 0.0], 1.0 / (1.0 + s)), np.append([0.0, 1.0], s / (1.0 + s))
    f = a2 * l0 + b2 * l1 + np.sqrt(a2 * a2 * q0 + a2 * b2 * q1 + b2 * b2 * q2)
    return float(np.sqrt(a2[np.argmax(f)]))


class TestQuadraticRoots:
    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("scale", [(1.0, 1.0, 1.0), (1.0, 1e3, 1e-3)],
                             ids=["a third complex", "cancelling"])
    def test_matches_np_roots(self, seed, scale):
        for a, b, c in np.random.default_rng(seed).normal(size=(200, 3)) * scale:
            expected = np.roots([a, b, c])
            got = _quadratic_roots(float(a), float(b), float(c))
            if np.iscomplexobj(expected):  # a complex pair: its real part, once
                assert got == pytest.approx([expected[0].real], rel=1e-12)
            else:
                assert sorted(got) == pytest.approx(sorted(expected), rel=1e-12, abs=1e-300)

    @pytest.mark.parametrize("coeffs, roots", [
        ((0.0, 2.0, -3.0), [1.5]),  # a = 0: the linear root
        ((0.0, 0.0, 1.0), []),  # a = b = 0: none
        ((1.0, 2.0, 5.0), [-1.0]),  # negative discriminant: the pair's real part -b/2a
        ((1.0, -2.0, 1.0), [1.0, 1.0]),  # double root
        ((2.0, 0.0, 0.0), [0.0]),  # q = 0: the double root 0
        ((1.0, 0.0, -4.0), [-2.0, 2.0]),  # b = 0 takes sign +1
    ])
    def test_edge_cases(self, coeffs, roots):
        got = _quadratic_roots(*coeffs)
        assert sorted(got) == roots
        # np.roots finds a double root only to about sqrt(eps)
        assert all(min(abs(r - x) for x in got) <= 1e-7 for r in np.roots(coeffs).real)


class TestAmplitudeGrid:
    @pytest.mark.parametrize("step", [0.001, 0.01, 0.07, 0.1, 0.25, 0.3, 1.0 / 3.0, 0.4, 0.5])
    def test_endpoints_once_and_increasing(self, step):
        grid = _amplitude_grid(step)
        assert grid[0] == 0.0 and grid[-1] == 1.0
        assert np.count_nonzero(grid == 1.0) == 1
        assert np.all(np.diff(grid) > 0.0)
        assert np.diff(grid).max() <= step * (1.0 + 1e-12)


# ---------------------------------------------------------------------------
# one array pass per block dimension against the per-block code it replaced

def reference_block_optimum(blk):
    """The per-block solver: (mus, elements, contribution) of one block, one eigh per block."""
    contrib, t1, norm = optimizer_module._block_value(
        np.trace(blk.k0), np.trace(blk.k1), *blk.k2[np.triu_indices(blk.dim)])
    contrib, nu = float(contrib), float(np.arctan2(t1, norm))
    if blk.dim == 1:
        return np.array([nu if blk.k2[0, 0] > 0.0 else math.pi - nu]), np.ones((1, 1, 1)), contrib
    lam, vecs = np.linalg.eigh(blk.k2)
    pos = vecs[:, lam > 0.0]
    proj_nu = pos @ pos.T
    return np.array([nu, math.pi - nu]), np.array([proj_nu, np.eye(2) - proj_nu]), contrib


def reference_sym_entries(m):
    return m[0, 0], m[-1, 0] if len(m) == 2 else 0.0, m[-1, -1]


def reference_certificate(trig, povm, grid=1001):
    """The per-block certificate: Upsilon block by block, then one (blocks, grid) scan."""
    entries = []
    for J, blk in trig.blocks.items():
        spec = povm.per_block[J]
        upsilon = sum(blk.at(mu) @ element for mu, element in zip(spec.mus, spec.elements))
        upsilon = (upsilon + upsilon.T) / 2.0
        entries.append([reference_sym_entries(m) for m in (upsilon - blk.k0, blk.k1, blk.k2)])
    gap, k1, k2 = np.array(entries).transpose(1, 2, 0)[..., None]
    mu = np.linspace(0.0, math.pi, grid)
    sin_mu, cos_mu = np.sin(mu), np.cos(mu)
    return float(_lambda_min(*(g - sin_mu * x - cos_mu * y for g, x, y in zip(gap, k1, k2))).min())


def assert_matches_per_block(trig):
    """optimize_trig_blocks gives the per-block floats exactly, certificate included."""
    result = optimize_trig_blocks(trig)
    assert list(result.povm.per_block) == list(trig.blocks)
    assert list(result.per_block_contributions) == list(trig.blocks)
    for J, blk in trig.blocks.items():
        mus, elements, contrib = reference_block_optimum(blk)
        block = result.povm.per_block[J]
        assert result.per_block_contributions[J] == contrib
        assert np.array_equal(block.mus, mus)
        assert np.array_equal(block.elements, elements)
    assert result.fidelity == float(sum(result.per_block_contributions.values()))
    assert result.certificate_min_eigenvalue == reference_certificate(trig, result.povm)
    return result


M1_CASES = [
    (GenericState.from_dict("1/2", {"1/2": math.cos(1.1), "5/2": math.sin(1.1)}), j2)
    for j2 in ("1/2", "3", "25", "100")
] + [
    (GenericState.from_dict(1, {1: math.cos(0.4), 2: math.sin(0.4)}), j2)
    for j2 in ("1/2", 1, 2, 5, 100)
]


def trine(theta=0.3):
    """Three real rank-one elements (2/3)|v_i><v_i| at angles theta + i pi/3, summing to I."""
    vs = [np.array([math.cos(theta + i * math.pi / 3), math.sin(theta + i * math.pi / 3)])
          for i in range(3)]
    return np.array([2.0 / 3.0 * np.outer(v, v) for v in vs])


class TestPerDimensionPass:
    @pytest.mark.parametrize("state,j2", SIGNAL_CASES + M1_CASES)
    def test_signal_blocks(self, state, j2):
        assert_matches_per_block(signal_trig_blocks(state, half(j2)))

    @pytest.mark.parametrize("blk", NEGATIVE_K1_BLOCKS)
    def test_negative_trace_k1_blocks(self, blk):
        assert_matches_per_block(TrigBlocks.of({half(0): blk}))

    def test_mixed_dimensions_built_by_hand(self):
        # the three NEGATIVE_K1_BLOCKS as one family: two 1-dim blocks around a 2-dim one
        order = [NEGATIVE_K1_BLOCKS[0], NEGATIVE_K1_BLOCKS[2], NEGATIVE_K1_BLOCKS[1]]
        assert_matches_per_block(TrigBlocks.of({HalfInt(t): blk for t, blk in enumerate(order)}))

    @pytest.mark.parametrize("state", [
        GenericState.parallel(),
        GenericState.two_term(0.5),
        GenericState.from_dict(0, {1: 0.6, 3: 0.8}),
        GenericState.from_dict(1, {1: math.cos(0.4), 2: math.sin(0.4)}),
    ], ids=["parallel", "two_term", "m1=0 {1,3}", "m1=1"])
    def test_classical_blocks(self, state):
        assert_matches_per_block(classical_trig_blocks(state))

    @pytest.mark.parametrize("state,j2", [
        (THREE_TERM, "1/2"),  # 2-dim J = 1/2 and 3/2 blocks, a 1-dim J = 5/2 block
        (GenericState.from_dict(0, {0: 0.6, 2: 0.0, 4: 0.8}), 1),  # 2-dim J = 1 and 3
    ], ids=["three_term", "m1=0 {0,2,4}"])
    def test_mixed_outcome_counts_in_one_dimension(self, state, j2):
        trig = signal_trig_blocks(state, half(j2))
        dims = block_dims(state, j2)
        per_block = {}
        for J, dim in dims.items():
            if dim == 1:
                per_block[J] = BlockPovm([0.7], [np.eye(1)])
            elif 3 not in [len(b.mus) for b in per_block.values()]:  # the first 2-dim block
                per_block[J] = BlockPovm([0.4, 1.3, 2.6], trine())
            else:  # every later 2-dim block: the identity alone
                per_block[J] = BlockPovm([1.1], [np.eye(2)])
        povm = PovmSpec(per_block)
        assert sorted({len(b.mus) for J, b in per_block.items() if dims[J] == 2}) == [1, 3]
        cert = helstrom_certificate(state, j2, povm)
        assert cert == _certificate(trig, povm) == reference_certificate(trig, povm)
        assert cert < CERTIFICATE_PASS


def one_block(k0, k1, k2, basis=(half(0),)):
    return TrigBlock(basis, np.array(k0, dtype=float), np.array(k1, dtype=float),
                     np.array(k2, dtype=float))


GOOD_1 = one_block([[0.3]], [[0.1]], [[0.05]])
GOOD_2 = NEGATIVE_K1_BLOCKS[2]
PAIR = (half(0), half(1))


class TestMalformedTrigBlocks:
    @pytest.mark.parametrize("certify", [False, True])
    def test_non_finite_coefficient_raises(self, certify):
        for bad in ([[math.nan]], [[math.inf]]):
            with pytest.raises(DomainError, match=r"J=1 .*non-finite"):
                trig = TrigBlocks.of({half(0): GOOD_1, half(1): one_block(bad, [[0.1]], [[0.2]])})
                optimize_trig_blocks(trig, certify=certify)

    @pytest.mark.parametrize("k0, k1, k2", [
        (np.eye(2), [[0.1]], [[0.2]]),
        ([[0.3]], [0.1], [[0.2]]),
        ([[0.3]], [[0.1]], np.zeros((1, 2))),
    ], ids=["k0_2x2", "k1_1d", "k2_1x2"])
    def test_wrong_shape_names_the_block(self, k0, k1, k2):
        with pytest.raises(StructureMismatchError, match="J=1/2 "):
            optimize_trig_blocks(TrigBlocks.of({half(0): GOOD_1,
                                                half("1/2"): one_block(k0, k1, k2)}))

    def test_asymmetric_k2_raises(self):
        blk = one_block(GOOD_2.k0, GOOD_2.k1, [[0.2, 0.1], [0.3, 0.1]], PAIR)
        with pytest.raises(StructureMismatchError, match=r"J=3 .*asymmetric"):
            optimize_trig_blocks(TrigBlocks.of({half(2): GOOD_2, half(3): blk}), certify=False)

    def test_first_bad_block_in_j_order_is_named(self):
        nan_1 = one_block([[math.nan]], [[0.1]], [[0.2]])
        nan_2 = one_block(GOOD_2.k0, GOOD_2.k1, np.full((2, 2), math.nan), PAIR)
        # two bad blocks of one shape, and a bad block of the other dimension after them
        with pytest.raises(DomainError, match="J=1 "):
            optimize_trig_blocks(TrigBlocks.of({half(0): GOOD_1, half(1): nan_1, half(2): GOOD_2,
                                                half(3): nan_1}))
        with pytest.raises(DomainError, match="J=2 "):
            optimize_trig_blocks(TrigBlocks.of({half(0): GOOD_1, half(1): GOOD_2, half(2): nan_2,
                                                half(3): nan_1, half(4): nan_2}))

    def test_non_finite_comes_before_a_large_block(self):
        # the coefficients are checked when the family is made, its dimensions when it is solved
        big = one_block(np.eye(3), np.zeros((3, 3)), np.eye(3), (half(0), half(1), half(2)))
        with pytest.raises(DomainError, match="J=1 .*non-finite"):
            TrigBlocks.of({half(0): big, half(1): one_block([[math.nan]], [[0.1]], [[0.2]])})
        trig = TrigBlocks.of({half(0): big, half(1): GOOD_1})
        with pytest.raises(UnsupportedBlockError, match="J=0 has dimension 3"):
            optimize_trig_blocks(trig)

    def test_empty_family_raises(self):
        with pytest.raises(StructureMismatchError, match="at least one block"):
            TrigBlocks.of({})

    def test_complex_coefficient_raises(self):
        blk = TrigBlock((half(0),), np.array([[0.3 + 0.1j]]), np.array([[0.1]]),
                        np.array([[0.2]]))
        with pytest.raises(TypeError):
            TrigBlocks.of({half(0): GOOD_1, half(1): blk})

    @pytest.mark.parametrize("places", [((0,), (0,)), ((0,), (2,)), ((0, 1), ()), ((1,), (0,))],
                             ids=["repeated", "out_of_range", "wrong_count", "wrong_dimension"])
    def test_stacks_that_miss_a_block_raise(self, places):
        trig = TrigBlocks.of({half(0): GOOD_1, half(1): GOOD_2})
        (_, one), (_, two) = trig.stacks.values()
        with pytest.raises(StructureMismatchError):
            TrigBlocks(trig.bases, {1: (places[0], one), 2: (places[1], two)})

    def test_validate_names_the_first_bad_block(self):
        state = GenericState.from_dict(0, {2: 0.6, 3: 0.8})
        povm = max_fidelity(state, 5, certify=False).povm
        bad = BlockPovm([0.3, 2.8], [np.diag([1.5, 0.0]), np.diag([-0.5, 1.0])])
        for J in ("6", "4"):  # the 2-dim J = 4 and 6 blocks
            povm.per_block[half(J)] = bad
        with pytest.raises(StructureMismatchError, match="J=4 .*not PSD"):
            povm.validate(block_dims(state, 5))

    def test_certificate_names_the_first_large_block(self):
        # j2 = 2 couples j1 in {1, 2, 3} into the 3-dim J = 1, 2 and 3 blocks
        state = GenericState.from_dict(1, {1: 0.6, 2: 0.0, 3: 0.8})
        povm = PovmSpec({J: BlockPovm([1.0], [np.eye(dim)])
                         for J, dim in block_dims(state, 2).items()})
        with pytest.raises(UnsupportedBlockError, match="J=1 has dimension 3"):
            helstrom_certificate(state, 2, povm)
        with pytest.raises(UnsupportedBlockError, match="J=1 has dimension 3"):
            max_fidelity(state, 2)


class TestOnePassPerDimension:
    def test_one_eigh_for_five_pair_blocks(self, monkeypatch):
        state = GenericState.from_dict(0, {2: 0.6, 3: 0.8})
        trig = signal_trig_blocks(state, half(5))
        assert [blk.dim for blk in trig.blocks.values()].count(2) == 5
        calls = []
        eigh = np.linalg.eigh

        def counting(*args, **kwargs):
            calls.append(1)
            return eigh(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting)
        result = optimize_trig_blocks(trig)
        assert len(calls) == 1
        assert result.certified

    def test_mu_grid_sines_taken_once(self, monkeypatch):
        # once, at import: no certificate call takes sin of the 1001-point grid
        state = GenericState.two_term(0.609)
        povm = max_fidelity(state, "1/2", certify=False).povm
        grids = []
        sin = np.sin

        def recording(x, *args, **kwargs):
            grids.append(np.size(x))
            return sin(x, *args, **kwargs)

        monkeypatch.setattr(np, "sin", recording)
        first = helstrom_certificate(state, "1/2", povm)
        for _ in range(3):
            assert helstrom_certificate(state, "1/2", povm) == first
        assert grids.count(1001) == 0

    def test_blocks_are_views_into_one_stack_per_dimension(self):
        trig = signal_trig_blocks(GenericState.from_dict(0, {2: 0.6, 3: 0.8}), half(5))
        blocks = list(trig.blocks.values())
        for places, stack in trig.stacks.values():
            assert stack.shape[:2] == (3, len(places))
            for p, place in enumerate(places):
                blk = blocks[place]
                for c, k in enumerate((blk.k0, blk.k1, blk.k2)):
                    assert k.base is stack and np.shares_memory(k, stack[c, p])

    def test_families_are_read_only(self):
        state = GenericState.from_dict(0, {2: 0.6, 3: 0.8})
        trig = signal_trig_blocks(state, half(5))
        new_blocks = signal_trig_blocks(GenericState.from_dict(0, {2: 0.8, 3: 0.6}), half(5)).blocks
        J = list(trig.bases)[1]
        blk = trig.blocks[J]
        with pytest.raises(TypeError):
            trig.blocks[J] = new_blocks[J]
        with pytest.raises(FrozenInstanceError):
            blk.k0 = new_blocks[J].k0
        with pytest.raises(TypeError):
            replace(trig, blocks=dict(new_blocks))
        places, stack = trig.stacks[2]
        for target in (stack, blk.k0):
            with pytest.raises(ValueError, match="read-only"):
                target[0, 0] = 1.0
        bad = stack.copy()
        bad[1, -1, 0, 0] = math.nan
        with pytest.raises(DomainError, match=f"J={list(trig.bases)[places[-1]]} .*non-finite"):
            replace(trig, stacks={**trig.stacks, 2: (places, bad)})
        # a family keeps its own copy: the caller's array stays writable and apart from it
        mine = stack.copy()
        family = replace(trig, stacks={**trig.stacks, 2: (places, mine)})
        mine[0, 0, 0, 0] = math.nan
        assert np.array_equal(family.stacks[2][1], stack)
        assert max_fidelity(state, 5).per_block_contributions == \
            optimize_trig_blocks(trig).per_block_contributions


COHERENT_CASES = [(GenericState.coherent(HalfInt(t)), j2) for t in range(1, 7)
                  for j2 in ("1/2", 2, "7/2")]


def sign_and_order_rows(state):
    """The state's amplitude row, negated, reversed and with alternating signs: unit rows all."""
    v = state.amplitude_vector
    return np.array([v, -v, v[::-1], v * (-1.0) ** np.arange(len(v))])


class TestValuePath:
    # max_fidelity's value, a family's one array pass per dimension, is the block-by-block
    # reference valuation that the closed-form row is tested against, within roundoff
    @pytest.mark.parametrize("state,j2", SIGNAL_CASES + M1_CASES + COHERENT_CASES)
    def test_is_the_max_fidelity_float(self, state, j2):
        rows = sign_and_order_rows(state)
        expected = [max_fidelity(GenericState.from_dict(state.m1, dict(zip(state.j_labels, row))),
                                 j2, certify=False).fidelity for row in rows]
        got = reference_fidelities(state.m1, state.j_labels, half(j2), rows)
        assert np.abs(got - expected).max() <= 1e-15

    @pytest.mark.parametrize("j2", ["1/2", 3, "21/2", 100], ids=str)
    def test_two_term_rows_are_the_max_fidelity_floats(self, j2):
        amps = [0.0, 0.1, 0.609, 1.0 / math.sqrt(2.0), 0.95, 1.0]
        expected = [max_fidelity(GenericState.two_term(a), j2, certify=False).fidelity
                    for a in amps]
        rows = two_term_rows(np.array(amps))
        for sign in (1.0, -1.0):  # b < 0 too: by parity F depends on b through b^2 and |ab|
            got = reference_fidelities(*TWO_TERM, half(j2), rows * [1.0, sign])
            assert np.abs(got - expected).max() <= 1e-15

    def test_sweep_row_builds_no_family(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a sweep row built a GenericState or a TrigBlocks family")

        grid = default_sweep_grid()
        expected = sweep_optimal_vs_j2(grid)
        for cls in (GenericState, TrigBlocks):
            monkeypatch.setattr(cls, "__post_init__", refuse)
        assert sweep_optimal_vs_j2(grid) == expected
