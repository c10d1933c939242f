"""The benchmark's workloads: seeded inputs, the operations and their checks.

Each workload turns a seed into a fixed list of operations (one *pass*).  A
run repeats whole passes, so every run attempts the same mix of operations.
``setup`` builds the relangle inputs and fills the lru caches the pass uses.
Each operation has a ``run`` (the timed call into relangle) and a ``check``
(run outside the timed region) that raises ``OpFailed`` when the program
fails the operation and ``WrongOutput`` when its output is wrong.

Library functions are looked up on their modules at call time, so the
wrappers of ``tracing.Tracer`` see every call the benchmark makes.
"""
from __future__ import annotations

import math
import os
import random
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from typing import Callable

import numpy as np

from relangle import estimator, limits, optimizer, states
from relangle.states import GenericState
from relangle.su2 import HalfInt, half

BLIND_GUESS = 0.5 + math.pi / 8.0
CERT_TOL = -1e-9
FIDELITY_TOL = 1e-9
Z_MAX = 5.0

class OpFailed(Exception):
    """The program failed the operation (exception or wrong exit code)."""


class WrongOutput(Exception):
    """The operation completed but its output fails a check."""


@dataclass
class Op:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], None]


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise WrongOutput(what)


def _j2_slice(k: int, n: int) -> range:
    """Doubled j2 values of the k-th of n equal slices of j2 = 1/2 .. 100."""
    return range(1 + 200 * k // n, 1 + 200 * (k + 1) // n)


def _two_label_state(labels, theta: float) -> GenericState:
    """m1=0 superposition cos(theta)|j_a> + sin(theta)|j_b>; signs follow theta."""
    return GenericState.from_dict(0, {labels[0]: math.cos(theta), labels[1]: math.sin(theta)})


# ---------------------------------------------------------------------------
# independent closed forms used by the checks

def _nuclear_norm(mat: np.ndarray) -> float:
    return float(np.abs(np.linalg.eigvalsh(mat)).sum())


def closed_form_fidelity(trig) -> float:
    """Per-block optimum: 1-dim blocks maximise c0 + c1 sin mu + c2 cos mu on
    [0, pi]; 2-dim blocks take tr k0 + hypot(tr k1, ||k2||_1)."""
    total = 0.0
    for blk in trig.blocks.values():
        c0, c1, c2 = (float(np.trace(k)) for k in (blk.k0, blk.k1, blk.k2))
        if blk.dim == 1:
            cands = [c0 + c2, c0 - c2]
            if c1 >= 0.0:  # atan2(c1, c2) lies in [0, pi]
                cands.append(c0 + math.hypot(c1, c2))
            total += max(cands)
        else:
            total += c0 + math.hypot(c1, _nuclear_norm(blk.k2))
    return total


# offset by half a step from the program's linspace(0, pi, 1001) scan
_MU_GRID = (np.arange(1000) + 0.5) * (math.pi / 1000)


def certificate_min_eig(trig, povm) -> float:
    """min over blocks and the benchmark's mu grid of lambda_min(Upsilon - A(mu))."""
    worst = math.inf
    s, c = np.sin(_MU_GRID), np.cos(_MU_GRID)
    for J, blk in trig.blocks.items():
        upsilon = np.zeros((blk.dim, blk.dim))
        for mu, element in povm.elements(J, blk.dim):
            upsilon += blk.at(mu) @ element
        upsilon = (upsilon + upsilon.T) / 2.0
        gaps = (upsilon - blk.k0)[None] - s[:, None, None] * blk.k1 - c[:, None, None] * blk.k2
        worst = min(worst, float(np.linalg.eigvalsh(gaps).min()))
    return worst


def embedded_average(state: GenericState, j2: HalfInt, beta: float) -> np.ndarray:
    """averaged_state's blocks spread uniformly over M and mapped to the product basis."""
    rho = states.averaged_state(state, j2, beta)
    V, labels = states.coupled_basis_matrix(state, j2)
    coupled = np.zeros((len(labels), len(labels)))
    for c1, (J, M, j1) in enumerate(labels):
        basis = rho.basis(J)
        for c2, (Jp, Mp, j1p) in enumerate(labels):
            if J == Jp and M == Mp and j1 in basis and j1p in basis:
                coupled[c1, c2] = rho.block(J)[basis.index(j1), basis.index(j1p)] / (J.twice + 1)
    return V @ coupled @ V.T


# ---------------------------------------------------------------------------
# prep_search: one row of the j2 sweep per operation

class PrepSearch:
    """Each op is sweep_optimal_vs_j2([j2]): the amplitude search dominates."""

    PAPER = {half("1/2"): (0.609, 0.91092), half(50): (0.595, None)}

    def __init__(self, seed: int, quick: bool, workdir: str):
        rng = random.Random(seed)
        low = HalfInt(rng.randrange(2, 21))                                  # 1 .. 10
        high = HalfInt(rng.randrange(150, 201))                              # 75 .. 100
        self.j2s = [half("1/2")] if quick else [half("1/2"), high, half(50), low]
        self._grid_best: dict[HalfInt, float] = {}

    def setup(self) -> None:
        for j2 in self.j2s:
            estimator.signal_trig_blocks(GenericState.two_term(0.5), j2)
            estimator.signal_trig_blocks(GenericState.parallel(), j2)

    def ops(self) -> list[Op]:
        return [Op("sweep_row", lambda j2=j2: limits.sweep_optimal_vs_j2([j2]),
                   lambda out, j2=j2: self._check(j2, out)) for j2 in self.j2s]

    def _coarse_grid_best(self, j2: HalfInt) -> float:
        if j2 not in self._grid_best:
            self._grid_best[j2] = max(
                closed_form_fidelity(estimator.signal_trig_blocks(GenericState.two_term(a), j2))
                for a in (np.arange(50) + 0.5) / 50)
        return self._grid_best[j2]

    def _check(self, j2: HalfInt, rows) -> None:
        _require(len(rows) == 1 and rows[0].j2 == j2, "one row for the requested j2")
        row = rows[0]
        if j2 in self.PAPER:
            a_ref, f_ref = self.PAPER[j2]
            _require(abs(row.a_star - a_ref) <= 0.005, f"a*({j2}) = {row.a_star}")
            if f_ref is not None:
                _require(abs(row.f_opt - f_ref) <= 5e-5, f"F_opt({j2}) = {row.f_opt}")
        gap = row.f_parallel - row.f_antiparallel
        _require(0.0 <= gap <= 1e-4, f"F_par - F_anti = {gap} at j2={j2}")
        _require(row.f_opt >= row.f_parallel, f"F_opt < F_par at j2={j2}")
        closed = closed_form_fidelity(
            estimator.signal_trig_blocks(GenericState.two_term(row.a_star), j2))
        _require(abs(row.f_opt - closed) <= FIDELITY_TOL,
                 f"F_opt {row.f_opt} != closed form {closed} at j2={j2}")
        _require(self._coarse_grid_best(j2) <= row.f_opt + FIDELITY_TOL,
                 f"coarse grid beats F_opt at j2={j2}")


# ---------------------------------------------------------------------------
# certify_scan: per-block optimum plus the Helstrom certificate

class CertifyScan:
    """Each op is max_fidelity(certify=False) then helstrom_certificate."""

    PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
    COHERENT = ("1/2", "1", "3/2", "2", "5/2", "3")

    def __init__(self, seed: int, quick: bool, workdir: str):
        rng = random.Random(seed)
        # every pair gets one j2 in each quarter of 1/2 .. 100, from a narrow
        # slice of its own, so that the cost of a pass hardly depends on the seed
        entries = []
        for quarter in range(4):
            for i, labels in enumerate(self.PAIRS):
                entries.append((_two_label_state(labels, rng.uniform(0.0, 2.0 * math.pi)),
                                HalfInt(rng.choice(_j2_slice(6 * quarter + i, 24)))))
        for i, j1 in enumerate(self.COHERENT):
            entries.append((GenericState.coherent(j1), HalfInt(rng.choice(_j2_slice(i, 6)))))
        rng.shuffle(entries)
        if quick:
            entries = [next(e for e in entries if len(e[0].amplitudes) == 2),
                       next(e for e in entries if len(e[0].amplitudes) == 1)]
        self.entries = entries
        self._trig: dict[int, object] = {}

    def setup(self) -> None:
        for state, j2 in self.entries:
            estimator.signal_trig_blocks(state, j2)

    def ops(self) -> list[Op]:
        return [Op("certify", lambda i=i: self._run(i), lambda out, i=i: self._check(i, out))
                for i in range(len(self.entries))]

    def _run(self, i: int):
        state, j2 = self.entries[i]
        result = optimizer.max_fidelity(state, j2, certify=False)
        return result, optimizer.helstrom_certificate(state, j2, result.povm)

    def _check(self, i: int, out) -> None:
        state, j2 = self.entries[i]
        result, cert = out
        if i not in self._trig:
            self._trig[i] = estimator.signal_trig_blocks(state, j2)
        trig = self._trig[i]
        where = f"{state.amplitudes} at j2={j2}"
        _require(cert >= CERT_TOL, f"program certificate {cert} for {where}")
        own = certificate_min_eig(trig, result.povm)
        _require(own >= CERT_TOL, f"recomputed certificate {own} for {where}")
        closed = closed_form_fidelity(trig)
        _require(abs(result.fidelity - closed) <= FIDELITY_TOL,
                 f"F {result.fidelity} != closed form {closed} for {where}")
        _require(BLIND_GUESS - FIDELITY_TOL <= result.fidelity <= 1.0,
                 f"F {result.fidelity} outside [1/2 + pi/8, 1] for {where}")


# ---------------------------------------------------------------------------
# monte_carlo: the Haar oracle and the simulated protocol, alternating

class MonteCarlo:
    """Ops alternate averaged_state_oracle (j2 <= 3/2) and fidelity_montecarlo."""

    # (j2, samples) slots, with sample counts chosen so that every op costs
    # about the same.  The j2 values and the state's labels are fixed, so the
    # array sizes, and with them the peak memory, do not depend on the seed.
    ORACLE = (("1/2", 1750), ("1", 430), ("3/2", 150))
    FIDELITY_MC = (("1/2", 200_000), ("10", 100_000), ("100", 12_000))

    def __init__(self, seed: int, quick: bool, workdir: str):
        rng = random.Random(seed)
        scale = 20 if quick else 1
        self.entries = []
        for _ in range(2):
            for (j2_o, n_o), (j2_f, n_f) in zip(self.ORACLE, self.FIDELITY_MC):
                state = _two_label_state((0, 1), rng.uniform(0.0, 2.0 * math.pi))
                self.entries.append(("oracle", state, half(j2_o), rng.uniform(0.0, math.pi),
                                     n_o // scale, rng.randrange(2**31)))
                state = _two_label_state((0, 1), rng.uniform(0.0, 2.0 * math.pi))
                self.entries.append(("fidelity_mc", state, half(j2_f), None,
                                     n_f // scale, rng.randrange(2**31)))
        if quick:
            del self.entries[2:]
        self._povm: dict[int, tuple] = {}
        self._expect: dict[int, np.ndarray] = {}

    def setup(self) -> None:
        for i, (kind, state, j2, *_rest) in enumerate(self.entries):
            if kind == "fidelity_mc":
                result = optimizer.max_fidelity(state, j2, certify=False)
                self._povm[i] = (result.povm, result.fidelity)

    def ops(self) -> list[Op]:
        return [Op(kind, lambda i=i: self._run(i), lambda out, i=i: self._check(i, out))
                for i, (kind, *_rest) in enumerate(self.entries)]

    def _run(self, i: int):
        kind, state, j2, beta, samples, seed = self.entries[i]
        if kind == "oracle":
            return states.averaged_state_oracle(state, j2, beta, samples, seed)
        return estimator.fidelity_montecarlo(state, j2, self._povm[i][0], samples, seed)

    def _check(self, i: int, out) -> None:
        kind, state, j2, beta, samples, seed = self.entries[i]
        where = f"{kind} {state.amplitudes} j2={j2} seed={seed}"
        if kind == "oracle":
            mean, stderr = out
            if i not in self._expect:
                self._expect[i] = embedded_average(state, j2, beta)
            gap = np.abs(mean - self._expect[i]) - (Z_MAX * stderr + 1e-10)
            _require(bool(np.all(gap <= 0.0)),
                     f"oracle off by {gap.max():.3g} beyond 5 sigma, {where}")
        else:
            est, err = out
            exact = self._povm[i][1]
            _require(abs(est - exact) <= Z_MAX * err,
                     f"fidelity_montecarlo {est} +- {err} vs exact {exact}, {where}")


# ---------------------------------------------------------------------------
# cli_cold: one fresh `python -m relangle.cli` child per op

NAN_STATE = "m1=0\nj1=0 a=nan\nj1=1 a=nan\n"


@dataclass
class ChildResult:
    returncode: int
    stdout: str
    stderr: str
    maxrss_mb: float


def run_child(argv: list[str], env: dict, cwd: str) -> ChildResult:
    """Run one child to completion and read its own peak RSS from wait4."""
    # stderr goes to a file, so a child that writes a lot to it cannot block
    # while stdout is being read
    with tempfile.TemporaryFile("w+", dir=cwd) as err_file:
        proc = subprocess.Popen(argv, env=env, cwd=cwd, stdout=subprocess.PIPE,
                                stderr=err_file, text=True)
        with proc.stdout:
            out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        err_file.seek(0)
        err = err_file.read()
    return ChildResult(proc.returncode, out, err, usage.ru_maxrss / 1024.0)


def _fields(line: str) -> dict[str, str]:
    return dict(tok.split("=", 1) for tok in line.split() if "=" in tok)


def _read_csv(path: str) -> tuple[list[str], list[list[float]]]:
    """Read a CSV the child wrote, and remove it so the next pass writes it anew."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    os.remove(path)
    return lines[0].split(","), [[float(x) for x in ln.split(",")] for ln in lines[1:]]


class CliCold:
    """One cycle of eight CLI commands, each in a fresh interpreter."""

    def __init__(self, seed: int, quick: bool, workdir: str):
        rng = random.Random(seed)
        self.workdir = workdir
        paper = ["parallel", "antiparallel"]
        rng.shuffle(paper)
        self.files = {
            "mc_state.txt": _two_label_state((0, 1), rng.uniform(0.0, 2.0 * math.pi)),
            "cert_state.txt": _two_label_state((1, 2), rng.uniform(0.0, 2.0 * math.pi)),
            "cl_state.txt": _two_label_state((0, 1), rng.uniform(0.0, 2.0 * math.pi)),
        }
        mc_seed = rng.randrange(2**31)
        self.commands = [
            ("certify", ["certify", "--j2", "100", "--state", paper[0]], 0),
            ("montecarlo", ["montecarlo", "--j2", "10", "--state", "mc_state.txt",
                            "--samples", "20000", "--seed", str(mc_seed)], 0),
            ("classical-limit", ["classical-limit", "--state", paper[1],
                                 "--output", "cl_paper.csv"], 0),
            ("certify-nan", ["certify", "--j2", "1/2", "--state", "nan_state.txt"], 1),
            ("fidelity-sweep", ["fidelity-sweep", "--j2", "3/2", "--a-grid-step", "0.1",
                                "--output", "sweep.csv"], 0),
            ("certify", ["certify", "--j2", "50", "--state", "cert_state.txt"], 0),
            ("optimize", ["optimize", "--j2", "1/2"], 0),
            ("classical-limit", ["classical-limit", "--state", "cl_state.txt",
                                 "--output", "cl_file.csv"], 0),
        ]
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        self.env = dict(os.environ, PYTHONPATH=src)
        self.launcher = [sys.executable, "-m", "relangle.cli"]
        self.children: list[ChildResult] = []

    def setup(self) -> None:
        for name, state in self.files.items():
            with open(os.path.join(self.workdir, name), "w", encoding="utf-8") as fh:
                fh.write(states.state_to_text(state))
        with open(os.path.join(self.workdir, "nan_state.txt"), "w", encoding="utf-8") as fh:
            fh.write(NAN_STATE)

    def ops(self) -> list[Op]:
        return [Op(kind, lambda args=args: self._run(args),
                   lambda out, kind=kind, args=args, rc=rc: self._check(kind, args, rc, out))
                for kind, args, rc in self.commands]

    def _run(self, args: list[str]) -> ChildResult:
        child = run_child(self.launcher + args, self.env, self.workdir)
        self.children.append(child)
        return child

    def _check(self, kind: str, args: list[str], rc: int, out: ChildResult) -> None:
        if out.returncode != rc:
            raise OpFailed(f"`{' '.join(args)}` exited {out.returncode}, expected {rc}: "
                           f"{out.stdout.strip()} {out.stderr.strip()}")
        if rc != 0:
            _require("[pass]" not in out.stdout and "error" in out.stderr,
                     f"`{' '.join(args)}` must report an error")
            return
        line = out.stdout.strip().splitlines()[-1]
        if kind == "certify":
            _require(line.endswith("[pass]"), f"certify did not pass: {line}")
            _require(float(_fields(line)["certificate_min_eig"]) >= CERT_TOL, line)
        elif kind == "montecarlo":
            _require(abs(float(_fields(line)["z"])) <= Z_MAX, f"montecarlo |z| > 5: {line}")
        elif kind == "optimize":
            f = _fields(line)
            _require(abs(float(f["a_star"]) - 0.609) <= 0.005
                     and abs(float(f["F"]) - 0.91092) <= 5e-5, f"optimize: {line}")
        elif kind == "fidelity-sweep":
            header, rows = _read_csv(os.path.join(self.workdir, "sweep.csv"))
            _require(header == ["a", "F", "nu", "certificate_min_eig"] and len(rows) == 11,
                     "fidelity-sweep schema")
            for a, f, _nu, cert in rows:
                _require(cert >= CERT_TOL, f"fidelity-sweep certificate {cert} at a={a}")
                _require(BLIND_GUESS - FIDELITY_TOL <= f <= 1.0, f"fidelity-sweep F={f} at a={a}")
        elif kind == "classical-limit":
            path = os.path.join(self.workdir, args[args.index("--output") + 1])
            header, rows = _read_csv(path)
            _require(header == ["j2", "deviation_max", "F_quantum", "F_classical"]
                     and [r[0] for r in rows] == [2, 5, 10, 25, 50, 100], "classical-limit schema")
            for j2, dev, f_q, f_c in rows:
                _require(all(math.isfinite(x) for x in (dev, f_q, f_c)), f"non-finite at j2={j2}")
                for f in (f_q, f_c):
                    _require(BLIND_GUESS - FIDELITY_TOL <= f <= 1.0 + FIDELITY_TOL,
                             f"classical-limit F={f} at j2={j2}")
            if args[args.index("--state") + 1] in ("parallel", "antiparallel"):
                _, dev, f_q, f_c = rows[-1]
                _require(abs(f_q - f_c) <= 1e-3 and dev <= 1e-2,
                         f"classical limit at j2=100: |F_q - F_c|={abs(f_q - f_c)}, dev={dev}")


def make(name: str, seed: int, quick: bool, workdir: str):
    return {"prep_search": PrepSearch, "certify_scan": CertifyScan,
            "monte_carlo": MonteCarlo, "cli_cold": CliCold}[name](seed, quick, workdir)
