"""Command-line front end: named experiments emitting CSV artifacts.

Each subcommand maps onto library calls with no hidden state, so every CSV
row can be recomputed independently.  Output is deterministic for a fixed
configuration (seed included) and written atomically.
"""
from __future__ import annotations

import argparse
import math
import os
import sys
import tempfile
from dataclasses import dataclass

import numpy as np

from .su2 import DomainError, HalfInt, half
from .states import GenericState, state_from_text
from .estimator import fidelity_montecarlo
from .optimizer import (
    UnsupportedBlockError,
    _amplitude_grid,
    _search,
    max_fidelity,
    optimize_state,
)
from .limits import (
    asymptotic_deviation,
    classical_fidelity,
    default_sweep_grid,
    sweep_optimal_vs_j2,
)

OUTPUT_DIR_ENV = "RELANGLE_OUTPUT_DIR"

_CLASSICAL_LIMIT_J2 = ("2", "5", "10", "25", "50", "100")
_DEVIATION_BETA_POINTS = 20


@dataclass
class RunConfig:
    """Validated parameters for one CLI invocation."""

    command: str
    j2: HalfInt
    a_grid_step: float = 0.01
    samples: int = 100000
    seed: int = 0
    state: str = "optimal"
    output_path: str | None = None

    def __post_init__(self):
        if not 0.0 < self.a_grid_step <= 0.5:
            raise ValueError(f"a_grid_step = {self.a_grid_step} outside (0, 0.5]")
        if self.samples < 2:
            raise ValueError(f"samples = {self.samples} must be >= 2 for a standard error")
        if self.j2.twice < 1:
            raise ValueError(f"j2 = {self.j2} must be at least 1/2")


def _fmt(x: float) -> str:
    return "%.10g" % x


def _default_path(name: str) -> str:
    return os.path.join(os.environ.get(OUTPUT_DIR_ENV, "."), name)


def _write_csv(path: str, header: list[str], rows: list[list[str]]) -> None:
    """Write the finished CSV through a temp file so readers never see a partial file."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".csv.tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(",".join(header) + "\n")
            for row in rows:
                fh.write(",".join(row) + "\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _resolve_state(selector: str, j2: HalfInt) -> GenericState:
    if selector == "parallel":
        return GenericState.parallel()
    if selector == "antiparallel":
        return GenericState.antiparallel()
    if selector == "optimal":
        a_star, sector, _, _ = _search(j2)
        return GenericState.two_term(a_star) if sector == 0 else GenericState.parallel()
    with open(selector, encoding="utf-8") as fh:
        return state_from_text(fh.read())


def _pair_nu(result) -> float:
    """Smaller estimate of the lowest-J block with two outcomes, nan if there is none."""
    for _, spec in sorted(result.povm.per_block.items(), key=lambda item: item[0].twice):
        if len(spec.mus) == 2:
            return float(spec.mus.min())
    return math.nan


def _run_fidelity_sweep(cfg: RunConfig) -> int:
    rows = []
    for a in map(float, _amplitude_grid(cfg.a_grid_step)):
        result = max_fidelity(GenericState.two_term(a), cfg.j2, certify=True)
        rows.append([_fmt(a), _fmt(result.fidelity), _fmt(_pair_nu(result)),
                     _fmt(result.certificate_min_eigenvalue)])
    path = cfg.output_path or _default_path(f"fidelity_sweep_j2_{cfg.j2.twice}half.csv")
    _write_csv(path, ["a", "F", "nu", "certificate_min_eig"], rows)
    print(f"wrote {len(rows)} rows to {path}")
    return 0


def _run_optimize(cfg: RunConfig) -> int:
    a_star, sector, result = optimize_state(cfg.j2)
    print(f"j2={cfg.j2} a_star={_fmt(a_star)} sector_m1={sector} "
          f"F={_fmt(result.fidelity)} "
          f"certificate_min_eig={_fmt(result.certificate_min_eigenvalue)}")
    return 0


def _run_j2_sweep(cfg: RunConfig) -> int:
    rows = []
    for row in sweep_optimal_vs_j2(default_sweep_grid()):
        rows.append([str(row.j2), _fmt(row.a_star), _fmt(row.f_opt),
                     _fmt(row.f_parallel), _fmt(row.f_antiparallel)])
    path = cfg.output_path or _default_path("j2_sweep.csv")
    _write_csv(path, ["j2", "a_star", "F_opt", "F_parallel", "F_antiparallel"], rows)
    print(f"wrote {len(rows)} rows to {path}")
    return 0


def _run_classical_limit(cfg: RunConfig) -> int:
    betas = np.linspace(0.0, math.pi, _DEVIATION_BETA_POINTS)
    rows = []
    for label in _CLASSICAL_LIMIT_J2:
        j2 = half(label)
        state = _resolve_state(cfg.state, j2)
        dev = max(asymptotic_deviation(state, j2, b) for b in betas)
        f_q = max_fidelity(state, j2, certify=False).fidelity
        f_c = classical_fidelity(state).fidelity
        rows.append([str(j2), _fmt(dev), _fmt(f_q), _fmt(f_c)])
    path = cfg.output_path or _default_path("classical_limit.csv")
    _write_csv(path, ["j2", "deviation_max", "F_quantum", "F_classical"], rows)
    print(f"wrote {len(rows)} rows to {path}")
    return 0


def _run_certify(cfg: RunConfig) -> int:
    state = _resolve_state(cfg.state, cfg.j2)
    result = max_fidelity(state, cfg.j2)
    status = "pass" if result.certified else "fail"
    print(f"j2={cfg.j2} state={cfg.state} F={_fmt(result.fidelity)} "
          f"certificate_min_eig={_fmt(result.certificate_min_eigenvalue)} [{status}]")
    return 0 if result.certified else 1


def _run_montecarlo(cfg: RunConfig) -> int:
    state = _resolve_state(cfg.state, cfg.j2)
    result = max_fidelity(state, cfg.j2, certify=False)
    est, err = fidelity_montecarlo(state, cfg.j2, result.povm, cfg.samples, cfg.seed)
    z = (est - result.fidelity) / err if err > 0.0 else math.nan  # no spread, no z
    print(f"j2={cfg.j2} state={cfg.state} samples={cfg.samples} seed={cfg.seed} "
          f"F_exact={_fmt(result.fidelity)} F_mc={_fmt(est)} stderr={_fmt(err)} "
          f"z={_fmt(z)}")
    return 0


_RUNNERS = {
    "fidelity-sweep": _run_fidelity_sweep,
    "optimize": _run_optimize,
    "j2-sweep": _run_j2_sweep,
    "classical-limit": _run_classical_limit,
    "certify": _run_certify,
    "montecarlo": _run_montecarlo,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relangle",
        description="Optimal estimation of the relative angle between two spins.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, state_default="optimal"):
        p.add_argument("--j2", default="1/2",
                       help="reference spin as a reduced rational, e.g. 1/2, 1, 3/2")
        p.add_argument("--state", default=state_default,
                       help="parallel | antiparallel | optimal | path to a state file")
        p.add_argument("--output", default=None,
                       help=f"output file (default: ${OUTPUT_DIR_ENV} or cwd)")

    p = sub.add_parser("fidelity-sweep",
                       help="fidelity of the two-term family vs amplitude a; "
                            "CSV columns: a, F, nu, certificate_min_eig")
    common(p)
    p.add_argument("--a-grid-step", type=float, default=0.01)

    p = sub.add_parser("optimize", help="best preparation amplitude at fixed j2")
    common(p)

    p = sub.add_parser("j2-sweep",
                       help="optimal amplitude and fidelities over the j2 grid; CSV "
                            "columns: j2, a_star, F_opt, F_parallel, F_antiparallel")
    common(p)

    p = sub.add_parser("classical-limit",
                       help="large-j2 correspondence checks; CSV columns: "
                            "j2, deviation_max, F_quantum, F_classical")
    common(p)

    p = sub.add_parser("certify", help="optimality certificate for the reported POVM")
    common(p, state_default="parallel")

    p = sub.add_parser("montecarlo", help="simulate the protocol and compare to the exact fidelity")
    common(p)
    p.add_argument("--samples", type=int, default=100000)
    p.add_argument("--seed", type=int, default=0)

    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    # options a subcommand lacks keep RunConfig's defaults
    extra = {k: v for k, v in vars(args).items() if k in ("a_grid_step", "samples", "seed")}
    return RunConfig(command=args.command, j2=HalfInt.parse(args.j2), state=args.state,
                     output_path=args.output, **extra)


def run(config: RunConfig) -> int:
    return _RUNNERS[config.command](config)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = config_from_args(args)
    except (ValueError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        return run(config)
    except UnsupportedBlockError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, DomainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
