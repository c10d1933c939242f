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

import numpy as np

from .su2 import DomainError, HalfInt, half
from .states import GenericState, state_from_text
from .estimator import fidelity_montecarlo
from .optimizer import (
    UnsupportedBlockError,
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


def _fmt(x: float) -> str:
    return "%.10g" % x


def _fmt_certificate(x: float) -> str:
    return _fmt(round(x, 12) + 0.0)  # 12 decimals: roundoff prints 0, never -0; nan stays nan


def _j2(text: str) -> HalfInt:
    """The reference spin; the library would take j2 = 0 and return the blind guess."""
    j2 = half(text)
    if j2.twice < 1:
        raise ValueError(f"j2 = {j2} must be at least 1/2")
    return j2


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


def _emit_csv(output: str | None, default_name: str, header: list[str],
              rows: list[list[str]]) -> int:
    """Write rows to output, else to default_name under $RELANGLE_OUTPUT_DIR or cwd."""
    path = output or os.path.join(os.environ.get(OUTPUT_DIR_ENV, "."), default_name)
    _write_csv(path, header, rows)
    print(f"wrote {len(rows)} rows to {path}")
    return 0


def _resolve_state(selector: str, j2: HalfInt) -> GenericState:
    if selector == "parallel":
        return GenericState.parallel()
    if selector == "antiparallel":
        return GenericState.antiparallel()
    if selector == "optimal":
        return _search(j2)[2]
    with open(selector, encoding="utf-8") as fh:
        return state_from_text(fh.read())


def _pair_nu(result) -> float:
    """Smaller estimate of the lowest-J block with two outcomes, nan if there is none."""
    for _, spec in sorted(result.povm.per_block.items(), key=lambda item: item[0].twice):
        if len(spec.mus) == 2:
            return float(spec.mus.min())
    return math.nan


def _amplitude_grid(step: float) -> np.ndarray:
    """0, step, 2 step, ... while below 1 (1e-9 slack for roundoff), then a = 1 exactly once."""
    return np.append(np.arange(math.ceil(1.0 / step - 1e-9)) * step, 1.0)


def _run_fidelity_sweep(args: argparse.Namespace) -> int:
    j2 = _j2(args.j2)
    if not 0.0 < args.a_grid_step <= 0.5:
        raise ValueError(f"a_grid_step = {args.a_grid_step} outside (0, 0.5]")
    rows = []
    for a in map(float, _amplitude_grid(args.a_grid_step)):
        result = max_fidelity(GenericState.two_term(a), j2, certify=True)
        rows.append([_fmt(a), _fmt(result.fidelity), _fmt(_pair_nu(result)),
                     _fmt_certificate(result.certificate_min_eigenvalue)])
    return _emit_csv(args.output, f"fidelity_sweep_j2_{j2.twice}half.csv",
                     ["a", "F", "nu", "certificate_min_eig"], rows)


def _run_optimize(args: argparse.Namespace) -> int:
    j2 = _j2(args.j2)
    a_star, sector, result = optimize_state(j2)
    print(f"j2={j2} a_star={_fmt(a_star)} sector_m1={sector} "
          f"F={_fmt(result.fidelity)} "
          f"certificate_min_eig={_fmt_certificate(result.certificate_min_eigenvalue)}")
    return 0


def _run_j2_sweep(args: argparse.Namespace) -> int:
    rows = []
    for row in sweep_optimal_vs_j2(default_sweep_grid()):
        rows.append([str(row.j2), _fmt(row.a_star), _fmt(row.f_opt),
                     _fmt(row.f_parallel), _fmt(row.f_antiparallel)])
    return _emit_csv(args.output, "j2_sweep.csv",
                     ["j2", "a_star", "F_opt", "F_parallel", "F_antiparallel"], rows)


def _run_classical_limit(args: argparse.Namespace) -> int:
    betas = np.linspace(0.0, math.pi, _DEVIATION_BETA_POINTS)
    rows = []
    for label in _CLASSICAL_LIMIT_J2:
        j2 = half(label)
        state = _resolve_state(args.state, j2)
        dev = max(asymptotic_deviation(state, j2, b) for b in betas)
        f_q = max_fidelity(state, j2, certify=False).fidelity
        f_c = classical_fidelity(state).fidelity
        rows.append([str(j2), _fmt(dev), _fmt(f_q), _fmt(f_c)])
    return _emit_csv(args.output, "classical_limit.csv",
                     ["j2", "deviation_max", "F_quantum", "F_classical"], rows)


def _run_certify(args: argparse.Namespace) -> int:
    j2 = _j2(args.j2)
    result = max_fidelity(_resolve_state(args.state, j2), j2)
    status = "pass" if result.certified else "fail"
    print(f"j2={j2} state={args.state} F={_fmt(result.fidelity)} "
          f"certificate_min_eig={_fmt_certificate(result.certificate_min_eigenvalue)} [{status}]")
    return 0 if result.certified else 1


def _run_montecarlo(args: argparse.Namespace) -> int:
    j2 = _j2(args.j2)
    state = _resolve_state(args.state, j2)
    result = max_fidelity(state, j2, certify=False)
    est, err = fidelity_montecarlo(state, j2, result.povm, args.samples, args.seed)
    z = (est - result.fidelity) / err if err > 0.0 else math.nan  # no spread, no z
    print(f"j2={j2} state={args.state} samples={args.samples} seed={args.seed} "
          f"F_exact={_fmt(result.fidelity)} F_mc={_fmt(est)} stderr={_fmt(err)} "
          f"z={_fmt(z)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """One subparser per command, taking only the options its handler reads."""
    parser = argparse.ArgumentParser(
        prog="relangle",
        description="Optimal estimation of the relative angle between two spins.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, run, help, j2=False, state=None, output=False):
        p = sub.add_parser(name, help=help)
        p.set_defaults(run=run)
        if j2:
            p.add_argument("--j2", default="1/2",
                           help="reference spin as a reduced rational, e.g. 1/2, 1, 3/2")
        if state:
            p.add_argument("--state", default=state,
                           help="parallel | antiparallel | optimal | path to a state file")
        if output:
            p.add_argument("--output", default=None,
                           help=f"output file (default: ${OUTPUT_DIR_ENV} or cwd)")
        return p

    p = command("fidelity-sweep", _run_fidelity_sweep, j2=True, output=True,
                help="fidelity of the two-term family vs amplitude a; "
                     "CSV columns: a, F, nu, certificate_min_eig")
    p.add_argument("--a-grid-step", type=float, default=0.01)
    command("optimize", _run_optimize, j2=True,
            help="best preparation amplitude at fixed j2")
    command("j2-sweep", _run_j2_sweep, output=True,
            help="optimal amplitude and fidelities over the j2 grid; CSV "
                 "columns: j2, a_star, F_opt, F_parallel, F_antiparallel")
    command("classical-limit", _run_classical_limit, state="optimal", output=True,
            help="large-j2 correspondence checks; CSV columns: "
                 "j2, deviation_max, F_quantum, F_classical")
    command("certify", _run_certify, j2=True, state="parallel",
            help="optimality certificate for the reported POVM")
    p = command("montecarlo", _run_montecarlo, j2=True, state="optimal",
                help="simulate the protocol and compare to the exact fidelity")
    p.add_argument("--samples", type=int, default=100000)
    p.add_argument("--seed", type=int, default=0)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except UnsupportedBlockError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, DomainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
