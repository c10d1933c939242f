"""Benchmark of relangle: one workload per run, closed loop, one client.

Usage (from the repository root):

    python3 perfbench/run.py --workload prep_search --seed 1 --seconds 25 --trace 0

``--trace 0`` times the workload with tracing off and prints the end-to-end
metrics; ``--trace 1`` runs it with the layer tracer (see tracing.py) and
prints the per-layer metrics.  ``--quick`` shrinks every workload to a few
operations for the benchmark's own tests.  The last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""
import os

# one BLAS/OpenMP thread, set before numpy is imported here or in any child
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

T_START = time.perf_counter()

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
WORKLOADS = ("prep_search", "certify_scan", "monte_carlo", "cli_cold")
SETUP_PROBE_BUDGET_S = 4.0
STARTUP_PROBES = 5
CLI_COMMANDS = ("certify", "montecarlo", "classical-limit", "optimize", "fidelity-sweep")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--quick", action="store_true",
                   help="a few operations per workload, for the benchmark's tests")
    p.add_argument("--setup-probe", action="store_true",
                   help="internal: set up once, print the seconds it took, exit")
    return p.parse_args(argv)


class Tally:
    """Outcome of the operations of one run."""

    def __init__(self, op_failed: type):
        self._op_failed = op_failed       # the exception class for a failed op
        self.attempted = 0
        self.failed = 0
        self.correct = True               # no completed op had a wrong output
        self.errors: list[str] = []
        self.latencies: list[float] = []  # successful operations
        self.busy_s = 0.0                 # time inside every operation

    def record(self, op, seconds: float, out) -> bool:
        """Check one op's output; False when the program failed the op."""
        self.attempted += 1
        self.busy_s += seconds
        try:
            if isinstance(out, BaseException):
                raise self._op_failed(f"{type(out).__name__}: {out}")
            op.check(out)
        except self._op_failed as exc:
            self.failed += 1
            self._note(f"failed {op.kind}: {exc}")
            return False
        except Exception as exc:  # a wrong or unreadable output
            self.correct = False
            self._note(f"wrong {op.kind}: {type(exc).__name__}: {exc}")
        self.latencies.append(seconds)
        return True

    def _note(self, msg: str) -> None:
        if msg not in self.errors:
            self.errors.append(msg)
            print(msg, file=sys.stderr)


def run_pass(ops, tally: Tally, tracer=None) -> tuple[float, list[tuple[str, float]]]:
    """Run every op once, timing only op.run.

    Returns the time spent in ops and (kind, seconds) of the ops that did not fail.
    """
    spent = 0.0
    done = []
    for op in ops:
        if tracer is not None:
            tracer.start()
        t0 = time.perf_counter()
        try:
            out = op.run()
        except Exception as exc:  # the program failed this operation
            out = exc
        dt = time.perf_counter() - t0
        if tracer is not None:
            tracer.stop()
        spent += dt
        if tally.record(op, dt, out):
            done.append((op.kind, dt))
    return spent, done


def setup_probe_seconds(args) -> float:
    """Set-up time of the workload in a fresh interpreter, measured inside it."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-probe"]
    if args.quick:
        cmd.append("--quick")
    child = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    if child.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {child.stderr.strip()}")
    return float(child.stdout.strip().splitlines()[-1])


def run_plain(args, workdir: str) -> dict:
    # set-up is timed in fresh interpreters, then once more in this process,
    # where relangle is not imported yet: 3 to 5 samples, fewer when slow
    setup_times = [setup_probe_seconds(args)]
    while len(setup_times) < 2 or (len(setup_times) < 4 and sum(setup_times) < SETUP_PROBE_BUDGET_S):
        setup_times.append(setup_probe_seconds(args))
    t0 = time.perf_counter()
    import workloads as W

    wl = W.make(args.workload, args.seed, args.quick, workdir)
    wl.setup()
    setup_times.append(time.perf_counter() - t0)
    setup_s = statistics.median(setup_times)
    ops = wl.ops()
    tally = Tally(W.OpFailed)
    start = time.perf_counter()
    while True:
        run_pass(ops, tally)
        if time.perf_counter() - start >= args.seconds:
            break
    if isinstance(wl, W.CliCold):
        peak_rss = max(c.maxrss_mb for c in wl.children)
    else:
        peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    ok = len(tally.latencies)
    metrics = {
        "ops_per_s": (ok / tally.busy_s, "1/s"),
        "op_p50_s": (statistics.median(tally.latencies) if ok else 0.0, "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss, "MB"),
    }
    return result(tally, metrics)


def run_traced(args, workdir: str) -> dict:
    import tracing
    import workloads as W

    tracer = tracing.Tracer()
    wl = W.make(args.workload, args.seed, args.quick, workdir)
    tracer.install()
    tracer.start()
    wl.setup()
    tracer.stop()
    tracer.uninstall()
    setup_spans = tracer.take()
    setup_misses = dict(tracer.misses)
    ops = wl.ops()
    tally = Tally(W.OpFailed)
    is_cli = isinstance(wl, W.CliCold)
    trace_dir = os.path.join(workdir, "child-spans")
    os.makedirs(trace_dir)
    plain_ops: list[tuple[str, float]] = []
    plain_children = []
    untraced_s = traced_s = 0.0
    passes = 0
    start = time.perf_counter()
    # alternate untraced and traced passes so that drift hits both alike
    while True:
        if is_cli:
            n_children = len(wl.children)
        spent, done = run_pass(ops, tally)
        untraced_s += spent
        plain_ops += done
        if is_cli:
            plain_children += wl.children[n_children:]
            plain_launcher = wl.launcher
            wl.launcher = [sys.executable, os.path.join(HERE, "trace_child.py")]
            wl.env["PERFBENCH_TRACE_DIR"] = trace_dir
            traced_s += run_pass(ops, tally)[0]
            wl.launcher = plain_launcher
        else:
            tracer.install()
            traced_s += run_pass(ops, tally, tracer)[0]
            tracer.uninstall()
        passes += 1
        if time.perf_counter() - start >= args.seconds:
            break
    pass_spans = tracer.take()
    pass_misses = {k: v - setup_misses[k] for k, v in tracer.misses.items()}
    per_pass = tracing.aggregate(pass_spans)
    children = []
    for name in sorted(os.listdir(trace_dir)):
        with open(os.path.join(trace_dir, name), encoding="utf-8") as fh:
            child = json.load(fh)
        children.append(child)
        tracing.merge(per_pass, tracing.aggregate(child["spans"]))
        for key, value in child["misses"].items():
            pass_misses[key] += value
    write_trace(args, setup_spans, pass_spans, children)

    cli = cli_layer(W, wl, plain_ops, plain_children) if is_cli else {}
    misses = {k: setup_misses[k] + v / passes for k, v in pass_misses.items()}
    metrics = layer_metrics(tracing.aggregate(setup_spans), per_pass, passes, misses, cli,
                            100.0 * (traced_s / untraced_s - 1.0))
    return result(tally, metrics)


def cli_layer(W, wl, plain_ops, plain_children) -> dict:
    """CLI start-up, per-command p50 and child RSS, from untraced children."""
    startup = []
    for _ in range(STARTUP_PROBES):
        t0 = time.perf_counter()
        child = W.run_child(wl.launcher + ["--help"], wl.env, wl.workdir)
        startup.append(time.perf_counter() - t0)
        if child.returncode != 0:
            raise RuntimeError(f"`relangle --help` exited {child.returncode}")
    out = {"cli.startup_s": statistics.median(startup)}
    for cmd in CLI_COMMANDS:
        times = [dt for kind, dt in plain_ops if kind == cmd]
        out[f"cli.{cmd}.p50_s"] = statistics.median(times) if times else 0.0
    out["cli.child.peak_rss_mb"] = max(c.maxrss_mb for c in plain_children)
    return out


def layer_metrics(setup: dict, per_pass: dict, passes: int, misses: dict, cli: dict,
                  overhead_pct: float) -> dict:
    """Per-layer figures for one traced set-up plus one traced pass."""

    def total(name, key="self_s"):
        return setup.get(name, {}).get(key, 0) + per_pass.get(name, {}).get(key, 0) / passes

    def rate(name):
        s = total(name)
        return total(name, "samples") / s if s > 0 else 0.0

    def peak_mb(name):
        return per_pass.get(name, {}).get("peak_alloc_bytes", 0) / 2**20

    searches = total("optimizer.optimize_state", "calls")
    m = {
        "su2.clebsch_gordan.misses": (misses["su2.clebsch_gordan"], "count"),
        "su2.clebsch_gordan.self_s": (total("su2.clebsch_gordan"), "s"),
        "su2.wigner_d.calls": (total("su2.wigner_d", "calls"), "count"),
        "su2.wigner_d.self_s": (total("su2.wigner_d"), "s"),
        "states.averaged_state.calls": (total("states.averaged_state", "calls"), "count"),
        "states.averaged_state.self_s": (total("states.averaged_state"), "s"),
        "states.averaged_state_oracle.self_s": (total("states.averaged_state_oracle"), "s"),
        "states.averaged_state_oracle.samples_per_s": (rate("states.averaged_state_oracle"), "1/s"),
        "states.averaged_state_oracle.peak_alloc_mb": (peak_mb("states.averaged_state_oracle"), "MB"),
        "estimator.signal_trig_blocks.calls": (total("estimator.signal_trig_blocks", "calls"), "count"),
        "estimator.signal_trig_blocks.self_s": (total("estimator.signal_trig_blocks"), "s"),
        "estimator.geometry.misses": (misses["estimator.geometry"], "count"),
        "estimator.fidelity_montecarlo.self_s": (total("estimator.fidelity_montecarlo"), "s"),
        "estimator.fidelity_montecarlo.samples_per_s": (rate("estimator.fidelity_montecarlo"), "1/s"),
        "estimator.fidelity_montecarlo.peak_alloc_mb": (peak_mb("estimator.fidelity_montecarlo"), "MB"),
        "optimizer.optimize_trig_blocks.calls": (total("optimizer.optimize_trig_blocks", "calls"), "count"),
        "optimizer.optimize_trig_blocks.solve_self_s":
            (total("optimizer.optimize_trig_blocks", "solve_self_s"), "s"),
        "optimizer.optimize_trig_blocks.certified_self_s":
            (total("optimizer.optimize_trig_blocks", "certified_self_s"), "s"),
        "optimizer.solves_per_search":
            (total("optimizer.optimize_trig_blocks", "search_solves") / searches if searches else 0.0,
             "count"),
        "optimizer.helstrom_certificate.calls": (total("optimizer.helstrom_certificate", "calls"), "count"),
        "optimizer.helstrom_certificate.self_s": (total("optimizer.helstrom_certificate"), "s"),
        "optimizer.optimize_state.self_s": (total("optimizer.optimize_state"), "s"),
        "limits.sweep_optimal_vs_j2.self_s": (total("limits.sweep_optimal_vs_j2"), "s"),
        "limits.classical_trig_blocks.self_s": (total("limits.classical_trig_blocks"), "s"),
        "limits.asymptotic_deviation.self_s": (total("limits.asymptotic_deviation"), "s"),
        "cli.startup_s": (cli.get("cli.startup_s", 0.0), "s"),
    }
    for cmd in CLI_COMMANDS:
        m[f"cli.{cmd}.p50_s"] = (cli.get(f"cli.{cmd}.p50_s", 0.0), "s")
    m["cli.child.peak_rss_mb"] = (cli.get("cli.child.peak_rss_mb", 0.0), "MB")
    m["trace.overhead_pct"] = (overhead_pct, "%")
    return m


def write_trace(args, setup_spans, pass_spans, children) -> None:
    path = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "info"],
                   "setup": setup_spans, "passes": pass_spans,
                   "cli_children": children}, fh)


def result(tally: Tally, metrics: dict) -> dict:
    return {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "relangle", "__init__.py")):
        print(f"error: relangle sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.setup_probe:
        import workloads as W

        os.makedirs(OUT_DIR, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=OUT_DIR, prefix="probe-") as workdir:
            W.make(args.workload, args.seed, args.quick, workdir).setup()
            print(time.perf_counter() - T_START)
        return 0
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=OUT_DIR, prefix=f"{args.workload}-")
    try:
        res = run_traced(args, workdir) if args.trace else run_plain(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
