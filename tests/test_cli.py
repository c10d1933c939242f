import argparse
import math
import os
import subprocess
import sys

import pytest

import relangle
import relangle.optimizer as optimizer_module
from relangle.cli import OUTPUT_DIR_ENV, _fmt_certificate, _resolve_state, build_parser, main
from relangle.limits import default_sweep_grid
from relangle.optimizer import (
    helstrom_certificate,
    max_fidelity,
    optimize_state,
    two_term_nu,
)
from relangle.su2 import half
from relangle.states import GenericState, state_to_text


def read_csv(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


# the options each command reads, with their defaults; an option a command does not read
# must not come back, since argparse would accept it and the command would ignore it
COMMAND_OPTIONS = {
    "fidelity-sweep": {"--j2": "1/2", "--output": None, "--a-grid-step": 0.01},
    "optimize": {"--j2": "1/2"},
    "j2-sweep": {"--output": None},
    "classical-limit": {"--state": "optimal", "--output": None},
    "certify": {"--j2": "1/2", "--state": "parallel"},
    "montecarlo": {"--j2": "1/2", "--state": "optimal", "--samples": 100000, "--seed": 0},
}

# one option per command that it does not read; each must be a usage error, not ignored
FORMERLY_IGNORED = [
    ["optimize", "--state", "parallel"],
    ["optimize", "--output", "out.csv"],
    ["j2-sweep", "--j2", "5"],
    ["j2-sweep", "--state", "parallel"],
    ["fidelity-sweep", "--state", "parallel"],
    ["classical-limit", "--j2", "5"],
    ["certify", "--output", "out.csv"],
    ["montecarlo", "--output", "out.csv"],
]


class TestOptions:
    def test_each_command_pins_its_options(self):
        parser = build_parser()
        (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        shape = {name: {opt: action.default
                        for action in sub._actions if action.dest != "help"
                        for opt in action.option_strings}
                 for name, sub in commands.choices.items()}
        assert shape == COMMAND_OPTIONS
        assert sum(map(len, shape.values())) == 13

    @pytest.mark.parametrize("argv", FORMERLY_IGNORED, ids=" ".join)
    def test_option_a_command_does_not_read_exits_two(self, argv, tmp_path, monkeypatch,
                                                      capsys):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "unrecognized arguments" in captured.err and captured.out == ""
        assert list(tmp_path.iterdir()) == []

    def test_validates_grid_step(self, capsys):
        assert main(["fidelity-sweep", "--a-grid-step", "0.6"]) == 1
        assert "a_grid_step" in capsys.readouterr().err

    def test_validates_mu_grid(self):
        # the certificate's mu grid is fixed: no command takes one
        with pytest.raises(SystemExit) as exc:
            main(["certify", "--mu-grid", "1001"])
        assert exc.value.code == 2

    def test_validates_samples(self, capsys):
        assert main(["montecarlo", "--samples", "0"]) == 1
        assert "samples" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["fidelity-sweep", "optimize", "certify", "montecarlo"])
    def test_every_j2_command_rejects_j2_zero(self, command, capsys):
        # the library takes j2 = 0 and returns the blind guess; the CLI refuses it
        assert main([command, "--j2", "0"]) == 1
        captured = capsys.readouterr()
        assert "at least 1/2" in captured.err and captured.out == ""


class TestFidelitySweep:
    def test_row_count_and_peak(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(["fidelity-sweep", "--j2", "1/2", "--a-grid-step", "0.01",
                     "--output", str(out)])
        assert code == 0
        header, rows = read_csv(out)
        assert header == ["a", "F", "nu", "certificate_min_eig"]
        assert len(rows) == 101
        best = max(rows, key=lambda r: float(r[1]))
        assert abs(float(best[0]) - 0.609) < 0.01
        assert all(float(r[3]) >= -1e-9 for r in rows)

    def test_deterministic_output(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        for out in (a, b):
            assert main(["fidelity-sweep", "--j2", "1/2", "--a-grid-step", "0.05",
                         "--output", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_nu_column_is_the_closed_form(self, tmp_path):
        # nu is the smaller estimate of the lowest-J two-outcome block
        out = tmp_path / "sweep.csv"
        assert main(["fidelity-sweep", "--j2", "1/2", "--a-grid-step", "0.1",
                     "--output", str(out)]) == 0
        _, rows = read_csv(out)
        assert len(rows) == 11
        for a, _, nu, _ in rows:
            assert abs(float(nu) - two_term_nu(float(a))) <= 1e-8

    @pytest.mark.parametrize("step, amplitudes", [
        ("0.3", ["0", "0.3", "0.6", "0.9", "1"]),
        ("0.1", ["0", "0.1", "0.2", "0.3", "0.4", "0.5", "0.6", "0.7", "0.8", "0.9", "1"]),
        ("0.5", ["0", "0.5", "1"]),
    ])
    def test_grid_ends_at_one_exactly_once(self, tmp_path, step, amplitudes):
        out = tmp_path / "sweep.csv"
        assert main(["fidelity-sweep", "--j2", "1/2", "--a-grid-step", step,
                     "--output", str(out)]) == 0
        _, rows = read_csv(out)
        assert [r[0] for r in rows] == amplitudes


class TestJ2Sweep:
    def test_rows_and_determinism(self, tmp_path):
        outs = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for out in outs:
            assert main(["j2-sweep", "--output", str(out)]) == 0
        header, rows = read_csv(outs[0])
        assert header == ["j2", "a_star", "F_opt", "F_parallel", "F_antiparallel"]
        assert [r[0] for r in rows] == [str(j2) for j2 in default_sweep_grid()]
        assert len(rows) == 25
        assert abs(float(rows[0][1]) - 0.609) <= 0.005
        assert outs[0].read_bytes() == outs[1].read_bytes()


class TestOptimize:
    def test_summary(self, capsys):
        assert main(["optimize", "--j2", "1/2"]) == 0
        out = capsys.readouterr().out
        assert "a_star=0.609" in out
        assert "F=0.9109" in out


class TestClassicalLimit:
    def test_schema(self, tmp_path):
        out = tmp_path / "cl.csv"
        assert main(["classical-limit", "--state", "parallel",
                     "--output", str(out)]) == 0
        header, rows = read_csv(out)
        assert header == ["j2", "deviation_max", "F_quantum", "F_classical"]
        devs = [float(r[1]) for r in rows]
        assert devs == sorted(devs, reverse=True)
        last = rows[-1]
        assert last[0] == "100"
        assert float(last[1]) <= 1e-2
        assert abs(float(last[2]) - float(last[3])) <= 1e-3


class TestCertify:
    def test_pass(self, capsys):
        assert main(["certify", "--j2", "1/2", "--state", "parallel"]) == 0
        assert "[pass]" in capsys.readouterr().out

    def test_pass_beyond_float_range_of_racah_sum(self, capsys):
        # at 2j2 = 1040 the Racah sums of the CG table no longer fit in a float
        assert main(["certify", "--j2", "520", "--state", "parallel"]) == 0
        assert "[pass]" in capsys.readouterr().out

    def test_state_file(self, tmp_path, capsys):
        f = tmp_path / "state.txt"
        f.write_text(state_to_text(GenericState.two_term(0.7)), encoding="utf-8")
        assert main(["certify", "--j2", "3/2", "--state", str(f)]) == 0
        assert "[pass]" in capsys.readouterr().out

    def test_reports_the_library_certificate(self, capsys):
        state, j2 = GenericState.antiparallel(), half(2)
        result = max_fidelity(state, j2, certify=False)
        min_eig = helstrom_certificate(state, j2, result.povm)
        assert main(["certify", "--j2", "2", "--state", "antiparallel"]) == 0
        assert capsys.readouterr().out == (
            f"j2=2 state=antiparallel F={result.fidelity:.10g} "
            f"certificate_min_eig={round(min_eig, 12) + 0.0:.10g} [pass]\n")

    @pytest.mark.parametrize("x", [1e-17, -1e-17, -1.387778781e-17, 2.775557562e-17, 0.0, -0.0])
    def test_roundoff_prints_zero(self, x):
        # roundoff at the optimum swaps sign when a* moves by an ulp; its line must not
        assert _fmt_certificate(x) == "0"

    @pytest.mark.parametrize("x, text", [(math.nan, "nan"), (-1.36e-3, "-0.00136"),
                                         (-0.001362345678912, "-0.001362345679"),
                                         (-1e-9, "-1e-09"), (6e-13, "1e-12")])
    def test_failures_keep_their_digits(self, x, text):
        assert _fmt_certificate(x) == text


class TestResolveState:
    @pytest.mark.parametrize("j2", ["1/2", "5", "100"])
    def test_optimal_builds_no_certificate(self, j2, monkeypatch):
        expected = GenericState.two_term(optimize_state(j2)[0])

        def refuse(*args):
            raise AssertionError("resolving the optimal state ran a certificate")

        monkeypatch.setattr(optimizer_module, "_certificate", refuse)
        assert _resolve_state("optimal", half(j2)) == expected


class TestMonteCarlo:
    def test_consistent_with_exact(self, capsys):
        assert main(["montecarlo", "--j2", "1/2", "--state", "antiparallel",
                     "--samples", "50000", "--seed", "5"]) == 0
        out = capsys.readouterr().out
        z = float(out.split("z=")[1])
        assert abs(z) < 4.0

    def test_one_sample_rejected(self, capsys):
        # one sample has no standard error, so there is no z to report
        assert main(["montecarlo", "--j2", "1/2", "--samples", "1"]) == 1
        captured = capsys.readouterr()
        assert "error:" in captured.err and "samples" in captured.err
        assert captured.out == ""

    def test_two_samples_report_z(self, capsys):
        assert main(["montecarlo", "--j2", "1/2", "--samples", "2", "--seed", "1"]) == 0
        fields = dict(f.split("=") for f in capsys.readouterr().out.split())
        assert float(fields["stderr"]) > 0.0 and math.isfinite(float(fields["z"]))

    def test_deterministic(self, capsys):
        args = ["montecarlo", "--j2", "1/2", "--state", "parallel",
                "--samples", "2000", "--seed", "3"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == first

    def test_pinned_line(self, tmp_path, monkeypatch, capsys):
        # the draws and their order are part of the output: commit 76b0e25, which drew
        # both uniforms as whole arrays, printed this line byte for byte
        (tmp_path / "mc_state.txt").write_text(
            "m1=0\nj1=0 a=0.9468264593112083\nj1=1 a=-0.32174470616965983\n", encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        assert main(["montecarlo", "--j2", "10", "--state", "mc_state.txt",
                     "--samples", "20000", "--seed", "123"]) == 0
        assert capsys.readouterr().out == (
            "j2=10 state=mc_state.txt samples=20000 seed=123 F_exact=0.9054003019 "
            "F_mc=0.9059780588 stderr=0.0007641779892 z=0.7560501106\n")


class TestErrorHandling:
    def test_invalid_j2_exits_one(self, capsys):
        assert main(["optimize", "--j2", "0"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_malformed_rational_exits_one(self, capsys):
        assert main(["optimize", "--j2", "x/2"]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, state", [
        (["certify", "--j2", "1/0"], None),
        (["certify", "--j2", "1/2"], "m1=0\nj1=1/0 a=1\n"),
        (["certify", "--j2", "1/2"], "m1=1/0\nj1=0 a=1\n"),
    ], ids=["j2", "j1", "m1"])
    def test_zero_denominator_exits_one(self, argv, state, tmp_path):
        # Fraction raises ZeroDivisionError for '1/0'; the CLI reports it as a bad value
        if state is not None:
            f = tmp_path / "state.txt"
            f.write_text(state, encoding="utf-8")
            argv = argv + ["--state", str(f)]
        src = os.path.dirname(os.path.dirname(os.path.abspath(relangle.__file__)))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        run = subprocess.run([sys.executable, "-m", "relangle.cli", *argv], env=env,
                             capture_output=True, text=True, timeout=60)
        assert run.returncode == 1
        assert run.stderr == "error: '1/0' is not a half-integer\n"
        assert "Traceback" not in run.stderr and run.stdout == ""

    def test_bad_grid_step_exits_one(self, capsys):
        assert main(["fidelity-sweep", "--a-grid-step", "0.9"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_unsupported_block_dimension_exits_two(self, tmp_path, capsys):
        # three j1 values coupling into a 3-dim J=1 block with j2=1
        state = GenericState.from_dict(0, {0: 0.5, 1: 0.5, 2: math.sqrt(0.5)})
        f = tmp_path / "wide.txt"
        f.write_text(state_to_text(state), encoding="utf-8")
        assert main(["certify", "--j2", "1", "--state", str(f)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_non_finite_amplitude_exits_one(self, tmp_path, capsys):
        f = tmp_path / "nan.txt"
        f.write_text("m1=0\nj1=0 a=nan\nj1=1 a=nan\n", encoding="utf-8")
        assert main(["certify", "--j2", "1/2", "--state", str(f)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_repeated_state_line_exits_one(self, tmp_path, capsys):
        f = tmp_path / "twice.txt"
        f.write_text("m1=0\nj1=0 a=1\nj1=0 a=1\n", encoding="utf-8")
        assert main(["certify", "--j2", "1/2", "--state", str(f)]) == 1
        assert "repeated" in capsys.readouterr().err

    def test_missing_state_file_exits_one(self, capsys):
        assert main(["certify", "--j2", "1/2", "--state",
                     "/nonexistent/state.txt"]) == 1
        assert "error:" in capsys.readouterr().err


class TestOutputDirEnv:
    def test_env_var_sets_default_directory(self, tmp_path, monkeypatch):
        monkeypatch.setenv(OUTPUT_DIR_ENV, str(tmp_path))
        assert main(["fidelity-sweep", "--j2", "1/2", "--a-grid-step", "0.25"]) == 0
        produced = list(tmp_path.glob("*.csv"))
        assert len(produced) == 1
        header, rows = read_csv(produced[0])
        assert len(rows) == 5
