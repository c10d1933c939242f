import ast
import os
import subprocess
import sys
from pathlib import Path

import relangle


def test_all_names_resolve_once():
    # a name dropped from the package but left in __all__ would fail `from relangle import *`
    assert len(set(relangle.__all__)) == len(relangle.__all__)
    missing = [name for name in relangle.__all__ if not hasattr(relangle, name)]
    assert missing == []


def test_public_names():
    assert sorted(relangle.__all__) == [
        "BlockPovm", "BlockedOperator", "DomainError", "GenericState", "HalfInt",
        "OptimizationResult", "PovmSpec", "StructureMismatchError", "TrigBlock", "TrigBlocks",
        "UnsupportedBlockError", "asymptotic_deviation", "averaged_state", "averaged_state_oracle",
        "classical_fidelity", "classical_sigma", "classical_trig_blocks", "clebsch_gordan",
        "couple_range", "coupling_structure", "default_sweep_grid", "fidelity",
        "fidelity_montecarlo", "half", "helstrom_certificate", "m_range", "max_fidelity",
        "optimize_state", "optimize_trig_blocks", "signal_density", "signal_trig_blocks",
        "state_from_text", "state_to_text", "sweep_optimal_vs_j2", "two_term_nu",
        "wigner_d_matrix",
    ]


def test_import_builds_no_table():
    # the multipole tables and the geometry are built on first use, so no cold start pays for them
    src = str(Path(relangle.__file__).resolve().parents[1])
    code = ("import relangle\n"
            "from relangle import estimator, states\n"
            "print([f.cache_info().currsize for f in (states._multipoles, estimator._geometry,"
            " states._classical_multipoles)])")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "[0, 0, 0]"


def test_src_imports_only_stdlib_and_numpy():
    # scipy, sympy and mpmath may serve a check in tests, never the package itself
    outside = []
    for path in sorted(Path(relangle.__file__).resolve().parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [(path.name, name) for name in names
                        if name.split(".")[0] != "numpy"
                        and name.split(".")[0] not in sys.stdlib_module_names]
    assert outside == []
