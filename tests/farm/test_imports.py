"""The farm stays out of the simulator's import graph.

Batch consumers (the sweep, the chaos suite, the conformance CLI) import
:mod:`repro.farm` inside the functions that run a batch, so a program
that only simulates never loads it, nor the ``multiprocessing`` machinery
it brings in.
"""

import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parents[2] / "src"


def test_simulator_imports_leave_the_farm_out():
    code = ("import sys\n"
            "import repro.analysis.experiments, repro.analysis.sweep\n"
            "import repro.faults, repro.conformance\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m == 'repro.farm' or m.startswith('repro.farm.')))\n")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "[]"
