"""The benchmark's own output checks, run as a test.

``perfbench/run.py`` calls the CLI and library functions such as
``tabulate(program, radius, list)`` and compares every output with the
results in ``perfbench/expected.json``.  One pass of each workload catches a
break in those calls here, before a benchmark run does.
"""

import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"


def test_one_pass_of_every_workload_is_correct():
    argv = [sys.executable, str(RUN), "--workload", "all", "--seed", "97", "--seconds", "0"]
    proc = subprocess.run(
        argv, cwd=RUN.parent.parent, capture_output=True, text=True, timeout=600
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert (result["correct"], result["failed"]) == (True, 0), proc.stderr
