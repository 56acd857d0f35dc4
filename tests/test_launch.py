"""What importing the package does at launch: ``aggdiff/__init__.py`` sets
the OpenBLAS thread default before any module imports NumPy, and the first
2-D operator build loads no NumPy submodule that a sweep does not need.

Each test runs a fresh interpreter, since this one has NumPy loaded and
the default already set.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

# Threads of the process after the CLI's imports, and the three variables.
_THREAD_PROBE = f"""
import json, os
import aggdiff.cli
print(json.dumps({{
    "threads": len(os.listdir("/proc/self/task")),
    "variables": {{key: os.environ.get(key) for key in {THREAD_VARIABLES!r}}},
}}))
"""


def _fresh(code, **variables):
    """JSON printed by ``code`` in a new interpreter whose environment sets
    none of the thread variables but ``variables``."""
    env = {key: value for key, value in os.environ.items() if key not in THREAD_VARIABLES}
    env.update(variables, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    return json.loads(done.stdout)


def test_importing_the_package_loads_no_numpy():
    # The default must be in the environment before OpenBLAS reads it, at
    # NumPy's import: an import added to the package __init__ would load it first.
    assert _fresh("import json, sys, aggdiff; print(json.dumps('numpy' in sys.modules))") is False


def test_building_the_shared_2d_operator_loads_no_numpy_ma():
    # np.unique on the probe rows imported numpy.ma, 8 ms of a 2-D sweep's setup.
    code = "import json, sys; from aggdiff import drift; drift._index_class(128); print(json.dumps('numpy.ma' in sys.modules))"
    assert _fresh(code) is False


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="counts threads in Linux's /proc/self/task")
@pytest.mark.parametrize("variables, threads", [
    ({}, 1),
    ({"OPENBLAS_NUM_THREADS": "2"}, 2),
    ({"OMP_NUM_THREADS": "2"}, 2),
], ids=["default", "OPENBLAS_NUM_THREADS=2", "OMP_NUM_THREADS=2"])
def test_openblas_starts_one_thread_unless_told_otherwise(variables, threads):
    if threads > len(os.sched_getaffinity(0)):
        pytest.skip("OpenBLAS starts no more threads than there are cores")
    probe = _fresh(_THREAD_PROBE, **variables)
    expected = {key: variables.get(key) for key in THREAD_VARIABLES}
    if not variables:
        expected["OPENBLAS_NUM_THREADS"] = "1"
    assert probe == {"threads": threads, "variables": expected}
