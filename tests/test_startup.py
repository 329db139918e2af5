"""What a fresh process pays for importing catassoc and running a command.

Each test runs a new interpreter, since these costs are paid once per
process: the BLAS worker threads that numpy starts when it loads, and the
modules a command imports.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import catassoc

SRC = str(Path(catassoc.__file__).resolve().parent.parent)


def _run(code, **env):
    """Run ``code`` in a new interpreter that imports catassoc from SRC, with
    OPENBLAS_THREAD_TIMEOUT unset unless given; return its stdout."""
    child_env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_THREAD_TIMEOUT"}
    child_env["PYTHONPATH"] = SRC
    child_env.update(env)
    return subprocess.run([sys.executable, "-c", code], env=child_env, check=True,
                          capture_output=True, text=True).stdout


def _blas_name():
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):  # numpy without show_config(mode="dicts")
        return ""


@pytest.mark.skipif(os.cpu_count() == 1, reason="OpenBLAS starts no worker thread")
@pytest.mark.skipif("openblas" not in _blas_name().lower(), reason="BLAS is not OpenBLAS")
def test_idle_blas_workers_do_not_spin():
    """OpenBLAS's idle workers busy-wait OPENBLAS_THREAD_TIMEOUT before they
    sleep; at its default that took ~0.06 s of CPU after every import on a
    2-core Xeon virtual machine."""
    other_threads_cpu = float(_run(
        "import resource, time\n"
        "import catassoc\n"
        "time.sleep(0.3)\n"
        "r = resource.getrusage(resource.RUSAGE_SELF)\n"
        "print(r.ru_utime + r.ru_stime - time.thread_time())\n"))
    assert other_threads_cpu < 0.02


@pytest.mark.parametrize("preset,after", [(None, "None"), ("28", "'28'")])
def test_environment_is_left_as_it_was(preset, after):
    env = {} if preset is None else {"OPENBLAS_THREAD_TIMEOUT": preset}
    out = _run("import os, catassoc\n"
               "print(repr(os.environ.get('OPENBLAS_THREAD_TIMEOUT')))\n", **env)
    assert out.strip() == after


@pytest.mark.parametrize("argv", [
    ["bootstrap", "-i", "loan", "--stat", "tau", "--response", "Risk", "--B", "200",
     "--seed", "1", "--format", "json"],
    ["select", "-i", "loan", "--response", "Risk"],
    ["validate", "-i", "loan", "--x", "Age", "--y", "Risk", "--seed", "1"],
], ids=["bootstrap", "select", "validate"])
def test_command_does_not_import_numpy_ma(argv):
    """``numpy.ma`` takes ~9 ms to import; a bare ``np.unique(a)`` or
    ``np.quantile`` would load it."""
    out = _run("import sys\n"
               "from catassoc.cli import main\n"
               f"rc = main({argv!r})\n"
               "print(rc, 'numpy.ma' in sys.modules)\n")
    assert out.splitlines()[-1] == "0 False"
