"""Benchmark launcher.

    python3 bench/run.py --workload {train,serve,pipeline} --seed N --seconds S --trace {0,1}

Runs one workload in a child process whose BLAS thread count is fixed before
numpy loads, waits for it, and passes its output through; the last line of
standard output is the JSON result.  Run from the repository root.  Exits
non-zero without printing a result when the mesocast sources are missing or
the workload fails or overruns.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

# One BLAS thread: mesocast is a single-process program whose products are
# small (at most 2688x65 by 65x64), and a second thread on a shared host
# adds more run-to-run noise than speed.
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
TIMEOUT_S = 170


def main() -> int:
    here = Path(__file__).resolve().parent
    src = here.parent / "src"
    if not (src / "mesocast" / "__init__.py").is_file():
        print(f"error: mesocast sources not found under {src}", file=sys.stderr)
        return 2
    threads = min(BLAS_THREADS, len(os.sched_getaffinity(0)))
    env = dict(os.environ)
    env.update({var: str(threads) for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
    child = subprocess.Popen([sys.executable, str(here / "workload.py"), *sys.argv[1:]],
                             env=env, cwd=here.parent)
    try:
        return child.wait(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"error: workload did not finish within {TIMEOUT_S} s", file=sys.stderr)
        return 3
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()


if __name__ == "__main__":
    sys.exit(main())
