"""One set-up of a workload in a fresh interpreter: import diffusionlab and
its numeric stack, then build the workload's inputs.  `run.py` times whole
runs of this script to report `setup_s`.

    python3 perfbench/setup_probe.py <workload> <seed> <work-dir>
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy  # noqa: E402,F401
import scipy.interpolate  # noqa: E402,F401
import scipy.linalg  # noqa: E402,F401
import diffusionlab.experiments  # noqa: E402,F401

import workloads  # noqa: E402

if __name__ == "__main__":
    workload, seed, work = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    workloads.build_inputs(workload, seed, work)
