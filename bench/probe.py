"""Set-up probe: python3 bench/probe.py SRC WORKLOAD SEED WORKDIR

Imports the program and numpy, writes the workload's instance files into
WORKDIR and prints "ready". run.py times fresh interpreters running this
from spawn to that line for `setup_s`, so the probe imports nothing of the
benchmark beyond the deck generator.
"""

import sys

src, workload, seed, workdir = sys.argv[1:5]
sys.path.insert(0, src)

import corrgap.cli  # noqa: E402,F401
import numpy  # noqa: E402,F401
import workloads  # noqa: E402

workloads.prepare(workload, int(seed), workdir)
print("ready", flush=True)
