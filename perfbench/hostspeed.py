"""Host-speed references that the benchmark's timings are scaled by.

On the 2-CPU host this benchmark was written on, speed changes by up to 2x
over tens of seconds: co-tenants slow the CPU, and process CPU time slows
with wall time, so it is not scheduling.  Raw timings of one 30-second run
then say more about when it ran than about the program: ten runs of one
workload spread by up to 30% (quartile distance over median).  Each timing
is therefore measured next to a fixed reference that shares no code with
adhersim, and reported scaled to a host on which the reference takes its
nominal time.  Scaled, the same ten runs spread by 2-7%.  Runs print the
unscaled values and the reference times too.

Two references, one for each kind of timing:

- ``kernel_s`` (nominal ``KERNEL_S``) for in-process ops.  It mixes small
  numpy array ops, float formatting and dict updates, as the CLI does.
- ``spawn_s`` (nominal ``SPAWN_S``) for set-up.  It is a fresh interpreter
  that imports numpy, the part of set-up that adhersim does not own.
"""

from __future__ import annotations

import subprocess
import sys
import time
from pathlib import Path

import numpy

KERNEL_S = 0.001
SPAWN_S = 0.1
SPAWN_CODE = "import numpy\n"


def kernel_s() -> float:
    """Time one run of the in-process reference kernel."""
    t0 = time.perf_counter()
    x = numpy.linspace(0.0, 10.0, 1001)
    for _ in range(6):
        y = numpy.exp(-0.03 * x) * numpy.cumsum(numpy.sqrt(x + 1.0))
        z = numpy.where(x >= 2.0, y, 0.5 * y)
        ",".join(format(v, ".6g") for v in z[::10])
    counts: dict[int, int] = {}
    for i in range(2000):
        counts[i % 97] = counts.get(i % 97, 0) + i
    return time.perf_counter() - t0


def spawn_s(code: str, env: dict[str, str], cwd: Path) -> float:
    """Wall time of a fresh interpreter running ``code``; raises if it fails."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], env=env, cwd=cwd, check=True, timeout=60)
    return time.perf_counter() - t0
