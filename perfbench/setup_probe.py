"""Time one set-up in a fresh interpreter and print its reference seconds.

    python3 perfbench/setup_probe.py WORKLOAD SEED

One set-up is `import gf2kq`, then the workload's catalog lookups and seeded
draw of cases. Its seconds are scaled by the host's speed, probed right
before and after it (see hostspeed.py). `run.py` starts this several times
per run and reports the median as `setup_s`. Interpreter start-up is not on
the clock.
"""

import contextlib
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import hostspeed  # noqa: E402

# A set-up takes about as long as twenty probes, so a few probes on each
# side of it see the speed it ran at. Set-up is mostly compiling and running
# module code, and slows less under load than hostspeed's default probe.
PROBES_EACH_SIDE = 5

speed = hostspeed.HostSpeed(hostspeed.compile_probe, hostspeed.COMPILE_REFERENCE_S)
for _ in range(PROBES_EACH_SIDE):
    speed.probe_now()
t0 = time.perf_counter()
import gf2kq  # noqa: E402,F401
import workloads  # noqa: E402

workloads.WORKLOADS[sys.argv[1]](int(sys.argv[2]), lambda name: contextlib.nullcontext())
t1 = time.perf_counter()
for _ in range(PROBES_EACH_SIDE):
    speed.probe_now()
print(speed.reference_seconds(t0, t1))
