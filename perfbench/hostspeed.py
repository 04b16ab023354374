"""Host speed, sampled by a separate process while set-ups and operations run.

A shared host's speed can change by a third or more within a few seconds.
The sampler process times :func:`reference_s`, a fixed computation that
never calls the program under test, every ``SAMPLE_INTERVAL_S`` on the CPU
the work runs on (the caller pins both to it).  A set-up's or an
operation's wall time divided by the mean reference time over its own window
is then in units of the CPU's speed while it ran, which cancels the drift.
Timing the reference only before and after each operation tracked it worse:
on a 6 s operation the speed changes in between.

Run as a script it is the sampler:  python3 hostspeed.py OUT_FILE STOP_FILE
It appends ``midpoint seconds`` lines to OUT_FILE until STOP_FILE exists.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

SAMPLE_INTERVAL_S = 0.5

#: How long the sampler may take to start or to stop before the run fails.
SAMPLER_TIMEOUT_S = 30


def reference_s() -> float:
    """CPU time of a fixed mix of interpreter and numpy work, about 20 ms.

    CPU time, not wall time: the sampler takes turns with the work on one
    CPU, and the wall time would count the work's turns too.
    """
    start = time.process_time()
    total = 0
    for i in range(250_000):
        total += i * i
    a = np.linspace(0.0, 1.0, 200_000)
    for _ in range(10):
        np.log1p(a, out=a)
    return time.process_time() - start


class HostSpeed:
    """Runs the sampler process for the length of a ``with`` block.

    ``time.perf_counter`` is the system-wide monotonic clock on Linux, so
    windows taken in this process and samples taken in the sampler compare.
    After the block, :meth:`mean` gives the mean reference time over a window.
    """

    def __init__(self, workdir: Path, env: dict):
        self.out = workdir / "hostspeed.txt"
        self.stop = workdir / "hostspeed.stop"
        self.env = env
        self.samples: list[tuple[float, float]] = []

    def __enter__(self) -> "HostSpeed":
        self.proc = subprocess.Popen([sys.executable, __file__, str(self.out), str(self.stop)], env=self.env)
        deadline = time.perf_counter() + SAMPLER_TIMEOUT_S
        while not (self.out.is_file() and self.out.stat().st_size):
            if self.proc.poll() is not None or time.perf_counter() > deadline:
                self._end()
                raise RuntimeError(f"host-speed sampler did not start (exit code {self.proc.returncode})")
            time.sleep(0.01)
        return self

    def __exit__(self, *exc) -> None:
        self._end()
        rows = [line.split() for line in self.out.read_text().splitlines()]
        self.samples = [(float(row[0]), float(row[1])) for row in rows if len(row) == 2]  # a killed sampler may leave half a line

    def _end(self) -> None:
        self.stop.touch()
        try:
            self.proc.wait(timeout=SAMPLER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()

    def mean(self, start: float, end: float) -> float:
        """Mean reference seconds of the samples in [start, end], else of the nearest one."""
        inside = [dur for mid, dur in self.samples if start <= mid <= end]
        if inside:
            return statistics.fmean(inside)
        centre = (start + end) / 2
        return min(self.samples, key=lambda sample: abs(sample[0] - centre))[1]


def sample(out: Path, stop: Path) -> None:
    with open(out, "a") as fh:
        while not stop.exists():
            start = time.perf_counter()
            seconds = reference_s()
            fh.write(f"{(start + time.perf_counter()) / 2!r} {seconds!r}\n")
            fh.flush()
            time.sleep(SAMPLE_INTERVAL_S)


if __name__ == "__main__":
    sample(Path(sys.argv[1]), Path(sys.argv[2]))
