"""CPU-speed probes: timings normalised to a reference CPU speed.

The benchmark runs on shared hosts where the speed of one vCPU drifts by
30-40% within seconds, as other tenants load the physical core under it,
and the two vCPUs of a machine drift independently of each other. User+sys
time drifts with wall time, so neither measures the program's work steadily.

A probe process is pinned to each CPU the program may run on. Every PERIOD_S
it wakes, runs one fixed chunk of mixed interpreter and numpy work (~7 ms)
and records the chunk's CPU time with its monotonic clock reading. A time
measured over an interval is normalised to the reference speed by

    t_ref = t * REFERENCE_CHUNK_S / (mean chunk CPU time of the probes in the interval)

so a slow phase of the host lengthens t and the chunks alike. The probes
cost about 3% of each CPU, the same on every commit.

    python3 perfbench/speed.py --cpu 0 --out samples.txt   # one probe (the benchmark starts these)
"""
from __future__ import annotations

import argparse
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

PERIOD_S = 0.25
# median chunk CPU time on an Intel Xeon vCPU (Python 3.11, numpy 2.4) in a quiet phase
REFERENCE_CHUNK_S = 0.007
START_TIMEOUT_S = 30.0
# the CPUs this process could run on before the benchmark pinned anything
ALLOWED = sorted(os.sched_getaffinity(0))


def pick_cpus(count: int) -> set[int]:
    """The first `count` CPUs this process was allowed to run on."""
    return set(ALLOWED[:max(1, count)])


class Chunk:
    """One fixed unit of probe work: an interpreter loop on small data, dict
    look-ups and string work over ~8 MB of objects, numpy sorts and gathers
    over a 4 MB array, and CSV-like parsing into fresh dicts and lists. The
    large and allocating parts make the chunk feel cache contention from the
    other tenants, as the program does."""

    def __init__(self):
        rng = np.random.default_rng(1)
        self.small = np.arange(4096, dtype=np.float64)
        self.big = rng.random(1 << 19)
        self.gather = rng.integers(0, self.big.size, 20000)
        keys = [f"k{i}" for i in range(60000)]
        self.table = {key: float(i) for i, key in enumerate(keys)}
        self.lookups = [keys[i] for i in rng.integers(0, len(keys), 2500)]
        self.cells = [format(x, ".12g") for x in rng.random(3000) * 1000.0]

    def __call__(self) -> None:
        counts: dict[int, float] = {}
        acc = 0.0
        for i in range(3000):
            k = i & 63
            counts[k] = counts.get(k, 0.0) + i * 0.5
            acc += self.small[k]
        for _ in range(20):
            np.sort(self.small[::-1])
        for key in self.lookups:
            acc += self.table[key]
        [str(i * 0.37).split(".") for i in range(300)]
        for _ in range(4):
            self.big[self.gather].sum()
        cells = self.cells
        rows = [{"a": float(cells[i]), "b": float(cells[i + 1]), "c": [float(x) for x in cells[i + 2:i + 6]]}
                for i in range(0, len(cells), 6)]
        ranks = {v: i for i, v in enumerate(sorted(r["a"] * r["b"] for r in rows))}
        ",".join(cells[:400]).split(",")
        del rows, ranks


def probe(cpu: int, out: Path) -> None:
    os.sched_setaffinity(0, {cpu})
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(0))
    chunk = Chunk()
    with open(out, "w", buffering=1, encoding="ascii") as fh:
        while True:
            start = time.thread_time()
            chunk()
            spent = time.thread_time() - start
            fh.write(f"{time.monotonic():.6f} {spent:.9f}\n")
            time.sleep(PERIOD_S)


def read_samples(path: Path) -> list[tuple[float, float]]:
    """(monotonic time, chunk CPU s) of every complete line."""
    samples = []
    with open(path, encoding="ascii") as fh:
        for line in fh:
            if line.endswith("\n"):
                at, spent = line.split()
                samples.append((float(at), float(spent)))
    return samples


def factor(samples: list[tuple[float, float]], start: float, end: float) -> float:
    """REFERENCE_CHUNK_S / mean chunk time in [start, end].

    An interval shorter than a probe period is widened to the nearest
    samples on each side.
    """
    samples = sorted(samples)
    inside = [spent for at, spent in samples if start <= at <= end]
    if not inside:
        before = [s for s in samples if s[0] < start]
        after = [s for s in samples if s[0] > end]
        inside = [s[1] for s in (before[-1:] + after[:1])]
    if not inside:
        raise ValueError("no probe samples")
    return REFERENCE_CHUNK_S / statistics.fmean(inside)


class SpeedProbes:
    """One probe process per CPU for the life of a `with` block."""

    def __init__(self, cpus: set[int], directory: Path):
        self.paths = [directory / f".speed{cpu}.txt" for cpu in sorted(cpus)]
        self.cpus = sorted(cpus)
        self.procs: list[subprocess.Popen] = []

    def __enter__(self) -> "SpeedProbes":
        try:
            for cpu, path in zip(self.cpus, self.paths):
                self.procs.append(subprocess.Popen(
                    [sys.executable, __file__, "--cpu", str(cpu), "--out", str(path)],
                    stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                ))
            deadline = time.monotonic() + START_TIMEOUT_S
            while not all(p.is_file() and read_samples(p) for p in self.paths):
                if time.monotonic() > deadline or any(proc.poll() is not None for proc in self.procs):
                    raise RuntimeError("a CPU-speed probe did not start")
                time.sleep(0.05)
        except BaseException:
            self.__exit__()
            raise
        return self

    def __exit__(self, *_) -> None:
        for proc in self.procs:
            if proc.poll() is None:
                proc.terminate()
        for proc in self.procs:
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        self.procs = []

    def factor(self, start: float, end: float) -> float:
        """Speed factor over [start, end], pooled over every CPU's probe."""
        samples = [s for path in self.paths for s in read_samples(path)]
        return factor(samples, start, end)


def main() -> int:
    parser = argparse.ArgumentParser(description="One CPU-speed probe.")
    parser.add_argument("--cpu", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    probe(args.cpu, args.out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
