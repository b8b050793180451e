"""transfid benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload extract_large --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

Run it from the repository root; it runs the program from ./src. With
--trace 0 it times the real CLI (`python3 -m transfid.cli ...`) on inputs
generated from --seed and reports the end-to-end metrics. With --trace 1 it
calls the CLI in-process at --jobs 1 with probes on the layer entry points
and reports the per-layer metrics. Every invocation's outputs pass through
the correctness gate. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}. See perfbench/README.md.
"""
from __future__ import annotations

import os

# numeric libraries stay single-threaded in the benchmark and in every worker
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import gate  # noqa: E402
import layers  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
RESULTS = ROOT / ".perfbench_results"
# set-ups per run: at least SETUP_MIN_REPEATS, and more while they total under
# SETUP_MIN_S, so that the median of a cheap set-up is not one probe sample's noise
SETUP_MIN_REPEATS = 3
SETUP_MIN_S = 1.5
SETUP_MAX_REPEATS = 15
# reading /proc/<pid>/status costs ~0.2 ms of CPU; 50 ms keeps the sampler near 1% of a CPU
RSS_POLL_S = 0.05
# walk the process tree every TREE_EVERY polls
TREE_EVERY = 4
# stop starting timed invocations once a run has used this much wall time
RUN_BUDGET_S = 140.0


# (start, end) on the monotonic clock
Window = tuple[float, float]


@dataclass
class Invocation:
    wall_s: float
    # wall_s at the reference CPU speed (see speed.py)
    ref_s: float
    cpu_s: float
    peak_rss_mb: float
    items: int


class Ledger:
    """Operations attempted and failed in one run, with the failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, problems: list[str]) -> None:
        self.attempted += 1
        self.failed += bool(problems)
        self.problems += problems


@dataclass
class Outcome:
    metrics: dict[str, tuple[float, str]]
    ledger: Ledger
    notes: dict


class TreePeak(threading.Thread):
    """Polls the peak RSS (VmHWM) of a process and all its descendants.

    VmHWM only grows, so the last reading before a process exits is its
    peak; growth in a process's last RSS_POLL_S can be missed. The process
    tree is walked less often than VmHWM is read.
    """

    def __init__(self, pid: int):
        super().__init__(daemon=True)
        self.pid = pid
        self.peaks_kb: dict[int, int] = {}
        self.stop = threading.Event()

    def run(self) -> None:
        pids, tick = [self.pid], 0
        while not self.stop.is_set():
            time.sleep(RSS_POLL_S)  # costs less CPU per wake-up than Event.wait
            if tick % TREE_EVERY == 0:
                pids = self._tree()
            tick += 1
            for pid in pids:
                kb = _vm_hwm_kb(pid)
                if kb:
                    self.peaks_kb[pid] = max(self.peaks_kb.get(pid, 0), kb)

    def _tree(self) -> list[int]:
        found, stack = [], [self.pid]
        while stack:
            pid = stack.pop()
            found.append(pid)
            try:
                tasks = os.listdir(f"/proc/{pid}/task")
            except OSError:
                continue
            for tid in tasks:
                try:
                    with open(f"/proc/{pid}/task/{tid}/children") as fh:
                        stack.extend(int(c) for c in fh.read().split())
                except OSError:
                    pass
        return found


def _vm_hwm_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status", "rb") as fh:
            status = fh.read()
    except OSError:
        return 0
    start = status.find(b"VmHWM:")
    return int(status[start + 6: status.index(b"kB", start)]) if start >= 0 else 0


def run_cli(argv: list[str], cwd: Path) -> tuple[int, float, float, float, str]:
    """(exit code, wall s, user+sys s incl. workers, peak RSS MB of the tree, stderr)."""
    err_path = cwd / ".stderr"
    with open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "transfid.cli", *argv],
            cwd=cwd, env=dict(os.environ, PYTHONPATH=str(SRC)),
            stdout=subprocess.DEVNULL, stderr=err, start_new_session=True,
        )
        sampler = TreePeak(proc.pid)
        sampler.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
        finally:
            wall = time.perf_counter() - start
            sampler.stop.set()
            sampler.join()
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped by wait4, not by Popen
    peak_kb = max(sum(sampler.peaks_kb.values()), usage.ru_maxrss)
    stderr = err_path.read_text(encoding="utf-8", errors="replace")
    err_path.unlink()
    return proc.returncode, wall, usage.ru_utime + usage.ru_stime, peak_kb / 1024.0, stderr


def setup(workload, seed: int, run_dir: Path) -> tuple[Path, list[str], list[Window], list[str]]:
    """Generate the inputs several times (see SETUP_MIN_REPEATS); keep the first copy.

    Every copy must be byte-identical: the same seed gives the same inputs.
    """
    windows, digests, patients = [], [], []
    for k in range(SETUP_MAX_REPEATS):
        if k >= SETUP_MIN_REPEATS and sum(end - start for start, end in windows) >= SETUP_MIN_S:
            break
        directory = run_dir / f"inputs{k}"
        directory.mkdir(parents=True)
        start = time.monotonic()
        patients = workload.write_inputs(seed, directory)
        windows.append((start, time.monotonic()))
        digests.append(gate.digest_tree(directory))
        if k:
            shutil.rmtree(directory)
    problems = [] if all(d == digests[0] for d in digests) else ["inputs differ between set-ups of one seed"]
    return run_dir / "inputs0", patients, windows, problems


def selftest(cwd: Path) -> list[str]:
    code, _, _, _, stderr = run_cli(["selftest"], cwd)
    return [] if code == 0 else [f"transfid selftest exited {code}: {stderr.strip()[-300:]}"]


class OutputCheck:
    """Gates one invocation's outputs and deletes them; identical bytes are checked once."""

    def __init__(self, workload, seed: int, directory: Path, patients: list[str]):
        self.workload, self.seed, self.directory, self.patients = workload, seed, directory, patients
        self.reference = gate.load_reference()
        self._seen: dict[str, list[str]] = {}

    def verify(self, out: str, code: int, stderr: str) -> tuple[list[str], int]:
        """(problems, items written)."""
        try:
            return self._problems(out, code, stderr), self._items(out, code)
        finally:
            for name in self.workload.outputs(out):
                (self.directory / name).unlink(missing_ok=True)

    def _items(self, out: str, code: int) -> int:
        if code != 0 or not (self.directory / out).is_file():
            return 0
        return self.workload.items(self.directory, out)

    def _problems(self, out: str, code: int, stderr: str) -> list[str]:
        if code != 0:
            return [f"exit code {code}: {stderr.strip()[-300:]}"]
        problems = [line for line in stderr.splitlines() if "excluded patient" in line]
        paths = [self.directory / name for name in self.workload.outputs(out)]
        missing = [p.name for p in paths if not p.is_file()]
        if missing:
            return problems + [f"missing output {missing}"]
        key = gate.sha256(b"".join(gate.sha256(p.read_bytes()).encode() for p in paths))
        if key not in self._seen:
            self._seen[key] = self.workload.check(self.seed, self.directory, out, self.patients,
                                                  self.reference)
        return problems + self._seen[key]


def prepare(workload, seed: int, run_dir: Path, ledger: Ledger) -> tuple[OutputCheck, list[Window], float]:
    """Set up the inputs and run the selftest: (output check, set-up windows, selftest s).

    The selftest also warms the interpreter's bytecode cache before timing.
    """
    directory, patients, setup_windows, problems = setup(workload, seed, run_dir)
    ledger.add(problems)
    start = time.perf_counter()
    ledger.add(selftest(directory))
    return OutputCheck(workload, seed, directory, patients), setup_windows, time.perf_counter() - start


def tail_percentile(values: list[float]) -> str:
    """Highest percentile with at least 10 samples beyond it, if any."""
    n = len(values)
    for p in (99, 95, 90, 75, 50):
        if n * (100 - p) / 100 >= 10:
            cut = statistics.quantiles(values, n=100, method="inclusive")[p - 1]
            return f"p{p}={cut:.4f} s (n={n})"
    return f"none (n={n}; a percentile needs >= 10 samples beyond it)"


def more(count: int, least: int, elapsed: float, last: float, seconds: float) -> bool:
    """Start another timed invocation? At least `least`, then only if it should end in time."""
    return count < least or elapsed + last <= seconds


def measure(workload, seed: int, seconds: float, run_dir: Path) -> Outcome:
    """End-to-end metrics from repeated CLI invocations at the workload's worker count.

    The benchmark and the program are pinned to the workload's CPUs, each of
    which carries a speed probe; timings are reported at the reference speed.
    """
    run_start = time.monotonic()
    ledger = Ledger()
    cpus = speed.pick_cpus(workload.jobs)
    os.sched_setaffinity(0, cpus)
    run_dir.mkdir(parents=True)
    with speed.SpeedProbes(cpus, run_dir) as probes:
        check, setup_windows, selftest_s = prepare(workload, seed, run_dir, ledger)
        runs: list[Invocation] = []
        timed_start = time.monotonic()
        while not runs or more(len(runs), workload.min_invocations, time.monotonic() - timed_start,
                               runs[-1].wall_s, seconds):
            if runs and time.monotonic() - run_start + runs[-1].wall_s > RUN_BUDGET_S:
                break
            out = f"out{len(runs)}.csv"
            start = time.monotonic()
            code, wall, cpu, rss, stderr = run_cli(workload.argv(out, workload.jobs), check.directory)
            ref = wall * probes.factor(start, time.monotonic())
            problems, items = check.verify(out, code, stderr)
            ledger.add(problems)
            runs.append(Invocation(wall, ref, cpu, rss, items))
        setup_ref = [(end - start) * probes.factor(start, end) for start, end in setup_windows]

    refs = [r.ref_s for r in runs]
    metrics = {
        "items_per_s": (statistics.median(r.items / r.ref_s for r in runs), "1/s"),
        "wall_s": (statistics.median(refs), "s"),
        "setup_s": (statistics.median(setup_ref), "s"),
        "peak_rss_mb": (statistics.median(r.peak_rss_mb for r in runs), "MB"),
    }
    notes = {
        "jobs": workload.jobs,
        "cpus": sorted(cpus),
        "items_per_invocation": [r.items for r in runs],
        "wall_s_ref_all": refs,
        "wall_s_ref_tail": tail_percentile(refs),
        "wall_s_raw_all": [r.wall_s for r in runs],
        "wall_s_raw_median": statistics.median(r.wall_s for r in runs),
        "cpu_s_all": [r.cpu_s for r in runs],
        "peak_rss_mb_all": [r.peak_rss_mb for r in runs],
        "setup_s_ref_all": setup_ref,
        "setup_s_raw_all": [end - start for start, end in setup_windows],
        "selftest_s": selftest_s,
    }
    return Outcome(metrics, ledger, notes)


def in_process(argv: list[str], directory: Path) -> tuple[int, float, str]:
    """Call the CLI in this process from `directory`: (exit code, wall s, stderr)."""
    import transfid.cli

    err = io.StringIO()
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            start = time.perf_counter()
            code = transfid.cli.main(argv)
            wall = time.perf_counter() - start
    finally:
        os.chdir(cwd)
    return code, wall, err.getvalue()


def measure_traced(workload, seed: int, seconds: float, run_dir: Path, spans_prefix: str) -> Outcome:
    """Per-layer metrics from in-process invocations at --jobs 1, untraced then traced.

    The in-process invocations run pinned to one CPU with a speed probe on it;
    their times are reported at the reference CPU speed.
    """
    ledger = Ledger()
    run_dir.mkdir(parents=True)
    os.sched_setaffinity(0, speed.pick_cpus(workload.jobs))
    check, _, _ = prepare(workload, seed, run_dir, ledger)

    # pool utilisation comes from an untraced CLI run at the workload's worker count
    code, pool_wall, cpu, _, stderr = run_cli(workload.argv("pool.csv", workload.jobs), check.directory)
    ledger.add(check.verify("pool.csv", code, stderr)[0])

    cpus = speed.pick_cpus(1)
    os.sched_setaffinity(0, cpus)
    seconds_metrics = {name for name, unit, _ in layers.PER_LAYER if unit == "s"}
    plain, traced, per_invocation = [], [], []
    with speed.SpeedProbes(cpus, run_dir) as speed_probes:
        start = time.monotonic()
        while not traced or more(len(traced), 1, time.monotonic() - start, plain[-1] + traced[-1], seconds):
            k = len(traced)
            begin = time.monotonic()
            code, wall, stderr = in_process(workload.argv(f"plain{k}.csv", 1), check.directory)
            plain.append(wall * speed_probes.factor(begin, time.monotonic()))
            ledger.add(check.verify(f"plain{k}.csv", code, stderr)[0])

            tracer = Tracer()
            probes = layers.ProgramProbes(tracer)
            probes.install()
            begin = time.monotonic()
            try:
                code, wall, stderr = in_process(workload.argv(f"traced{k}.csv", 1), check.directory)
            finally:
                tracer.restore()
            factor = speed_probes.factor(begin, time.monotonic())
            traced.append(wall * factor)
            ledger.add(check.verify(f"traced{k}.csv", code, stderr)[0])
            tracer.write_jsonl(Path(f"{spans_prefix}-spans{k}.jsonl"))
            values = layers.invocation_metrics(tracer.spans, probes.counts)
            per_invocation.append({name: v * factor if name in seconds_metrics else v
                                   for name, v in values.items()})

    values = {name: statistics.median(inv[name] for inv in per_invocation) for name in per_invocation[0]}
    values["analysis.pool_cpu_ratio"] = cpu / (pool_wall * workload.jobs)
    values["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(plain)
    metrics = {name: (values[name], unit) for name, unit, _ in layers.PER_LAYER}
    notes = {"traced_wall_s_ref": traced, "untraced_wall_s_ref": plain, "pool_wall_s_raw": pool_wall}
    return Outcome(metrics, ledger, notes)


def machine_info(seed: int) -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    sha = "unknown"
    with contextlib.suppress(OSError, subprocess.SubprocessError):
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        result = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                                capture_output=True, text=True, timeout=10)
        if result.returncode == 0:
            sha = result.stdout.strip()
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": sha,
        "seed": seed,
    }


def report(name: str, outcome: Outcome) -> None:
    print(f"== {name}")
    for metric, (value, unit) in outcome.metrics.items():
        print(f"  {metric:40s} {value:.6g} {unit}")
    ledger = outcome.ledger
    rate = ledger.failed / ledger.attempted
    print(f"  {'error_rate':40s} {rate:.6g} ratio ({ledger.failed}/{ledger.attempted})")
    if "wall_s_ref_tail" in outcome.notes:
        print(f"  {'wall_s tail':40s} {outcome.notes['wall_s_ref_tail']}")
        print(f"  {'wall_s raw (not speed-normalised)':40s} {outcome.notes['wall_s_raw_median']:.6g} s")
    for problem in ledger.problems[:20]:
        print(f"  FAIL {problem}")


def preflight() -> str | None:
    """Why the program cannot be benchmarked from here, or None."""
    if not (SRC / "transfid" / "cli.py").is_file():
        return f"no transfid sources under {SRC}; run from the repository root"
    sys.path.insert(0, str(SRC))
    import transfid

    if Path(transfid.__file__).resolve().parent != (SRC / "transfid").resolve():
        return f"imported transfid from {transfid.__file__}, not from {SRC}"
    return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    why_not = preflight()
    if why_not:
        print(f"perfbench: {why_not}", file=sys.stderr)
        return 2

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    info = machine_info(args.seed)
    print("machine: " + json.dumps(info, sort_keys=True))
    RESULTS.mkdir(exist_ok=True)
    outcomes = {}
    for name in names:
        workload = workloads.WORKLOADS[name]
        run_dir = WORK / f"{name}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
        stem = RESULTS / f"{name}-seed{args.seed}-trace{args.trace}"
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            if args.trace:
                outcome = measure_traced(workload, args.seed, args.seconds, run_dir, str(stem))
            else:
                outcome = measure(workload, args.seed, args.seconds, run_dir)
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)
        report(name, outcome)
        record = {
            "workload": name, "machine": info, "trace": args.trace, "seconds": args.seconds,
            "attempted": outcome.ledger.attempted, "failed": outcome.ledger.failed,
            "problems": outcome.ledger.problems,
            "metrics": {m: {"value": v, "unit": u} for m, (v, u) in outcome.metrics.items()},
            "notes": outcome.notes,
        }
        Path(f"{stem}.json").write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
        outcomes[name] = outcome
    with contextlib.suppress(OSError):
        WORK.rmdir()

    attempted = sum(o.ledger.attempted for o in outcomes.values())
    failed = sum(o.ledger.failed for o in outcomes.values())
    if len(outcomes) == 1:
        metrics = next(iter(outcomes.values())).metrics
    else:
        metrics = {f"{n}/{m}": vu for n, o in outcomes.items() for m, vu in o.metrics.items()}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
