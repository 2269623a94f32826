"""Closed-loop benchmark of the riesz CLI: one client, one job at a time.

    python3 perfbench/run.py --workload map-probe --seed 1 --seconds 60 --trace 0

A job is a workload's fixed sequence of `riesz` subcommands, each a fresh
interpreter, because a CLI user pays the import and the module-level caches
on every invocation.  Every command gets `--workers 2` and the seed.

--trace 0 runs jobs for --seconds (no job starts that would, at the length
of the longest so far, end after it) and reports the end-to-end metrics:
job_s, cpu_s, peak_rss_mib (medians over jobs) and setup_s (median over
fresh `import riesz.cli` runs spread through the run).  CPU time and
peak RSS come from each process's own rusage (os.wait4).

--trace 1 repeats for --seconds, in the same way, an untraced job at
--workers 2, an untraced job at --workers 1 and a traced job at --workers 1
(perfbench/tracer.py), and reports per-layer metrics from the traced one.
It also runs the tracer self-test.

Every job's outputs are checked (workloads.py), and CSV files must match
byte for byte across every job of a run, traced or not, at any worker
count.  The last line of stdout is one JSON object: correct, attempted,
failed, metrics.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

from workloads import WORKLOADS, check_job

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-out"
TRACER = Path(__file__).resolve().parent / "tracer.py"

WORKERS = 2
SETUP_FIRST = 3  # set-up samples before the first job; two more follow each job
COMMAND_TIMEOUT_S = 150.0
SELFTEST_TRANSFORMS = 135  # default probe sweep: 3 lambdas x 3 p x 5 N, 3 transforms each


class Proc:
    """One child process, run to its end, with its own rusage."""

    def __init__(self, argv, cwd, env, log):
        start = time.perf_counter()
        with open(log, "wb") as err:
            proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=err, stderr=err)
            timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
                timer.join()
        proc.returncode = self.exit = os.waitstatus_to_exitcode(status)
        self.wall = time.perf_counter() - start
        self.cpu = usage.ru_utime + usage.ru_stime
        self.rss_mib = usage.ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


class Job:
    """One run of a workload's command sequence in its own directory."""

    def __init__(self, workload, commands, config_dir, job_dir, seed, workers, traced):
        job_dir.mkdir(parents=True)
        env = child_env()
        self.procs, self.spans = [], []
        start = time.perf_counter()
        for command in commands:
            riesz_args = [command.subcommand, "--config", str(config_dir / f"{command.out}.toml"),
                          "--out", command.out, "--workers", str(workers), "--seed", str(seed),
                          *command.flags]
            if traced:
                spans = job_dir / f"{command.out}.spans.json"
                argv = [sys.executable, str(TRACER), str(spans), "--", *riesz_args]
            else:
                argv = [sys.executable, "-m", "riesz.cli", *riesz_args]
            proc = Proc(argv, job_dir, env, job_dir / f"{command.out}.log")
            self.procs.append(proc)
            if proc.exit != 0:
                break
            if traced:
                self.spans.append(json.loads(spans.read_text()))
        self.wall = time.perf_counter() - start
        self.complete = len(self.procs) == len(commands) and self.procs[-1].exit == 0
        self.cpu = sum(p.cpu for p in self.procs)
        self.rss_mib = max(p.rss_mib for p in self.procs)
        self.problems = [f"{c.out}: exit {p.exit}" for c, p in zip(commands, self.procs)
                         if p.exit != 0]
        if not self.problems:
            self.problems = check_job(workload, job_dir, commands) + tracer_problems(self.spans)
        self.csv_rows = sum(_data_rows(job_dir / c.out / f"{c.subcommand}.csv")
                            for c in commands) if self.complete else 0
        self.digests = {str(p.relative_to(job_dir)): hashlib.sha256(p.read_bytes()).hexdigest()
                        for p in sorted(job_dir.rglob("*.csv"))}


def _data_rows(path):
    with open(path, "rb") as handle:
        return sum(1 for _ in handle) - 1


class Run:
    """Jobs of one benchmark run, with the CSV digests they must all share."""

    def __init__(self, workload, commands, config_dir, run_dir, seed):
        self.workload, self.commands = workload, commands
        self.config_dir, self.run_dir, self.seed = config_dir, run_dir, seed
        self.jobs, self.failed, self.reference = [], 0, None
        self.problems = []

    def job(self, workers, traced=False):
        job_dir = self.run_dir / f"job{len(self.jobs)}"
        job = Job(self.workload, self.commands, self.config_dir, job_dir, self.seed,
                  workers, traced)
        if not job.problems:
            if self.reference is None:
                self.reference = job.digests
            elif job.digests != self.reference:
                diff = sorted(k for k in set(job.digests) | set(self.reference)
                              if job.digests.get(k) != self.reference.get(k))
                job.problems.append(f"CSV bytes differ from the first job: {diff}")
        if job.problems:
            self.failed += 1
            self.problems.extend(f"job{len(self.jobs)}: {p}" for p in job.problems)
        shutil.rmtree(job_dir)
        self.jobs.append(job)
        return job


def write_configs(workload, seed, config_dir):
    commands = workload.make(seed)
    config_dir.mkdir(parents=True, exist_ok=True)
    for command in commands:
        (config_dir / f"{command.out}.toml").write_text(command.config)
    return commands


class Setup:
    """Set-up samples: a fresh interpreter's `import riesz.cli`, plus config generation.

    Samples are taken before the first job and between jobs, so that their
    median covers the whole run as job_s does, not only its first seconds.
    """

    def __init__(self, workload, seed, run_dir):
        self.workload, self.seed, self.run_dir = workload, seed, run_dir
        self.argv = [sys.executable, "-c", "import riesz.cli"]
        self.env = child_env()
        self.samples = []
        # compiles bytecode, warms the page cache
        Proc(self.argv, run_dir, self.env, run_dir / "warmup.log")

    def sample(self, count):
        for _ in range(count):
            log = self.run_dir / "setup.log"
            proc = Proc(self.argv, self.run_dir, self.env, log)
            if proc.exit != 0:
                raise SystemExit(f"perfbench: `import riesz.cli` failed:\n{log.read_text()}")
            start = time.perf_counter()
            write_configs(self.workload, self.seed, self.run_dir / f"setup{len(self.samples)}")
            self.samples.append(proc.wall + time.perf_counter() - start)


def high_percentile(values):
    """(p, value) for the highest of p50/p90/p99 with at least ten samples above it."""
    best = None
    ordered = sorted(values)
    for p in (50, 90, 99):
        beyond = len(ordered) * (100 - p) // 100
        if beyond >= 10:
            best = (p, ordered[len(ordered) - beyond - 1])
    return best


# ---------------------------------------------------------------------------
# per-layer metrics from spans

PER_LAYER_UNITS = {
    "grid.transforms": "count", "grid.transform_s": "s", "grid.transform_mib": "MiB",
    "symbols.samples": "count", "symbols.sample_s": "s", "symbols.sample_hit_ratio": "ratio",
    "symbols.mikhlin_s": "s", "symbols.self_s": "s",
    "multiplier.applies": "count", "multiplier.apply_s": "s", "multiplier.kernels": "count",
    "multiplier.seminorms": "count", "multiplier.seminorm_s": "s", "multiplier.self_s": "s",
    "neumann.decompose_s": "s", "neumann.compose_s": "s", "neumann.series_s": "s",
    "neumann.transforms": "count", "neumann.self_s": "s",
    "probes.probe_fields": "count", "probes.lower_bound_s": "s", "probes.oracle_s": "s",
    "probes.ratio_s": "s", "probes.transforms_per_row": "count/row", "probes.self_s": "s",
    "norms.lp_calls": "count", "norms.lp_s": "s", "norms.dyadic_s": "s", "norms.herz_s": "s",
    "norms.ap_s": "s", "norms.self_s": "s",
    "fieldio.write_s": "s", "fieldio.read_s": "s", "fieldio.mib_written": "MiB",
    "fieldio.mib_read": "MiB", "fieldio.self_s": "s",
    "cli.self_s": "s", "trace.overhead_frac": "ratio",
}


class SpanTotals:
    """Calls, self time and summed extras per span name over a job's processes.

    A span's self time is its duration minus the durations of its direct
    children, so the self times of all spans plus cli.self_s add up to the
    time spent in riesz.cli.main.
    """

    def __init__(self, processes):
        self.calls, self.self_s, self.extra = {}, {}, {}
        self.layer_s = {}
        self.transforms_under = {"neumann": 0, "probes": 0}
        self.cli_self_s = 0.0
        for process in processes:
            spans = process["spans"]
            child = [0.0] * len(spans)
            ancestors = [frozenset()] * len(spans)
            top = 0.0
            for i, (name, start, end, parent, extra) in enumerate(spans):
                if parent < 0:
                    top += end - start
                else:
                    child[parent] += end - start
                    ancestors[i] = ancestors[parent] | {spans[parent][0].split(".")[0]}
            self.cli_self_s += process["main_s"] - top
            for i, (name, start, end, parent, extra) in enumerate(spans):
                layer = name.split(".")[0]
                own = end - start - child[i]
                self.calls[name] = self.calls.get(name, 0) + 1
                self.self_s[name] = self.self_s.get(name, 0.0) + own
                self.extra[name] = self.extra.get(name, 0) + extra
                self.layer_s[layer] = self.layer_s.get(layer, 0.0) + own
                if layer == "grid":
                    for outer in self.transforms_under:
                        self.transforms_under[outer] += outer in ancestors[i]

    def count(self, *names):
        return sum(self.calls.get(n, 0) for n in names)

    def seconds(self, *names):
        return sum(self.self_s.get(n, 0.0) for n in names)

    def total(self, *names):
        return sum(self.extra.get(n, 0) for n in names)


def layer_metrics(processes, csv_rows):
    t = SpanTotals(processes)
    transforms = ("grid.forward_transform", "grid.inverse_transform")
    samples = t.count("symbols.Symbol.sample")
    mib = 2.0**20
    return {
        "grid.transforms": t.count(*transforms),
        "grid.transform_s": t.seconds(*transforms),
        # computed, not measured: 16-byte complex samples read and written per call
        "grid.transform_mib": 16 * 2 * t.total(*transforms) / mib,
        "symbols.samples": samples,
        "symbols.sample_s": t.seconds("symbols.Symbol.sample"),
        "symbols.sample_hit_ratio": t.total("symbols.Symbol.sample") / samples if samples else 0.0,
        "symbols.mikhlin_s": t.seconds("symbols.mikhlin_check"),
        "symbols.self_s": t.layer_s.get("symbols", 0.0),
        "multiplier.applies": t.count("multiplier.apply"),
        "multiplier.apply_s": t.seconds("multiplier.apply"),
        "multiplier.kernels": t.count("multiplier.kernel_of"),
        "multiplier.seminorms": t.count("multiplier.schwartz_seminorm"),
        "multiplier.seminorm_s": t.seconds("multiplier.schwartz_seminorm"),
        "multiplier.self_s": t.layer_s.get("multiplier", 0.0),
        "neumann.decompose_s": t.seconds("neumann.forward_decomposition",
                                         "neumann.reverse_decomposition"),
        "neumann.compose_s": t.seconds("neumann.apply_forward", "neumann.apply_reverse"),
        "neumann.series_s": t.seconds("neumann.tail_term_seminorms", "neumann.seminorm_table"),
        "neumann.transforms": t.transforms_under["neumann"],
        "neumann.self_s": t.layer_s.get("neumann", 0.0),
        "probes.probe_fields": t.count("probes.probe_field"),
        "probes.lower_bound_s": t.seconds("probes.probe_lower_bound"),
        "probes.oracle_s": t.seconds("probes.resolvent_norm_oracle"),
        "probes.ratio_s": t.seconds("probes.probe_ratio"),
        "probes.transforms_per_row": t.transforms_under["probes"] / csv_rows if csv_rows else 0.0,
        "probes.self_s": t.layer_s.get("probes", 0.0),
        "norms.lp_calls": t.count("norms.lp_norm"),
        "norms.lp_s": t.seconds("norms.lp_norm"),
        "norms.dyadic_s": t.seconds("norms.besov_norm", "norms.triebel_norm"),
        "norms.herz_s": t.seconds("norms.herz_norm"),
        "norms.ap_s": t.seconds("norms.ap_constant_estimate"),
        "norms.self_s": t.layer_s.get("norms", 0.0),
        "fieldio.write_s": t.seconds("fieldio.dump_field"),
        "fieldio.read_s": t.seconds("fieldio.load_field"),
        "fieldio.mib_written": t.total("fieldio.dump_field") / mib,
        "fieldio.mib_read": t.total("fieldio.load_field") / mib,
        "fieldio.self_s": t.layer_s.get("fieldio", 0.0),
        "cli.self_s": t.cli_self_s,
    }


def tracer_problems(processes):
    """Completeness checks on each traced process."""
    problems = []
    for process in processes:
        where = process["argv"][0]
        if process["unwrapped"]:
            problems.append(f"{where}: unwrapped bindings {process['unwrapped']}")
        transforms = sum(1 for span in process["spans"] if span[0].startswith("grid."))
        if transforms != process["fft_calls"]:
            problems.append(f"{where}: {transforms} traced transforms but "
                            f"{process['fft_calls']} fftn/ifftn calls")
    return problems


def tracer_selftest(run_dir):
    """Trace the default probe sweep; it makes exactly 135 transforms."""
    job_dir = run_dir / "selftest"
    job_dir.mkdir()
    spans = job_dir / "probe.spans.json"
    proc = Proc([sys.executable, str(TRACER), str(spans), "--", "probe", "--out", "probe",
                 "--workers", "1"], job_dir, child_env(), job_dir / "probe.log")
    if proc.exit != 0:
        return [f"self-test: default probe sweep exited {proc.exit}"]
    process = json.loads(spans.read_text())
    problems = tracer_problems([process])
    transforms = sum(1 for span in process["spans"] if span[0].startswith("grid."))
    if transforms != SELFTEST_TRANSFORMS:
        problems.append(f"self-test: default probe sweep traced {transforms} transforms, "
                        f"expected {SELFTEST_TRANSFORMS}")
    return problems


# ---------------------------------------------------------------------------
# environment record

def _read(path):
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def commit():
    head = _read(ROOT / ".git" / "HEAD")
    if head is None:
        return "unknown (not a git checkout)"
    if head.startswith("ref: "):
        ref = head[5:]
        return _read(ROOT / ".git" / ref) or ref
    return head


def cpu_model():
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def cache_sizes():
    out = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")) if base.exists() else ():
        level, kind, size = (_read(index / n) for n in ("level", "type", "size"))
        if level and size:
            out[f"L{level} {kind}"] = size
    return out


def environment():
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    return {
        "commit": commit(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "caches": cache_sizes(),
        "workers": WORKERS,
    }


# ---------------------------------------------------------------------------

def _rounds(seconds):
    """Yield until the next round, timed by the slowest so far, would overrun."""
    deadline = time.perf_counter() + seconds
    longest = 0.0
    while True:
        start = time.perf_counter()
        yield
        longest = max(longest, time.perf_counter() - start)
        if time.perf_counter() + longest > deadline:
            return


def run_timed(run, setup, seconds):
    setup.sample(SETUP_FIRST)
    for _ in _rounds(seconds):
        run.job(WORKERS)
        setup.sample(2)
    ok = [job for job in run.jobs if not job.problems] or run.jobs
    return {
        "job_s": (statistics.median(j.wall for j in ok), "s"),
        "cpu_s": (statistics.median(j.cpu for j in ok), "s"),
        "peak_rss_mib": (statistics.median(j.rss_mib for j in ok), "MiB"),
        "setup_s": (statistics.median(setup.samples), "s"),
    }, ok


def command_walls(run, jobs):
    """Median wall seconds of each command over complete jobs, for the log."""
    jobs = [job for job in jobs if job.complete]
    return {command.out: statistics.median(job.procs[i].wall for job in jobs)
            for i, command in enumerate(run.commands)} if jobs else {}


def run_traced(run, seconds):
    samples = []
    for _ in _rounds(seconds):
        run.job(WORKERS)
        baseline = run.job(1)
        traced = run.job(1, traced=True)
        # A failed check fails the run but leaves the spans meaningful.
        if not (traced.complete and baseline.complete):
            continue
        metrics = layer_metrics(traced.spans, traced.csv_rows)
        metrics["trace.overhead_frac"] = traced.wall / baseline.wall - 1.0
        samples.append(metrics)
    if not samples:
        return {}
    return {name: (statistics.median(s[name] for s in samples), PER_LAYER_UNITS[name])
            for name in PER_LAYER_UNITS}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit so the running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "riesz" / "cli.py").is_file():
        print(f"perfbench: no riesz sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    run_dir = WORK / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        setup = None if args.trace else Setup(workload, args.seed, run_dir)
        selftest = []
        commands = write_configs(workload, args.seed, run_dir / "configs")
        run = Run(workload, commands, run_dir / "configs", run_dir, args.seed)
        if args.trace:
            selftest = tracer_selftest(run_dir)
            metrics = run_traced(run, args.seconds)
            timed = []
        else:
            metrics, timed = run_timed(run, setup, args.seconds)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    attempted = len(run.jobs) + (1 if args.trace else 0)
    failed = run.failed + (1 if selftest else 0)
    for problem in selftest + run.problems:
        print(f"FAIL {problem}")
    print("env " + json.dumps(environment()))
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: {len(run.jobs)} jobs")
    print(f"  {'fail_frac':28s} {run.failed / len(run.jobs):.6g} ratio")
    if timed:
        walls = [job.wall for job in timed]
        tail = high_percentile(walls)
        print(f"  job_s over {len(walls)} jobs: min {min(walls):.4f} s, max {max(walls):.4f} s, "
              + (f"p{tail[0]} {tail[1]:.4f} s" if tail else "no percentile with ten jobs beyond it"))
        for out, wall in command_walls(run, timed).items():
            print(f"    {out:26s} {wall:.6g} s median wall")
    for name, (value, unit) in metrics.items():
        print(f"  {name:28s} {value:.6g} {unit}")
    result = {
        "correct": failed == 0 and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
