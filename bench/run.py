"""Benchmark of the coxfold command line.

    python3 bench/run.py --workload {certify,word,graph} --seed N \
        --seconds S --trace {0,1}

Run from the root of a coxfold checkout.  The workload's inputs are made
from the seed, then passes over its jobs repeat until the time is up.
Each job is one ``coxfold`` command run in a fresh child process, one
child at a time, exactly as a user runs it; every answer is checked
against a reference that does not come from coxfold.

With ``--trace 0`` every job runs untraced, which gives the end-to-end
metrics.  With ``--trace 1`` every job runs untraced and then traced, back
to back; the traced runs' spans give the per-layer metrics, and the two
together the tracing overhead.  The report goes to stdout and to
``bench/results/BENCH_<workload>_seed<N>_trace<T>.json``; the last line of
stdout is a JSON summary.  The exit code is 1 when any answer was wrong,
2 when the checkout has no coxfold sources.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
DATA = SRC / "coxfold" / "data"
JOB_TIMEOUT_S = 60
# The gated times are each job's fastest run over this many first passes,
# about what coxfold completed in 40 s on a 2-vCPU machine when the counts
# were set.  A fixed count keeps faster code from also winning a lower
# minimum by fitting in more passes; later passes enter only the printed
# medians.
GATED_PASSES = {"certify": 9, "word": 7, "graph": 5}

sys.path.insert(0, str(SRC))

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

# name -> unit, all measured on untraced runs
END_TO_END = {
    "wall_s": "s",
    "cmd_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "scaling_exp": "1",
    "decided_ratio": "ratio",
}


def per_layer_units() -> dict[str, str]:
    units = {f"{name}.{stat}": ("s" if stat == "s" else "count") for name, stat in spans.REPORTED}
    units.update({f"{layer}.self_s": "s" for layer in spans.LAYERS})
    units.update({
        "family.steps": "count",
        "coxeter.indeterminate": "count",
        "coxeter.decided_ratio": "ratio",
        "coxeter.outer_calls": "count",
        "process.start_s": "s",
        "process.peak_rss_mb": "MB",
        "trace.overhead_ratio": "ratio",
        "fail_ratio": "ratio",
        "undecided_ratio": "ratio",
    })
    return units


PER_LAYER = per_layer_units()


class JobTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise JobTimeout


def run_child(job: workloads.Job, workdir: Path, trace: int, timeout: float) -> dict:
    """Run one job in a fresh child; wall time is what the parent sees."""
    for rel in job.outputs:
        (workdir / rel).unlink(missing_ok=True)
    record_path = workdir / "record.json"
    record_path.unlink(missing_ok=True)
    argv = [sys.executable, str(BENCH / "child.py"), str(record_path), str(trace), "--", *job.argv]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    timed_out = False
    with open(workdir / "stdout", "w+b") as out, open(workdir / "stderr", "w+b") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                                cwd=workdir, env=env)
        signal.setitimer(signal.ITIMER_REAL, timeout)
        try:
            _, status, _ = os.wait4(proc.pid, 0)
        except BaseException as exc:
            proc.kill()
            _, status, _ = os.wait4(proc.pid, 0)
            if not isinstance(exc, JobTimeout):
                raise
            timed_out = True
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        stdout, stderr = out.read().decode(), err.read().decode()
    result = {"id": job.id, "rc": proc.returncode, "wall": wall, "stdout": stdout,
              "stderr": stderr, "timed_out": timed_out}
    if record_path.exists():
        rec = json.loads(record_path.read_text(encoding="utf-8"))
        result.update(
            cmd=rec["main_end"] - rec["main_start"],
            cpu=rec["main_cpu"],
            start=rec["imported"] - t0,
            rss_mb=rec["peak_rss_kb"] / 1024,
            spans=rec["spans"],
        )
    return result


class Runner:
    """Runs passes over the jobs and checks every answer."""

    def __init__(self, jobs: list[workloads.Job], workdir: Path):
        self.jobs = jobs
        self.workdir = workdir
        self.verdicts: dict[tuple, tuple[str, str]] = {}
        self.first_stdout: dict[str, str] = {}

    def judge(self, job: workloads.Job, res: dict, traced: bool) -> tuple[str, str]:
        if res["timed_out"]:
            return checks.FAIL, f"timed out after {res['wall']:.1f} s"
        if "cmd" not in res:
            return checks.FAIL, f"exit {res['rc']} without a record: {res['stderr'][-300:]}"
        if traced and res["stdout"] != self.first_stdout.get(job.id, res["stdout"]):
            return checks.FAIL, "traced stdout differs from untraced stdout"
        self.first_stdout.setdefault(job.id, res["stdout"])
        outputs = tuple(
            (self.workdir / rel).read_bytes() if (self.workdir / rel).exists() else None
            for rel in job.outputs
        )
        key = (job.id, res["rc"], res["stdout"], res["stderr"], outputs)
        if key not in self.verdicts:
            self.verdicts[key] = checks.check(job, res["rc"], res["stdout"], res["stderr"],
                                              self.workdir)
        return self.verdicts[key]

    def passes(self, seconds: float, traced: bool) -> tuple[list, list]:
        """Whole passes until the next one would overrun; at least one.

        A job not yet started ``JOB_TIMEOUT_S`` after the time is up, which
        only a hanging command can cause, fails without being run.  With
        tracing, each job runs untraced and traced back to back (in
        alternating order from pass to pass), so that both runs see the
        same machine; returns the untraced and the traced passes.
        """
        modes = (0, 1) if traced else (0,)
        done: dict[int, list[list[dict]]] = {m: [] for m in modes}
        t_begin = time.perf_counter()
        longest = 0.0
        cap = seconds + JOB_TIMEOUT_S
        while not done[0] or time.perf_counter() - t_begin + longest <= seconds:
            t0 = time.perf_counter()
            order = modes if len(done[0]) % 2 == 0 else modes[::-1]
            results: dict[int, list[dict]] = {m: [] for m in modes}
            for job in self.jobs:
                for mode in order:
                    left = t_begin + cap - time.perf_counter()
                    if left > 0:
                        res = run_child(job, self.workdir, mode, min(JOB_TIMEOUT_S, left))
                        res["status"], res["detail"] = self.judge(job, res, bool(mode))
                    else:
                        res = {"id": job.id, "rc": None, "wall": 0.0, "status": checks.FAIL,
                               "detail": f"not run: {cap:g} s cap reached"}
                    results[mode].append(res)
            for mode in modes:
                done[mode].append(results[mode])
            longest = max(longest, time.perf_counter() - t0)
        return done[0], done.get(1, [])


# -- statistics ---------------------------------------------------------


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def tail_percentile(values: list[float]) -> tuple[float, float] | None:
    """Highest of p50/p90/p99/p99.9 with at least ten samples beyond it."""
    best = None
    ordered = sorted(values)
    for p in (50.0, 90.0, 99.0, 99.9):
        k = math.ceil(len(ordered) * p / 100) - 1
        if k >= 0 and len(ordered) - 1 - k >= 10:
            best = (p, ordered[k])
    return best


def loglog_slope(points: list[tuple[str, float, float]]) -> float:
    """Common slope of log(time) against log(size), one intercept per
    group: the least-squares fit after centring each group."""
    groups: dict[str, list[tuple[float, float]]] = {}
    for group, size, t in points:
        groups.setdefault(group, []).append((math.log(size), math.log(t)))
    sxy = sxx = 0.0
    for pts in groups.values():
        mx = statistics.fmean(x for x, _ in pts)
        my = statistics.fmean(y for _, y in pts)
        sxy += sum((x - mx) * (y - my) for x, y in pts)
        sxx += sum((x - mx) ** 2 for x, _ in pts)
    return sxy / sxx if sxx else float("nan")


def best(passes: list[list[dict]], i: int, key: str) -> float | None:
    """Job i's fastest reading of key over the passes in which its answer
    passed its check (None if there is none)."""
    times = [p[i][key] for p in passes if key in p[i] and p[i]["status"] != checks.FAIL]
    return min(times) if times else None


def scaling_points(jobs: list[workloads.Job], passes: list[list[dict]]) -> list[tuple]:
    """(group, size, fastest cmd_s) of the jobs on the workload's size axis."""
    points = []
    for i, job in enumerate(jobs):
        t = best([p for p in passes if p[i]["status"] == checks.OK], i, "cmd")
        if job.size is None or t is None:
            continue
        if job.kind == "certify":
            points.append(("q", job.size, t))
        elif job.kind == "fold":
            points.append((job.expect["mode"], job.size, t))
        elif job.kind == "word-scan-relator":
            points.append((job.expect["matrix"], job.size, t))
    return points


def end_to_end(jobs, passes: list[list[dict]], gated: int) -> tuple[dict, dict]:
    """Metric values, and per-pass samples for the report.

    Times count each job's fastest run over the first ``gated`` passes:
    the host's CPU speed drifts by a third over tens of seconds, and the
    fastest run is what repeats from run to run.  The medians over all
    passes are reported too.
    """
    first = passes[:gated]
    setups = [min(p[i]["wall"] - p[i]["cmd"] for p in first
                  if "cmd" in p[i] and p[i]["status"] != checks.FAIL)
              for i in range(len(jobs)) if best(first, i, "cmd") is not None]
    statuses = [r["status"] for p in passes for r in p]
    values = {
        "wall_s": sum(best(first, i, "wall") or 0.0 for i in range(len(jobs))),
        "cmd_s": sum(best(first, i, "cmd") or 0.0 for i in range(len(jobs))),
        "setup_s": statistics.median(setups) if setups else 0.0,
        "peak_rss_mb": statistics.median(max(r.get("rss_mb", 0.0) for r in p) for p in first),
        "scaling_exp": loglog_slope(scaling_points(jobs, first)),
        "decided_ratio": statuses.count(checks.OK) / len(statuses),
    }
    samples = {
        "wall_s": [sum(r["wall"] for r in p) for p in passes],
        "cmd_s": [sum(r.get("cmd", 0.0) for r in p) for p in passes],
        "setup_s": [r["wall"] - r["cmd"] for p in passes for r in p if "cmd" in r],
    }
    return values, samples


def per_layer(untraced, traced) -> dict:
    layer_passes = [spans.layer_metrics(r.get("spans") or [] for r in p) for p in traced]
    values = {name: statistics.median(lp[name] for lp in layer_passes)
              for name in layer_passes[0]}
    values["process.start_s"] = statistics.median(r["start"] for p in traced for r in p if "start" in r)
    values["process.peak_rss_mb"] = statistics.median(
        max(r.get("rss_mb", 0.0) for r in p) for p in traced)
    values["trace.overhead_ratio"] = statistics.median(
        sum(r.get("cmd", 0.0) for r in t) / sum(r.get("cmd", 0.0) for r in u) - 1
        for u, t in zip(untraced, traced))
    return values


def job_status_counts(passes: list[list[dict]]) -> dict[str, int]:
    counts = {checks.OK: 0, checks.UNDECIDED: 0, checks.FAIL: 0}
    for p in passes:
        for r in p:
            counts[r["status"]] += 1
    return counts


# -- report -------------------------------------------------------------


def hardware() -> str:
    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return f"{model}, {os.cpu_count()} CPUs, Python {platform.python_version()}"


def print_report(args, jobs, untraced, traced, e2e, samples, layers, counts) -> None:
    print(f"coxfold benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds} s, trace {args.trace}")
    print(f"why: {workloads.WHY[args.workload]}")
    print(f"machine: {hardware()}")
    print(f"passes: {len(untraced)} untraced, {len(traced)} traced; {len(jobs)} jobs per pass, "
          "one fresh process per job, one at a time")
    print(f"end-to-end (untraced; each job's fastest run over the first "
          f"{min(len(untraced), GATED_PASSES[args.workload])} passes):")
    for name, unit in END_TO_END.items():
        line = f"  {name:<16} {e2e[name]:>12.6g} {unit}"
        if name in samples:
            v = samples[name]
            q1, q3 = quartiles(v)
            line += (f"   per {'job' if name == 'setup_s' else 'pass'}: median "
                     f"{statistics.median(v):.6g}  q1 {q1:.6g}  q3 {q3:.6g}  n {len(v)}")
            tail = tail_percentile(v)
            if tail:
                line += f"  p{tail[0]:g} {tail[1]:.6g}"
        print(line)
    attempted = sum(counts.values())
    for name, key in (("fail_ratio", checks.FAIL), ("undecided_ratio", checks.UNDECIDED)):
        print(f"  {name:<16} {counts[key] / attempted:>12.6g} ratio   "
              f"({counts[key]} of {attempted} jobs)")
    if layers:
        print("per layer (traced):")
        for name, unit in PER_LAYER.items():
            print(f"  {name:<40} {layers[name]:>12.6g} {unit}")
    print("jobs (size, fastest wall s and cmd s over the gated passes, median cmd s, status):")
    gated = untraced[:GATED_PASSES[args.workload]]
    for i, job in enumerate(jobs):
        runs = [p[i] for p in untraced]
        statuses = sorted({r["status"] for r in runs})
        print(f"  {job.id:<32} {job.size if job.size is not None else '-':>7} "
              f"{best(gated, i, 'wall') or float('nan'):9.4f} "
              f"{best(gated, i, 'cmd') or float('nan'):9.4f} "
              f"{statistics.median(r.get('cmd', float('nan')) for r in runs):9.4f} "
              f"{'/'.join(statuses)}")
    for p in untraced + traced:
        for r in p:
            if r["status"] == checks.FAIL:
                print(f"WRONG {r['id']}: {r['detail']}")


def write_result(args, jobs, untraced, traced, e2e, layers, counts) -> Path:
    out_dir = BENCH / "results"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    job_rows = []
    for i, job in enumerate(jobs):
        row = {"id": job.id, "argv": job.argv, "size": job.size}
        for label, passes in (("untraced", untraced), ("traced", traced)):
            row[label] = [
                {k: p[i].get(k) for k in ("rc", "wall", "cmd", "cpu", "rss_mb", "status", "detail")}
                for p in passes
            ]
        job_rows.append(row)
    data = {
        "workload": args.workload,
        "why": workloads.WHY[args.workload],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": hardware(),
        "end_to_end": {n: {"value": e2e[n], "unit": u} for n, u in END_TO_END.items()},
        "per_layer": {n: {"value": layers[n], "unit": u} for n, u in PER_LAYER.items()}
        if layers else None,
        "status_counts": counts,
        "jobs": job_rows,
    }
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "coxfold" / "cli.py").is_file():
        print(f"no coxfold sources under {SRC}; run from a coxfold checkout", file=sys.stderr)
        return 2
    signal.signal(signal.SIGALRM, _on_alarm)
    workdir = BENCH / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        jobs = workloads.build(args.workload, args.seed, workdir, DATA)
        # write the bytecode caches and warm the file cache before timing
        subprocess.run([sys.executable, "-c", "import coxfold.cli"], check=True,
                       env=dict(os.environ, PYTHONPATH=str(SRC)))
        runner = Runner(jobs, workdir)
        untraced, traced = runner.passes(args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    e2e, samples = end_to_end(jobs, untraced, GATED_PASSES[args.workload])
    layers = per_layer(untraced, traced) if traced else None
    counts = job_status_counts(untraced + traced)
    attempted = sum(counts.values())
    if layers:
        layers["fail_ratio"] = counts[checks.FAIL] / attempted
        layers["undecided_ratio"] = counts[checks.UNDECIDED] / attempted
    print_report(args, jobs, untraced, traced, e2e, samples, layers, counts)
    path = write_result(args, jobs, untraced, traced, e2e, layers, counts)
    print(f"wrote {path.relative_to(ROOT)}")
    chosen = layers if args.trace else e2e
    units = PER_LAYER if args.trace else END_TO_END
    summary = {
        "correct": counts[checks.FAIL] == 0,
        "attempted": attempted,
        "failed": counts[checks.FAIL],
        "metrics": {name: {"value": chosen[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
