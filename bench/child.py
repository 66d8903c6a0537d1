"""Run one coxfold command as its console script does, and time it.

    python3 bench/child.py RECORD TRACE -- ARGS...

runs ``coxfold.cli.main(ARGS)`` and exits with its return value, exactly
like the ``coxfold`` script.  Before exiting it writes a JSON record to
RECORD: clock readings around the import and around ``main`` (the
monotonic clock the parent also reads), the CPU time of ``main``, the
process's peak resident memory, and, when TRACE is 1, the spans recorded
around coxfold's entry points.  Nothing is added to the command's own stdout or stderr.
"""

import json
import sys
import time


def peak_rss_kb() -> int:
    """VmHWM of this process image.

    getrusage would also count the parent's memory at exec time, since
    the process starts as a copy of the benchmark's parent.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> int:
    record_path, trace, sep, *argv = sys.argv[1:]
    if sep != "--" or trace not in ("0", "1"):
        raise SystemExit("usage: child.py RECORD TRACE -- ARGS...")
    import coxfold.cli

    imported = time.perf_counter()
    recorder = None
    if trace == "1":
        import spans

        recorder = spans.Recorder()
        recorder.install()
    record = {"imported": imported}
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        return coxfold.cli.main(argv)
    finally:
        record["main_start"], record["main_end"] = t0, time.perf_counter()
        record["main_cpu"] = time.process_time() - c0
        sys.stdout.flush()
        record["peak_rss_kb"] = peak_rss_kb()
        record["spans"] = recorder.spans if recorder else None
        with open(record_path, "w", encoding="utf-8") as fh:
            json.dump(record, fh)


if __name__ == "__main__":
    sys.exit(main())
