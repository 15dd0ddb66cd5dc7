#!/usr/bin/env python3
"""Whole-campaign benchmark for simart.

Run from the repository root:

    python3 campaign_bench/run.py --workload cold-pool --seed 1 --seconds 30 --trace 0

It builds the driver (``campaign-bench``) and the ``simart`` CLI with
cargo, prepares the workload's inputs from the seed outside the timed
region, then repeats one campaign per driver process until ``--seconds``
have passed. Every repetition's output is checked. The last line of
standard output is one JSON object: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1`` (where traced
and untraced repetitions alternate, and the difference between their
medians is reported as the tracing overhead).

The work directory lives inside the checkout (``.campaign_bench_work``),
so databases sit on the same disk-backed filesystem as the checkout.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
# The metric names and units are the ones BENCHMARK.json declares.
SPEC_PATH = os.path.join(os.path.dirname(BENCH_DIR), "BENCHMARK.json")
MIN_REPS = 3
# A repetition that takes longer than this is a hang, not a result.
REP_TIMEOUT_S = 60


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Builds the driver and the CLI; returns the release directory."""
    target = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR", os.path.join(BENCH_DIR, "target"))
    )
    command = [
        "cargo", "build", "--release", "--offline",
        "--manifest-path", os.path.join(BENCH_DIR, "Cargo.toml"),
        "-p", "simart-campaign-bench", "-p", "simart", "--bins",
    ]
    done = subprocess.run(command, stdout=sys.stderr, env=dict(os.environ, CARGO_TARGET_DIR=target))
    if done.returncode != 0:
        raise SystemExit(f"error: build failed ({done.returncode})")
    return os.path.join(target, "release")


class Bench:
    def __init__(self, release, work, workload, seed):
        self.driver = os.path.join(release, "campaign-bench")
        self.cli = os.path.join(release, "simart")
        self.work = work
        self.workload = workload
        self.seed = seed
        self.store = os.path.join(work, "store")
        self.prep = os.path.join(work, "prep")
        self.db = os.path.join(work, "db")
        self.expected_executed = None
        self.problems = []

    def call(self, *args):
        """Runs a driver subcommand untimed; returns its JSON line."""
        done = subprocess.run(
            [self.driver, *args], stdout=subprocess.PIPE, text=True, timeout=REP_TIMEOUT_S
        )
        if done.returncode != 0:
            raise SystemExit(f"error: campaign-bench {args[0]} exited {done.returncode}")
        return json.loads(done.stdout.strip().splitlines()[-1])

    def prepare(self):
        """Untimed set-up: checkpoint store, CLI parity, resume database."""
        self.call("warm", "--store", self.store)
        self.parity()
        if self.workload == "resume-remote":
            prep = self.call(
                "campaign", "--workload", "resume-remote-prep", "--seed", str(self.seed),
                "--db", self.prep, "--store", self.store,
            )
            planned = prep["executed"]
            share = prep["failed"] / max(planned, 1)
            if prep["terminal"] != planned or not 0.4 <= share <= 0.6:
                self.problems.append(f"prepared database: {prep['failed']} of {planned} failed")
            self.expected_executed = prep["failed"]

    def parity(self):
        """The driver's default sweep must store what `simart campaign` stores."""
        cli_db = os.path.join(self.work, "parity-cli")
        done = subprocess.run(
            [self.cli, "campaign", "--db", cli_db],
            stdout=subprocess.DEVNULL, timeout=REP_TIMEOUT_S,
        )
        if done.returncode != 0:
            self.problems.append(f"simart campaign exited {done.returncode}")
        drv_db = os.path.join(self.work, "parity-driver")
        self.call("campaign", "--workload", "parity", "--seed", "0", "--db", drv_db)
        ours = self.call("verify", "--workload", "parity", "--seed", "0", "--db", drv_db, "--records")
        theirs = self.call("verify", "--workload", "parity", "--seed", "0", "--db", cli_db, "--records")
        if not ours["records"] or ours["records"] != theirs["records"]:
            self.problems.append("driver and CLI stored different runs on the default sweep")

    def repetition(self, trace):
        """One timed campaign in its own process, then its output checks."""
        shutil.rmtree(self.db, ignore_errors=True)
        shutil.rmtree(self.db + ".timings", ignore_errors=True)
        if self.workload == "resume-remote":
            shutil.copytree(self.prep, self.db)
        # Start from a quiet disk: the previous repetition's writes and
        # deletions are flushed here, untimed, instead of inside this one.
        os.sync()
        args = [
            self.driver, "campaign", "--workload", self.workload, "--seed", str(self.seed),
            "--db", self.db, "--store", self.store,
        ]
        if trace:
            args.append("--trace")
        spawn_ns = time.time_ns()
        started = time.perf_counter()
        proc = subprocess.Popen([*args, "--spawn-ns", str(spawn_ns)], stdout=subprocess.PIPE)
        # os.wait4 (not Popen.wait) so the CPU time of the reaped worker
        # processes is counted; the watchdog kills a hung repetition.
        watchdog = threading.Timer(REP_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        elapsed = time.perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
        if proc.returncode != 0:
            raise SystemExit(f"error: campaign repetition exited {proc.returncode}")
        result = json.loads(out.decode().strip().splitlines()[-1])
        result["campaign_s"] = elapsed
        result["cpu_s"] = usage.ru_utime + usage.ru_stime
        result["check_failures"] = self.check(result)
        log(f"{'traced' if trace else 'untraced'} repetition: campaign {elapsed:.3f} s, set-up {result['setup_s']:.4f} s")
        return result

    def check(self, result):
        """Counts the output checks this repetition failed."""
        found = self.call("verify", "--workload", self.workload, "--seed", str(self.seed), "--db", self.db)
        executed = self.expected_executed if self.expected_executed is not None else found["planned"]
        failures = [
            result["executed"] != executed,
            result["terminal"] != result["executed"],
            result["runs_stored"] != found["planned"],
            found["missing"] != 0 or found["unplanned"] != 0,
            found["not_done"] != 0,
            not found["ticks_ok"],
            result["diagnostics"] + found["diagnostics"] != 0,
        ]
        if any(failures):
            log(f"output check failed: {failures} {found} {result}")
        return sum(failures)


def median(values):
    return statistics.median(values)


def with_units(values, declared):
    """Attaches the declared unit to every declared metric."""
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}


def end_to_end(spec, reps, failed_frac):
    def each(f):
        return median([f(r) for r in reps])

    return with_units({
        "campaign_s": each(lambda r: r["campaign_s"]),
        "setup_s": each(lambda r: r["setup_s"]),
        "runs_per_s": each(lambda r: r["terminal"] / (r["campaign_s"] - r["setup_s"])),
        "cpu_s": each(lambda r: r["cpu_s"]),
        "peak_rss_mb": each(lambda r: r["peak_rss_kb"] / 1024),
        "db_bytes_per_run": each(lambda r: r["db_bytes"] / r["runs_stored"]),
        "ok_frac": 1.0 - failed_frac,
    }, spec["end_to_end"])


def per_layer(spec, traced, untraced):
    values = {
        "residual_ms": median([r["campaign_s"] * 1e3 - r["layers"]["timed_ms"] for r in traced]),
        "trace.overhead_ms": 1e3 * (
            median([r["campaign_s"] for r in traced]) - median([r["campaign_s"] for r in untraced])
        ),
    }
    for m in spec["per_layer"]:
        if m["name"] not in values:
            values[m["name"]] = median([r["layers"][m["name"]] for r in traced])
    return with_units(values, spec["per_layer"])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    with open(SPEC_PATH) as f:
        spec = json.load(f)
    parser.add_argument(
        "--workload", required=True, choices=[w["name"] for w in spec["workloads"]]
    )
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    release = build()
    work = os.path.join(os.getcwd(), ".campaign_bench_work", f"{args.workload}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        bench = Bench(release, work, args.workload, args.seed)
        bench.prepare()
        # Warm-up: page cache and first-touch costs, not measured, but
        # its output is still checked.
        if bench.repetition(trace=False)["check_failures"]:
            bench.problems.append("the warm-up repetition failed its output checks")
        traced, untraced = [], []
        started = time.perf_counter()
        while True:
            enough = len(untraced) >= MIN_REPS and (not args.trace or len(traced) >= MIN_REPS)
            if enough and time.perf_counter() - started >= args.seconds:
                break
            # Traced runs alternate with untraced ones; the untraced
            # medians are the overhead baseline.
            trace = bool(args.trace) and len(traced) <= len(untraced)
            (traced if trace else untraced).append(bench.repetition(trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass  # another invocation's work directory is still there

    reps = traced + untraced
    attempted = sum(r["executed"] for r in reps)
    failed = sum(r["failed"] + r["check_failures"] for r in reps) + len(bench.problems)
    for problem in bench.problems:
        log(f"check failed: {problem}")
    log(f"{args.workload}: {len(untraced)} untraced and {len(traced)} traced repetitions")
    if args.trace:
        metrics = per_layer(spec, traced, untraced)
    else:
        metrics = end_to_end(spec, untraced, failed / attempted)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
