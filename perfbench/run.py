"""The quatwitt benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload closed-loop (one client, the next instance starts when
the previous one is done) for S seconds, repeating a fixed set of
instances drawn from the seed, checks every output, prints each metric
by name and unit, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones; with --trace 1 a
separate, instrumented run gives the per-layer ones.  A result file with
the interpreter version, CPU count, commit and seeds goes to
perfbench/out/.  See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("division", "split", "witt")
# a seed kept out of development, for confirming a claimed gain
HELD_OUT_SEED = 90210

SETUP_REPEATS = 7
# one-shot CLI commands per run
ONE_SHOT_REPEATS = 12
# worker processes of the one-shot verify-theorem command, as many as
# the reference machine has cores
ONE_SHOT_JOBS = 2
# the fixed set of instances an untraced run repeats, in whole rounds of
# the workload's mix, and the fewest passes over it a run makes
SET_ROUNDS = {"division": 9, "split": 50, "witt": 30}
MIN_PASSES = 3
# instances whose records are digested and whose per-layer counts are
# reported, so both repeat exactly for a seed
PREFIX = {"division": 12, "split": 9, "witt": 14}
# the tail percentile of each workload: the highest of p90, p95, p98
# with at least ten instances of the set beyond it
TAIL_PCT = {"division": 90, "split": 95, "witt": 95}
# the yardstick: a fixed sum of exact fractions, timed next to the work,
# and what it takes at full speed on the reference machine (Intel Xeon,
# 2 vCPUs at 2.0 GHz, CPython 3.11); times are scaled to that speed
YARDSTICK_TERMS = 200
YARDSTICK_REF_NS = 450_000
# measured work between two yardstick readings
YARDSTICK_EVERY_NS = 20_000_000
# the process yardstick: a fresh interpreter, isolated from the checkout,
# that imports one standard module; what it takes at full speed on the
# reference machine.  Wall times of fresh processes are scaled by it.
PROCESS_YARDSTICK = (sys.executable, "-I", "-c", "import fractions")
PROCESS_YARDSTICK_REF_S = 0.060


sys.path.insert(0, str(HERE))
import tracing  # noqa: E402
import workloads  # noqa: E402


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("PYTHONHASHSEED", None)
    return env


# ---------------------------------------------------------------------------
# statistics


def tail(samples, pct):
    """Nearest-rank percentile and the number of samples beyond it."""
    s = sorted(samples)
    rank = max(1, math.ceil(pct / 100 * len(s)))
    return s[rank - 1], len(s) - rank


def ms(ns):
    return ns / 1e6


# ---------------------------------------------------------------------------
# machine speed
#
# On a shared machine the speed of the same work swings by up to twice
# from one second to the next, and its typical level moves by a fifth
# over minutes, with nothing in this process to show for it.  Every time
# the benchmark reports is therefore scaled by a yardstick read right next
# to it, which no change to the library can speed up or slow down: a
# fixed piece of exact arithmetic for work in this process, and a fresh
# interpreter start for fresh processes, whose start-up follows the
# machine differently.  A time is reported as what it would have been had
# the yardstick read its reference value; the result file keeps the
# unscaled figures too.


def yardstick_ns():
    """ns of the yardstick, the fastest of three readings, with the
    collector off so that no garbage of the program is charged to it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = math.inf
        for _ in range(3):
            t0 = time.perf_counter_ns()
            acc = Fraction(0)
            for j in range(1, YARDSTICK_TERMS):
                acc += Fraction(1, j)
            best = min(best, time.perf_counter_ns() - t0)
        return best
    finally:
        if enabled:
            gc.enable()


def process_yardstick_s():
    """Wall seconds of the process yardstick, the fastest of three."""
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        subprocess.run(PROCESS_YARDSTICK, capture_output=True, check=True, timeout=60)
        best = min(best, time.perf_counter() - t0)
    return best


def scaled_process(wall, yardstick_s):
    """A fresh process's wall seconds scaled by a process yardstick
    reading taken right before it."""
    return wall * PROCESS_YARDSTICK_REF_S / yardstick_s


# ---------------------------------------------------------------------------
# fresh processes


def setup_probe(workload, seed):
    """Seconds from spawning a fresh interpreter until its first instance
    is ready, scaled; its quatwitt import time; its first-record digest;
    and the unscaled seconds."""
    stick = process_yardstick_s()
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), "setup", workload, str(seed)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=child_env(), cwd=ROOT,
    )
    watchdog = threading.Timer(120, proc.kill)
    watchdog.start()
    try:
        first = proc.stdout.readline()
        ready_s = time.perf_counter() - t0
        second = proc.stdout.readline()
        err = proc.stderr.read()
        proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
        proc.stderr.close()
    if proc.returncode != 0 or not second:
        raise RuntimeError(f"setup child failed ({proc.returncode}): {err.strip()[-400:]}")
    ready = json.loads(first)
    return scaled_process(ready_s, stick), ready["import_ms"], json.loads(second)["digest"], ready_s


def quatwitt_cli(args, traced=None):
    """Run the quatwitt command line in a fresh process; returns (wall s,
    exit code, stdout, stderr).  With traced=(summary, spans) it runs
    under child.py's instrumentation instead of `python -m quatwitt`."""
    if traced is None:
        cmd = [sys.executable, "-m", "quatwitt", *args]
    else:
        cmd = [sys.executable, str(HERE / "child.py"), "cli", str(traced[0]), str(traced[1]), "--", *args]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, env=child_env(), cwd=ROOT, timeout=150)
    return time.perf_counter() - t0, proc.returncode, proc.stdout, proc.stderr


def parse_json(text):
    """The JSON document a CLI run printed, or None."""
    try:
        return json.loads(text)
    except ValueError:
        return None


def write_json(path, payload):
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return path


def one_shot_args(workload, jobs):
    """The workload's one-shot CLI command (cli_wall_s) and a check of
    its output; `jobs` is the verify-theorem worker count."""
    path = OUT / f"{workload}-one-shot-scenario.json"
    if workload == "witt":
        write_json(path, workloads.witt_cli_scenario())
        args = ["witt-equal", "--scenario", str(path), "--json", "--budget", str(workloads.WITT_BUDGET)]

        def check(code, out):
            state = (parse_json(out) or {}).get("equal")
            want = {"false": 1, "indeterminate": 3}
            return "" if want.get(state) == code else f"witt-equal on a definite form gave {state} ({code})"

        return args, check
    write_json(path, workloads.battery_scenarios(workload, workloads.ONE_SHOT_SEED)[0])
    args = ["verify-theorem", "--scenario", str(path), "--json", "--jobs", str(jobs),
            "--trials", str(workloads.ONE_SHOT_TRIALS)]
    rec_check = workloads.check_split_record if workload == "split" else workloads.check_division_record

    def check(code, out):
        doc = parse_json(out)
        if code != 0 or doc is None:
            return f"verify-theorem exited {code}"
        return next((e for e in map(rec_check, doc["records"]) if e), "")

    return args, check


# ---------------------------------------------------------------------------
# in-process workloads


class Tally:
    def __init__(self, workload, runner):
        self.workload = workload
        self.runner = runner
        self.attempted = 0
        self.failed = 0
        self.decided = 0
        self.errors = []
        self.prefix = {}
        self.prefix_searched = 0

    def fail(self, message):
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(message)

    def prefix_records(self):
        return [self.prefix[k] for k in sorted(self.prefix)]

    def run(self, k, tracer=None):
        """Run instance k and check it; returns (elapsed ns, verify ns,
        record)."""
        t0 = time.perf_counter_ns()
        try:
            record, err, verify_ns = self.runner.run(k, tracer)
        except Exception as e:  # an escaped library error is a failed instance
            record, err, verify_ns = None, f"{type(e).__name__}: {e}", None
        elapsed = time.perf_counter_ns() - t0
        self.attempted += 1
        if record is not None and self.runner.decided(record):
            self.decided += 1
        if err:
            self.fail(f"instance {k}: {err}")
        if k < PREFIX[self.workload] and record is not None and k not in self.prefix:
            self.prefix[k] = record
            self.prefix_searched += self.runner.searched(record)
        return elapsed, verify_ns, record


def closed_loop(seconds, min_steps, step, side_tasks=()):
    """Call step(k) for k = 0, 1, ... until the steps have taken `seconds`
    and at least `min_steps` ran; a step that returns a number of seconds
    has only that much counted.  The side tasks run spaced evenly through
    the run, outside the measured time, so that they sample the machine
    over the same stretch as the steps.  Returns (steps, measured s)."""
    pending = list(side_tasks)
    measured = 0.0
    k = done = 0
    while k < min_steps or measured < seconds:
        if pending and measured >= seconds * (done + 1) / (len(side_tasks) + 1):
            pending.pop(0)()
            done += 1
            continue
        t0 = time.perf_counter()
        spent = step(k)
        measured += time.perf_counter() - t0 if spent is None else spent
        k += 1
    for task in pending:
        task()
    return k, measured


def round_median(times, size):
    """Median over consecutive groups of `size` times of their mean, in
    ms.  A group is one round of the workload's mix, so the figure does
    not jump between the modes of a multimodal per-instance distribution."""
    return ms(statistics.median(statistics.mean(times[i:i + size]) for i in range(0, len(times), size)))


def interleave(a, b):
    """The tasks of both lists, each list spread evenly through the other."""
    merged = [(i / len(a), 0, task) for i, task in enumerate(a)] + [(i / len(b), 1, task) for i, task in enumerate(b)]
    return [task for _pos, _which, task in sorted(merged, key=lambda m: m[:2])]


def run_in_process(run):
    import runners

    workload, seed = run.workload, run.seed
    runner = runners.make(workload, seed)
    tally = run.tally = Tally(workload, runner)
    times = []

    if not run.trace:
        # Each pass runs the same `size` instances; an instance's time is
        # the median over the passes of its scaled times.
        size = SET_ROUNDS[workload] * runner.round
        scaled = [[] for _ in range(size)]
        scaled_verify = [[] for _ in range(size)]
        raw = [math.inf] * size
        digests = [None] * size
        stick = {"ns": None, "since": math.inf, "readings": []}

        def step(k):
            i = k % size
            if stick["since"] >= YARDSTICK_EVERY_NS:
                stick["ns"] = yardstick_ns()
                stick["readings"].append(stick["ns"])
                stick["since"] = 0
            elapsed, verify_ns, record = tally.run(i)
            stick["since"] += elapsed
            scale = YARDSTICK_REF_NS / stick["ns"]
            scaled[i].append(elapsed * scale)
            raw[i] = min(raw[i], elapsed)
            if verify_ns is not None:
                scaled_verify[i].append(verify_ns * scale)
            d = workloads.digest([record])
            if digests[i] is None:
                digests[i] = d
            elif digests[i] != d:
                tally.fail(f"instance {i} gave another record on a later pass")
            return elapsed / 1e9

        run.one_shot_reference()
        one_shot = run.one_shot_task()
        n, _measured = closed_loop(
            run.seconds, MIN_PASSES * size, step,
            interleave([run.probe_task] * SETUP_REPEATS, [one_shot] * ONE_SHOT_REPEATS),
        )
        typical = [statistics.median(t) for t in scaled]
        value, beyond = tail(typical, TAIL_PCT[workload])
        readings = stick["readings"]
        run.extra.update(
            tail_pct=TAIL_PCT[workload], tail_beyond=beyond, instances=size, passes=n / size,
            one_shot_walls=run.one_shot_walls,
            yardstick_ns={"min": min(readings), "median": statistics.median(readings), "count": len(readings)},
            unscaled={
                "instances_per_s (fastest pass)": size * 1e9 / sum(raw),
                "instance_ms_p50 (fastest pass)": ms(statistics.median(raw)),
                "cli_wall_s": statistics.median(w for w, _ in run.one_shot_walls),
                "setup_s": statistics.median(p[3] for p in run.probes),
            },
        )
        return {
            "instances_per_s": size * 1e9 / sum(typical),
            "instance_ms_p50": round_median(typical, runner.p50_group),
            "instance_ms_tail": ms(value),
            "verify_ms_p50": round_median([statistics.median(t) for t in scaled_verify], runner.p50_group),
            "decided_share": tally.decided / tally.attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "cli_wall_s": statistics.median(w for _, w in run.one_shot_walls),
        }

    metrics = tracing.field_op_ns()
    for _ in range(SETUP_REPEATS):
        run.probe_task()
    # the prefix untraced, then the same instances traced: the difference
    # is the tracing overhead
    untraced = [Tally(workload, runner).run(k)[0] for k in range(PREFIX[workload])]
    tracer = tracing.Tracer()
    marks = {}

    def step(k):
        times.append(tracer.run("instance", tally.run, k, tracer, instance=k)[0])
        if k + 1 == PREFIX[workload]:
            marks["spans"] = len(tracer.spans)
            marks["counts"] = dict(tracer.counts)

    with tracing.instrumented(tracer):
        n, _measured = closed_loop(run.seconds, PREFIX[workload], step)
    tracer.write_spans(OUT / f"{workload}-seed{seed}-spans.jsonl")
    everything = tracing.stage_summary(tracer.spans)
    prefix = tracing.stage_summary(tracer.spans[: marks["spans"]])
    metrics.update(layer_metrics(everything, prefix, marks["counts"], n, tally))
    prefix_traced = sum(times[: PREFIX[workload]])
    metrics["trace.overhead_pct"] = 100 * (prefix_traced - sum(untraced)) / sum(untraced)
    stages = run.traced_one_shot()
    metrics["cli.run_batch_ms"] = ms(stages.get("run_batch", {}).get("incl_ns", 0))
    metrics["cli.emit_ms"] = ms(stages.get("emit", {}).get("incl_ns", 0))
    run.extra["stages"] = per_instance(everything, n)
    return metrics


def per_instance(summary, n):
    return {
        name: {"calls": row["calls"] / n, "incl_ms": ms(row["incl_ns"]) / n, "self_ms": ms(row["self_ns"]) / n}
        for name, row in sorted(summary.items())
    }


def layer_metrics(everything, prefix, counts, n, tally):
    """Per-layer metrics: times in ms per instance over the whole traced
    run, counts over the fixed prefix of instances."""

    def t(name):
        return ms(everything.get(name, {}).get("incl_ns", 0)) / n

    def c(name):
        return prefix.get(name, {}).get("calls", 0)

    certify_in_generate = c("certify.generate")
    out = {
        "hermitian.certify_ms": t("certify"),
        "hermitian.certify_generate_ms": t("certify.generate"),
        "hermitian.certify_verify_ms": t("certify.verify"),
        "hermitian.certify_calls": c("certify"),
        "hermitian.form_init_ms": t("form_init"),
        "hermitian.diagonalize_ms": t("diagonalize"),
        "quaternions.ramify_calls": c("ramify"),
        "quaternions.ramify_ms": t("ramify"),
        "morita.reduce_ms": t("reduce"),
        "morita.extend_ms": t("extend"),
        "valuations.value_calls": c("value"),
        "valuations.value_ms": t("value"),
        "quadforms.residue_ms": t("residue"),
        "quadforms.witt_ms": t("witt"),
        "quadforms.witt_searched": tally.prefix_searched,
        "scenarios.generate_ms": t("generate"),
        "scenarios.attempt_yield": (
            c("generate") / certify_in_generate if certify_in_generate else 1.0
        ),
        "scenarios.serialize_ms": t("serialize"),
        "fields.poly_gcd_calls": counts.get("fields.poly_gcd_calls", 0),
    }
    for level in tracing.LEVELS:
        for op in tracing.FIELD_OPS:
            key = f"fields.{level}.{op}_calls"
            out[key] = counts.get(key, 0)
    return out


# ---------------------------------------------------------------------------
# the run


def source_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "quatwitt").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_commit():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=ROOT, timeout=10)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def check_determinism(workload, seed, prefix_digest, source, tally):
    """The prefix digest must repeat for the same source and seed across
    runs; the first one seen is kept in perfbench/out/digests.json."""
    path = OUT / "digests.json"
    known = json.loads(path.read_text()) if path.exists() else {}
    key = f"{source}:{workload}:{seed}"
    if known.setdefault(key, prefix_digest) != prefix_digest:
        tally.fail(f"records digest {prefix_digest} differs from an earlier run's {known[key]}")
    write_json(path, known)


class Run:
    """One benchmark run: its settings, its tally, and the side tasks
    (fresh set-up processes and one-shot CLI commands) it interleaves."""

    def __init__(self, args):
        self.workload, self.seed = args.workload, args.seed
        self.seconds, self.trace = args.seconds, args.trace
        self.extra = {}
        self.tally = None
        self.probes = []
        self.one_shot_walls = []
        self.one_shot_outs = []

    def probe_task(self):
        self.probes.append(setup_probe(self.workload, self.seed))

    def one_shot_reference(self):
        """The one-shot command once with one worker, untimed: its output
        is the reference every repeat must print byte for byte, so the
        sharding across workers must not change a byte."""
        args, self.one_shot_check = one_shot_args(self.workload, 1)
        _wall, code, out, _err = quatwitt_cli(args)
        self.one_shot_outs.append((code, out))

    def one_shot_task(self):
        args, self.one_shot_check = one_shot_args(self.workload, ONE_SHOT_JOBS)

        def task():
            stick = process_yardstick_s()
            wall, code, out, _err = quatwitt_cli(args)
            self.one_shot_walls.append((wall, scaled_process(wall, stick)))
            self.one_shot_outs.append((code, out))

        return task

    def traced_one_shot(self):
        # one worker: worker processes cannot hand spans back
        args, self.one_shot_check = one_shot_args(self.workload, 1)
        summary = OUT / f"{self.workload}-seed{self.seed}-cli-summary.json"
        spans = OUT / f"{self.workload}-seed{self.seed}-cli-spans.jsonl"
        _wall, code, out, _err = quatwitt_cli(args, traced=(summary, spans))
        self.one_shot_outs.append((code, out))
        stages = json.loads(summary.read_text())["stages"]
        summary.unlink()
        return stages

    def check_side_tasks(self):
        tally = self.tally
        for code, out in self.one_shot_outs:
            err = self.one_shot_check(code, out)
            if err or out != self.one_shot_outs[0][1]:
                tally.fail(err or "one-shot CLI output differs between repeats or worker counts")
        first = workloads.digest(tally.prefix_records()[:1])
        for _s, _i, child_digest, _raw in self.probes:
            if child_digest != first:
                tally.fail("first record differs between processes")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "quatwitt" / "__init__.py").is_file():
        print(f"error: no quatwitt sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import quatwitt

    if Path(quatwitt.__file__).resolve().parent != SRC / "quatwitt":
        print(f"error: imported quatwitt from {quatwitt.__file__}, not {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)

    run = Run(args)
    metrics = run_in_process(run)
    tally = run.tally
    run.check_side_tasks()
    if run.trace:
        metrics["cli.import_ms"] = statistics.median(p[1] for p in run.probes)
    else:
        metrics["setup_s"] = statistics.median(p[0] for p in run.probes)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if run.trace else "end_to_end"]
    if sorted(m["name"] for m in spec) != sorted(metrics):
        raise RuntimeError(f"metrics {sorted(metrics)} do not match BENCHMARK.json")
    source = source_digest()
    prefix_digest = workloads.digest(tally.prefix_records())
    check_determinism(run.workload, run.seed, prefix_digest, source, tally)

    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in spec},
    }
    info = {
        "workload": run.workload,
        "seed": run.seed,
        "held_out_seed": HELD_OUT_SEED,
        "seconds": run.seconds,
        "trace": run.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": git_commit(),
        "source_sha256": source,
        "records_sha256": prefix_digest,
        "failed_share": tally.failed / tally.attempted,
        "indeterminate_share": 1 - tally.decided / tally.attempted,
        "errors": tally.errors,
        "setup_samples": [p[0] for p in run.probes],
        **run.extra,
    }
    write_json(OUT / f"{run.workload}-seed{run.seed}-trace{run.trace}.json", {**info, **result})
    for name, m in result["metrics"].items():
        print(f"{name:36s} {m['value']:>16.6g} {m['unit']}")
    for key in ("tail_pct", "tail_beyond", "instances", "passes", "failed_share", "indeterminate_share", "records_sha256"):
        if key in info:
            print(f"# {key} {info[key]}")
    for err in tally.errors:
        print(f"# error {err}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
