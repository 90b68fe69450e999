"""Command line front end for the verification pipeline.

Every subcommand reads a JSON scenario file and prints either a short
human summary (default) or one canonical JSON document (``--json``).
Canonical means sorted keys and fixed separators, so identical inputs
produce byte-identical output; wall-clock time therefore goes to stderr
only.

Exit codes: 0 for success or a verified batch, 1 for a violated
property (with a serialized counterexample), 2 for input errors, 3 for
an indeterminate verdict.  A violation wins over indeterminacy.  A
scenario key the subcommand does not read (SCENARIO_KEYS) is an input
error.

Input caps, each an input error when passed, so that no input can
exhaust the interpreter's stack or stall: a scenario the JSON decoder
can read without exhausting its recursion; a field tower of at most
scenarios.MAX_TOWER_DEPTH (4) function-field and conic levels over Q
or F_p; an element expression nesting at most fields.MAX_NESTING (100)
parentheses and unary minus signs, counted together; exponents up to
fields.MAX_EXPONENT with a power cost up to fields.MAX_POWER_COST;
primes up to fields.MAX_PRIME; ranks up to scenarios.MAX_RANK and
trials up to scenarios.MAX_TRIALS.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from . import faults
from .errors import QuatwittError, ScenarioError
from .hermitian import good_reduction_certificate
from .morita import morita_reduce, split_reduce_at_point
from .quadforms import DEFAULT_BUDGET, QuadraticForm, residue_forms, witt_trivial
from .quaternions import ramification
from .scenarios import (
    BATCH_KEYS,
    build_algebra,
    build_form,
    build_quad,
    check_budget,
    check_jobs,
    check_trials,
    element_str,
    generator_setup,
    load_scenario,
    parse_point,
    quaternion_descriptor,
    run_instance,
    scenario_field,
    scenario_valuation,
)

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_INPUT = 2
EXIT_INDETERMINATE = 3


# ---------------------------------------------------------------------------
# output helpers


def _emit_json(payload: dict) -> None:
    print(json.dumps(payload, sort_keys=True, separators=(",", ":")))


# the scenario keys each subcommand reads; the subcommands on one algebra
# share a file, so each also takes the keys of the others
_ALGEBRA_KEYS = frozenset(("field", "valuation", "algebra", "form", "point"))
SCENARIO_KEYS = {
    "residue": _ALGEBRA_KEYS,
    "certify": _ALGEBRA_KEYS,
    "reduce": _ALGEBRA_KEYS,
    "split-reduce": _ALGEBRA_KEYS,
    "residue-forms": frozenset(("field", "valuation", "quad")),
    "witt-equal": frozenset(("field", "first", "second")),
    "verify-theorem": BATCH_KEYS,
}


def _scenario(args) -> dict:
    return load_scenario(args.scenario, SCENARIO_KEYS[args.command])


def _need(sc: dict, key: str):
    if key not in sc:
        raise ScenarioError(f"scenario needs {key!r}")
    return sc[key]


def _scenario_algebra(sc: dict):
    field = scenario_field(sc)
    return field, build_algebra(_need(sc, "algebra"), field)


def _scenario_form(sc: dict):
    field, alg = _scenario_algebra(sc)
    return field, alg, build_form(_need(sc, "form"), alg)


# ---------------------------------------------------------------------------
# single-shot subcommands


def cmd_residue(args) -> int:
    sc = _scenario(args)
    field, alg = _scenario_algebra(sc)
    v = scenario_valuation(sc, field)
    rep = ramification(alg, v)
    payload = {
        "ramified": rep.ramified,
        "tame_class": element_str(rep.tame_class),
    }
    if rep.unit_rep is not None:
        payload["unit_rep"] = [element_str(x) for x in rep.unit_rep]
        payload["residue_params"] = [element_str(x) for x in rep.residue_params]
        payload["split_over_residue"] = rep.split_over_residue
    if args.json:
        _emit_json(payload)
    elif rep.ramified:
        print(f"Ramified; tame residue class {element_str(rep.tame_class)}")
    else:
        d0, t0 = rep.residue_params
        kind = "split" if rep.split_over_residue else "division"
        print(
            f"Unramified; residue ({element_str(d0)}, {element_str(t0)}) "
            f"over {rep.residue_params[0].field!r}; residue algebra {kind}"
        )
    return EXIT_OK


def cmd_certify(args) -> int:
    sc = _scenario(args)
    field, alg, h = _scenario_form(sc)
    v = scenario_valuation(sc, field)
    cert = good_reduction_certificate(h, v)
    payload = {
        "status": cert.status,
        "extvals": [str(e) for e in cert.extvals],
        "diagonal": [quaternion_descriptor(u) for u in cert.diagonal],
    }
    if cert.certified:
        payload["scaling"] = cert.scaling
        payload["scaled_diagonal"] = [quaternion_descriptor(u) for u in cert.scaled_diagonal]
    if args.json:
        _emit_json(payload)
    elif cert.certified:
        print(f"Certified; scaling exponent {cert.scaling}")
    else:
        print(f"No certificate; entry values {', '.join(str(e) for e in cert.extvals)}")
    return EXIT_OK


def cmd_reduce(args) -> int:
    sc = _scenario(args)
    field, alg, h = _scenario_form(sc)
    q = morita_reduce(h)
    if args.json:
        _emit_json({"entries": [element_str(u) for u in q.entries]})
    else:
        print(repr(q))
    return EXIT_OK


def cmd_split_reduce(args) -> int:
    sc = _scenario(args)
    field, alg, h = _scenario_form(sc)
    point = parse_point(_need(sc, "point"), field)
    q = split_reduce_at_point(h, point)
    if args.json:
        _emit_json({"entries": [element_str(u) for u in q.entries]})
    else:
        print(repr(q))
    return EXIT_OK


def cmd_residue_forms(args) -> int:
    sc = _scenario(args)
    field = scenario_field(sc)
    v = scenario_valuation(sc, field)
    q = build_quad(_need(sc, "quad"), field)
    pair = residue_forms(q, v)
    if args.json:
        forms = pair._asdict().items()
        _emit_json({name: [element_str(u) for u in form.entries] for name, form in forms})
    else:
        print(f"first residue form  {pair.first!r}")
        print(f"second residue form {pair.second!r}")
    return EXIT_OK


def cmd_witt_equal(args) -> int:
    sc = _scenario(args)
    field = scenario_field(sc)
    first = build_quad(_need(sc, "first"), field)
    if "second" in sc:
        second = build_quad(sc["second"], field)
        probe = first.perp(second.neg())
    else:
        probe = first
    budget = args.budget if args.budget is not None else DEFAULT_BUDGET
    check_budget(budget)
    verdict = witt_trivial(probe, budget)
    if args.json:
        _emit_json({"equal": verdict.state, "searched": verdict.searched})
    else:
        print(f"{verdict.state} (searched {verdict.searched})")
    if verdict.state == "true":
        return EXIT_OK
    if verdict.state == "false":
        return EXIT_VIOLATION
    return EXIT_INDETERMINATE


# ---------------------------------------------------------------------------
# randomized batch verification


def _classify(record: dict) -> str:
    if record["status"] == "error":
        if record["error"] == "HypothesisNotCertified":
            return "hypothesis_failed"
        return "error"
    state = record["report"]["verdict"]
    if state == "true":
        return "verified"
    if state == "false":
        return "refuted"
    return "indeterminate"


def _run_shard(sc: dict, start: int, stop: int, budget):
    # budget is passed only when set, so a positional wrapper of
    # run_instance, such as the benchmark's tracer, still fits
    extra = {} if budget is None else {"budget": budget}
    return [run_instance(sc, i, **extra) for i in range(start, stop)]


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set where the
    platform reports one, else the machine's count, else 1."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _shards(trials: int, jobs: int) -> list:
    """The index ranges of a batch, one contiguous shard per worker.

    min(jobs, usable CPUs, trials) workers take ceil(trials / workers)
    instances each; where the platform has no fork there is one worker.
    """
    workers = min(jobs, _usable_cpus(), trials) if hasattr(os, "fork") else 1
    if workers <= 1:
        return [(0, trials)]
    size = -(-trials // workers)
    return [(start, min(start + size, trials)) for start in range(0, trials, size)]


def _fork_shard(sc: dict, start: int, stop: int, budget):
    """Fork a child that runs one shard and writes it to a pipe as JSON,
    {"records": [...]} or, on an exception, {"traceback": "..."}.
    Returns (pid, read end)."""
    read, write = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read)
        os.close(write)
        raise
    if pid:
        os.close(write)
        return pid, read
    # the child leaves through os._exit on every path, so it never flushes
    # the stdout it inherited nor returns into the caller
    code = 1
    try:
        os.close(read)
        try:
            reply = {"records": _run_shard(sc, start, stop, budget)}
        except Exception:
            import traceback

            reply = {"traceback": traceback.format_exc()}
        with open(write, "w", encoding="utf-8") as fp:
            fp.write(json.dumps(reply))
        code = 0
    finally:
        os._exit(code)


def _shard_records(text: str, status: int, start: int, stop: int) -> list:
    try:
        reply = json.loads(text)
    except ValueError:  # nothing, or a cut-off reply
        reply = {}
    if "records" in reply:
        return reply["records"]
    where = f"the worker for instances {start}..{stop - 1}"
    if "traceback" in reply:
        raise RuntimeError(f"{where} failed:\n{reply['traceback']}")
    raise RuntimeError(
        f"{where} exited with status {os.waitstatus_to_exitcode(status)} "
        "before it sent its records"
    )


def run_batch(sc: dict, trials: int, *, budget=None, jobs: int = 1):
    """Verify `trials` generated instances and tally the outcomes.

    Instances depend only on (scenario, index), so the indices split into
    contiguous shards (`_shards`), at most min(jobs, usable CPUs, trials).
    This process forks one child per shard after the first, runs the
    first itself, then reads each child's records from its pipe in index
    order and reaps it, so one worker forks nothing.  If any shard fails,
    every child still running is killed and reaped before the error
    propagates.  Forking is safe because the caller runs no other thread,
    as the CLI does not.  The children inherit this process's active
    faults, so the batch runs under whatever faults its caller set.
    """
    shards = _shards(trials, jobs)
    pending = []  # (start, stop, pid, read end) of each unreaped child
    try:
        for start, stop in shards[1:]:
            pending.append((start, stop, *_fork_shard(sc, start, stop, budget)))
        records = _run_shard(sc, *shards[0], budget)
        while pending:
            start, stop, pid, read = pending[0]
            with open(read, "r", encoding="utf-8", closefd=False) as fp:
                text = fp.read()
            status = os.waitpid(pid, 0)[1]
            del pending[0]
            os.close(read)
            records += _shard_records(text, status, start, stop)
    finally:
        for _, _, pid, read in pending:
            os.close(read)
            os.kill(pid, 9)  # SIGKILL
            os.waitpid(pid, 0)
    counts = dict.fromkeys(
        ("verified", "refuted", "hypothesis_failed", "indeterminate", "error"), 0
    )
    counterexample = None
    for record in records:
        bucket = _classify(record)
        counts[bucket] += 1
        if bucket != "verified" and counterexample is None:
            counterexample = record
    return records, counts, counterexample


def cmd_verify_theorem(args) -> int:
    sc = dict(_scenario(args))
    if args.seed is not None:
        sc["seed"] = args.seed
    trials = args.trials if args.trials is not None else sc.get("trials", 100)
    check_trials(trials)
    budget = args.budget if args.budget is not None else sc.get("budget")
    if budget is not None:
        check_budget(budget)
    check_jobs(args.jobs)
    generator_setup(sc)
    start = time.monotonic()
    records, counts, counterexample = run_batch(sc, trials, budget=budget, jobs=args.jobs)
    elapsed = time.monotonic() - start
    payload = {
        "trials": trials,
        "seed": sc.get("seed", 0),
        "counts": counts,
        "records": records,
    }
    if counterexample is not None:
        payload["counterexample"] = counterexample
    print(f"wall time {elapsed:.2f}s", file=sys.stderr)
    if args.json:
        _emit_json(payload)
    else:
        print(
            f"verified {counts['verified']}/{trials} "
            f"(refuted {counts['refuted']}, "
            f"hypothesis failed {counts['hypothesis_failed']}, "
            f"indeterminate {counts['indeterminate']}, "
            f"errors {counts['error']})"
        )
        if counterexample is not None:
            print("counterexample:")
            print(json.dumps(counterexample, sort_keys=True, separators=(",", ":")))
    violated = counts["refuted"] + counts["hypothesis_failed"] + counts["error"]
    if violated:
        return EXIT_VIOLATION
    if counts["indeterminate"]:
        return EXIT_INDETERMINATE
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing


_COMMANDS = (
    ("residue", cmd_residue, "ramification report for a quaternion algebra"),
    ("certify", cmd_certify, "search for a good-reduction certificate"),
    ("reduce", cmd_reduce, "reduce a form to a quadratic form over the conic field"),
    ("split-reduce", cmd_split_reduce, "reduce through a rational point of the conic"),
    ("residue-forms", cmd_residue_forms, "first and second residue forms at a valuation"),
    ("witt-equal", cmd_witt_equal, "compare Witt classes of two diagonal forms"),
    ("verify-theorem", cmd_verify_theorem, "randomized batch verification"),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quatwitt",
        description="exact verification of unramified reduction for "
        "skew-hermitian forms over quaternion algebras",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, func, text in _COMMANDS:
        sub = subs.add_parser(name, help=text)
        sub.add_argument("--scenario", required=True, help="path to a JSON scenario file")
        sub.add_argument("--json", action="store_true", help="print one canonical JSON document")
        sub.add_argument(
            "--inject-fault", action="append", choices=faults.FAULT_NAMES, help=argparse.SUPPRESS
        )
        if name == "verify-theorem":
            sub.add_argument("--trials", type=int, default=None, help="number of instances")
            sub.add_argument("--seed", type=int, default=None, help="override the scenario seed")
        if name in ("witt-equal", "verify-theorem"):
            sub.add_argument("--budget", type=int, default=None, help="isotropy search budget")
        if name == "verify-theorem":
            sub.add_argument("--jobs", type=int, default=1, help="worker process count")
        sub.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        for name in args.inject_fault or ():
            faults.activate(name)
        ret = args.func(args)
        sys.stdout.flush()
        return ret
    except ScenarioError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except QuatwittError as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_INPUT
    except BrokenPipeError:
        # a closed downstream pipe must not leave an unflushed stdout
        # behind at interpreter shutdown
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_INPUT
    finally:
        faults.clear()


if __name__ == "__main__":
    raise SystemExit(main())
