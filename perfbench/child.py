"""Fresh-process helpers for the benchmark.

    child.py setup WORKLOAD SEED
        Import quatwitt and load the workload's scenario up to the point
        where its first instance is ready; print one JSON line then.  Then
        run that instance and print the sha256 of its canonical record,
        which the parent compares with its own (a cross-process
        determinism check).

    child.py cli SUMMARY SPANS -- QUATWITT-ARGS...
        Run the quatwitt command line in this process with spans and
        counters installed; write the stage summary to SUMMARY and the
        spans to SPANS.  Exits with the command's exit code.

The parent puts the checkout's ``src`` on PYTHONPATH.
"""

import json
import sys
import time


def setup(workload, seed):
    t0 = time.perf_counter()
    import quatwitt.cli  # noqa: F401  (the whole package, as the CLI loads it)

    import_ms = (time.perf_counter() - t0) * 1e3
    import runners
    from workloads import digest

    wl = runners.make(workload, seed)
    wl.first_ready()
    print(json.dumps({"ready": True, "import_ms": import_ms}), flush=True)
    record, _err, _ns = wl.run(0)
    print(json.dumps({"digest": digest([record])}), flush=True)
    return 0


def traced_cli(summary_path, spans_path, argv):
    t0 = time.perf_counter()
    from quatwitt import cli

    import_ms = (time.perf_counter() - t0) * 1e3
    from tracing import Tracer, instrumented, stage_summary

    tracer = Tracer()
    with instrumented(tracer):
        run_instance = cli.run_instance

        def traced_instance(sc, index, *rest):
            return tracer.run("instance", run_instance, sc, index, *rest, instance=index)

        cli.run_instance = traced_instance
        try:
            code = cli.main(argv)
        finally:
            cli.run_instance = run_instance
    sys.stdout.flush()
    tracer.write_spans(spans_path)
    with open(summary_path, "w", encoding="utf-8") as fp:
        json.dump({
            "import_ms": import_ms,
            "stages": stage_summary(tracer.spans),
            "counts": dict(tracer.counts),
        }, fp)
    return code


def main(argv):
    if argv[:1] == ["setup"] and len(argv) == 3:
        return setup(argv[1], int(argv[2]))
    if argv[:1] == ["cli"] and len(argv) >= 4 and argv[3] == "--":
        return traced_cli(argv[1], argv[2], argv[4:])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
