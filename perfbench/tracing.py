"""Spans and call counters around the library's entry points.

Everything here is installed from the benchmark by rebinding module and
class attributes, so the library itself carries no tracing code.  A span
records (name, start, end, parent span, instance id); spans stay in
memory and are written out once the run ends.  Counters count raw field
operations per tower level and polynomial gcds.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager

LEVELS = ("fp", "q", "qs", "qsx", "conic")
FIELD_OPS = ("add", "mul", "inv")


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.instance = -1
        self.counts = defaultdict(int)

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns
        tracer = self

        def traced(*args, **kwargs):
            sid = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (name, start, end, parent, tracer.instance)

        return traced

    def run(self, name, fn, *args, instance=None):
        """Call fn(*args) in a span; the instance id also tags every span
        opened inside it."""
        if instance is not None:
            self.instance = instance
        return self.wrap(name, fn)(*args)

    def counted(self, key, fn):
        counts = self.counts

        def counting(*args):
            counts[key] += 1
            return fn(*args)

        return counting

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fp:
            for sid, (name, start, end, parent, inst) in enumerate(self.spans):
                fp.write(json.dumps([sid, parent, inst, name, start, end]) + "\n")


# ---------------------------------------------------------------------------
# installation


def _function_field_counter(tracer, op, fn):
    # Q(s) and F_p(s) sit one level above a prime field; Q(s)(x) two
    counts = tracer.counts
    from quatwitt.fields import FunctionField

    one, two = f"fields.qs.{op}_calls", f"fields.qsx.{op}_calls"

    def counting(self, *args):
        counts[two if isinstance(self.base, FunctionField) else one] += 1
        return fn(self, *args)

    return counting


@contextmanager
def instrumented(tracer):
    """Rebind the library's entry points to traced versions for the
    duration of the block.

    Every name is rebound in each module that imported it, because a
    `from .x import f` binding is looked up in the importing module.
    """
    from quatwitt import cli, fields, hermitian, morita, quadforms, quaternions, scenarios, valuations

    saved = []

    def rebind(owner, attr, new):
        saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def span_everywhere(name, attr, home, users):
        traced = tracer.wrap(name, getattr(home, attr))
        for mod in (home,) + users:
            if hasattr(mod, attr):
                rebind(mod, attr, traced)

    span_everywhere("generate", "generate_instance", scenarios, ())
    span_everywhere("certify", "good_reduction_certificate", hermitian, (scenarios, morita, cli))
    span_everywhere("ramify", "ramification", quaternions, (hermitian, morita, scenarios, cli))
    span_everywhere("diagonalize", "diagonalize_h", hermitian, ())
    span_everywhere("extend", "extend_valuation", morita, ())
    for attr in ("morita_reduce", "_reduce_diagonal", "split_reduce_at_point", "_split_reduce_entries"):
        span_everywhere("reduce", attr, morita, (cli,))
    span_everywhere("verify", "verify_instance", morita, (scenarios,))
    span_everywhere("residue", "residue_forms", quadforms, (morita, cli))
    span_everywhere("witt", "witt_trivial", quadforms, (morita, cli))
    for attr in ("instance_descriptor", "report_to_dict", "quad_descriptor"):
        span_everywhere("serialize", attr, scenarios, ())
    span_everywhere("run_batch", "run_batch", cli, ())
    span_everywhere("emit", "_emit_json", cli, ())
    rebind(hermitian.SkewHermitianForm, "__init__",
           tracer.wrap("form_init", hermitian.SkewHermitianForm.__init__))
    for cls in (valuations.PAdicValuation, valuations.GaussValuation,
                valuations.ConicValuation, valuations.TransportedConicValuation):
        rebind(cls, "value", tracer.wrap("value", cls.value))

    rebind(fields, "poly_gcd", tracer.counted("fields.poly_gcd_calls", fields.poly_gcd))
    for op in FIELD_OPS:
        for level, cls in (("fp", fields.FiniteField), ("q", fields.Rationals), ("conic", fields.ConicExtension)):
            rebind(cls, op, tracer.counted(f"fields.{level}.{op}_calls", getattr(cls, op)))
        rebind(fields.FunctionField, op, _function_field_counter(tracer, op, getattr(fields.FunctionField, op)))
    try:
        yield tracer
    finally:
        for owner, attr, old in reversed(saved):
            setattr(owner, attr, old)


# ---------------------------------------------------------------------------
# summaries


def stage_summary(spans):
    """Per span name: boundary calls and their inclusive time (spans with
    no ancestor of the same name), and self time (span time minus the time
    its child spans cover), all in ns.  Certificate spans are also split
    by whether the generator or the verifier made them."""
    child_ns = [0] * len(spans)
    for name, start, end, parent, _inst in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    out = defaultdict(lambda: {"calls": 0, "incl_ns": 0, "self_ns": 0})
    for sid, (name, start, end, parent, _inst) in enumerate(spans):
        dur = end - start
        row = out[name]
        row["self_ns"] += dur - child_ns[sid]
        outermost = True
        caller = None
        p = parent
        while p >= 0:
            pname = spans[p][0]
            if pname == name:
                outermost = False
            if caller is None and pname in ("generate", "verify"):
                caller = pname
            p = spans[p][3]
        if outermost:
            row["calls"] += 1
            row["incl_ns"] += dur
            if name == "certify" and caller is not None:
                sub = out[f"certify.{caller}"]
                sub["calls"] += 1
                sub["incl_ns"] += dur
                sub["self_ns"] += dur - child_ns[sid]
    return dict(out)


# ---------------------------------------------------------------------------
# field operations on fixed operands


def _fixed_operands():
    from quatwitt.fields import ConicExtension, FiniteField, FunctionField, Rationals

    Q = Rationals()
    K = FunctionField(Q, "s")
    L = FunctionField(K, "x")
    C = ConicExtension(K, K(-1), K("s"))
    F = FiniteField(101)
    return {
        "fp": (F, F(37), F(58)),
        "q": (Q, Q("355/113"), Q("-22/7")),
        "qs": (K, K("(s^2 + 3*s - 1)/(2*s + 5)"), K("(s - 7)/(s^2 + 1)")),
        "qsx": (L, L("(s*x^2 + 1)/(x - s)"), L("(x + s^2)/(s*x + 2)")),
        "conic": (C, C("x + s*y + 1"), C("2*x*y - s")),
    }


def field_op_ns(repeats=5, target_s=0.004):
    """Median ns per raw add, mul and inv at each tower level, on fixed
    operands, with the library uninstrumented."""
    out = {}
    for level, (field, a, b) in _fixed_operands().items():
        x, y = a.value, b.value
        calls = {
            "add": lambda: field.add(x, y),
            "mul": lambda: field.mul(x, y),
            "inv": lambda: field.inv(x),
        }
        for op, fn in calls.items():
            number = 1
            while True:
                t0 = time.perf_counter_ns()
                for _ in range(number):
                    fn()
                if time.perf_counter_ns() - t0 >= target_s * 1e9:
                    break
                number *= 2
            samples = []
            for _ in range(repeats):
                t0 = time.perf_counter_ns()
                for _ in range(number):
                    fn()
                samples.append((time.perf_counter_ns() - t0) / number)
            out[f"fields.{level}.{op}_ns"] = statistics.median(samples)
    return out
