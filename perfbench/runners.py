"""One instance at a time through the library, for each in-process
workload.  The library is always reached through module attributes at
call time, so the traced run sees the same calls as the untraced one."""

from __future__ import annotations

import time

from workloads import (
    RANKS,
    WITT_BUDGET,
    WITT_SLOTS,
    battery_scenarios,
    check_division_record,
    check_split_record,
    check_witt,
    witt_input,
)


class Battery:
    """Round-robin over the batteries of a workload and over the ranks:
    instance k is index k of battery k % B with rank (k // B) % 3 + 1,
    generated, verified and serialized by `run_instance`, as the CLI does
    it.

    The rank goes in through the scenario's `rank` key, so every run holds
    the same share of each rank; the cost of an instance grows steeply
    with its rank, and left to the draw that share moves a run's median
    by tens of percent from seed to seed.  Distinct indices keep the other
    draws independent across batteries, which share their seed."""

    def __init__(self, workload, seed):
        from quatwitt import scenarios

        self.scenarios_mod = scenarios
        self.variants = [
            [scenarios.load_scenario(dict(sc, rank=rank)) for sc in battery_scenarios(workload, seed)]
            for rank in RANKS
        ]
        self.check = check_split_record if workload == "split" else check_division_record
        self.batteries = len(self.variants[0])
        self.round = self.batteries * len(RANKS)
        # the p50 metrics are medians over whole rounds: a round's times
        # spread over several modes (rank, and the generator's twist)
        self.p50_group = self.round
        self.verify_ns = None
        verify = scenarios.verify_instance

        def timed_verify(*args, **kwargs):
            t0 = time.perf_counter_ns()
            try:
                return verify(*args, **kwargs)
            finally:
                self.verify_ns = time.perf_counter_ns() - t0

        scenarios.verify_instance = timed_verify

    def scenario(self, k):
        return self.variants[(k // self.batteries) % len(RANKS)][k % self.batteries]

    def first_ready(self):
        self.scenarios_mod.generate_instance(self.scenario(0), 0)

    def run(self, k, tracer=None):
        """(record, error message or "", verify ns or None); the traced
        run's generate spans come from the instrumented library."""
        self.verify_ns = None
        record = self.scenarios_mod.run_instance(self.scenario(k), k)
        return record, self.check(record), self.verify_ns

    @staticmethod
    def decided(record):
        return record.get("status") == "ok" and record["report"]["verdict"] != "indeterminate"

    @staticmethod
    def searched(record):
        return record["report"]["searched"] if record.get("status") == "ok" else 0


class WittMix:
    """Instance k is one Witt decision on the form of slot k % len(WITT_SLOTS).

    The library builds each form from the generated entries; the norm
    residue and rec slots also use the library's `residue_forms` and
    `reconstruction`, as the acceptance invariant suite does."""

    round = len(WITT_SLOTS)
    p50_group = 1

    def __init__(self, seed):
        from quatwitt import quadforms, scenarios, valuations

        self.quadforms = quadforms
        self.scenarios = scenarios
        self.valuations = valuations
        self.seed = seed
        self.rationals = scenarios.build_field({"kind": "rationals"})

    def _form(self, k):
        inp = witt_input(self.seed, k)
        sc, qf = self.scenarios, self.quadforms
        entries = {"entries": [str(e) for e in inp["entries"]]}
        if inp["slot"] == "fp":
            field = sc.build_field({"kind": "finite", "p": inp["p"]})
            return inp, sc.build_quad(entries, field)
        q = sc.build_quad(entries, self.rationals)
        if inp["slot"] == "norm_residue":
            return inp, qf.residue_forms(q, self.valuations.PAdicValuation(inp["p"])).second
        if inp["slot"] == "rec":
            rec = qf.reconstruction(q, self.valuations.PAdicValuation(inp["p"]))
            return inp, q.perp(rec.neg())
        return inp, q

    def first_ready(self):
        self._form(0)

    def run(self, k, tracer=None):
        if tracer is None:
            inp, q = self._form(k)
        else:
            inp, q = tracer.run("generate", self._form, k)
        t0 = time.perf_counter_ns()
        verdict = self.quadforms.witt_trivial(q, WITT_BUDGET)
        verify_ns = time.perf_counter_ns() - t0
        record = {
            "k": k,
            "slot": inp["slot"],
            "field": self.scenarios.field_descriptor(q.base),
            "form": self.scenarios.quad_descriptor(q),
            "verdict": verdict.state,
            "searched": verdict.searched,
        }
        return record, check_witt(inp, record["form"]["entries"], verdict.state), verify_ns

    @staticmethod
    def decided(record):
        return record["verdict"] != "indeterminate"

    @staticmethod
    def searched(record):
        return record["searched"]


def make(workload, seed):
    if workload == "witt":
        return WittMix(seed)
    return Battery(workload, seed)
