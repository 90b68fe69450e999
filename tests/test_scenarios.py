"""Scenario descriptors, deterministic instance generation, and the
single-instance batch worker."""

import functools
import gc
import hashlib
import json
import random
import sys
from collections import Counter
from fractions import Fraction

import pytest

from quatwitt import batteries, faults, hermitian, morita, quaternions, scenarios
from quatwitt.errors import ScenarioError
from quatwitt.fields import (
    ConicExtension,
    FiniteField,
    FunctionField,
    Rationals,
    _FieldBase,
)
from quatwitt.hermitian import SkewHermitianForm, common_integral_value
from quatwitt.quadforms import QuadraticForm, ResiduePair, Verdict
from quatwitt.quaternions import QuaternionAlgebra
from quatwitt.scenarios import (
    MAX_RANK,
    MAX_TRIALS,
    algebra_descriptor,
    build_algebra,
    build_field,
    build_form,
    build_quad,
    build_valuation,
    element_str,
    field_descriptor,
    form_descriptor,
    generate_instance,
    instance_descriptor,
    load_scenario,
    parse_element,
    parse_point,
    quad_descriptor,
    run_instance,
)
from quatwitt.valuations import GaussValuation, PAdicValuation


CONIC_SC = {
    "field": {"kind": "function", "base": {"kind": "rationals"}, "variable": "s"},
    "valuation": {"kind": "gauss", "inner": {"kind": "padic", "p": 3}},
    "generator": "conic",
    "seed": 42,
}

POINT_SC = {
    "field": {"kind": "rationals"},
    "valuation": {"kind": "padic", "p": 5},
    "generator": "point",
    "seed": 7,
}


# ---------------------------------------------------------------------------
# descriptor round-trips


def test_field_descriptors_round_trip(Q, K):
    for field in (Q, FiniteField(7), K, ConicExtension(Q, Q(2), Q(3))):
        assert build_field(field_descriptor(field)) == field


def test_valuation_descriptors_round_trip(Q, K, v3, g3):
    assert build_valuation(v3.descriptor(), Q) == v3
    assert build_valuation(g3.descriptor(), K) == g3


def test_element_expressions_round_trip(K):
    e = K("(s^2 - 2)/(3*s + 1)")
    assert parse_element(K, element_str(e)) == e


def test_algebra_descriptors_round_trip(K):
    alg = QuaternionAlgebra(K, K(-1), K("s"))
    built = build_algebra(algebra_descriptor(alg), K)
    assert built.d == alg.d and built.t == alg.t


def test_form_descriptors_round_trip_diagonal(K):
    alg = QuaternionAlgebra(K, K(-1), K("s"))
    h = SkewHermitianForm.diagonal(
        alg, [alg.el(0, 1, 2, 0), alg.el(0, 0, 1, -1)]
    )
    built = build_form(form_descriptor(h), alg)
    assert built.gram == h.gram


def test_form_descriptors_round_trip_gram(Q):
    alg = QuaternionAlgebra(Q, 2, 3)
    i_el = alg.el(0, 1, 0, 0)
    z = alg.el(0)
    h = SkewHermitianForm(alg, [[z, i_el], [i_el, z]])
    built = build_form(form_descriptor(h), alg)
    assert built.gram == h.gram


def test_quad_descriptors_round_trip(Q):
    q = QuadraticForm(Q, [Q(1), Q("4/5"), Q(-2)])
    assert build_quad(quad_descriptor(q), Q) == q


def test_point_parsing(Q):
    x0, y0 = parse_point(["3/5", "4/5"], Q)
    assert x0 == Q("3/5") and y0 == Q("4/5")
    with pytest.raises(ScenarioError):
        parse_point(["1"], Q)


def test_bad_descriptors_are_scenario_errors(Q):
    with pytest.raises(ScenarioError):
        build_field({"kind": "galaxy"})
    with pytest.raises(ScenarioError):
        build_field({"kind": "finite"})
    with pytest.raises(ScenarioError):
        build_valuation({"kind": "padic", "p": 3}, FiniteField(3))
    with pytest.raises(ScenarioError):
        build_algebra({"d": "2"}, Q)
    with pytest.raises(ScenarioError):
        parse_element(Q, "5x+")
    with pytest.raises(ScenarioError):
        build_form({"rows": []}, QuaternionAlgebra(Q, 2, 3))


# ---------------------------------------------------------------------------
# scenario loading


def test_load_scenario_accepts_dicts_and_files(tmp_path):
    assert load_scenario(CONIC_SC) is CONIC_SC
    path = tmp_path / "sc.json"
    path.write_text(json.dumps(POINT_SC))
    assert load_scenario(str(path)) == POINT_SC


def test_load_scenario_validates_shape(tmp_path):
    with pytest.raises(ScenarioError):
        load_scenario(dict(CONIC_SC, generator="spiral"))
    with pytest.raises(ScenarioError):
        load_scenario(dict(CONIC_SC, trials="10"))
    with pytest.raises(ScenarioError):
        load_scenario(dict(CONIC_SC, rank=0))
    with pytest.raises(ScenarioError):
        load_scenario(dict(CONIC_SC, algebra=[2, "s"]))
    with pytest.raises(ScenarioError, match="unknown scenario key 'trails'"):
        load_scenario(dict(CONIC_SC, trails=10))
    with pytest.raises(ScenarioError, match="unknown scenario key 'first'"):
        load_scenario(dict(CONIC_SC, first={"entries": ["1"]}))
    with pytest.raises(ScenarioError):
        load_scenario(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ScenarioError):
        load_scenario(str(bad))
    notobj = tmp_path / "arr.json"
    notobj.write_text("[1, 2]")
    with pytest.raises(ScenarioError):
        load_scenario(str(notobj))


def test_rank_and_trials_are_capped():
    assert load_scenario(dict(CONIC_SC, rank=MAX_RANK))["rank"] == MAX_RANK
    with pytest.raises(ScenarioError, match="'rank' must be at most"):
        load_scenario(dict(CONIC_SC, rank=MAX_RANK + 1))
    assert load_scenario(dict(CONIC_SC, trials=MAX_TRIALS))["trials"] == MAX_TRIALS
    with pytest.raises(ScenarioError, match="'trials' must be at most"):
        load_scenario(dict(CONIC_SC, trials=MAX_TRIALS + 1))


# ---------------------------------------------------------------------------
# instance generation


def test_ramification_report_is_computed_once_per_algebra(monkeypatch):
    computed = []
    fresh = quaternions._ramification.__wrapped__

    def counted(alg, v, fault_state):
        computed.append(alg)
        return fresh(alg, v, fault_state)

    memo = functools.lru_cache(maxsize=quaternions.MEMO_SIZE)(counted)
    monkeypatch.setattr(quaternions, "_ramification", memo)
    sc = batteries.conic_scenario(3, "-1")
    inst = generate_instance(sc, 0)
    rep = morita.verify_instance(inst.form, inst.valuation)
    # the generator's check of the pinned algebra computes the report and
    # the generation certificate looks it up; the verifier's certificate
    # is the form's stored one and asks for no report
    assert computed == [inst.algebra]
    assert rep.certified_diagonal
    assert memo.cache_info()[:2] == (1, 1)
    # a second instance of the same pinned battery reuses the generator,
    # so only its generation certificate looks the report up
    inst = generate_instance(sc, 1)
    morita.verify_instance(inst.form, inst.valuation)
    assert computed == [inst.algebra]
    assert memo.cache_info()[:2] == (2, 1)
    # more distinct algebras than the bound leave at most the bound cached
    Q = Rationals()
    v = PAdicValuation(3)
    algebras = [
        QuaternionAlgebra(Q, 2, t)
        for t in range(1, 4 * quaternions.MEMO_SIZE)
        if t % 3
    ][: quaternions.MEMO_SIZE + 8]
    for alg in algebras:
        quaternions.ramification(alg, v)
        morita.extend_valuation(v, alg)
    assert len(computed) == len(algebras) + 1
    for cached in (memo, morita.conic_field, morita.extend_valuation):
        assert cached.cache_info().maxsize == quaternions.MEMO_SIZE
        assert cached.cache_info().currsize <= quaternions.MEMO_SIZE


def test_conic_instances_are_deterministic():
    d1 = instance_descriptor(generate_instance(CONIC_SC, 0))
    d2 = instance_descriptor(generate_instance(CONIC_SC, 0))
    d3 = instance_descriptor(generate_instance(CONIC_SC, 1))
    assert d1 == d2
    assert d1 != d3


def test_point_instances_are_deterministic():
    p1 = instance_descriptor(generate_instance(POINT_SC, 0))
    p2 = instance_descriptor(generate_instance(POINT_SC, 0))
    p3 = instance_descriptor(generate_instance(POINT_SC, 1))
    assert p1 == p2
    assert p1 != p3
    assert "point" in p1


def test_conic_generator_needs_a_function_field():
    sc = dict(CONIC_SC, field={"kind": "rationals"})
    sc["valuation"] = {"kind": "padic", "p": 3}
    with pytest.raises(ScenarioError):
        generate_instance(sc, 0)


def test_point_generator_needs_the_rationals():
    sc = dict(POINT_SC, field=CONIC_SC["field"], valuation=CONIC_SC["valuation"])
    with pytest.raises(ScenarioError):
        generate_instance(sc, 0)


def test_pinned_algebra_parameters_must_be_units():
    sc = dict(CONIC_SC, algebra={"d": "3", "t": "s"})
    with pytest.raises(ScenarioError):
        generate_instance(sc, 0)


def test_pinned_algebra_must_have_division_residue():
    sc = dict(CONIC_SC, algebra={"d": "1", "t": "s"})
    with pytest.raises(ScenarioError):
        generate_instance(sc, 0)


def test_point_generator_refuses_a_pinned_algebra():
    sc = dict(POINT_SC, algebra={"d": "1", "t": "3"})
    with pytest.raises(ScenarioError, match="needs the conic generator"):
        generate_instance(sc, 0)


def test_pinned_algebra_and_rank_are_respected():
    sc = dict(CONIC_SC, algebra={"d": "2", "t": "s"}, rank=2)
    desc = instance_descriptor(generate_instance(sc, 5))
    assert desc["algebra"] == {"d": "2", "t": "s"}
    assert len(desc["form"]["diag"]) == 2


def test_generated_coordinates_stay_in_the_pool():
    for index in range(6):
        inst = generate_instance(POINT_SC, index)
        v = inst.valuation
        for u in inst.form.diagonal_entries():
            triple = [c for c in u.coeffs[1:] if not c.is_zero()]
            assert triple
            assert min(v.value(c) for c in triple) in (-1, 0, 1)


# ---------------------------------------------------------------------------
# the single-instance worker


def test_run_instance_produces_json_ready_records():
    rec = run_instance(CONIC_SC, 0)
    assert sorted(rec) == ["index", "instance", "report", "status"]
    assert rec["status"] == "ok"
    assert rec["report"]["verdict"] == "true"
    json.dumps(rec)


def test_run_instance_point_records_carry_the_point():
    rec = run_instance(POINT_SC, 0)
    assert rec["status"] == "ok"
    assert "point" in rec["instance"]
    json.dumps(rec)


def test_run_instance_clears_faults_even_on_errors():
    rec = run_instance(CONIC_SC, 3, fault_names=(faults.NEGATE_FAST_PATH,))
    assert rec["status"] == "error"
    assert faults.active_names() == ()


def test_run_instance_rejects_unknown_faults():
    with pytest.raises(ValueError):
        run_instance(CONIC_SC, 0, fault_names=("wrong-name",))
    assert faults.active_names() == ()


# ---------------------------------------------------------------------------
# pinned records

# sha256 of the JSON records of run_instance over the first instances of
# each battery at seed 42, clean and under each seeded fault; any change
# to the arithmetic that moves a rendered string or a verdict moves one
_BATTERY_SLICES = {
    **{f"division-{p}": (batteries.conic_scenario, (p, d), 6)
       for p, d in batteries.DIVISION_BATCHES},
    **{f"split-{p}": (batteries.point_scenario, (p,), 4) for p in batteries.SPLIT_PRIMES},
}
_RECORD_DIGESTS = {
    "division-13": {
        "clean": "64fbfe74042ae4d01989bd68bc7423618fad09db8f97e99911c6d8aaa5090004",
        "negate-fast-path": "64fbfe74042ae4d01989bd68bc7423618fad09db8f97e99911c6d8aaa5090004",
        "skip-even-scaling": "64fbfe74042ae4d01989bd68bc7423618fad09db8f97e99911c6d8aaa5090004",
        "drop-unit-rep": "43de96d0ad7d168fdcfd34354e142d94c6212b517b12efb992843f5b0a54c9c6",
    },
    "division-3": {
        "clean": "80087f6395e4482964d0357d41a242712a3f09497926647c932e21e32a7cdc80",
        "negate-fast-path": "6b7cc408001cec938c9e2c8830ba106ba083e919fca6ee66e87c2c2d6fd42c84",
        "skip-even-scaling": "80087f6395e4482964d0357d41a242712a3f09497926647c932e21e32a7cdc80",
        "drop-unit-rep": "7143dca9b29d88340a62bb17934db8623f9f6f483a099023233ae9f4b8f6fd9f",
    },
    "division-5": {
        "clean": "9f51dc58dc4293fe1170ed4ecf4fe8374620317e9bb78b05c45a7a97ed40b4bd",
        "negate-fast-path": "44b060ab6031f07c773ce20b829db3d0ca1240754ae6317a22c47fc2474712d9",
        "skip-even-scaling": "9f51dc58dc4293fe1170ed4ecf4fe8374620317e9bb78b05c45a7a97ed40b4bd",
        "drop-unit-rep": "6c6f53a73654af3f1b9d07663d5b07a5e450a1335a244b9726789cdcc2d6b7c6",
    },
    "division-7": {
        "clean": "0cf5738e7e395b1f365e4135f3cb46f14f9ee71328ffe516d3e59478546d2d94",
        "negate-fast-path": "91187ea61a6588d0a41cc68618116b09a3e2039a39d55139acbdcbd463a6328a",
        "skip-even-scaling": "0cf5738e7e395b1f365e4135f3cb46f14f9ee71328ffe516d3e59478546d2d94",
        "drop-unit-rep": "3df14ca130269fc9239a138c522f273318c1ee70f6f4f8af85bb8f000c275cb9",
    },
    "split-3": {
        "clean": "c2ab75b9f0bf26d58adab96f93051288d14d60096ca39d6c626ccf93e4b7b20d",
        "negate-fast-path": "c2ab75b9f0bf26d58adab96f93051288d14d60096ca39d6c626ccf93e4b7b20d",
        "skip-even-scaling": "ddd5dd49fdd9cdebd510eedfc2d20a9444f4a352aa3e72ab3d788015560369a0",
        "drop-unit-rep": "6504167b051c2356751fd5a507d02aa0451e2b8b9e5180d059ce44d37eb546e7",
    },
    "split-5": {
        "clean": "50165ffa64593a3662c39e4e25dcf3292b7ab8e9d33565c2e436c4cda8d434f5",
        "negate-fast-path": "50165ffa64593a3662c39e4e25dcf3292b7ab8e9d33565c2e436c4cda8d434f5",
        "skip-even-scaling": "a69ea5549d4c638990b2f1b2eaf8c55dd954060e51ee54d8e9b611676a4b2592",
        "drop-unit-rep": "33f878eac9251c938e1e6d1784b03917591a4b9cb4983c5cbe1a1611bac408d2",
    },
    "split-7": {
        "clean": "79f1412a8f8fef000d99f66fef63cd3b7a719e06f0a4b6627418a54ff6b5485a",
        "negate-fast-path": "79f1412a8f8fef000d99f66fef63cd3b7a719e06f0a4b6627418a54ff6b5485a",
        "skip-even-scaling": "6f343c5509dabd4e6d28f72b417cf5e5041d4001dba4b66f35be94cfcfce791f",
        "drop-unit-rep": "811387ca63768f69da7e336776de1559ebb723aa028c32c493a30d90770b1f45",
    },
}


@pytest.mark.parametrize("battery", sorted(_BATTERY_SLICES))
def test_battery_records_are_pinned(battery):
    build, args, count = _BATTERY_SLICES[battery]
    sc = build(*args, trials=count)
    got = {}
    for fault in (None,) + faults.FAULT_NAMES:
        records = [run_instance(sc, i, (fault,) if fault else ()) for i in range(count)]
        text = json.dumps(records, sort_keys=True)
        got[fault or "clean"] = hashlib.sha256(text.encode()).hexdigest()
    assert got == _RECORD_DIGESTS[battery]


# sha256 of the clean run_instance records of the first 30 instances of
# each split battery at seed 42, primes in SPLIT_PRIMES order; many of
# them reject attempts before keeping one, so a change that moves the
# generator's random stream moves this digest
_SPLIT_STREAM_DIGEST = "ad3628165aef00f771c80798b6dc8216e0cbb914578850c5913ce98b3233b3f0"


def test_split_records_over_30_instances_are_pinned():
    records = [
        run_instance(batteries.point_scenario(p, trials=30), i)
        for p in batteries.SPLIT_PRIMES
        for i in range(30)
    ]
    assert all(r["status"] == "ok" for r in records)
    text = json.dumps(records, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == _SPLIT_STREAM_DIGEST


# ---------------------------------------------------------------------------
# what the generator hands to the certificate


def _split_instances(count=4):
    for p in batteries.SPLIT_PRIMES:
        sc = batteries.point_scenario(p, trials=count)
        for i in range(count):
            assert run_instance(sc, i)["status"] == "ok"


def test_generation_certifies_only_entries_of_one_integral_value(monkeypatch):
    # an attempt whose entries share no integral extended value, or share
    # one of at least 1, is dropped on those values, before any form or
    # certificate is built; so every generation certificate certifies
    seen = []
    certify = scenarios.good_reduction_certificate

    def recording(h, v):
        cert = certify(h, v)
        seen.append(cert)
        return cert

    monkeypatch.setattr(scenarios, "good_reduction_certificate", recording)
    _split_instances(10)
    assert len(seen) == 30
    assert [c.extvals for c in seen if common_integral_value(c.extvals) is None] == []
    assert [c.extvals for c in seen if not c.certified] == []


def test_split_instances_coerce_no_coordinate_through_the_field(monkeypatch):
    # generated entries are wrapped from payloads, and the literals 0 and
    # 1 of zero(), one() and the basis wrap the field's shared payloads
    coerced = []
    call = _FieldBase.__call__
    coordinate = quaternions._coordinate.__code__

    def counting(self, x):
        if sys._getframe(1).f_code is coordinate:
            coerced.append(x)
        return call(self, x)

    monkeypatch.setattr(_FieldBase, "__call__", counting)
    _split_instances()
    assert coerced == []


def test_generator_draws_build_no_fraction(monkeypatch):
    # the point draw proposes its point as reduced pairs of ints
    gens = [scenarios.generator_setup(batteries.point_scenario(p)) for p in batteries.SPLIT_PRIMES]
    gens.append(scenarios.generator_setup(CONIC_SC))
    made = []
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
    for gen in gens:
        rng = random.Random(1)
        drawn = [gen.draw(rng) for _ in range(50)]
        assert any(d is not None for d in drawn)
    assert made == []


# ---------------------------------------------------------------------------
# one generator per scenario, one certificate per form


def test_generator_is_built_once_per_scenario_and_fault_state():
    sc = batteries.conic_scenario(3, "-1")
    gen = scenarios.generator_setup(sc)
    # seed, trials and the order of the keys are not part of the key
    other = batteries.conic_scenario(3, "-1", trials=5, seed=9)
    assert scenarios.generator_setup(dict(reversed(list(other.items())))) is gen
    with faults.injected(faults.DROP_UNIT_REP):
        faulted = scenarios.generator_setup(sc)
        assert faulted is not gen
        assert scenarios.generator_setup(sc) is faulted
    assert scenarios.generator_setup(sc) is gen
    assert scenarios._generator.cache_info().currsize == 2
    # the instances of a batch share the generator's valuation and algebra
    first, second = generate_instance(sc, 0), generate_instance(sc, 1)
    assert first.valuation is second.valuation is gen.valuation
    assert first.algebra is second.algebra


def test_a_bad_pinned_algebra_raises_on_every_call():
    sc = dict(CONIC_SC, algebra={"d": "1", "t": "s"})
    for _ in range(3):
        with pytest.raises(ScenarioError, match="division residue"):
            scenarios.generator_setup(sc)
    assert scenarios._generator.cache_info().currsize == 0
    with pytest.raises(ScenarioError, match="not JSON data"):
        scenarios.generator_setup(dict(CONIC_SC, algebra={"d": Fraction(2), "t": "s"}))


def _counting_certificates(monkeypatch):
    computed = []
    certify = hermitian._certify

    def counting(h, v):
        computed.append(h)
        return certify(h, v)

    monkeypatch.setattr(hermitian, "_certify", counting)
    return computed


def test_run_instance_computes_one_certificate(monkeypatch):
    # the verifier asks for the certificate the generator computed on the
    # same form, at the same valuation and under the same faults
    computed = _counting_certificates(monkeypatch)
    for sc in (batteries.conic_scenario(3, "-1"), batteries.point_scenario(5)):
        for i in range(4):
            computed.clear()
            assert run_instance(sc, i)["status"] == "ok"
            assert len(computed) == 1


def test_count_failures_recomputes_the_certificate_under_each_fault(monkeypatch):
    # a sweep generates clean, then verifies each instance clean, which
    # reuses the generation certificate, and under each fault, which
    # computes the certificate again
    computed = _counting_certificates(monkeypatch)
    sc = batteries.conic_scenario(3, "-1", trials=3)
    counts = batteries.count_failures(sc, batteries.division_ok, 3)
    assert counts[None] == 0
    per_form = Counter(id(h) for h in computed)
    assert sorted(per_form.values()) == [1 + len(batteries.FAULTS)] * 3


def test_a_stored_certificate_needs_the_same_valuation_and_faults(K, g3):
    alg = QuaternionAlgebra(K, -1, "s")
    h = SkewHermitianForm.diagonal(alg, [alg.i(), alg.j()])
    cert = hermitian.good_reduction_certificate(h, g3)
    assert cert.certified
    assert hermitian.good_reduction_certificate(h, g3) is cert
    # an equal valuation that is another object is not looked up
    equal_v = GaussValuation(PAdicValuation(3), K)
    again = hermitian.good_reduction_certificate(h, equal_v)
    assert again is not cert
    assert again == cert
    with faults.injected(faults.DROP_UNIT_REP):
        faulted = hermitian.good_reduction_certificate(h, equal_v)
        assert faulted is not again
        assert hermitian.good_reduction_certificate(h, equal_v) is faulted


@pytest.mark.parametrize(
    "record",
    [
        Verdict,
        ResiduePair,
        quaternions.RamificationReport,
        hermitian.GoodReductionCertificate,
        morita.VerificationReport,
        scenarios.Instance,
    ],
    ids=lambda cls: cls.__name__,
)
def test_records_are_immutable(record):
    # the ramification memo and a form's certificate slot hand out shared
    # records, so no holder may change one
    rec = record(*[None] * len(record._fields))
    for name in record._fields:
        with pytest.raises(AttributeError):
            setattr(rec, name, 0)
    assert Verdict("true").searched == 0
    assert str(Verdict("false")) == "false"


# ---------------------------------------------------------------------------
# what a batch instance leaves behind


def test_split_instances_compare_no_rationals_by_value(monkeypatch):
    # every field over Q shares one Rationals, so identity settles each
    # field comparison before __eq__
    calls = []
    eq = Rationals.__eq__

    def counting(self, other):
        calls.append(other)
        return eq(self, other)

    monkeypatch.setattr(Rationals, "__eq__", counting)
    _split_instances()
    assert calls == []


def test_battery_instances_leave_no_cyclic_garbage():
    # an element points back to its algebra, so anything kept on an
    # algebra would turn every drawn algebra into cyclic garbage, which
    # only the collector frees and which grows the peak memory of a batch
    scs = [batteries.conic_scenario(p, d, trials=3) for p, d in batteries.DIVISION_BATCHES]
    scs += [batteries.point_scenario(p, trials=3) for p in batteries.SPLIT_PRIMES]
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        for sc in scs:
            for i in range(3):
                run_instance(sc, i)
        found = gc.collect()
        garbage = [type(o).__name__ for o in gc.garbage]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    assert (found, garbage) == (0, [])
