"""Scenario files, element/form serialization, deterministic instance
generation, and the batch worker behind the command-line interface.

A scenario is a JSON object naming a field tower, a valuation, and the
inputs of one operation.  Element expressions are strings in the
package's expression syntax and round-trip through the field parsers.

Randomized batches draw diagonal skew-hermitian forms with good
reduction in one of two modes.  The conic generator draws (or pins) an
algebra over a function field whose residue algebra is division; its
forms are verified through the conic function field.  The point
generator draws an algebra over Q whose conic has a small point; its
forms are verified by specializing at that point.  `generator_setup`
builds a scenario's mode, once per fault state, and checks everything
that does not depend on the instance; `generate_instance` runs one
attempt loop for both modes.
Every instance derives from (seed, index) alone, so a batch is
reproducible and can be sharded across processes.
"""

from __future__ import annotations

import json
import random
from functools import lru_cache
from math import gcd
from typing import Callable, NamedTuple, Optional, Tuple

from . import faults
from .errors import QuatwittError, ScenarioError
from .fields import (
    ConicExtension,
    FieldElement,
    FiniteField,
    FunctionField,
    Rationals,
)
from .hermitian import (
    SkewHermitianForm,
    common_integral_value,
    good_reduction_certificate,
)
from .morita import VerificationReport, verify_instance
from .quadforms import QuadraticForm
from .quaternions import MEMO_SIZE, QuaternionAlgebra, _wrap, extval, ramification
from .valuations import (
    ConicValuation,
    GaussValuation,
    PAdicValuation,
)

GENERATOR_MODES = ("conic", "point")

# the keys a batch scenario may carry; load_scenario refuses any other,
# so a misspelled key is an input error rather than silently ignored
BATCH_KEYS = frozenset(
    ("field", "valuation", "generator", "algebra", "seed", "trials", "rank", "budget")
)

_COORD_BOUND = 9
_MAX_ATTEMPTS = 400

# input bounds: generation and verification cost grow with the rank, and
# a batch runs `trials` instances
MAX_RANK = 16
MAX_TRIALS = 100_000


# ---------------------------------------------------------------------------
# field and valuation descriptors


def build_field(desc):
    if not isinstance(desc, dict) or "kind" not in desc:
        raise ScenarioError("field descriptor needs a 'kind'")
    kind = desc["kind"]
    if kind == "rationals":
        return Rationals()
    if kind == "finite":
        if "p" not in desc:
            raise ScenarioError("finite field descriptor needs 'p'")
        try:
            return FiniteField(int(desc["p"]))
        except (QuatwittError, ValueError) as e:
            raise ScenarioError(str(e)) from e
    if kind == "function":
        base = build_field(desc.get("base", {"kind": "rationals"}))
        var = desc.get("variable", "s")
        try:
            return FunctionField(base, var)
        except (QuatwittError, ValueError) as e:
            raise ScenarioError(str(e)) from e
    if kind == "conic":
        base = build_field(desc.get("base", {"kind": "rationals"}))
        for key in ("d", "t"):
            if key not in desc:
                raise ScenarioError(f"conic field descriptor needs {key!r}")
        try:
            d = parse_element(base, desc["d"])
            t = parse_element(base, desc["t"])
            return ConicExtension(base, d, t)
        except (QuatwittError, ValueError) as e:
            raise ScenarioError(str(e)) from e
    raise ScenarioError(f"unknown field kind {kind!r}")


def field_descriptor(field) -> dict:
    if isinstance(field, Rationals):
        return {"kind": "rationals"}
    if isinstance(field, FiniteField):
        return {"kind": "finite", "p": field.p}
    if isinstance(field, FunctionField):
        return {
            "kind": "function",
            "base": field_descriptor(field.base),
            "variable": field.var,
        }
    if isinstance(field, ConicExtension):
        return {
            "kind": "conic",
            "base": field_descriptor(field.base),
            "d": element_str(field.base.el(field.d)),
            "t": element_str(field.base.el(field.t)),
        }
    raise ScenarioError(f"no descriptor for field {field!r}")


def build_valuation(desc, field):
    if not isinstance(desc, dict) or "kind" not in desc:
        raise ScenarioError("valuation descriptor needs a 'kind'")
    kind = desc["kind"]
    if kind == "padic":
        if not isinstance(field, Rationals):
            raise ScenarioError("a p-adic valuation lives on the rationals")
        if "p" not in desc:
            raise ScenarioError("p-adic descriptor needs 'p'")
        try:
            return PAdicValuation(int(desc["p"]))
        except (QuatwittError, ValueError) as e:
            raise ScenarioError(str(e)) from e
    if kind == "gauss":
        if not isinstance(field, FunctionField):
            raise ScenarioError("a Gauss valuation lives on a function field")
        inner = build_valuation(desc.get("inner", {}), field.base)
        try:
            return GaussValuation(inner, field)
        except (QuatwittError, ValueError) as e:
            raise ScenarioError(str(e)) from e
    if kind == "conic-half-norm":
        if not isinstance(field, ConicExtension):
            raise ScenarioError("a conic valuation lives on a conic extension")
        inner_val = build_valuation(desc.get("inner", {}), field.base)
        try:
            gauss = GaussValuation(inner_val, field.inner)
            return ConicValuation(gauss, field)
        except (QuatwittError, ValueError) as e:
            raise ScenarioError(str(e)) from e
    raise ScenarioError(f"unknown valuation kind {kind!r}")


# ---------------------------------------------------------------------------
# elements, forms, algebras


def parse_element(field, text) -> FieldElement:
    if isinstance(text, (int,)):
        return field(text)
    if not isinstance(text, str):
        raise ScenarioError(f"element expression must be a string, got {text!r}")
    try:
        return field(text)
    except (QuatwittError, ValueError) as e:
        raise ScenarioError(f"bad element expression {text!r}: {e}") from e


def element_str(el: FieldElement) -> str:
    return repr(el)


def build_algebra(desc, field) -> QuaternionAlgebra:
    if not isinstance(desc, dict):
        raise ScenarioError("algebra descriptor must be an object")
    for key in ("d", "t"):
        if key not in desc:
            raise ScenarioError(f"algebra descriptor needs {key!r}")
    try:
        return QuaternionAlgebra(
            field, parse_element(field, desc["d"]), parse_element(field, desc["t"])
        )
    except (QuatwittError, ValueError) as e:
        raise ScenarioError(str(e)) from e


def algebra_descriptor(alg: QuaternionAlgebra) -> dict:
    return {"d": element_str(alg.d), "t": element_str(alg.t)}


def _quaternion_from_dict(alg, entry) -> "object":
    if not isinstance(entry, dict):
        raise ScenarioError("quaternion entry must be an object of coordinates")
    coords = []
    for key in ("w", "a", "b", "c"):
        coords.append(parse_element(alg.base, entry.get(key, "0")))
    return alg.from_coeffs(coords)


def quaternion_descriptor(u) -> dict:
    w, a, b, c = u.coeffs
    out = {}
    for key, coord in (("w", w), ("a", a), ("b", b), ("c", c)):
        if not coord.is_zero():
            out[key] = element_str(coord)
    return out


def build_form(desc, alg) -> SkewHermitianForm:
    if not isinstance(desc, dict):
        raise ScenarioError("form descriptor must be an object")
    try:
        if "diag" in desc:
            entries = [_quaternion_from_dict(alg, e) for e in desc["diag"]]
            return SkewHermitianForm.diagonal(alg, entries)
        if "gram" in desc:
            gram = [
                [_quaternion_from_dict(alg, e) for e in row] for row in desc["gram"]
            ]
            return SkewHermitianForm(alg, gram)
    except (QuatwittError, ValueError) as e:
        raise ScenarioError(str(e)) from e
    raise ScenarioError("form descriptor needs 'diag' or 'gram'")


def form_descriptor(h: SkewHermitianForm) -> dict:
    if h.is_diagonal():
        return {"diag": [quaternion_descriptor(u) for u in h.diagonal_entries()]}
    return {"gram": [[quaternion_descriptor(u) for u in row] for row in h.gram]}


def build_quad(desc, field) -> QuadraticForm:
    if not isinstance(desc, dict) or "entries" not in desc:
        raise ScenarioError("quadratic form descriptor needs 'entries'")
    try:
        return QuadraticForm(
            field, [parse_element(field, e) for e in desc["entries"]]
        )
    except (QuatwittError, ValueError) as e:
        raise ScenarioError(str(e)) from e


def quad_descriptor(q: QuadraticForm) -> dict:
    return {"entries": [element_str(u) for u in q.entries]}


def parse_point(desc, field):
    if not isinstance(desc, (list, tuple)) or len(desc) != 2:
        raise ScenarioError("point must be a pair [x0, y0]")
    return parse_element(field, desc[0]), parse_element(field, desc[1])


# ---------------------------------------------------------------------------
# scenario loading


def load_scenario(source, keys=BATCH_KEYS) -> dict:
    """A scenario dict, or the JSON object in the file named by source,
    checked for shape; a key outside `keys` is refused."""
    if isinstance(source, dict):
        sc = source
    else:
        try:
            with open(source, "r", encoding="utf-8") as fp:
                sc = json.load(fp)
        except OSError as e:
            raise ScenarioError(f"cannot read scenario: {e}") from e
        except json.JSONDecodeError as e:
            raise ScenarioError(f"scenario is not valid JSON: {e}") from e
    if not isinstance(sc, dict):
        raise ScenarioError("scenario must be a JSON object")
    unknown = sorted(set(sc) - keys)
    if unknown:
        expected = ", ".join(sorted(keys))
        raise ScenarioError(f"unknown scenario key {unknown[0]!r}; expected some of {expected}")
    if "generator" in sc and sc["generator"] not in GENERATOR_MODES:
        raise ScenarioError(
            f"generator must be one of {GENERATOR_MODES}, got {sc['generator']!r}"
        )
    if "seed" in sc and not _is_int(sc["seed"]):
        raise ScenarioError("'seed' must be an integer")
    if "trials" in sc:
        check_trials(sc["trials"])
    if "budget" in sc:
        check_budget(sc["budget"])
    if "rank" in sc:
        if not _is_int(sc["rank"]) or sc["rank"] < 1:
            raise ScenarioError("'rank' must be a positive integer")
        if sc["rank"] > MAX_RANK:
            raise ScenarioError(f"'rank' must be at most {MAX_RANK}")
    if "algebra" in sc and not isinstance(sc["algebra"], dict):
        raise ScenarioError("'algebra' must be an object with 'd' and 't'")
    return sc


def _is_int(x) -> bool:
    # a JSON true or false is an int to isinstance
    return isinstance(x, int) and not isinstance(x, bool)


def check_trials(trials) -> None:
    if not _is_int(trials) or trials < 0:
        raise ScenarioError("'trials' must be a non-negative integer")
    if trials > MAX_TRIALS:
        raise ScenarioError(f"'trials' must be at most {MAX_TRIALS}")


def check_budget(budget) -> None:
    """A search budget, from a scenario or the command line; 0 allows no
    search step."""
    if not _is_int(budget) or budget < 0:
        raise ScenarioError("'budget' must be a non-negative integer")


def check_jobs(jobs) -> None:
    if not _is_int(jobs) or jobs < 1:
        raise ScenarioError("'jobs' must be a positive integer")


def scenario_field(sc):
    if "field" not in sc:
        raise ScenarioError("scenario needs a 'field'")
    return build_field(sc["field"])


def scenario_valuation(sc, field):
    if "valuation" not in sc:
        raise ScenarioError("scenario needs a 'valuation'")
    return build_valuation(sc["valuation"], field)


# ---------------------------------------------------------------------------
# deterministic instance generation


class Instance(NamedTuple):
    field: object
    valuation: object
    algebra: QuaternionAlgebra
    form: SkewHermitianForm
    point: Optional[Tuple[FieldElement, FieldElement]]
    meta: dict


class Generator(NamedTuple):
    """What every instance of a scenario is drawn from.

    `draw(rng)` proposes (algebra, point), with point None in conic mode,
    or returns None to reject the attempt; `spice`, if any, multiplies
    each drawn coordinate by the payload of a random field element."""

    mode: str
    field: object
    valuation: object
    draw: Callable
    spice: Optional[Callable]


# the scenario keys a generator is built from
GENERATOR_KEYS = ("field", "valuation", "generator", "algebra")


def generator_setup(sc: dict) -> Generator:
    """A scenario's generator, built once per scenario and fault state.

    Building it checks every precondition that does not depend on the
    instance index: the generator matches the field, only the conic
    generator takes a pinned algebra, and a pinned algebra has unit
    parameters, is unramified and has a division residue algebra.

    The memo key is the canonical JSON of the scenario's
    `GENERATOR_KEYS` and the active faults, which the pinned check
    reads; the draws read the faults when they run.  The generator is
    built from that JSON alone, so nothing outside the key can reach it.
    A `ScenarioError` is not memoized, so a bad scenario raises on every
    call: each instance of a batch asks for the generator under its own
    faults, and `verify-theorem` also asks once before the batch, so a
    bad scenario is one input error rather than an error record per
    instance."""
    try:
        key = json.dumps(
            {k: sc[k] for k in GENERATOR_KEYS if k in sc},
            sort_keys=True,
            separators=(",", ":"),
        )
    except (TypeError, ValueError) as e:
        raise ScenarioError(f"scenario is not JSON data: {e}") from e
    return _generator(key, faults.active_names())


@lru_cache(maxsize=MEMO_SIZE)
def _generator(key: str, fault_state) -> Generator:
    sc = json.loads(key)
    field = scenario_field(sc)
    v = scenario_valuation(sc, field)
    if sc.get("generator", "conic") == "conic":
        return _conic_setup(sc, field, v)
    return _point_setup(sc, field, v)


def _conic_setup(sc, field, v) -> Generator:
    """Algebras (d, t) over a function field with v-unit parameters and a
    division residue algebra: the scenario's pinned algebra, or d a small
    integer and t linear in the variable s; each coordinate is multiplied
    by 1, s or s + 1."""
    if not isinstance(field, FunctionField):
        raise ScenarioError(
            "the conic generator draws algebras over a function field"
        )
    gen = field.gen()

    def division_residue(alg):
        report = ramification(alg, v)
        return not (report.ramified or report.split_over_residue)

    if sc.get("algebra") is not None:
        pinned = build_algebra(sc["algebra"], field)
        if v.value(pinned.d) != 0 or v.value(pinned.t) != 0:
            raise ScenarioError("pinned algebra parameters must be units")
        if not division_residue(pinned):
            raise ScenarioError(
                "pinned algebra must be unramified with division residue"
            )

        def draw(rng):
            return pinned, None

    else:

        def draw(rng):
            d = field(rng.choice((-1, 2, -2, 3, -3, 5, -5)))
            if v.value(d) != 0:
                return None
            t = gen * rng.choice((1, 1, 1, 2)) + rng.randint(-4, 4)
            if v.value(t) != 0:
                return None
            alg = QuaternionAlgebra(field, d, t)
            return (alg, None) if division_residue(alg) else None

    one, s, s1 = field.one(), gen.value, (gen + 1).value

    def spice(rng):
        return rng.choice((one, one, one, s, s1))

    return Generator("conic", field, v, draw, spice)


def _point_setup(sc, field, v) -> Generator:
    """Algebras (d, t) over Q with unit parameters, t chosen so that the
    conic d*x^2 + t*y^2 = 1 passes through a small point (x0, y0); each
    instance draws its own, so a pinned algebra is refused.  The draw
    runs on payloads and wraps only the algebra and point it proposes."""
    if not isinstance(field, Rationals):
        raise ScenarioError("the point generator draws algebras over the rationals")
    if sc.get("algebra") is not None:
        raise ScenarioError(
            "the point generator draws its own algebras; "
            "a pinned 'algebra' needs the conic generator"
        )

    def small_fraction(rng, nonzero):
        # the payload of num/den: the reduced pair, denominator positive
        for _ in range(40):
            num = rng.randint(-_COORD_BOUND, _COORD_BOUND)
            den = rng.randint(1, 5)
            if den % v.p == 0:
                continue
            if nonzero and num == 0:
                continue
            g = gcd(num, den)
            return num // g, den // g
        return field.one()

    mul, iz = field.mul, field.is_zero

    def draw(rng):
        d = field.from_int(rng.randint(-_COORD_BOUND, _COORD_BOUND))
        if iz(d) or v._value(d) != 0:
            return None
        x0 = small_fraction(rng, False)
        y0 = small_fraction(rng, True)
        t = field.div(field.sub(field.one(), mul(mul(d, x0), x0)), mul(y0, y0))
        if iz(t) or v._value(t) != 0:
            return None
        alg = QuaternionAlgebra(field, field.el(d), field.el(t))
        return alg, (field.el(x0), field.el(y0))

    return Generator("point", field, v, draw, None)


def _draw_coords(rng, v, base, spice):
    """The payloads of a nonzero coordinate triple from [-9, 9] with a
    unit entry."""
    mul, iz = base.mul, base.is_zero
    while True:
        a, b, c = (
            rng.randint(-_COORD_BOUND, _COORD_BOUND) for _ in range(3)
        )
        if a == 0 and b == 0 and c == 0:
            continue
        coords = [base.from_int(x) for x in (a, b, c)]
        if spice is not None:
            coords = [mul(x, spice(rng)) for x in coords]
        if min(v._value(x) for x in coords if not iz(x)) == 0:
            return coords


def _draw_entries(rng, gen: Generator, alg, point, n):
    """n pure quaternions of nonzero reduced norm, each from at most 60
    coordinate draws; with a point, the specialization a*y0 - b*x0 - c at
    it must not vanish either.  None if some entry runs out of draws.
    The draws run on payloads; a candidate is wrapped for its reduced
    norm, which stays memoized on the entries kept."""
    base = gen.field
    zero = base.zero()
    mul, sub = base.mul, base.sub
    entries = []
    for _l in range(n):
        for _draw in range(60):
            a, b, c = _draw_coords(rng, gen.valuation, base, gen.spice)
            if point is not None and base.is_zero(
                sub(sub(mul(a, point[1].value), mul(b, point[0].value)), c)
            ):
                continue
            u = _wrap(alg, zero, a, b, c)
            if u.nrd().is_zero():
                continue
            entries.append(u)
            break
        else:
            return None
    return entries


def generate_instance(sc: dict, index: int) -> Instance:
    """The index-th instance of a randomized batch; depends only on
    (seed, index) so batches shard deterministically.

    Each attempt draws an algebra (and a point), `rank` entries (or a
    random rank from 1 to 3) and a twist by the uniformizer power
    m in {-1, 0, 1}, then tests in this order: the extended values of
    the untwisted entries, then the twisted diagonal form, then its
    certificate.  A central twist moves every extended value by m, so
    the certificate's value test (`common_integral_value`) gives the same
    answer on the untwisted entries; an attempt whose entries share no
    integral value, or share one of at least 1, is dropped before any
    form is built.  Only a form that certifies good reduction is kept."""
    gen = generator_setup(sc)
    rng = random.Random(f"{sc.get('seed', 0)}:{index}")
    v = gen.valuation
    for _attempt in range(_MAX_ATTEMPTS):
        drawn = gen.draw(rng)
        if drawn is None:
            continue
        alg, point = drawn
        n = sc.get("rank") or rng.randint(1, 3)
        entries = _draw_entries(rng, gen, alg, point, n)
        if entries is None:
            continue
        m = rng.choice((-1, 0, 1))
        # drawn coordinates have minimum value 0, so a common value e >= 1
        # would leave a coordinate of value -e once the certificate scales
        # the twisted entries by pi^(-e - m): that form cannot certify
        e = common_integral_value([extval(v, u) for u in entries])
        if e is None or e >= 1:
            continue
        twist = v.uniformizer**m
        h = SkewHermitianForm.diagonal(alg, [u * twist for u in entries])
        if not good_reduction_certificate(h, v).certified:
            continue
        return Instance(
            field=gen.field,
            valuation=v,
            algebra=alg,
            form=h,
            point=point,
            meta={"index": index, "mode": gen.mode, "twist": m},
        )
    raise ScenarioError(f"no certified instance found for index {index}")


def instance_descriptor(inst: Instance) -> dict:
    out = {
        "field": field_descriptor(inst.field),
        "valuation": inst.valuation.descriptor(),
        "algebra": algebra_descriptor(inst.algebra),
        "form": form_descriptor(inst.form),
    }
    if inst.point is not None:
        out["point"] = [element_str(inst.point[0]), element_str(inst.point[1])]
    out.update(inst.meta)
    return out


# ---------------------------------------------------------------------------
# report serialization


def report_to_dict(rep: VerificationReport) -> dict:
    entries = []
    for u, mv in zip(rep.certified_diagonal, rep.entry_min_values):
        _w, a, b, c = u.coeffs
        entries.append(
            {
                "a": element_str(a),
                "b": element_str(b),
                "c": element_str(c),
                "nrd": element_str(u.nrd()),
                "min_coeff_value": mv,
            }
        )
    out = {
        "algebra": algebra_descriptor(rep.algebra),
        "scaling": rep.scaling,
        "extvals": [str(e) for e in rep.extvals],
        "route": rep.route,
        "entries": entries,
        "quad_entries": [
            {"expr": element_str(u), "value": val}
            for u, val in zip(rep.quad.entries, rep.quad_values)
        ],
        "second_residue": [element_str(u) for u in rep.second_residue.entries],
        "residue_division": rep.residue_division,
        "verdict": rep.verdict.state,
        "searched": rep.verdict.searched,
    }
    if rep.point is not None:
        out["point"] = [element_str(rep.point[0]), element_str(rep.point[1])]
    return out


# ---------------------------------------------------------------------------
# batch worker


def verify_generated(inst: Instance, budget) -> VerificationReport:
    """Verify a generated instance by its generator's route: through the
    conic, or at the drawn point.  A budget of None keeps the verifier's
    default."""
    kwargs = {"route": "conic"} if inst.point is None else {"route": "point", "point": inst.point}
    if budget is not None:
        kwargs["budget"] = budget
    return verify_instance(inst.form, inst.valuation, **kwargs)


def run_instance(sc: dict, index: int, fault_names=(), budget=None) -> dict:
    """Generate and verify one batch instance; returns a JSON-ready record.

    Re-derives everything from (scenario, index) so it can run in a
    worker process; fault names travel in the payload because fault
    state is per-process.
    """
    faults.clear()
    try:
        for name in fault_names:
            faults.activate(name)
        inst = generate_instance(sc, index)
        rep = verify_generated(inst, budget)
        return {
            "index": index,
            "status": "ok",
            "instance": instance_descriptor(inst),
            "report": report_to_dict(rep),
        }
    except QuatwittError as e:
        return {
            "index": index,
            "status": "error",
            "error": type(e).__name__,
            "message": str(e),
        }
    finally:
        faults.clear()
