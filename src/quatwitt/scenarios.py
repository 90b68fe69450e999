"""Scenario files, element/form serialization, deterministic instance
generation, and the batch worker behind the command-line interface.

A scenario is a JSON object naming a field tower, a valuation, and the
inputs of one operation.  Element expressions are strings in the
package's expression syntax and round-trip through the field parsers.
Randomized batches derive every instance from (seed, index) alone, so a
batch is reproducible and can be sharded across processes.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Tuple

from . import faults
from .errors import QuatwittError, ScenarioError
from .fields import (
    ConicExtension,
    FieldElement,
    FiniteField,
    FunctionField,
    Rationals,
)
from .hermitian import SkewHermitianForm, good_reduction_certificate
from .morita import VerificationReport, verify_instance
from .quadforms import QuadraticForm
from .quaternions import QuaternionAlgebra, ramification
from .valuations import (
    ConicValuation,
    GaussValuation,
    PAdicValuation,
)

GENERATOR_MODES = ("conic", "point")

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


def load_scenario(source) -> dict:
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
    if "generator" in sc and sc["generator"] not in GENERATOR_MODES:
        raise ScenarioError(
            f"generator must be one of {GENERATOR_MODES}, got {sc['generator']!r}"
        )
    for key in ("trials", "seed", "budget"):
        if key in sc and not isinstance(sc[key], int):
            raise ScenarioError(f"{key!r} must be an integer")
    if "trials" in sc:
        check_trials(sc["trials"])
    if "rank" in sc:
        if not isinstance(sc["rank"], int) or sc["rank"] < 1:
            raise ScenarioError("'rank' must be a positive integer")
        if sc["rank"] > MAX_RANK:
            raise ScenarioError(f"'rank' must be at most {MAX_RANK}")
    if "algebra" in sc and not isinstance(sc["algebra"], dict):
        raise ScenarioError("'algebra' must be an object with 'd' and 't'")
    return sc


def check_trials(trials: int) -> None:
    if trials > MAX_TRIALS:
        raise ScenarioError(f"'trials' must be at most {MAX_TRIALS}")


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


@dataclass(frozen=True)
class Instance:
    field: object
    valuation: object
    algebra: QuaternionAlgebra
    form: SkewHermitianForm
    point: Optional[Tuple[FieldElement, FieldElement]]
    meta: dict


def _draw_coords(rng, v, base, spice=None):
    """A nonzero coordinate triple from [-9, 9] with a unit entry."""
    while True:
        a, b, c = (
            rng.randint(-_COORD_BOUND, _COORD_BOUND) for _ in range(3)
        )
        if a == 0 and b == 0 and c == 0:
            continue
        coords = [base(x) for x in (a, b, c)]
        if spice is not None:
            coords = [x * spice(rng) for x in coords]
        if min(v.value(x) for x in coords if not x.is_zero()) == 0:
            return coords


def _twist(rng) -> int:
    return rng.choice((-1, 0, 1))


def generate_instance(sc: dict, index: int) -> Instance:
    """The index-th instance of a randomized batch; depends only on
    (seed, index) so batches shard deterministically."""
    mode = sc.get("generator", "conic")
    seed = sc.get("seed", 0)
    rng = random.Random(f"{seed}:{index}")
    if mode == "conic":
        return _generate_conic(sc, rng, index)
    return _generate_point(sc, rng, index)


def pinned_algebra(sc, field, v) -> Optional[QuaternionAlgebra]:
    """The conic generator's pinned algebra, or None; its parameters
    must be v-units."""
    desc = sc.get("algebra")
    if desc is None:
        return None
    alg = build_algebra(desc, field)
    if v.value(alg.d) != 0 or v.value(alg.t) != 0:
        raise ScenarioError("pinned algebra parameters must be units")
    return alg


def check_batch(sc: dict) -> None:
    """Build once what every instance of a batch builds from the scenario
    alone (field, valuation, pinned algebra), so that a bad entry is an
    input error rather than one error record per instance."""
    field = scenario_field(sc)
    v = scenario_valuation(sc, field)
    if sc.get("generator", "conic") == "conic" and isinstance(field, FunctionField):
        pinned_algebra(sc, field, v)


def _generate_conic(sc, rng, index) -> Instance:
    field = scenario_field(sc)
    v = scenario_valuation(sc, field)
    if not isinstance(field, FunctionField):
        raise ScenarioError(
            "the conic generator draws algebras over a function field"
        )
    gen = field.gen()

    def spice(r):
        return r.choice((field(1), field(1), field(1), gen, gen + 1))

    pinned = pinned_algebra(sc, field, v)
    for _attempt in range(_MAX_ATTEMPTS):
        if pinned is not None:
            alg = pinned
        else:
            d = field(rng.choice((-1, 2, -2, 3, -3, 5, -5)))
            if v.value(d) != 0:
                continue
            t = gen * rng.choice((1, 1, 1, 2)) + rng.randint(-4, 4)
            if v.value(t) != 0:
                continue
            alg = QuaternionAlgebra(field, d, t)
        report = ramification(alg, v)
        if report.ramified or report.split_over_residue:
            if pinned is not None:
                raise ScenarioError(
                    "pinned algebra must be unramified with division residue"
                )
            continue
        n = sc.get("rank") or rng.randint(1, 3)
        entries = []
        ok = True
        for _l in range(n):
            for _draw in range(60):
                a, b, c = _draw_coords(rng, v, field, spice)
                u = alg.el(0, a, b, c)
                if not u.nrd().is_zero():
                    entries.append(u)
                    break
            else:
                ok = False
                break
        if not ok:
            continue
        m = _twist(rng)
        pi = v.uniformizer
        twisted = [u * pi**m for u in entries]
        h = SkewHermitianForm.diagonal(alg, twisted)
        cert = good_reduction_certificate(h, v)
        if not cert.certified:
            continue
        return Instance(
            field=field,
            valuation=v,
            algebra=alg,
            form=h,
            point=None,
            meta={"index": index, "mode": "conic", "twist": m},
        )
    raise ScenarioError(f"no certified instance found for index {index}")


def _generate_point(sc, rng, index) -> Instance:
    field = scenario_field(sc)
    v = scenario_valuation(sc, field)
    if not isinstance(field, Rationals):
        raise ScenarioError("the point generator draws algebras over the rationals")
    p = v.p

    def small_fraction(nonzero=False):
        for _ in range(40):
            num = rng.randint(-_COORD_BOUND, _COORD_BOUND)
            den = rng.randint(1, 5)
            if den % p == 0:
                continue
            if nonzero and num == 0:
                continue
            return Fraction(num, den)
        return Fraction(1)

    for _attempt in range(_MAX_ATTEMPTS):
        d = field(rng.randint(-_COORD_BOUND, _COORD_BOUND))
        if d.is_zero() or v.value(d) != 0:
            continue
        x0 = field(small_fraction())
        y0 = field(small_fraction(nonzero=True))
        t = (field(1) - d * x0 * x0) / (y0 * y0)
        if t.is_zero() or v.value(t) != 0:
            continue
        alg = QuaternionAlgebra(field, d, t)
        n = sc.get("rank") or rng.randint(1, 3)
        entries = []
        ok = True
        for _l in range(n):
            for _draw in range(60):
                a, b, c = _draw_coords(rng, v, field)
                u = alg.el(0, a, b, c)
                if u.nrd().is_zero():
                    continue
                # the specialization at the chosen point must not vanish
                if (a * y0 - b * x0 - c).is_zero():
                    continue
                entries.append(u)
                break
            else:
                ok = False
                break
        if not ok:
            continue
        m = _twist(rng)
        pi = v.uniformizer
        twisted = [u * pi**m for u in entries]
        h = SkewHermitianForm.diagonal(alg, twisted)
        cert = good_reduction_certificate(h, v)
        if not cert.certified:
            continue
        return Instance(
            field=field,
            valuation=v,
            algebra=alg,
            form=h,
            point=(x0, y0),
            meta={"index": index, "mode": "point", "twist": m},
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
        route = "point" if inst.point is not None else "conic"
        kwargs = {"route": route}
        if inst.point is not None:
            kwargs["point"] = inst.point
        if budget is not None:
            kwargs["budget"] = budget
        rep = verify_instance(inst.form, inst.valuation, **kwargs)
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
