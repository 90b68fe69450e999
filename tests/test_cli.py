"""Command line interface: subcommands, exit codes, canonical output."""

import hashlib
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from quatwitt import cli, faults, scenarios
from quatwitt.cli import (
    EXIT_INDETERMINATE,
    EXIT_INPUT,
    EXIT_OK,
    EXIT_VIOLATION,
    SCENARIO_KEYS,
    main,
    run_batch,
)
from quatwitt.fields import MAX_NESTING, MAX_PRIME
from quatwitt.scenarios import MAX_TOWER_DEPTH, load_scenario


def write_scenario(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture()
def alg23_path(tmp_path):
    return write_scenario(
        tmp_path,
        "alg23.json",
        {
            "field": {"kind": "rationals"},
            "valuation": {"kind": "padic", "p": 3},
            "algebra": {"d": "2", "t": "3"},
        },
    )


@pytest.fixture()
def algm1s_path(tmp_path):
    return write_scenario(
        tmp_path,
        "algm1s.json",
        {
            "field": {
                "kind": "function",
                "base": {"kind": "rationals"},
                "variable": "s",
            },
            "valuation": {"kind": "gauss", "inner": {"kind": "padic", "p": 3}},
            "algebra": {"d": "-1", "t": "s"},
        },
    )


@pytest.fixture()
def batch_path(tmp_path):
    return write_scenario(
        tmp_path,
        "batch.json",
        {
            "field": {
                "kind": "function",
                "base": {"kind": "rationals"},
                "variable": "s",
            },
            "valuation": {"kind": "gauss", "inner": {"kind": "padic", "p": 3}},
            "generator": "conic",
            "seed": 42,
            "trials": 10,
        },
    )


# ---------------------------------------------------------------------------
# single-shot subcommands


def test_module_entry_point(alg23_path):
    src = Path(cli.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-m", "quatwitt", "residue", "--scenario", alg23_path],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(src)),
    )
    assert proc.returncode == EXIT_OK
    assert proc.stdout == "Ramified; tame residue class 2\n"


def test_residue_human_summary(algm1s_path, capsys):
    assert main(["residue", "--scenario", algm1s_path]) == EXIT_OK
    out = capsys.readouterr().out
    assert out == (
        "Unramified; residue (2, s) over FunctionField(FiniteField(3), 's'); "
        "residue algebra division\n"
    )


def test_residue_json_document(algm1s_path, capsys):
    assert main(["residue", "--scenario", algm1s_path, "--json"]) == EXIT_OK
    out = capsys.readouterr().out
    assert out == (
        '{"ramified":false,"residue_params":["2","s"],'
        '"split_over_residue":false,"tame_class":"1","unit_rep":["-1","s"]}\n'
    )


def test_certify_reports_the_scaling(tmp_path, capsys):
    sc = write_scenario(
        tmp_path,
        "cert.json",
        {
            "field": {
                "kind": "function",
                "base": {"kind": "rationals"},
                "variable": "s",
            },
            "valuation": {"kind": "gauss", "inner": {"kind": "padic", "p": 3}},
            "algebra": {"d": "-1", "t": "s"},
            "form": {"diag": [{"a": "3"}, {"b": "3"}]},
        },
    )
    assert main(["certify", "--scenario", sc]) == EXIT_OK
    assert capsys.readouterr().out == "Certified; scaling exponent -1\n"
    assert main(["certify", "--scenario", sc, "--json"]) == EXIT_OK
    assert capsys.readouterr().out == (
        '{"diagonal":[{"a":"3"},{"b":"3"}],"extvals":["1","1"],'
        '"scaled_diagonal":[{"a":"1"},{"b":"1"}],"scaling":-1,'
        '"status":"certified"}\n'
    )


def test_reduce_prints_the_quadratic_form(tmp_path, capsys):
    sc = write_scenario(
        tmp_path,
        "red.json",
        {
            "field": {"kind": "rationals"},
            "algebra": {"d": "2", "t": "3"},
            "form": {"diag": [{"a": "1"}]},
        },
    )
    assert main(["reduce", "--scenario", sc]) == EXIT_OK
    assert capsys.readouterr().out == "<y, ((3)/(x^2 - 1/2))*y>\n"


def test_split_reduce_specializes_at_the_point(tmp_path, capsys):
    sc = write_scenario(
        tmp_path,
        "split.json",
        {
            "field": {"kind": "rationals"},
            "algebra": {"d": "1", "t": "1"},
            "form": {"diag": [{"a": "1"}]},
            "point": ["3/5", "4/5"],
        },
    )
    assert main(["split-reduce", "--scenario", sc]) == EXIT_OK
    assert capsys.readouterr().out == "<4/5, -5/4>\n"


def _gram_scenario(tmp_path, point):
    return write_scenario(
        tmp_path,
        "gram.json",
        {
            "field": {"kind": "rationals"},
            "valuation": {"kind": "padic", "p": 5},
            "algebra": {"d": "1", "t": "1"},
            "form": {"gram": [[{"a": "1"}, {"w": "1"}], [{"w": "-1"}, {"b": "1"}]]},
            "point": point,
        },
    )


@pytest.mark.parametrize(
    "command, point, code, out, err",
    [
        ("certify", ["3/5", "4/5"], EXIT_OK, "Certified; scaling exponent 0\n", ""),
        (
            "reduce",
            ["3/5", "4/5"],
            EXIT_OK,
            "<y, ((1)/(x^2 - 1))*y, y - x, ((1)/(x^2 - 1/2))*y + ((x)/(x^2 - 1/2))>\n",
            "",
        ),
        ("split-reduce", ["3/5", "4/5"], EXIT_OK, "<4/5, -5/4, 1/5, -10>\n", ""),
        ("split-reduce", ["1", "0"], EXIT_INPUT, "", "error: DegenerateSpecialization"),
    ],
    ids=["certify", "reduce", "split-reduce", "split-reduce-degenerate"],
)
def test_form_subcommands_take_a_gram_form(tmp_path, capsys, command, point, code, out, err):
    sc = _gram_scenario(tmp_path, point)
    assert main([command, "--scenario", sc]) == code
    got = capsys.readouterr()
    assert got.out == out
    assert got.err.startswith(err)
    assert "Traceback" not in got.err


def test_reduce_of_a_gram_form_over_q_s_does_not_stall(tmp_path, capsys):
    # the 6 x 6 symmetrized Gram of this form once took 9 s to
    # diagonalize over the conic field
    sc = write_scenario(
        tmp_path,
        "gram3.json",
        {
            "field": {"kind": "function"},
            "algebra": {"d": "-1", "t": "s"},
            "form": {
                "gram": [
                    [{"a": "1", "b": "1"}, {"w": "1", "b": "1"}, {"w": "1", "b": "1"}],
                    [{"w": "-1", "b": "1"}, {"a": "2", "b": "1"}, {"w": "1", "b": "1", "c": "1"}],
                    [{"w": "-1", "b": "1"}, {"w": "-1", "b": "1", "c": "1"}, {"a": "3", "b": "1"}],
                ]
            },
        },
    )
    start = time.perf_counter()
    assert main(["reduce", "--scenario", sc, "--json"]) == EXIT_OK
    seconds = time.perf_counter() - start
    assert seconds < 1.0
    assert len(json.loads(capsys.readouterr().out)["entries"]) == 6


def _prime_scenario(command, p):
    """A witt-equal over F_p, or a one-trial point batch at p."""
    if command == "witt-equal":
        return {"field": {"kind": "finite", "p": p}, "first": {"entries": ["1", "-2/3", " 5 "]}}
    return {
        "field": {"kind": "rationals"},
        "valuation": {"kind": "padic", "p": p},
        "generator": "point",
        "seed": 1,
        "trials": 1,
    }


@pytest.mark.parametrize(
    "command, code", [("witt-equal", EXIT_VIOLATION), ("verify-theorem", EXIT_OK)]
)
def test_a_61_bit_prime_does_not_stall(tmp_path, capsys, command, code):
    # the primality check once trial-divided up to the square root of p;
    # an odd-rank form is not Witt-trivial, so witt-equal answers false
    path = write_scenario(tmp_path, "p61.json", _prime_scenario(command, 2**61 - 1))
    start = time.perf_counter()
    assert main([command, "--scenario", path, "--json"]) == code
    assert time.perf_counter() - start < 1.0
    assert "error" not in capsys.readouterr().err


@pytest.mark.parametrize("command", ["witt-equal", "verify-theorem"])
def test_a_prime_over_the_cap_is_an_input_error(tmp_path, capsys, command):
    sympy = pytest.importorskip("sympy")
    p = sympy.nextprime(MAX_PRIME)
    path = write_scenario(tmp_path, "big.json", _prime_scenario(command, p))
    start = time.perf_counter()
    assert main([command, "--scenario", path, "--json"]) == EXIT_INPUT
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.err == f"error: modulus {p} exceeds {MAX_PRIME}\n"
    assert captured.out == ""


def _tower(levels):
    """A field descriptor of `levels` function fields stacked over Q."""
    field = {"kind": "rationals"}
    for i in range(levels):
        field = {"kind": "function", "base": field, "variable": f"s{i}"}
    return field


def _entry_scenario(entry, field=None):
    """A witt-equal of <entry, -1> against nothing."""
    return {"field": field or {"kind": "rationals"}, "first": {"entries": [entry, "-1"]}}


_NESTED_INPUTS = {
    # each once ended in a RecursionError traceback, or (the tower) in a
    # square root that ran 4^levels times
    "json": ("residue", "[" * 100_000 + "]" * 100_000),
    "parentheses": ("witt-equal", json.dumps(_entry_scenario("(" * 300 + "1" + ")" * 300))),
    "minus-signs": ("witt-equal", json.dumps(_entry_scenario("-" * 3000 + "1"))),
    "tower": ("witt-equal", json.dumps(_entry_scenario("1", _tower(10)))),
}


@pytest.mark.parametrize("case", sorted(_NESTED_INPUTS))
def test_nesting_past_a_cap_is_an_input_error(tmp_path, capsys, case):
    command, text = _NESTED_INPUTS[case]
    path = tmp_path / "nested.json"
    path.write_text(text)
    start = time.perf_counter()
    assert main([command, "--scenario", str(path), "--json"]) == EXIT_INPUT
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err


@pytest.mark.parametrize(
    "entry, field",
    [
        ("(" * MAX_NESTING + "1" + ")" * MAX_NESTING, None),
        ("-(" * (MAX_NESTING // 2) + "1" + ")" * (MAX_NESTING // 2), None),
        ("1", _tower(MAX_TOWER_DEPTH)),
    ],
    ids=["parentheses", "mixed", "tower"],
)
def test_nesting_at_a_cap_is_answered(tmp_path, capsys, entry, field):
    path = write_scenario(tmp_path, "at_cap.json", _entry_scenario(entry, field))
    start = time.perf_counter()
    assert main(["witt-equal", "--scenario", path, "--json"]) == EXIT_OK
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().out == '{"equal":"true","searched":0}\n'


_QS_FIELD = {"kind": "function", "base": {"kind": "rationals"}, "variable": "s"}


def _gauss(p):
    return {"kind": "gauss", "inner": {"kind": "padic", "p": p}}


def _irreducible_mod_13(degree):
    """Coefficients, lowest degree first, of the first monic polynomial
    of this degree drawn by random.Random(7) that is irreducible mod 13."""
    sympy = pytest.importorskip("sympy")
    rng = random.Random(7)
    while True:
        cs = [rng.randrange(13) for _ in range(degree)] + [1]
        if sympy.Poly(list(reversed(cs)), sympy.Symbol("s"), modulus=13).is_irreducible:
            return cs


@pytest.mark.parametrize("degree, split", [(13, False), (20, True)])
def test_residue_at_a_place_of_high_degree_does_not_stall(tmp_path, capsys, degree, split):
    # the split decision once factored t mod 13 by trial division; t is
    # irreducible, so (2, t) splits iff 2 is a square in F_(13^degree),
    # and 2 is not a square mod 13, so iff the degree is even
    cs = _irreducible_mod_13(degree)
    t = " + ".join(f"{c}*s^{i}" for i, c in enumerate(cs) if c)
    sc = {"field": _QS_FIELD, "valuation": _gauss(13), "algebra": {"d": "2", "t": t}}
    path = write_scenario(tmp_path, "deg.json", sc)
    start = time.perf_counter()
    assert main(["residue", "--scenario", path, "--json"]) == EXIT_OK
    assert time.perf_counter() - start < 1.0
    assert json.loads(capsys.readouterr().out)["split_over_residue"] is split


def test_residue_at_a_61_bit_prime_does_not_stall(tmp_path, capsys):
    # s^2 + 3 has two roots mod p = 2^61 - 1, since p = 1 (mod 3), and -1
    # is not a square at either of them, since p = 3 (mod 4)
    sc = {"field": _QS_FIELD, "valuation": _gauss(2**61 - 1), "algebra": {"d": "-1", "t": "s^2 + 3"}}
    path = write_scenario(tmp_path, "p61.json", sc)
    start = time.perf_counter()
    assert main(["residue", "--scenario", path, "--json"]) == EXIT_OK
    assert time.perf_counter() - start < 1.0
    assert json.loads(capsys.readouterr().out)["split_over_residue"] is False


_CONIC_FIELD = {"kind": "conic", "base": _QS_FIELD, "d": "-1", "t": "s"}


def test_residue_forms_over_a_conic(tmp_path, capsys):
    # at the half-norm extension of Gauss 3-adic, with uniformizer 3:
    # 3*x has value 1 and unit part x; y + 1 has value 0; 9*(x - y) has
    # value 2 and residue x - y = x + 2*y; 1/3 has value -1 and unit part 1
    sc = write_scenario(tmp_path, "conic.json", {
        "field": _CONIC_FIELD,
        "valuation": {"kind": "conic-half-norm", "inner": _gauss(3)},
        "quad": {"entries": ["3*x", "y + 1", "9*(x - y)", "1/3"]},
    })
    assert main(["residue-forms", "--scenario", sc, "--json"]) == EXIT_OK
    assert capsys.readouterr().out == '{"first":["y + 1","2*y + x"],"second":["x","1"]}\n'


def test_a_conic_valuation_off_a_conic_is_an_input_error(tmp_path, capsys):
    sc = write_scenario(tmp_path, "offconic.json", {
        "field": _QS_FIELD,
        "valuation": {"kind": "conic-half-norm", "inner": {"kind": "padic", "p": 3}},
        "quad": {"entries": ["1"]},
    })
    assert main(["residue-forms", "--scenario", sc, "--json"]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.err == "error: a conic valuation lives on a conic extension\n"
    assert captured.out == ""


def test_residue_forms_output(tmp_path, capsys):
    sc = write_scenario(
        tmp_path,
        "rf.json",
        {
            "field": {"kind": "rationals"},
            "valuation": {"kind": "padic", "p": 3},
            "quad": {"entries": ["1", "3", "5", "45"]},
        },
    )
    assert main(["residue-forms", "--scenario", sc]) == EXIT_OK
    assert capsys.readouterr().out == (
        "first residue form  <1, 2, 2>\nsecond residue form <1>\n"
    )
    assert main(["residue-forms", "--scenario", sc, "--json"]) == EXIT_OK
    assert capsys.readouterr().out == '{"first":["1","2","2"],"second":["1"]}\n'


# ---------------------------------------------------------------------------
# Witt comparison exit codes


def witt_scenario(tmp_path, name, first, second=None):
    sc = {"field": {"kind": "rationals"}, "first": {"entries": first}}
    if second is not None:
        sc["second"] = {"entries": second}
    return write_scenario(tmp_path, name, sc)


def test_witt_equal_hyperbolic_pair(tmp_path, capsys):
    sc = witt_scenario(tmp_path, "we.json", ["1", "-1"])
    assert main(["witt-equal", "--scenario", sc]) == EXIT_OK
    assert capsys.readouterr().out == "true (searched 0)\n"


def test_witt_equal_violation(tmp_path, capsys):
    sc = witt_scenario(tmp_path, "we.json", ["-1", "-1"])
    assert main(["witt-equal", "--scenario", sc]) == EXIT_VIOLATION
    assert capsys.readouterr().out == "false (searched 0)\n"


def test_witt_equal_budget_exhaustion(tmp_path, capsys):
    sc = witt_scenario(tmp_path, "we.json", ["1", "1", "1", "1"])
    code = main(["witt-equal", "--scenario", sc, "--budget", "500"])
    assert code == EXIT_INDETERMINATE
    assert capsys.readouterr().out == "indeterminate (searched 500)\n"


def test_witt_equal_compares_two_forms(tmp_path, capsys):
    sc = witt_scenario(tmp_path, "we.json", ["2", "3"], ["3", "2"])
    assert main(["witt-equal", "--scenario", sc, "--json"]) == EXIT_OK
    assert capsys.readouterr().out == '{"equal":"true","searched":0}\n'


_Q_FIELD = {"kind": "rationals"}


@pytest.mark.parametrize(
    "command, scenario, code, digest",
    [
        # a definite form: the search runs its whole budget over Q
        (
            "witt-equal",
            {"field": _Q_FIELD, "first": {"entries": ["7/2", "5/3", "9/4", "1/4"]}},
            EXIT_INDETERMINATE,
            "d38ee8703e3fa3840e7386327b63e0d26e5b603f5c7cd031eff7d9798c0cf9db",
        ),
        # q against rec(q) at 3, which rescales u*3^m to u*3^(m mod 2)
        (
            "witt-equal",
            {
                "field": _Q_FIELD,
                "first": {"entries": ["2/9", "5/3", "-7/27", "4"]},
                "second": {"entries": ["2", "15", "-21", "4"]},
            },
            EXIT_OK,
            "c295368ea73fa2148b155fbf855bbab45300222011d1dc232ce5cc9fab40d009",
        ),
        # an isotropic vector, its complement diagonalized, then a decision
        (
            "witt-equal",
            {"field": _Q_FIELD, "first": {"entries": ["1/2", "1/2", "-1", "-5/3", "5/3", "-3/7"]}},
            EXIT_VIOLATION,
            "40d0382eab5ab6a54ea43886134cf412a7633664a4ca44b1fb49633ccffdb6fe",
        ),
        (
            "residue-forms",
            {
                "field": _Q_FIELD,
                "valuation": {"kind": "padic", "p": 3},
                "quad": {"entries": ["2/3", "9/5", "-7/27", "5/4", "1/6", "-18/11"]},
            },
            EXIT_OK,
            "d245de30c11c1bb9c3774e0143288f0040e3a31868303a43d5fa90cc23be1c89",
        ),
        (
            "reduce",
            {
                "field": _Q_FIELD,
                "algebra": {"d": "5/4", "t": "-3/2"},
                "form": {
                    "diag": [
                        {"a": "1/2", "b": "2/3", "c": "-5/7"},
                        {"a": "3/4", "c": "1/5"},
                        {"b": "-7/3"},
                    ]
                },
            },
            EXIT_OK,
            "a20cf0c7fae8cd8e69fb55499e397611ecff44f0fe025ef12b66e54c4db1dfef",
        ),
    ],
    ids=["witt-definite", "witt-rec", "witt-isotropic", "residue-forms", "reduce"],
)
def test_single_shot_json_over_q_is_pinned(tmp_path, capsys, command, scenario, code, digest):
    sc = write_scenario(tmp_path, "pinned.json", scenario)
    assert main([command, "--scenario", sc, "--json"]) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# ---------------------------------------------------------------------------
# input errors


def test_missing_scenario_file_is_an_input_error(tmp_path, capsys):
    code = main(["residue", "--scenario", str(tmp_path / "nope.json")])
    assert code == EXIT_INPUT
    assert capsys.readouterr().err.startswith("error:")


def test_input_caps_are_input_errors(tmp_path, batch_path, capsys):
    code = main(["verify-theorem", "--scenario", batch_path, "--trials", "100001"])
    assert code == EXIT_INPUT
    assert capsys.readouterr().err.startswith("error:")
    for extra in ({"trials": 100001}, {"rank": 17}):
        with open(batch_path) as fp:
            sc = dict(json.load(fp), **extra)
        path = write_scenario(tmp_path, "capped.json", sc)
        assert main(["verify-theorem", "--scenario", path]) == EXIT_INPUT
        assert capsys.readouterr().err.startswith("error:")
    path = write_scenario(
        tmp_path,
        "exponent.json",
        {
            "field": {"kind": "rationals"},
            "valuation": {"kind": "padic", "p": 3},
            "algebra": {"d": "2", "t": "3^1001"},
        },
    )
    assert main(["residue", "--scenario", path]) == EXIT_INPUT
    assert "exceeds 1000" in capsys.readouterr().err
    # a pinned algebra is built once before the batch, so a parameter over
    # a cap is an input error, not an error record per instance
    with open(batch_path) as fp:
        batch = json.load(fp)
    for t, message in (
        ("s^1001", "exceeds 1000"),
        ("(s^10)^100", "exceeds 1000000"),
        ("3", "must be units"),
    ):
        sc = dict(batch, algebra={"d": "-1", "t": t})
        path = write_scenario(tmp_path, "pinned.json", sc)
        assert main(["verify-theorem", "--scenario", path, "--json"]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and message in captured.err
        assert captured.out == ""


def test_missing_required_key_is_an_input_error(tmp_path, alg23_path, capsys):
    code = main(["reduce", "--scenario", alg23_path])
    assert code == EXIT_INPUT
    assert "scenario needs 'form'" in capsys.readouterr().err


def test_bad_element_expression_is_an_input_error(tmp_path, capsys):
    sc = write_scenario(
        tmp_path,
        "bad.json",
        {
            "field": {"kind": "rationals"},
            "valuation": {"kind": "padic", "p": 3},
            "algebra": {"d": "5x+", "t": "3"},
        },
    )
    assert main(["residue", "--scenario", sc]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert "bad element expression '5x+'" in err


@pytest.mark.parametrize(
    "field, valuation, algebra, message",
    [
        (_Q_FIELD, {"kind": "padic", "p": 3}, {"d": True, "t": "-1"}, "got True"),
        (_Q_FIELD, {"kind": "padic", "p": 3.9}, {"d": "2", "t": "3"}, "integer 'p'"),
        ({"kind": "finite", "p": 3.9}, None, {"d": "2", "t": "3"}, "integer 'p'"),
    ],
    ids=["boolean-element", "float-padic-p", "float-finite-p"],
)
def test_json_booleans_and_non_integer_primes_are_input_errors(
    tmp_path, capsys, field, valuation, algebra, message
):
    # JSON true is an int to isinstance, and int() would truncate 3.9
    sc = {"field": field, "algebra": algebra}
    if valuation is not None:
        sc["valuation"] = valuation
    path = write_scenario(tmp_path, "bad.json", sc)
    assert main(["residue", "--scenario", path, "--json"]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and message in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("entries", ["12", {"1": 0, "2": 0}], ids=["string", "object"])
def test_non_list_entries_are_input_errors(tmp_path, capsys, entries):
    # read by character or by key, either would be decided as <1, 2>
    path = write_scenario(tmp_path, "bad.json", {"field": _Q_FIELD, "first": {"entries": entries}})
    assert main(["witt-equal", "--scenario", path, "--json"]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.err == "error: 'entries' must be a list of elements\n"
    assert captured.out == ""


def test_unsupported_residue_field_is_an_input_error(tmp_path, capsys):
    # Q(s)(u) under a Gauss valuation over a Gauss valuation: the residue
    # field F_3(s)(u) has no splitting decision
    qs = {"kind": "function", "base": {"kind": "rationals"}, "variable": "s"}
    sc = write_scenario(
        tmp_path,
        "two_var.json",
        {
            "field": {"kind": "function", "base": qs, "variable": "u"},
            "valuation": {
                "kind": "gauss",
                "inner": {"kind": "gauss", "inner": {"kind": "padic", "p": 3}},
            },
            "algebra": {"d": "-1", "t": "s"},
        },
    )
    assert main(["residue", "--scenario", sc, "--json"]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.err.startswith("error:")
    assert captured.out == ""


# ---------------------------------------------------------------------------
# randomized batch verification


def test_verify_theorem_green_batch(batch_path, capsys):
    assert main(["verify-theorem", "--scenario", batch_path]) == EXIT_OK
    captured = capsys.readouterr()
    assert captured.out == (
        "verified 10/10 (refuted 0, hypothesis failed 0, "
        "indeterminate 0, errors 0)\n"
    )
    assert captured.err.startswith("wall time")


def test_verify_theorem_json_is_byte_identical_across_runs(batch_path, capsys):
    assert main(["verify-theorem", "--scenario", batch_path, "--json"]) == EXIT_OK
    first = capsys.readouterr().out
    assert main(["verify-theorem", "--scenario", batch_path, "--json"]) == EXIT_OK
    second = capsys.readouterr().out
    assert first == second
    payload = json.loads(first)
    assert payload["trials"] == 10
    assert payload["seed"] == 42
    assert payload["counts"]["verified"] == 10
    assert len(payload["records"]) == 10


def test_verify_theorem_sharding_changes_nothing(batch_path, capsys):
    assert main(["verify-theorem", "--scenario", batch_path, "--json"]) == EXIT_OK
    serial = capsys.readouterr().out
    code = main(
        ["verify-theorem", "--scenario", batch_path, "--json", "--jobs", "2"]
    )
    assert code == EXIT_OK
    assert capsys.readouterr().out == serial


@pytest.mark.parametrize("trials", ["1", "7"])
def test_verify_theorem_shards_print_the_serial_bytes(batch_path, capsys, trials):
    # 1 trial runs one shard on one worker; 7 run shards of 4 and 3
    args = ["verify-theorem", "--scenario", batch_path, "--json", "--trials", trials]
    assert main(args) == EXIT_OK
    serial = capsys.readouterr().out
    assert main(args + ["--jobs", "2"]) == EXIT_OK
    assert capsys.readouterr().out == serial


def test_verify_theorem_trial_and_seed_overrides(batch_path, capsys):
    code = main(
        [
            "verify-theorem",
            "--scenario",
            batch_path,
            "--json",
            "--trials",
            "4",
            "--seed",
            "11",
        ]
    )
    assert code == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["trials"] == 4
    assert payload["seed"] == 11
    assert payload["counts"]["verified"] == 4


def test_injected_fault_surfaces_a_counterexample(batch_path, capsys):
    code = main(
        [
            "verify-theorem",
            "--scenario",
            batch_path,
            "--json",
            "--inject-fault",
            "negate-fast-path",
        ]
    )
    assert code == EXIT_VIOLATION
    payload = json.loads(capsys.readouterr().out)
    assert "counterexample" in payload
    assert payload["counts"]["verified"] < 10
    assert faults.active_names() == ()


_QS_FIELD = {"kind": "function", "base": {"kind": "rationals"}, "variable": "s"}


_DIVISION_P3 = {
    "field": _QS_FIELD,
    "valuation": {"kind": "gauss", "inner": {"kind": "padic", "p": 3}},
    "generator": "conic",
    "algebra": {"d": "-1", "t": "s"},
    "seed": 42,
    "trials": 12,
}


@pytest.mark.parametrize(
    "scenario, extra, code, digest",
    [
        (
            _DIVISION_P3,
            [],
            EXIT_OK,
            "9319460112bb4da9ded01465cc775651dfaca50be3344675f88f3f03ba46244a",
        ),
        (
            {
                "field": {"kind": "rationals"},
                "valuation": {"kind": "padic", "p": 5},
                "generator": "point",
                "seed": 42,
                "trials": 20,
            },
            [],
            EXIT_OK,
            "5c31f562b7e41bc9c9118bced864a26125358ed9881e1ec48b063d62bf03008c",
        ),
        # the random (d, t) draw of the conic generator
        (
            {
                "field": _QS_FIELD,
                "valuation": {"kind": "gauss", "inner": {"kind": "padic", "p": 5}},
                "generator": "conic",
                "seed": 42,
                "trials": 12,
            },
            [],
            EXIT_OK,
            "6c9b19c64c71fbd3253a489c3b1109860eaf5dcabe1180343ef3d26b67578549",
        ),
        # the batch pre-check runs under the injected fault too
        (
            _DIVISION_P3,
            ["--inject-fault", "drop-unit-rep"],
            EXIT_OK,
            "63423a1deeee68a9ee310a2068fbc1f9c832318f2e2e7244220d010898048aca",
        ),
        # the forked shard runs under the fault it inherits
        (
            _DIVISION_P3,
            ["--inject-fault", "drop-unit-rep", "--jobs", "2"],
            EXIT_OK,
            "63423a1deeee68a9ee310a2068fbc1f9c832318f2e2e7244220d010898048aca",
        ),
    ],
    ids=[
        "conic-gauss", "point-padic", "conic-unpinned", "conic-gauss-drop-unit-rep",
        "conic-gauss-drop-unit-rep-jobs2",
    ],
)
def test_verify_theorem_json_is_pinned(
    tmp_path, capsys, monkeypatch, forks, scenario, extra, code, digest
):
    _see_cpus(monkeypatch, 2)
    sc = write_scenario(tmp_path, "pinned.json", scenario)
    assert main(["verify-theorem", "--scenario", sc, "--json"] + extra) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    assert len(forks) == (1 if "--jobs" in extra else 0)


@pytest.mark.parametrize(
    "scenario, message",
    [
        (
            {
                "field": {"kind": "rationals"},
                "valuation": {"kind": "padic", "p": 3},
                "generator": "conic",
                "trials": 3,
            },
            "over a function field",
        ),
        (
            dict(_DIVISION_P3, generator="point", trials=3),
            "over the rationals",
        ),
        (
            dict(_DIVISION_P3, algebra={"d": "1", "t": "s"}, trials=3),
            "unramified with division residue",
        ),
        # each point instance draws its own algebra, so a pin would be
        # ignored rather than verified
        (
            {
                "field": {"kind": "rationals"},
                "valuation": {"kind": "padic", "p": 3},
                "generator": "point",
                "algebra": {"d": "1", "t": "3"},
                "trials": 3,
            },
            "a pinned 'algebra' needs the conic generator",
        ),
    ],
    ids=["conic-over-q", "point-over-q-s", "split-residue", "point-pinned-algebra"],
)
def test_scenario_errors_exit_before_the_batch(tmp_path, capsys, scenario, message):
    # a generator that does not match the field, or a pinned algebra
    # without a division residue, fails every instance alike: one input
    # error, not an error record per instance
    path = write_scenario(tmp_path, "bad.json", scenario)
    assert main(["verify-theorem", "--scenario", path, "--json"]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and message in captured.err
    assert captured.out == ""


_TRIALS = "'trials' must be a non-negative integer"
_BUDGET = "'budget' must be a non-negative integer"
_JOBS = "'jobs' must be a positive integer"
_DEFINITE = {"field": _Q_FIELD, "first": {"entries": ["1", "1", "1", "1"]}}


@pytest.mark.parametrize(
    "command, scenario, extra, message",
    [
        ("verify-theorem", _DIVISION_P3, ["--trials", "-1"], _TRIALS),
        ("verify-theorem", dict(_DIVISION_P3, trials=-1), [], _TRIALS),
        ("witt-equal", _DEFINITE, ["--budget", "-5"], _BUDGET),
        ("verify-theorem", _DIVISION_P3, ["--budget", "-5"], _BUDGET),
        ("verify-theorem", dict(_DIVISION_P3, budget=-5), [], _BUDGET),
        # JSON true is an int to isinstance; it must not run as 1
        ("verify-theorem", dict(_DIVISION_P3, rank=True), [], "'rank' must be a positive integer"),
        ("verify-theorem", dict(_DIVISION_P3, trials=True), [], _TRIALS),
        ("verify-theorem", dict(_DIVISION_P3, seed=True), [], "'seed' must be an integer"),
        ("verify-theorem", dict(_DIVISION_P3, budget=True), [], _BUDGET),
        ("verify-theorem", _DIVISION_P3, ["--jobs", "0"], _JOBS),
        ("verify-theorem", _DIVISION_P3, ["--jobs", "-3"], _JOBS),
    ],
    ids=[
        "trials-option", "trials-key", "witt-budget-option", "batch-budget-option",
        "budget-key", "rank-true", "trials-true", "seed-true", "budget-true",
        "jobs-zero", "jobs-negative",
    ],
)
def test_out_of_range_counts_are_input_errors(tmp_path, capsys, command, scenario, extra, message):
    path = write_scenario(tmp_path, "bad.json", scenario)
    assert main([command, "--scenario", path, "--json", *extra]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


def test_zero_trials_and_zero_budget_keep_their_meaning(tmp_path, capsys):
    path = write_scenario(tmp_path, "batch.json", _DIVISION_P3)
    assert main(["verify-theorem", "--scenario", path, "--json", "--trials", "0"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["trials"] == 0
    path = write_scenario(tmp_path, "definite.json", _DEFINITE)
    assert main(["witt-equal", "--scenario", path, "--budget", "0"]) == EXIT_INDETERMINATE
    assert capsys.readouterr().out == "indeterminate (searched 0)\n"


def test_importing_the_cli_loads_no_process_pool(tmp_path):
    # verify-theorem --jobs N forks its workers itself, so no command loads
    # a process pool; the records are NamedTuples, so nothing loads
    # dataclasses either
    src = str(Path(cli.__file__).resolve().parents[1])
    loaded = (
        "print(sorted(m for m in ('concurrent.futures', 'multiprocessing', 'dataclasses') "
        "if m in sys.modules), file=sys.stderr)"
    )
    code = f"import sys; sys.path.insert(0, {src!r}); import quatwitt.cli; {loaded}"
    err = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True
    ).stderr
    assert err == "[]\n"
    # a real two-worker batch, on any host that can fork two
    path = write_scenario(tmp_path, "batch.json", _DIVISION_P3)
    code = (
        f"import os, sys; sys.path.insert(0, {src!r}); "
        "os.cpu_count = lambda: 2; os.sched_getaffinity = lambda pid: {0, 1}; "
        "from quatwitt import cli; code = cli.main(sys.argv[1:]); "
        f"{loaded}; sys.exit(code)"
    )
    outs = []
    for jobs in ("1", "2"):
        run = subprocess.run(
            [sys.executable, "-S", "-c", code, "verify-theorem", "--scenario", path,
             "--json", "--trials", "3", "--jobs", jobs],
            capture_output=True, check=True,
        )
        assert run.stderr.splitlines()[-1] == b"[]"
        outs.append(run.stdout)
    assert outs[0] == outs[1] and json.loads(outs[0])["counts"]["verified"] == 3


def test_a_faulted_batch_sets_its_generator_up_once(monkeypatch):
    # the batch runs under the caller's faults and their memos, so the
    # faulted generator is built once, not once per instance
    clean = run_batch(_DIVISION_P3, 10)[0]
    calls = []
    setup = scenarios._conic_setup

    def counting(*args):
        calls.append(args)
        return setup(*args)

    monkeypatch.setattr(scenarios, "_conic_setup", counting)
    with faults.injected(faults.DROP_UNIT_REP):
        records = run_batch(_DIVISION_P3, 10)[0]
    assert len(records) == 10 and records != clean
    assert len(calls) == 1


def test_run_batch_counts_match_records(batch_path):
    sc = json.load(open(batch_path))
    records, counts, counterexample = run_batch(sc, 6)
    assert len(records) == 6
    assert counts["verified"] == 6
    assert sum(counts.values()) == 6
    assert counterexample is None


@pytest.fixture()
def forks(monkeypatch):
    """Counts the os.fork calls this process makes; a child's own count
    stays in the child."""
    calls = []
    fork = os.fork

    def counting():
        calls.append(1)
        return fork()

    monkeypatch.setattr(cli.os, "fork", counting)
    return calls


def _see_cpus(monkeypatch, cpus, allowed=None):
    """Make `cli._usable_cpus` see a machine of `cpus` CPUs (None: a count
    the platform cannot tell) of which this process may run on `allowed`
    (None: a platform with no affinity call)."""
    monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
    if allowed is None:
        monkeypatch.delattr(cli.os, "sched_getaffinity", raising=False)
    else:
        affinity = set(range(allowed))
        monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: affinity, raising=False)


@pytest.mark.parametrize(
    "cpus, allowed, jobs, want",
    [
        # the ids name (cpus, jobs, want), with the allowed CPUs when set
        pytest.param(2, None, 10**6, 2, id="2-1000000-2"),
        pytest.param(None, None, 8, 1, id="None-8-1"),
        pytest.param(4, None, 2, 2, id="4-2-2"),
        pytest.param(4, 1, 2, 1, id="4-allowed1-2-1"),
    ],
)
def test_run_batch_caps_workers_at_cpu_count(
    batch_path, monkeypatch, forks, cpus, allowed, jobs, want
):
    # the parent is one of the workers, so it forks one child fewer
    sc = json.load(open(batch_path))
    serial = run_batch(sc, 2)
    _see_cpus(monkeypatch, cpus, allowed)
    assert run_batch(sc, 2, jobs=jobs) == serial
    assert len(forks) == want - 1


@pytest.mark.parametrize(
    "cpus, jobs, trials, shards",
    [
        (2, 2, 7, [(0, 4), (4, 7)]),
        (4, 3, 9, [(0, 3), (3, 6), (6, 9)]),
        (4, 8, 3, [(0, 1), (1, 2), (2, 3)]),
        (2, 2, 1, [(0, 1)]),
    ],
)
def test_run_batch_hands_each_worker_one_contiguous_shard(
    batch_path, monkeypatch, forks, cpus, jobs, trials, shards
):
    sc = json.load(open(batch_path))
    serial = run_batch(sc, trials)
    calls = []
    run_shard = cli._run_shard

    def recording(sc, start, stop, *rest):
        calls.append((start, stop))
        return run_shard(sc, start, stop, *rest)

    monkeypatch.setattr(cli, "_run_shard", recording)
    _see_cpus(monkeypatch, cpus)
    assert cli._shards(trials, jobs) == shards
    assert run_batch(sc, trials, jobs=jobs) == serial
    # this process runs the first shard and forks a child for each other
    assert calls == shards[:1]
    assert len(forks) == len(shards) - 1


def test_run_batch_runs_serially_where_there_is_no_fork(monkeypatch):
    monkeypatch.delattr(cli.os, "fork")
    _see_cpus(monkeypatch, 4)
    assert cli._shards(7, 4) == [(0, 7)]


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _failing_shard(monkeypatch, fail):
    """Runs `fail(start)` before each shard of a two-worker batch."""
    run_shard = cli._run_shard

    def failing(sc, start, *rest):
        fail(start)
        return run_shard(sc, start, *rest)

    monkeypatch.setattr(cli, "_run_shard", failing)
    _see_cpus(monkeypatch, 2)


def test_run_batch_raises_a_child_s_traceback(batch_path, monkeypatch):
    def fail(start):
        if start:
            raise KeyError("shard fault")

    _failing_shard(monkeypatch, fail)
    with pytest.raises(RuntimeError) as info:
        run_batch(json.load(open(batch_path)), 4, jobs=2)
    message = str(info.value)
    assert "instances 2..3 failed" in message
    assert "KeyError: 'shard fault'" in message
    _assert_no_child_left()


def test_run_batch_raises_when_a_child_exits_without_records(batch_path, monkeypatch):
    def fail(start):
        if start:
            os._exit(3)

    _failing_shard(monkeypatch, fail)
    with pytest.raises(RuntimeError, match="instances 2..3 exited with status 3 before"):
        run_batch(json.load(open(batch_path)), 4, jobs=2)
    _assert_no_child_left()


def test_run_batch_kills_its_children_when_its_own_shard_fails(batch_path, monkeypatch):
    def fail(start):
        if start:
            time.sleep(60)
        else:
            raise KeyError("parent fault")

    _failing_shard(monkeypatch, fail)
    begun = time.monotonic()
    with pytest.raises(KeyError, match="parent fault"):
        run_batch(json.load(open(batch_path)), 4, jobs=2)
    _assert_no_child_left()
    assert time.monotonic() - begun < 30


@pytest.mark.parametrize(
    "command, scenario, key",
    [
        ("verify-theorem", dict(_DIVISION_P3, trails=3), "trails"),
        (
            "witt-equal",
            {"field": {"kind": "rationals"}, "first": {"entries": ["1", "-1"]}, "budget": 10},
            "budget",
        ),
        (
            "residue",
            {
                "field": {"kind": "rationals"},
                "valuation": {"kind": "padic", "p": 3},
                "algebra": {"d": "2", "t": "3"},
                "quad": {"entries": ["1"]},
            },
            "quad",
        ),
        (
            "residue-forms",
            {
                "field": {"kind": "rationals"},
                "valuation": {"kind": "padic", "p": 3},
                "quad": {"entries": ["1"]},
                "algebra": {"d": "2", "t": "3"},
            },
            "algebra",
        ),
    ],
    ids=["misspelled-trials", "witt-budget", "residue-quad", "residue-forms-algebra"],
)
def test_unknown_scenario_keys_are_input_errors(tmp_path, capsys, command, scenario, key):
    # a key the subcommand does not read would be silently ignored
    path = write_scenario(tmp_path, "unknown.json", scenario)
    assert main([command, "--scenario", path, "--json"]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: unknown scenario key {key!r}")
    assert captured.out == ""


def test_benchmark_scenario_keys_still_load():
    # the keys of the benchmark's one-shot verify-theorem and witt-equal
    # scenarios
    batch = dict(_DIVISION_P3, rank=2)
    assert sorted(batch) == [
        "algebra", "field", "generator", "rank", "seed", "trials", "valuation"
    ]
    assert load_scenario(batch, SCENARIO_KEYS["verify-theorem"]) is batch
    witt = {"field": {"kind": "rationals"}, "first": {"entries": ["1", "-1"]}}
    assert load_scenario(witt, SCENARIO_KEYS["witt-equal"]) is witt
