"""CLI behaviour: exit codes, determinism, round-trips."""

import ast
import copy
import io
import json
import warnings
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import arbscan
from arbscan import arbitrage, cli, measures, oracle, splitter
from arbscan.errors import DomainError, InternalError
from arbscan.market import load_market, value_process
from arbscan.ratgeom import EQ, UNBOUNDED, LinearProgram, LpResult, _Tableau, lp_solve
from arbscan.splitter import backward_eliminate

from conftest import (
    CONSTANT_DOC,
    COUNTNA_DOC,
    EX1000_DOC,
    EX3D_DOC,
    MULTI_DOC,
    SVU_DOC,
    corpus_markets,
    market_doc,
)


@pytest.fixture()
def svu_file(tmp_path):
    path = tmp_path / "svu.json"
    path.write_text(json.dumps(SVU_DOC), "utf-8")
    return str(path)


@pytest.fixture()
def multi_file(tmp_path):
    path = tmp_path / "multi.json"
    path.write_text(json.dumps(MULTI_DOC), "utf-8")
    return str(path)


@pytest.fixture()
def constant_file(tmp_path):
    path = tmp_path / "constant.json"
    path.write_text(json.dumps(CONSTANT_DOC), "utf-8")
    return str(path)


def _run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_svu(capsys, svu_file):
    code, out, _err = _run(capsys, "analyze", svu_file, "--verify")
    assert code == 0
    report = json.loads(out)
    assert report["omega_star"] == []
    assert report["polar_complement"] == ["w1", "w2", "w3", "w4"]
    assert report["feasibility"]["feasible"] is False
    assert report["oracle"]["agrees"] is True
    assert report["classes"]["branch"]["kind"] == "Arbitrage"


def test_analyze_constant(capsys, constant_file):
    code, out, _err = _run(capsys, "analyze", constant_file)
    assert code == 0
    report = json.loads(out)
    assert report["omega_star"] == ["c1", "c2"]
    assert report["feasibility"]["feasible"] is True
    assert report["feasibility"]["facets"]["full_support_martingale_measure_exists"] is True


def test_analyze_ex3d_verify_agrees(capsys, tmp_path):
    path = tmp_path / "ex3d.json"
    path.write_text(json.dumps(EX3D_DOC), "utf-8")
    code, out, _ = _run(capsys, "analyze", str(path), "--verify")
    assert code == 0
    report = json.loads(out)
    assert report["oracle"]["agrees"] is True
    assert report["omega_star"] == ["qge916", "qge4"]


REPORT_KEYS = {
    "market", "omega_star", "polar_complement", "splittings", "aggregator",
    "enlarged_filtration", "measures", "classes", "feasibility",
}
SPLITTING_KEYS = ["t", "level", "members", "block", "separator", "residual"]


def _assert_report_schema_2(doc: dict) -> None:
    """The analyze report of ``doc``, read back as JSON, checked against the prices alone."""
    paths = {s["id"]: [[F(x) for x in row] for row in s["prices"]] for s in doc["scenarios"]}
    report, _agrees = cli.build_report(load_market(doc))
    report = json.loads(json.dumps(report))
    assert set(report) == REPORT_KEYS
    assert set(report["measures"]) == {"full_support"}
    polar = set()
    for sp in report["splittings"]:
        assert list(sp) == SPLITTING_KEYS
        members, block = sp["members"], sp["block"]
        assert set(block) <= set(members)
        assert sp["residual"] == [i for i in members if i not in block]
        assert (sp["separator"] is None) == (not block)
        if block:
            h = [F(x) for x in sp["separator"]]
            t = sp["t"]
            for i in members:
                gain = sum(a * (y - x) for a, x, y in zip(h, paths[i][t - 1], paths[i][t]))
                assert gain > 0 if i in block else gain >= 0
        polar |= set(block)
    assert polar == set(report["polar_complement"])


@pytest.mark.parametrize(
    "doc", [SVU_DOC, MULTI_DOC, EX3D_DOC, EX1000_DOC, COUNTNA_DOC, CONSTANT_DOC],
    ids=["svu", "multi", "ex3d", "ex1000", "countna", "constant"],
)
def test_report_schema_2_on_named_markets(doc):
    _assert_report_schema_2(doc)


@settings(max_examples=150, deadline=None)
@given(corpus_markets())
def test_report_schema_2_on_corpus_markets(m):
    _assert_report_schema_2(market_doc(m))


def test_analyze_deterministic(capsys, svu_file):
    _code, first, _ = _run(capsys, "analyze", svu_file, "--verify")
    _code, second, _ = _run(capsys, "analyze", svu_file, "--verify")
    assert first == second


def test_analyze_out_file(tmp_path, capsys, svu_file):
    target = tmp_path / "report.json"
    code, out, _ = _run(capsys, "analyze", svu_file, "--out", str(target))
    assert code == 0 and out == ""
    assert json.loads(target.read_text("utf-8"))["omega_star"] == []


def test_analyze_oracle_mismatch_exit_code(capsys, svu_file, monkeypatch):
    monkeypatch.setattr(cli, "oracle_support", lambda m: m.all_indices)
    code, _out, _err = _run(capsys, "analyze", svu_file, "--verify")
    assert code == 3


def test_internal_error_exits_4(capsys, tmp_path, monkeypatch):
    simplex = _Tableau._simplex

    def phase_one_unbounded(self, ncand):
        if self.art_set and ncand == self.ncols:  # phase 1 prices every column
            return UNBOUNDED
        return simplex(self, ncand)

    monkeypatch.setattr(_Tableau, "_simplex", phase_one_unbounded)
    lp = LinearProgram((F(1),), (((F(1),), EQ, F(1)),), ((F(0), None),))
    with pytest.raises(InternalError, match="phase 1"):
        lp_solve(lp)
    # a broken invariant must not read as exit 1, the Arbitrage verdict;
    # EX3D's measure LPs have equality rows, so phase 1 runs
    path = tmp_path / "ex3d.json"
    path.write_text(json.dumps(EX3D_DOC), "utf-8")
    code, out, err = _run(capsys, "analyze", str(path))
    assert code == 4
    assert out == ""
    assert "internal error" in err


def test_broken_measure_node_exits_4(capsys, constant_file, monkeypatch):
    def no_interior(points):
        raise DomainError("zero is not interior to the cone of the given points")

    # every surviving node has strictly positive weights; if one had none,
    # that is a broken invariant, not a domain error of the input
    monkeypatch.setattr(measures, "convex_combination_for_zero", no_interior)
    m = load_market(CONSTANT_DOC)
    with pytest.raises(InternalError, match="surviving node"):
        measures.full_support_measure(m, backward_eliminate(m))
    code, out, err = _run(capsys, "analyze", constant_file)
    assert code == 4
    assert out == ""
    assert "internal error" in err


@pytest.mark.parametrize("filtration", ["natural", "enlarged"])
def test_no_arbitrage_without_a_class_measure_exits_4(capsys, constant_file, monkeypatch, filtration):
    # a NoArbitrage verdict always carries a measure; one without is a
    # broken invariant, never a verdict without a certificate
    monkeypatch.setattr(arbitrage, "class_measure", lambda m, pa, cls: None)
    code, out, err = _run(capsys, "check", constant_file, "--class", "MI", "--filtration", filtration)
    assert code == 4
    assert out == ""
    assert "internal error" in err and "no class measure" in err


def test_check_exit_codes(capsys, svu_file, constant_file):
    code, out, _ = _run(capsys, "check", svu_file, "--class", "MI", "--filtration", "enlarged")
    assert code == 1
    verdict = json.loads(out)
    assert verdict["kind"] == "Arbitrage"
    assert verdict["witness"] is not None

    code, out, _ = _run(capsys, "check", constant_file, "--class", "1p")
    assert code == 0
    assert json.loads(out)["kind"] == "NoArbitrage"

    code, _out, err = _run(capsys, "check", svu_file, "--class", "missing")
    assert code == 2 and "unknown class" in err


@pytest.mark.parametrize(
    "command",
    [
        ["check", "--class", "MI"],
        ["extract", "--prob", "U"],
        ["measure", "--support", "w1"],
        ["defrag", "--strategy", "h.json"],
        ["oracle"],
    ],
)
def test_verify_is_refused_outside_analyze(capsys, svu_file, command):
    # only analyze cross-checks with the oracle; elsewhere the flag would be
    # silently ignored, so it is a usage error
    with pytest.raises(SystemExit) as info:
        cli.main([command[0], svu_file, *command[1:], "--verify"])
    assert info.value.code == 2
    _out, err = capsys.readouterr()
    assert "unrecognized arguments: --verify" in err


def test_check_multi_natural(capsys, multi_file):
    code, out, _ = _run(
        capsys, "check", multi_file, "--class", "openish", "--filtration", "natural"
    )
    assert code == 1
    verdict = json.loads(out)
    periods_used = [
        t
        for t, row in verdict["witness"]["positions"].items()
        if any(any(x != "0" for x in v) for v in row.values())
    ]
    assert len(periods_used) == 2


@pytest.mark.parametrize(
    "argv, message",
    [
        (["check", "--class", "nope"], "unknown class 'nope'"),
        (["extract", "--prob", "nope"], "unknown probability 'nope'"),
        (["measure", "--support", "nope"], "unknown scenario 'nope'"),
    ],
)
def test_lookup_errors_exit_2_with_error_prefix(capsys, svu_file, argv, message):
    code, out, err = _run(capsys, argv[0], svu_file, *argv[1:])
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and message in err


def test_load_errors_exit_2(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"d": 1, "T": 0, "scenarios": []}', "utf-8")
    code, _out, err = _run(capsys, "analyze", str(bad))
    assert code == 2 and "error" in err
    code, _out, _err = _run(capsys, "analyze", str(tmp_path / "missing.json"))
    assert code == 2


def test_measure_command(capsys, svu_file, constant_file):
    code, out, _ = _run(capsys, "measure", constant_file, "--support", "c1")
    assert code == 0
    assert json.loads(out)["weights"]["c1"] != "0"

    code, _out, err = _run(capsys, "measure", svu_file, "--support", "w1")
    assert code == 1 and "polar" in err

    code, _out, _err = _run(capsys, "measure", svu_file, "--support", "zzz")
    assert code == 2


def test_extract_command(capsys, svu_file):
    code, out, _ = _run(capsys, "extract", svu_file, "--prob", "U")
    assert code == 0
    doc = json.loads(out)
    assert doc["strategy"] is not None
    assert doc["certificate"]["charged_gain_ids"]

    code, _out, _err = _run(capsys, "extract", svu_file, "--prob", "nope")
    assert code == 2


def test_extract_answers_the_polar_mass_question(capsys, tmp_path):
    # no scenario is polar, so extract prints null, although under P = {s0: 1}
    # the price rises surely: a classical P-arbitrage it does not look for
    path = tmp_path / "rise.json"
    path.write_text(json.dumps({
        "d": 1,
        "T": 1,
        "scenarios": [
            {"id": "s0", "prices": [[10], [11]]},
            {"id": "s1", "prices": [[10], [9]]},
        ],
        "probabilities": {"P": {"s0": "1"}},
    }), "utf-8")
    code, out, err = _run(capsys, "extract", str(path), "--prob", "P")
    assert (code, err) == (0, "")
    assert out == '{\n  "probability": "P",\n  "singular_mass": "0",\n  "strategy": null\n}\n'
    with pytest.raises(SystemExit):
        cli.main(["--help"])
    assert "polar-mass arbitrage for a declared model" in capsys.readouterr().out


def test_extract_does_not_look_ahead(capsys, tmp_path):
    # s0 and s1 share the time-0 price, so no strategy may tell them apart
    # at period 1; s1 alone gains at period 2, after the price has split
    path = tmp_path / "two.json"
    path.write_text(json.dumps({
        "d": 1,
        "T": 2,
        "scenarios": [
            {"id": "s0", "prices": [[15], [16], [16]]},
            {"id": "s1", "prices": [[15], [15], [16]]},
        ],
        "probabilities": {"U": {"s0": "1/2", "s1": "1/2"}},
    }), "utf-8")
    code, out, _ = _run(capsys, "extract", str(path), "--prob", "U")
    assert code == 0
    doc = json.loads(out)
    assert doc["strategy"] == {
        "positions": {"1": {"s0,s1": ["0"]}, "2": {"s0": ["0"], "s1": ["1"]}}
    }
    assert doc["certificate"] == {
        "terminal_values": {"s0": "0", "s1": "1"},
        "charged_gain_ids": ["s1"],
    }


def test_defrag_command(capsys, tmp_path, multi_file):
    strategy = {
        "positions": {
            "1": {"A1,A2,A3,A4": ["-1", "1"]},
            "2": {"A2,A3": ["1", "-1"]},
        }
    }
    spath = tmp_path / "h.json"
    spath.write_text(json.dumps(strategy), "utf-8")
    code, out, _ = _run(capsys, "defrag", multi_file, "--strategy", str(spath))
    assert code == 0
    doc = json.loads(out)
    assert doc["U"] == {"1": ["A1"], "2": ["A2"]}


def test_defrag_round_trips_a_strategy_with_scattered_gaps(capsys, tmp_path, multi_file):
    # period 1 leaves A2 and A3 out, period 2 leaves A3 and A4 out: the gaps
    # lie in different nodes, and neither is printed as a zero group
    strategy = {"positions": {"1": {"A1,A4": ["-1", "1"]}, "2": {"A1,A2": ["1", "0"]}}}
    spath = tmp_path / "h.json"
    spath.write_text(json.dumps(strategy), "utf-8")
    code, out, _ = _run(capsys, "defrag", multi_file, "--strategy", str(spath))
    assert code == 0
    doc = json.loads(out)
    assert doc == {
        "U": {"1": ["A1"], "2": ["A2"]},
        "masked": {
            "positions": {
                "1": {"A1,A4": ["-1", "1"]},
                "2": {"A1": ["0", "0"], "A2": ["1", "0"]},
            }
        },
    }
    # the masked strategy loads back and defrags to itself
    spath.write_text(json.dumps(doc["masked"]), "utf-8")
    code, again, _ = _run(capsys, "defrag", multi_file, "--strategy", str(spath))
    assert code == 0 and again == out


def test_aggregator_table_round_trips_as_strategy(capsys, svu_file):
    _code, out, _ = _run(capsys, "analyze", svu_file)
    report = json.loads(out)
    m = load_market(SVU_DOC)
    h = cli.load_strategy(m, {"positions": report["aggregator"]["positions"]})
    v = value_process(m, h)
    assert [str(x) for x in v[m.T]] == ["1", "1", "2", "1"]


def test_oracle_command(capsys, svu_file):
    code, out, _ = _run(capsys, "oracle", svu_file)
    assert code == 0
    doc = json.loads(out)
    assert doc["support"] == []
    assert doc["classes"]["branch"]["enlarged"] is True


def test_summary_goes_to_stderr(capsys, svu_file):
    _code, out, err = _run(capsys, "analyze", svu_file, "--summary")
    assert "omega_star" in err
    json.loads(out)


def _svu_with(**changes) -> dict:
    doc = copy.deepcopy(SVU_DOC)
    doc.update(changes)
    return doc


def _svu_with_price(price: str) -> dict:
    doc = copy.deepcopy(SVU_DOC)
    doc["scenarios"][0]["prices"][1] = [price]
    return doc


def _scenario_not_object() -> dict:
    doc = copy.deepcopy(SVU_DOC)
    doc["scenarios"][1] = "w2"
    return doc


# (market document or "dir", strategy document text or None, expected message)
_MALFORMED = {
    "strategy-unknown-scenario": (SVU_DOC, '{"positions": {"1": {"w1,zz": ["1"]}}}', "unknown scenario 'zz'"),
    "strategy-float-position": (SVU_DOC, '{"positions": {"1": {"w1": [0.5]}}}', "not a rational"),
    "strategy-invalid-json": (SVU_DOC, '{"positions": ', "not valid JSON"),
    # SVU has T = 2, so only "1" and "2" are periods
    **{
        f"strategy-period-{key}": (
            SVU_DOC,
            json.dumps({"positions": {key: {"w1": ["1"]}, "1": {"w1": ["1"]}}}),
            f"key {key!r} is not a period 1..2",
        )
        for key in ("0", "7", "x")
    },
    "market-path-is-directory": ("dir", None, "error"),
    "probabilities-as-list": (_svu_with(probabilities=["w1"]), None, "probabilities must be a JSON object"),
    # only a missing key, null or an object is a table; falsy look-alikes are not
    **{
        f"{table}-as-{name}": (_svu_with(**{table: value}), None, f"{table} must be a JSON object, not {kind}")
        for table in ("classes", "probabilities")
        for name, value, kind in (
            ("empty-list", [], "list"),
            ("empty-string", "", "str"),
            ("zero", 0, "int"),
            ("false", False, "bool"),
        )
    },
    "scenario-entry-not-object": (_scenario_not_object(), None, "scenario entry 1 must be a JSON object"),
    "class-set-as-string": (_svu_with(classes={"c": "a"}), None, "class 'c' must be a JSON array"),
    "price-exponent-too-large": (_svu_with_price("1e1000000"), None, "decimal exponent beyond"),
    # the message names the scenario by its id, as every other loader message does
    "probability-negative-weight": (
        _svu_with(probabilities={"P": {"w1": "3/2", "w2": "-1/2"}}),
        None,
        "probability 'P': negative weight on scenario 'w2'",
    ),
}


@pytest.mark.parametrize("case", sorted(_MALFORMED))
def test_malformed_input_exits_2(capsys, tmp_path, case):
    doc, strategy, message = _MALFORMED[case]
    if doc == "dir":
        market = str(tmp_path)
    else:
        market = str(tmp_path / "market.json")
        Path(market).write_text(json.dumps(doc), "utf-8")
    if strategy is None:
        argv = ["analyze", market]
    else:
        spath = tmp_path / "h.json"
        spath.write_text(strategy, "utf-8")
        argv = ["defrag", market, "--strategy", str(spath)]
    code, out, err = _run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and message in err


# a value of another JSON type, or an unknown id
_ODD_VALUES = (None, True, 2.5, float("inf"), "zz", [], {}, ["zz"])
# numbers: valid ones that reshape the market or a weight, and bad ones
_NUMBERS = (0, -1, 7, "1/3", "-3/2", "1/2", "1/0", "x", "1e999999")


def _paths(node, path=()):
    """The path of every node below ``node`` in a JSON document, as key tuples."""
    if isinstance(node, dict):
        items = node.items()
    else:
        items = enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield path + (key,)
        yield from _paths(child, path + (key,))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _mutant(data, base: dict) -> dict:
    """``base`` with one or two nodes dropped, retyped, renumbered or renamed to an unknown id."""
    doc = copy.deepcopy(base)
    for _ in range(data.draw(st.integers(1, 2))):
        op = data.draw(st.sampled_from(("drop", "retype", "rename", "number")))
        paths = list(_paths(doc))
        if op == "number":  # a price or a weight: a leaf that is not an id
            paths = [
                p for p in paths if p[-1] != "id" and not isinstance(_at(doc, p), (dict, list))
            ]
        path = data.draw(st.sampled_from(paths or [("d",)]))
        parent, key = _at(doc, path[:-1]), path[-1]
        if op == "drop":
            del parent[key]
        elif op == "rename" and isinstance(parent, dict):
            parent["zz"] = parent.pop(key)  # a table keyed by an unknown id
        elif op == "number":
            parent[key] = data.draw(st.sampled_from(_NUMBERS))
        else:
            parent[key] = copy.deepcopy(data.draw(st.sampled_from(_ODD_VALUES)))
        if not doc:
            doc["d"] = 1
    return doc


@settings(max_examples=200, deadline=None)
@given(st.sampled_from((SVU_DOC, MULTI_DOC, EX3D_DOC)), st.data())
def test_mutated_markets_exit_cleanly(tmp_path_factory, base, data):
    # every command on a mutated document exits 0, 1 or 2, with no traceback;
    # exit 1 only as an Arbitrage verdict or a measure asked of a polar scenario
    path = tmp_path_factory.mktemp("mutant") / "market.json"
    path.write_text(json.dumps(_mutant(data, base)), "utf-8")
    market = str(path)
    prob = next(iter(base.get("probabilities", {"U": None})))
    commands = [
        ["analyze", market, "--verify"],
        ["check", market, "--class", "MI", "--filtration", "natural"],
        ["check", market, "--class", "MI", "--filtration", "enlarged"],
        ["extract", market, "--prob", prob],
        ["measure", market, "--support", base["scenarios"][0]["id"]],
        ["oracle", market],
    ]
    for argv in commands:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err), warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = cli.main(argv)
        assert code in (0, 1, 2), (argv[0], code, err.getvalue())
        if code == 1:
            if argv[0] == "check":
                assert json.loads(out.getvalue())["kind"] == "Arbitrage"
            else:
                assert argv[0] == "measure" and "is polar" in err.getvalue(), err.getvalue()
        if code == 2:
            assert out.getvalue() == "" and err.getvalue().startswith("error: ")


def test_no_bare_asserts_in_the_package():
    # invariants must survive python -O and exit 4, so none may be an assert
    paths = sorted(Path(arbscan.__file__).parent.glob("*.py"))
    assert {"cli.py", "market.py", "measures.py", "splitter.py"} <= {p.name for p in paths}
    found = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text("utf-8"))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_broken_splitter_invariant_exits_4(capsys, svu_file, monkeypatch):
    def whole_first_point(points):
        # a zero separator that claims the first point: the aggregator then
        # holds nothing on a scenario the sweep removed
        return tuple(F(0) for _ in points[0]), [0]

    monkeypatch.setattr(splitter, "maximal_separator", whole_first_point)
    code, out, err = _run(capsys, "analyze", svu_file)
    assert code == 4
    assert out == ""
    assert "internal error" in err


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (lambda h: tuple(-x for x in h), "aggregator loses"),
        (lambda h: tuple(0 * x for x in h), "aggregator gain set differs"),
    ],
    ids=["flipped", "zeroed"],
)
def test_corrupted_separator_fails_the_aggregator_recheck(
    capsys, svu_file, monkeypatch, corrupt, message
):
    separator = splitter.maximal_separator

    def corrupted(points):
        # the strict set stays right, the direction does not gain on it
        found = separator(points)
        return None if found is None else (corrupt(found[0]), found[1])

    monkeypatch.setattr(splitter, "maximal_separator", corrupted)
    code, out, err = _run(capsys, "analyze", svu_file)
    assert code == 4
    assert out == ""
    assert "internal error" in err and message in err


def test_broken_oracle_lp_exits_4(capsys, svu_file, monkeypatch):
    monkeypatch.setattr(oracle, "lp_solve", lambda lp: LpResult(UNBOUNDED, None, None))
    code, out, err = _run(capsys, "oracle", svu_file)
    assert code == 4
    assert out == ""
    assert "internal error" in err and "unbounded" in err
