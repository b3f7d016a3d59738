"""CLI behaviour: exit codes, determinism, round-trips."""

import ast
import copy
import io
import json
import random
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
    random_class,
    random_market,
    random_measure,
    split_corpus_markets,
    trinomial_tree,
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
    "market", "omega_star", "polar_complement", "events", "aggregator",
    "enlarged_filtration", "measures", "classes", "feasibility",
}
EVENT_KEYS = ["t", "level", "block", "separator"]


def _assert_report_schema_3(doc: dict) -> None:
    """The analyze report of ``doc``, read back as JSON, checked against the prices alone."""
    paths = {s["id"]: [[F(x) for x in row] for row in s["prices"]] for s in doc["scenarios"]}
    report, _agrees = cli.build_report(load_market(doc))
    report = json.loads(json.dumps(report))
    assert set(report) == REPORT_KEYS
    assert set(report["measures"]) == {"full_support"}
    ids = report["market"]["ids"]
    events = report["events"]
    levels = [(ev["t"], ev["level"]) for ev in events]
    assert len(set(levels)) == len(levels)
    order, polar = [], set()
    for ev in events:
        assert list(ev) == EVENT_KEYS
        t, block = ev["t"], ev["block"]
        assert block
        # the level's survivors at t: the scenarios whose rows 0..t-1 print
        # as its level, minus the blocks of later events
        later = set().union(*(e["block"] for e in events if e["t"] > t))
        level = [
            i for i in ids
            if i not in later
            and " ".join("(" + ",".join(map(str, row)) + ")" for row in paths[i][:t]) == ev["level"]
        ]
        assert set(block) <= set(level)
        h = [F(x) for x in ev["separator"]]
        for i in level:
            gain = sum(a * (y - x) for a, x, y in zip(h, paths[i][t - 1], paths[i][t]))
            assert gain > 0 if i in block else gain >= 0
        # report order: t ascending, then the level's least member
        order.append((t, ids.index(level[0])))
        polar |= set(block)
    assert order == sorted(order)
    assert polar == set(report["polar_complement"])
    # schema 4: the aggregator is the events, each block holding its separator
    held: dict = {str(t): {} for t in range(1, doc["T"] + 1)}
    for ev in events:
        held[str(ev["t"])][",".join(sorted(ev["block"]))] = ev["separator"]
    assert report["aggregator"]["positions"] == held


@pytest.mark.parametrize(
    "doc", [SVU_DOC, MULTI_DOC, EX3D_DOC, EX1000_DOC, COUNTNA_DOC, CONSTANT_DOC],
    ids=["svu", "multi", "ex3d", "ex1000", "countna", "constant"],
)
def test_report_schema_3_on_named_markets(doc):
    _assert_report_schema_3(doc)


@settings(max_examples=150, deadline=None)
@given(corpus_markets())
def test_report_schema_3_on_corpus_markets(m):
    _assert_report_schema_3(market_doc(m))


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


def test_feasibility_facets_that_disagree_exit_4(capsys, svu_file, monkeypatch):
    # every SVU scenario is polar, so an extraction that finds nothing on the
    # uniform model contradicts the other three facets
    monkeypatch.setattr(arbitrage, "extract_p_arbitrage", lambda m, pa, p: None)
    code, out, err = _run(capsys, "analyze", svu_file)
    assert code == 4
    assert out == ""
    assert "internal error" in err and "facets disagree" in err


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
    # nothing is held at period 1, and at period 2 only on s1's node: a
    # printed strategy omits its zero positions
    assert doc["strategy"] == {"positions": {"1": {}, "2": {"s1": ["1"]}}}
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
    # lie in different nodes, and neither is printed as a zero group; nor is
    # A1, which gains at period 1 and so is dropped from period 2
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
                "2": {"A2": ["1", "0"]},
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


def _printed_strategies(m, doc: dict, tmp: Path) -> list[tuple[dict, object]]:
    """Every strategy the commands print for ``doc``, each with its in-memory strategy.

    ``analyze`` prints the aggregator and the class witness, ``check`` a
    witness per class and filtration, ``extract`` its strategy and
    ``defrag`` the masked aggregator and natural witness.
    """
    market = tmp / "market.json"
    market.write_text(json.dumps(doc), "utf-8")

    def printed(*argv) -> dict:
        out = tmp / "out.json"
        out.unlink(missing_ok=True)
        # 1 is an Arbitrage verdict of check
        assert cli.main([argv[0], str(market), "--out", str(out), *argv[1:]]) in (0, 1)
        return json.loads(out.read_text("utf-8"))

    pa = backward_eliminate(m)
    report = printed("analyze")
    found = [(report["aggregator"], pa.aggregator[0])]
    verdict = arbitrage.classify(m, pa, m.classes["c"], "enlarged")
    if verdict.witness is not None:
        found.append((report["classes"]["c"]["witness"], verdict.witness))
    for name in ("c", "MI", "1p"):
        for filtration in ("natural", "enlarged"):
            verdict = arbitrage.classify(m, pa, cli._resolve_class(m, name), filtration)
            if verdict.witness is not None:
                witness = printed("check", "--class", name, "--filtration", filtration)["witness"]
                found.append((witness, verdict.witness))
    h = arbitrage.extract_p_arbitrage(m, pa, m.probabilities["P"])
    if h is not None:
        found.append((printed("extract", "--prob", "P")["strategy"], h))
    for doc_h, h in found[:]:
        strategy = tmp / "h.json"
        strategy.write_text(json.dumps(doc_h), "utf-8")
        masked = printed("defrag", "--strategy", str(strategy))["masked"]
        found.append((masked, arbitrage.defragment(m, h)[1]))
    return found


@settings(max_examples=60, deadline=None)
@given(corpus_markets() | split_corpus_markets() | trinomial_tree(), st.data())
def test_printed_strategies_hold_no_zero_and_load_back(tmp_path_factory, m, data):
    ids = list(m.scenario_ids)
    charged = data.draw(st.lists(st.sampled_from(ids), min_size=1, unique=True))
    doc = dict(
        market_doc(m),
        classes={"c": [data.draw(st.lists(st.sampled_from(ids), min_size=1, unique=True))]},
        probabilities={"P": {sid: f"1/{len(charged)}" for sid in charged}},
    )
    m = load_market(doc)
    for printed, h in _printed_strategies(m, doc, tmp_path_factory.mktemp("cli")):
        for pos in printed["positions"].values():
            assert all(any(F(x) for x in v) for v in pos.values())
        loaded = cli.load_strategy(m, printed)
        assert value_process(m, loaded)[m.T] == value_process(m, h)[m.T]


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


def _svu_with_price_row(row) -> dict:
    doc = copy.deepcopy(SVU_DOC)
    doc["scenarios"][0]["prices"][1] = row
    return doc


def _scenario_not_object() -> dict:
    doc = copy.deepcopy(SVU_DOC)
    doc["scenarios"][1] = "w2"
    return doc


class _RepeatedKeys(dict):
    """A JSON object that ``json.dumps`` writes with ``pairs`` as given, a repeated key too.

    A file can repeat a key within one object, which no ``dict`` can hold.
    """

    def __init__(self, pairs):
        super().__init__(pairs)
        self.pairs = list(pairs)

    def items(self):
        return iter(self.pairs)


# (market document or "dir", strategy document text or None, expected message)
_MALFORMED = {
    "strategy-unknown-scenario": (SVU_DOC, '{"positions": {"1": {"w1,zz": ["1"]}}}', "unknown scenario 'zz'"),
    "strategy-float-position": (SVU_DOC, '{"positions": {"1": {"w1": [0.5]}}}', "not a rational"),
    "strategy-invalid-json": (SVU_DOC, '{"positions": ', "not valid JSON"),
    # a table from scenario sets would keep only the last of these positions
    "strategy-same-atom-twice": (
        SVU_DOC,
        '{"positions": {"1": {"w1,w2": ["1"], "w2,w1": ["-1"]}}}',
        "atoms 'w1,w2' and 'w2,w1' name the same scenarios",
    ),
    "strategy-scenario-twice-in-atom": (
        SVU_DOC, '{"positions": {"1": {"w1,w1": ["1"]}}}', "atom 'w1,w1' names 'w1' twice"
    ),
    # SVU has T = 2, so only "1" and "2" are periods
    **{
        f"strategy-period-{key}": (
            SVU_DOC,
            json.dumps({"positions": {key: {"w1": ["1"]}, "1": {"w1": ["1"]}}}),
            f"key {key!r} is not a period 1..2",
        )
        for key in ("0", "7", "x")
    },
    # plain json.loads keeps the last of two equal keys, dropping the first
    "strategy-repeated-atom-key": (
        SVU_DOC,
        '{"positions": {"1": {"w1": ["1"], "w1": ["-1"]}}}',
        "strategy document: key 'w1' appears twice in one JSON object",
    ),
    "strategy-repeated-period-key": (
        SVU_DOC,
        '{"positions": {"1": {"w1": ["1"]}, "1": {"w2": ["1"]}}}',
        "key '1' appears twice",
    ),
    "probability-repeated-scenario-key": (
        _svu_with(probabilities={"P": _RepeatedKeys([("w1", "1"), ("w1", "0"), ("w2", "1")])}),
        None,
        "market document: key 'w1' appears twice in one JSON object",
    ),
    "scenarios-key-twice": (
        _RepeatedKeys(
            [("d", 1), ("T", 2), ("scenarios", SVU_DOC["scenarios"][:2]), ("scenarios", SVU_DOC["scenarios"])]
        ),
        None,
        "key 'scenarios' appears twice",
    ),
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
    # atom keys join ids with commas: "a,b" clashed with the atom {a, b},
    # and printed the aggregator's one atom as "a,b,c"
    **{
        f"scenario-id-with-comma-{name}": (
            {"d": 1, "T": 1, "scenarios": [{"id": sid, "prices": [[10], [p]]} for sid, p in rows]},
            None,
            "scenario id 'a,b' contains a comma",
        )
        for name, rows in (
            ("clash", (("a", 11), ("b", 12), ("a,b", 9))),
            ("unreadable", (("a,b", 11), ("c", 11))),
        )
    },
    # Python's Fraction parser reads "1_0", a typo of "1.0", as 10, and
    # Arabic-Indic digits as ASCII ones
    "price-with-underscore": (_svu_with_price("1_0"), None, "scenario 'w1': not a rational: '1_0'"),
    "probability-with-underscore": (
        _svu_with(probabilities={"P": {"w1": "1/4", "w2": "1/4", "w3": "1/4", "w4": "0.2_5"}}),
        None,
        "probability 'P': not a rational: '0.2_5'",
    ),
    "strategy-non-ascii-digit": (
        SVU_DOC,
        '{"positions": {"1": {"w1": ["\u0661"]}}}',
        "strategy period 1: not a rational: '\u0661'",
    ),
    # and it strips whitespace around a number, which the file format does not admit either
    "price-with-surrounding-whitespace": (_svu_with_price(" 8"), None, "scenario 'w1': not a rational: ' 8'"),
    # a row of JSON integers skips the per-price parse; bool, an int
    # subclass, must not, and a row that is not an array is named
    "price-as-bool": (_svu_with_price_row([True]), None, "scenario 'w1': not a rational: True"),
    "price-row-not-array": (_svu_with_price_row(8), None, "scenario 'w1' price row must be a JSON array, not int"),
    "strategy-position-with-surrounding-whitespace": (
        SVU_DOC,
        '{"positions": {"1": {"w1": ["1\\n"]}}}',
        "strategy period 1: not a rational: '1\\n'",
    ),
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
# declared classes that are malformed, or that name an unknown scenario
_BAD_CLASSES = ([], [[]], [["zz"]], "x", [None], [[1]], {"a": []}, [["w1"], []])


def _corpus_doc(seed: int) -> dict:
    """A ``random_market`` document with one declared class and one probability."""
    rng = random.Random(seed)
    m = random_market(rng)
    doc = market_doc(m)
    doc["classes"] = {"c": [m.ids(s) for s in random_class(rng, m.n, "c").sets]}
    p = random_measure(rng, m.n)
    doc["probabilities"] = {"P": {m.scenario_ids[i]: str(w) for i, w in p.weights.items()}}
    return doc


_BASES = st.one_of(
    st.sampled_from((SVU_DOC, MULTI_DOC, EX3D_DOC, EX1000_DOC, COUNTNA_DOC, CONSTANT_DOC)),
    st.integers(0, 2**32 - 1).map(_corpus_doc),
)


def _draw_path(data, doc, leaf: bool) -> tuple:
    """A node of ``doc`` as a key tuple, drawn one key at a time from the root.

    The walk stops at a leaf or an empty container and, unless ``leaf``, on
    each drawn coin, so the keys near the root (``d``, ``T``, the tables)
    are drawn often, not once among every price.
    """
    node, path = doc, ()
    while isinstance(node, (dict, list)) and node:
        key = data.draw(st.sampled_from(list(node) if isinstance(node, dict) else range(len(node))))
        path, node = path + (key,), node[key]
        if not leaf and data.draw(st.booleans()):
            break
    return path


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _nudges(value, ids) -> list:
    """The values ``value`` may be nudged to.

    An integer moves by one, an id becomes another id or a new one, and a
    number string gains a digit or a sign.
    """
    if isinstance(value, int) and not isinstance(value, bool):
        return [value - 1, value + 1]
    if value in ids:
        return [sid for sid in ids if sid != value] + [value + "x"]
    if isinstance(value, str):
        return [value + "1", "-" + value]
    return [value]


def _mutant(data, base: dict, ids, ops) -> dict:
    """``base`` with one or two of ``ops`` applied, each at a drawn node.

    A node is dropped, retyped, renamed to an unknown id, renumbered,
    nudged or duplicated, or a malformed class is declared.
    """
    doc = copy.deepcopy(base)
    for _ in range(data.draw(st.integers(1, 2))):
        op = data.draw(st.sampled_from(ops))
        if op == "class":
            classes = doc.get("classes")
            doc["classes"] = dict(classes) if isinstance(classes, dict) else {}
            doc["classes"]["bad"] = copy.deepcopy(data.draw(st.sampled_from(_BAD_CLASSES)))
            continue
        path = _draw_path(data, doc, leaf=op in ("number", "nudge"))
        parent, key = _at(doc, path[:-1]), path[-1]
        if op == "drop":
            del parent[key]
        elif op == "rename" and isinstance(parent, dict):
            parent["zz"] = parent.pop(key)  # a table keyed by an unknown id
        elif op == "number":
            parent[key] = data.draw(st.sampled_from(_NUMBERS))
        elif op == "nudge":
            parent[key] = data.draw(st.sampled_from(_nudges(parent[key], ids)))
        elif op == "duplicate" and isinstance(parent, list):
            parent.insert(key, copy.deepcopy(parent[key]))  # else a retype
        else:
            parent[key] = copy.deepcopy(data.draw(st.sampled_from(_ODD_VALUES)))
        if not doc:
            doc["d"] = 1
    return doc


_MARKET_OPS = ("drop", "retype", "rename", "number", "nudge", "duplicate", "class")
_STRATEGY_OPS = ("drop", "retype", "rename", "number", "nudge", "duplicate")


@settings(max_examples=200, deadline=None)
@given(_BASES, st.data())
def test_mutated_markets_exit_cleanly(tmp_path_factory, base, data):
    # every command on a mutated market or strategy document exits 0, 1 or
    # 2, never 4, and no exception escapes; exit 1 only as an Arbitrage
    # verdict, a measure asked of a polar scenario or a losing strategy, and
    # exit 2 with one "error:" line and nothing on stdout
    ids = [s["id"] for s in base["scenarios"]]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        m = load_market(base)
    strategy_doc = cli.strategy_json(m, backward_eliminate(m).aggregator[0])
    target = data.draw(st.sampled_from(("market", "strategy", "both")))
    doc = _mutant(data, base, ids, _MARKET_OPS) if target != "strategy" else base
    if target != "market":
        strategy_doc = _mutant(data, strategy_doc, ids, _STRATEGY_OPS)
    folder = tmp_path_factory.mktemp("mutant")
    market, strategy = folder / "market.json", folder / "strategy.json"
    market.write_text(json.dumps(doc), "utf-8")
    strategy.write_text(json.dumps(strategy_doc), "utf-8")
    market, strategy = str(market), str(strategy)
    cls = data.draw(st.sampled_from(["MI", "1p", *base.get("classes", {})]))
    prob = next(iter(base.get("probabilities", {"U": None})))
    commands = [
        ["analyze", market],
        ["analyze", market, "--verify"],
        ["check", market, "--class", cls, "--filtration", "natural"],
        ["check", market, "--class", cls, "--filtration", "enlarged"],
        ["extract", market, "--prob", prob],
        ["measure", market, "--support", ids[0]],
        ["defrag", market, "--strategy", strategy],
        ["oracle", market],
    ]
    for argv in commands:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err), warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = cli.main(argv + ["--summary"])
        out, err = out.getvalue(), err.getvalue()
        assert code in (0, 1, 2), (argv[0], code, err)
        if code == 0:
            json.loads(out)
        elif code == 1:
            if argv[0] == "check":
                assert json.loads(out)["kind"] == "Arbitrage"
            elif argv[0] == "measure":
                assert "is polar" in err, err
            else:
                assert argv[0] == "defrag" and "terminal value is negative" in err, err
        else:
            assert out == "" and err.startswith("error: ") and err.count("\n") == 1, err


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
