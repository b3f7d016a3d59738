"""Command-line front door: deterministic JSON reports over market files.

Exit codes: 0 success / NoArbitrage, 1 Arbitrage verdict or domain error,
2 load, validation or lookup error, 3 oracle mismatch under --verify,
4 internal error (a broken invariant of the program, never a verdict).
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path
from typing import Optional

from .arbitrage import (
    Verdict,
    classify,
    defragment,
    extract_p_arbitrage,
    feasibility,
    lebesgue_decompose,
)
from .errors import DomainError, InternalError, MarketFormatError
from .market import (
    DiscreteMeasure,
    Market,
    SignificantClass,
    Strategy,
    load_market,
    load_strategy,
    terminal_values,
)
from .measures import supporting_measure
from .oracle import oracle_arbitrage, oracle_support
from .splitter import PolarAnalysis, backward_eliminate

_ZERO = Fraction(0)


# ---------------------------------------------------------------------------
# Serialization helpers
# ---------------------------------------------------------------------------


def _atom_key(m: Market, atom) -> str:
    return ",".join(sorted(map(m.scenario_ids.__getitem__, atom)))


def _vec_json(v) -> list[str]:
    return [str(x) for x in v]


def _weights_json(m: Market, q: DiscreteMeasure) -> dict[str, str]:
    """A measure's weights by scenario id; a ``DiscreteMeasure`` holds no zero weight.

    Equal weights have equal ``int`` numerators over ``q.denominator``, so
    each distinct numerator's weight is formatted once.
    """
    ids, weights = m.scenario_ids, q.weights
    text: dict[int, str] = {}
    out = {}
    for i, k in sorted(q.numerators.items()):
        s = text.get(k)
        if s is None:
            s = text[k] = str(weights[i])
        out[ids[i]] = s
    return out


def strategy_json(m: Market, h: Strategy) -> dict:
    """``h``'s nonzero positions per period; an atom left out holds zero, as on loading."""
    return {"positions": {
        str(t): {
            _atom_key(m, atom): _vec_json(pos[atom])
            for atom in sorted(pos, key=min)
            if any(pos[atom])
        }
        for t, pos in enumerate(h.positions, 1)
    }}


def _verdict_json(m: Market, verdict: Verdict) -> dict:
    cert: dict = {"note": verdict.detail}
    if verdict.certificate_measure is not None:
        cert["measure"] = _weights_json(m, verdict.certificate_measure)
    return {
        "kind": verdict.kind,
        "class": m.ids(verdict.witness_class) if verdict.witness_class is not None else None,
        "witness": strategy_json(m, verdict.witness) if verdict.witness is not None else None,
        "certificate": cert,
    }


def _events_json(m: Market, pa: PolarAnalysis) -> list[dict]:
    """One entry per elimination event of ``pa``, in its order.

    An event's ``"level"`` prints the price rows 0..t-1 that the members of
    its level set share, read off any one member, here the first iterated.
    """
    out = []
    for sp in pa.events:
        rows = m.scenarios[next(iter(sp.members))].path[: sp.t]
        out.append({
            "t": sp.t,
            "level": " ".join("(" + ",".join(map(str, row)) + ")" for row in rows),
            "block": m.ids(sp.block),
            "separator": _vec_json(sp.separator),
        })
    return out


def _atoms_json(m: Market, row) -> list[list[str]]:
    """The atoms of a node-id row as id lists, in order of least member.

    ``row`` is numbered as :func:`~arbscan.market.node_row` numbers it, so
    each new id is the next one and opens the next list.
    """
    atoms: list[list[str]] = []
    for sid, k in zip(m.scenario_ids, row):
        if k < len(atoms):
            atoms[k].append(sid)
        else:
            atoms.append([sid])
    return atoms


def build_report(m: Market, verify: bool = False) -> tuple[dict, bool]:
    """The analyze report; the bool is oracle agreement (True without --verify)."""
    pa = backward_eliminate(m)
    agg, enlarged = pa.aggregator
    feas = feasibility(m, pa)

    report = {
        "market": {"d": m.d, "T": m.T, "scenarios": m.n, "ids": list(m.scenario_ids)},
        "omega_star": m.ids(pa.omega_star),
        "polar_complement": m.ids(m.all_indices - pa.omega_star),
        "events": _events_json(m, pa),
        "aggregator": strategy_json(m, agg),
        "enlarged_filtration": {str(t): _atoms_json(m, enlarged[t]) for t in range(m.T + 1)},
        "measures": {
            "full_support": (
                None if feas.full_support is None else _weights_json(m, feas.full_support)
            ),
        },
        "classes": {name: _verdict_json(m, v) for name, v in feas.verdicts.items()},
        "feasibility": {
            "feasible": feas.feasible,
            "facets": dict(feas.facets),
            "ladder": dict(feas.ladder),
            "class_ladder": feas.class_ladder,
        },
    }

    agrees = True
    if verify:
        support = oracle_support(m)
        agrees = support == pa.omega_star
        report["oracle"] = {"support": m.ids(support), "agrees": agrees}
    return report, agrees


# ---------------------------------------------------------------------------
# Commands: each maps the loaded market and the parsed arguments to its JSON
# document, its --summary lines and its exit code; only main loads, writes
# and turns errors into exit codes.
# ---------------------------------------------------------------------------

_Outcome = tuple[dict, list[str], int]


def _lookup(get, name: str, what: str):
    """``get(name)``; a ``KeyError`` becomes the exit-2 error naming the unknown ``what``."""
    try:
        return get(name)
    except KeyError:
        raise MarketFormatError(f"unknown {what} {name!r}") from None


def _resolve_class(m: Market, name: str) -> SignificantClass:
    if name in m.classes:
        return m.classes[name]
    if name == "MI":
        return SignificantClass("MI", (m.all_indices,))
    if name == "1p":
        return SignificantClass("1p", tuple(frozenset({i}) for i in range(m.n)))
    raise MarketFormatError(f"unknown class {name!r}")


def cmd_analyze(m: Market, args) -> _Outcome:
    report, agrees = build_report(m, verify=args.verify)
    summary = [
        f"scenarios: {m.n}  d={m.d} T={m.T}",
        f"omega_star: {report['omega_star']}",
        f"feasible: {report['feasibility']['feasible']}",
    ]
    return report, summary, 0 if agrees else 3


def cmd_check(m: Market, args) -> _Outcome:
    cls = _resolve_class(m, args.cls)
    verdict = classify(m, backward_eliminate(m), cls, args.filtration)
    summary = [f"{cls.name}: {verdict.kind} ({args.filtration})"]
    return _verdict_json(m, verdict), summary, 1 if verdict.arbitrage else 0


def cmd_extract(m: Market, args) -> _Outcome:
    p = _lookup(m.probabilities.__getitem__, args.prob, "probability")
    pa = backward_eliminate(m)
    h = extract_p_arbitrage(m, pa, p)
    dec = lebesgue_decompose(m, pa, p)
    doc = {
        "probability": args.prob,
        "singular_mass": str(sum(dec.singular.values(), _ZERO)),
        "strategy": None if h is None else strategy_json(m, h),
    }
    if h is not None:
        v, den = terminal_values(m, h)
        doc["certificate"] = {
            "terminal_values": {sid: str(Fraction(x, den)) for sid, x in zip(m.scenario_ids, v)},
            "charged_gain_ids": m.ids([i for i in p.support if v[i] > 0]),
        }
    return doc, [f"extract {args.prob}: {'found' if h else 'none'}"], 0


def cmd_measure(m: Market, args) -> _Outcome:
    idx = _lookup(m.index_of, args.support, "scenario")
    q = supporting_measure(m, backward_eliminate(m), idx)
    doc = {"scenario": args.support, "weights": _weights_json(m, q)}
    return doc, [f"supporting measure for {args.support}"], 0


def cmd_defrag(m: Market, args) -> _Outcome:
    u, masked = defragment(m, load_strategy(m, args.strategy))
    doc = {
        "U": {str(t + 1): m.ids(u_t) for t, u_t in enumerate(u)},
        "masked": strategy_json(m, masked),
    }
    return doc, [f"defrag: U sizes {[len(x) for x in u]}"], 0


def cmd_oracle(m: Market, args) -> _Outcome:
    support = oracle_support(m)
    classes = {}
    if m.classes:
        pa = backward_eliminate(m)
        _, enlarged = pa.aggregator
        natural_gain, _ = pa.natural_arbitrage
        enlarged_gain, _ = oracle_arbitrage(m, enlarged)
        for name, cls in m.classes.items():
            classes[name] = {
                "natural": any(c <= natural_gain for c in cls.sets),
                "enlarged": any(c <= enlarged_gain for c in cls.sets),
            }
    doc = {"support": m.ids(support), "classes": classes}
    return doc, [f"oracle support: {m.ids(support)}"], 0


def _parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("market", help="market JSON file")
    common.add_argument("--out", help="write the JSON report to this file")
    common.add_argument("--summary", action="store_true", help="human summary on stderr")

    ap = argparse.ArgumentParser(prog="arbscan", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", parents=[common], help="full polar/aggregator/feasibility report")
    p.add_argument("--verify", action="store_true", help="cross-check with the LP oracle")

    p = sub.add_parser("check", parents=[common], help="class arbitrage verdict")
    p.add_argument("--class", dest="cls", required=True, help="declared class, or MI / 1p")
    p.add_argument(
        "--filtration", choices=("natural", "enlarged"), default="enlarged"
    )

    p = sub.add_parser("extract", parents=[common], help="polar-mass arbitrage for a declared model")
    p.add_argument("--prob", required=True, help="declared probability name")

    p = sub.add_parser("measure", parents=[common], help="supporting martingale measure")
    p.add_argument("--support", required=True, help="scenario id to charge")

    p = sub.add_parser("defrag", parents=[common], help="per-period gain decomposition")
    p.add_argument("--strategy", required=True, help="strategy JSON file")

    sub.add_parser("oracle", parents=[common], help="LP-oracle support and class search")
    return ap


_COMMANDS = {
    "analyze": cmd_analyze,
    "check": cmd_check,
    "extract": cmd_extract,
    "measure": cmd_measure,
    "defrag": cmd_defrag,
    "oracle": cmd_oracle,
}


def main(argv: Optional[list[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        doc, summary, code = _COMMANDS[args.command](load_market(Path(args.market)), args)
        text = json.dumps(doc, indent=2) + "\n"
        if args.out:
            Path(args.out).write_text(text, "utf-8")
        else:
            sys.stdout.write(text)
    except (MarketFormatError, OSError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, DomainError) else 2
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4
    if args.summary:
        for line in summary:
            print(line, file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
