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
    Market,
    SignificantClass,
    Strategy,
    atoms_of,
    load_market,
    load_strategy,
    value_process,
)
from .measures import supporting_measure
from .oracle import oracle_arbitrage, oracle_support
from .splitter import backward_eliminate

_ZERO = Fraction(0)


# ---------------------------------------------------------------------------
# Serialization helpers
# ---------------------------------------------------------------------------


def _atom_key(m: Market, atom) -> str:
    return ",".join(sorted(m.scenarios[i].id for i in atom))


def _vec_json(v) -> list[str]:
    return [str(x) for x in v]


def _weights_json(m: Market, weights) -> dict[str, str]:
    return {
        m.scenarios[i].id: str(w)
        for i, w in sorted(weights.items())
        if w != 0
    }


def _level_str(rows) -> str:
    return " ".join("(" + ",".join(str(x) for x in row) + ")" for row in rows)


def strategy_json(m: Market, h: Strategy) -> dict:
    return {"positions": {
        str(t): {_atom_key(m, atom): _vec_json(pos[atom]) for atom in sorted(pos, key=min)}
        for t, pos in enumerate(h.positions, 1)
    }}


def _verdict_json(m: Market, verdict: Verdict) -> dict:
    cert: dict = {"note": verdict.detail}
    if verdict.certificate_measure is not None:
        cert["measure"] = _weights_json(m, verdict.certificate_measure.weights)
    return {
        "kind": verdict.kind,
        "class": m.ids(verdict.witness_class) if verdict.witness_class is not None else None,
        "witness": strategy_json(m, verdict.witness) if verdict.witness is not None else None,
        "certificate": cert,
    }


def build_report(m: Market, verify: bool = False) -> tuple[dict, bool]:
    """The analyze report; the bool is oracle agreement (True without --verify)."""
    pa = backward_eliminate(m)
    agg, enlarged = pa.aggregator
    feas = feasibility(m, pa)

    splittings = [
        {
            "t": sp.t,
            # the price rows 0..t-1 that every member shares
            "level": _level_str(m.scenarios[min(sp.members)].path[: sp.t]),
            "members": m.ids(sp.members),
            "block": m.ids(sp.block),
            "separator": None if sp.separator is None else _vec_json(sp.separator),
            "residual": m.ids(sp.residual),
        }
        for sp in pa.splittings.values()
    ]

    report = {
        "market": {"d": m.d, "T": m.T, "scenarios": m.n, "ids": [s.id for s in m.scenarios]},
        "omega_star": m.ids(pa.omega_star),
        "polar_complement": m.ids(m.all_indices - pa.omega_star),
        "splittings": splittings,
        "aggregator": strategy_json(m, agg),
        "enlarged_filtration": {
            str(t): [m.ids(a) for a in atoms_of(enlarged[t])] for t in range(m.T + 1)
        },
        "measures": {
            "full_support": (
                None if feas.full_support is None else _weights_json(m, feas.full_support.weights)
            ),
        },
        "classes": {
            name: _verdict_json(m, classify(m, pa, cls, "enlarged"))
            for name, cls in m.classes.items()
        },
        "feasibility": {
            "feasible": feas.feasible,
            "facets": dict(feas.facets),
            "ladder": dict(feas.ladder),
            "class_ladder": dict(feas.class_ladder),
        },
    }

    agrees = True
    if verify:
        support = oracle_support(m)
        agrees = support == pa.omega_star
        report["oracle"] = {"support": m.ids(support), "agrees": agrees}
    return report, agrees


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _emit(doc: dict, out: Optional[str]) -> None:
    text = json.dumps(doc, indent=2) + "\n"
    if out:
        Path(out).write_text(text, "utf-8")
    else:
        sys.stdout.write(text)


def _summary(lines: list[str], enabled: bool) -> None:
    if enabled:
        for line in lines:
            print(line, file=sys.stderr)


def _resolve_class(m: Market, name: str) -> SignificantClass:
    if name in m.classes:
        return m.classes[name]
    if name == "MI":
        return SignificantClass("MI", (m.all_indices,))
    if name == "1p":
        return SignificantClass("1p", tuple(frozenset({i}) for i in range(m.n)))
    raise KeyError(name)


def cmd_analyze(args) -> int:
    m = load_market(Path(args.market))
    report, agrees = build_report(m, verify=args.verify)
    _emit(report, args.out)
    _summary(
        [
            f"scenarios: {report['market']['scenarios']}  d={m.d} T={m.T}",
            f"omega_star: {report['omega_star']}",
            f"feasible: {report['feasibility']['feasible']}",
        ],
        args.summary,
    )
    return 0 if agrees else 3


def cmd_check(args) -> int:
    m = load_market(Path(args.market))
    try:
        cls = _resolve_class(m, args.cls)
    except KeyError:
        print(f"error: unknown class {args.cls!r}", file=sys.stderr)
        return 2
    pa = backward_eliminate(m)
    verdict = classify(m, pa, cls, args.filtration)
    _emit(_verdict_json(m, verdict), args.out)
    _summary([f"{cls.name}: {verdict.kind} ({args.filtration})"], args.summary)
    return 1 if verdict.arbitrage else 0


def cmd_extract(args) -> int:
    m = load_market(Path(args.market))
    if args.prob not in m.probabilities:
        print(f"error: unknown probability {args.prob!r}", file=sys.stderr)
        return 2
    p = m.probabilities[args.prob]
    pa = backward_eliminate(m)
    h = extract_p_arbitrage(m, pa, p)
    dec = lebesgue_decompose(m, pa, p)
    doc = {
        "probability": args.prob,
        "singular_mass": str(sum(dec.singular.values(), _ZERO)),
        "strategy": None if h is None else strategy_json(m, h),
    }
    if h is not None:
        v = value_process(m, h)
        doc["certificate"] = {
            "terminal_values": {m.scenarios[i].id: str(v[m.T][i]) for i in range(m.n)},
            "charged_gain_ids": m.ids([i for i in p.support if v[m.T][i] > 0]),
        }
    _emit(doc, args.out)
    _summary([f"extract {args.prob}: {'found' if h else 'none'}"], args.summary)
    return 0


def cmd_measure(args) -> int:
    m = load_market(Path(args.market))
    try:
        idx = m.index_of(args.support)
    except KeyError:
        print(f"error: unknown scenario {args.support!r}", file=sys.stderr)
        return 2
    pa = backward_eliminate(m)
    q = supporting_measure(m, pa, idx)
    _emit({"scenario": args.support, "weights": _weights_json(m, q.weights)}, args.out)
    _summary([f"supporting measure for {args.support}"], args.summary)
    return 0


def cmd_defrag(args) -> int:
    m = load_market(Path(args.market))
    h = load_strategy(m, args.strategy)
    u, masked = defragment(m, h)
    doc = {
        "U": {str(t + 1): m.ids(u_t) for t, u_t in enumerate(u)},
        "masked": strategy_json(m, masked),
    }
    _emit(doc, args.out)
    _summary([f"defrag: U sizes {[len(x) for x in u]}"], args.summary)
    return 0


def cmd_oracle(args) -> int:
    m = load_market(Path(args.market))
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
    _emit({"support": m.ids(support), "classes": classes}, args.out)
    _summary([f"oracle support: {m.ids(support)}"], args.summary)
    return 0


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
        return _COMMANDS[args.command](args)
    except MarketFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
