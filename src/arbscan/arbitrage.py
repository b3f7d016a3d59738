"""Arbitrage semantics: classification, defragmentation, extraction, feasibility.

Under the enlarged filtration the class verdict is pure set logic on the polar
complement with the aggregator as universal witness.  Under the natural
filtration that equivalence can fail, so the honest decision procedure is the
oracle LP search; it finds the whole natural gain set at once, so the natural
verdict is set logic too, on that set instead of the polar complement.

Each function here that reads the polar complement takes a whole-market
analysis and raises ValueError on one restricted by ``within``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional

from .errors import DomainError, InternalError
from .market import (
    Atom,
    DiscreteMeasure,
    Market,
    SignificantClass,
    Strategy,
    terminal_values,
    value_process,
)
from .measures import class_measure
from .ratgeom import Vec
from .splitter import PolarAnalysis, backward_eliminate

NO_ARBITRAGE = "NoArbitrage"
ARBITRAGE = "Arbitrage"


@dataclass(frozen=True)
class Verdict:
    kind: str
    witness: Optional[Strategy] = None
    witness_class: Optional[Atom] = None
    certificate_measure: Optional[DiscreteMeasure] = None
    detail: str = ""

    @property
    def arbitrage(self) -> bool:
        return self.kind == ARBITRAGE


@dataclass(frozen=True)
class Decomposition:
    """P split against the polar structure: P = continuous + singular.

    The singular part lives on ``carrier`` (the polar piece of the support);
    the continuous part vanishes there.
    """

    continuous: Mapping[int, Fraction]
    singular: Mapping[int, Fraction]
    carrier: Atom


def _polar_complement(m: Market, pa: PolarAnalysis) -> Atom:
    """The polar scenarios; a restricted ``pa`` knows nothing of the rest, so ValueError."""
    if pa.start_set != m.all_indices:
        raise ValueError(f"analysis restricted to {len(pa.start_set)} of {m.n} scenarios")
    return m.all_indices - pa.omega_star


def classify(
    m: Market,
    pa: PolarAnalysis,
    cls: SignificantClass,
    filtration: str = "enlarged",
) -> Verdict:
    """Class-S verdict under the chosen strategy universe.

    Both modes are set logic on a gain set: arbitrage iff some declared set
    lies inside it, the first such set is cited, and otherwise a measure
    charging every declared set certifies the negative.  Enlarged mode: the
    gain set is the polar complement and the aggregator is the witness.
    Natural mode: the gain set is the natural-filtration gain set, which the
    oracle finds in one LP per analysis (``pa.natural_arbitrage``); its
    strategy witnesses every such set.
    """
    polar = _polar_complement(m, pa)
    if filtration == "enlarged":
        h = None  # the aggregator, built only for an Arbitrage verdict
        gain, found = polar, "declared set inside the polar complement"
        if not pa.omega_star:
            found = "every scenario is polar"
        none = "martingale measures exist and no declared set is polar"
    elif filtration == "natural":
        gain, h = pa.natural_arbitrage
        found = "strategy found by LP search over the natural filtration"
        none = "no declared set inside the natural-filtration gain set"
    else:
        raise ValueError(f"unknown filtration mode {filtration!r}")
    for c in cls.sets:
        if c <= gain:
            witness = pa.aggregator[0] if h is None else h
            return Verdict(ARBITRAGE, witness=witness, witness_class=c, detail=found)
    q = class_measure(m, pa, cls)
    if q is None:
        raise InternalError("no class measure despite a NoArbitrage verdict")
    return Verdict(NO_ARBITRAGE, certificate_measure=q, detail=none)


def one_step_1p_check(m: Market, pa: PolarAnalysis) -> list[tuple[int, int, Vec, Atom]]:
    """All single-period strict-gain opportunities found by backward elimination.

    One entry (t, node, direction, gaining set) per elimination event, in
    the order of ``pa.events`` (t ascending, then least member): ``node`` is
    the split level set's id in ``pa.nodes[t-1]``.  The list is empty
    exactly when no one-point arbitrage exists at all.
    """
    return [(sp.t, sp.node, sp.separator, sp.block) for sp in pa.events]


def defragment(m: Market, h: Strategy) -> tuple[tuple[Atom, ...], Strategy]:
    """Split a nonnegative-terminal strategy into per-period strict-gain pieces.

    U_t collects the scenarios whose running value first turns positive at t;
    the masked strategy drops each scenario from its atoms from its first
    gain onwards, so it holds zero there, and still gains strictly on each
    nonempty U_t.
    """
    v = value_process(m, h)
    for i in range(m.n):
        if v[m.T][i] < 0:
            raise DomainError(
                f"terminal value is negative on scenario {m.scenarios[i].id!r}"
            )
    u: list[Atom] = []
    masked_positions = []
    gained: Atom = frozenset()  # scenarios whose value turned positive before t
    for t, pos in enumerate(h.positions, 1):
        masked: dict[Atom, Vec] = {}
        for atom, vec_ in pos.items():
            inside = atom - gained
            if inside:
                masked[inside] = vec_
        masked_positions.append(masked)
        now = frozenset(i for i in range(m.n) if v[t][i] > 0)
        u.append(now - gained)
        gained |= now
    return tuple(u), Strategy(tuple(masked_positions))


def lebesgue_decompose(m: Market, pa: PolarAnalysis, p: DiscreteMeasure) -> Decomposition:
    """Split P into the polar-supported singular part and the rest."""
    carrier = p.support & _polar_complement(m, pa)
    singular = {i: w for i, w in p.weights.items() if i in carrier}
    continuous = {i: w for i, w in p.weights.items() if i not in carrier}
    return Decomposition(continuous=continuous, singular=singular, carrier=carrier)


def extract_p_arbitrage(m: Market, pa: PolarAnalysis, p: DiscreteMeasure) -> Optional[Strategy]:
    """A strategy that gains with positive P-mass, or None if P charges no polar scenario.

    None is no proof of classical no-arbitrage (Dalang, Morton and Willinger
    1990): with s0: 10 -> 11, s1: 10 -> 9 and P = {s0: 1}, no scenario is
    polar, so the answer is None, though the price rises P-surely.

    The analysis restricted to supp(P) (``pa`` itself when P charges every
    scenario) is searched.  The sweep's first event period, the latest
    period with an eliminating event, supplies, per level set, the separator
    of that level set, and nothing else is held.  The sweep removes nothing
    before that period, so each such level set is a whole natural node
    intersected with supp(P): the strategy is naturally predictable
    P-almost surely, V_T >= 0 holds P-almost surely and a block carries
    positive P-mass.
    """
    polar_mass = p.mass(_polar_complement(m, pa))
    if polar_mass == 0:
        return None
    sub = pa if p.support == m.all_indices else backward_eliminate(m, within=p.support)
    if not sub.events:
        raise InternalError("positive polar mass but no restricted elimination")
    tau = max(sp.t for sp in sub.events)
    pieces = {sp.members: sp.separator for sp in sub.events if sp.t == tau}
    h = Strategy(tuple(pieces if t == tau else {} for t in range(1, m.T + 1)))

    # P charges exactly its support, so the re-check reads V_T's signs there
    v, _den = terminal_values(m, h)
    charged = list(map(v.__getitem__, p.support))
    if min(charged) < 0:
        raise InternalError("extracted strategy loses on a charged scenario")
    if max(charged) <= 0:
        raise InternalError("extracted strategy gains no probability mass")
    return h


@dataclass(frozen=True)
class FeasibilityReport:
    feasible: bool
    facets: Mapping[str, bool]
    ladder: Mapping[str, bool]
    verdicts: Mapping[str, Verdict]
    full_support: Optional[DiscreteMeasure]

    @property
    def class_ladder(self) -> dict[str, bool]:
        """Per declared class, whether it admits no enlarged-filtration arbitrage."""
        return {name: not v.arbitrage for name, v in self.verdicts.items()}


def feasibility(m: Market, pa: PolarAnalysis) -> FeasibilityReport:
    """The four equivalent feasibility facets plus the arbitrage-strength ladder.

    Facets: (1) no scenario is polar; (2) a canonical full-support model
    admits no classical arbitrage; (3) a full-support martingale measure
    exists; (4) no class arbitrage for the singletons-plus-declared family
    under the enlarged filtration.  Each facet is computed by its own route,
    and facets that differ raise InternalError.  The ladder records no-1p =>
    no-class-S => no-model-independent: under the enlarged filtration a
    singleton is an arbitrage iff some scenario is polar, and the whole
    market iff every one is, so the ladder's two ends are read off
    ``omega_star``.  ``verdicts`` holds each declared class's enlarged
    verdict, the one the report prints.
    """
    polar = _polar_complement(m, pa)
    n = m.n
    witness = pa.full_support

    uniform = DiscreteMeasure.from_numerators(dict.fromkeys(range(n), 1), n)
    singletons = tuple(map(frozenset, zip(range(n))))
    declared = tuple(s for cls in m.classes.values() for s in cls.sets)
    open_like = SignificantClass("open-like", singletons + declared)

    facets = {
        "omega_star_is_everything": not polar,
        "uniform_model_has_no_classical_arbitrage": extract_p_arbitrage(m, pa, uniform) is None,
        "full_support_martingale_measure_exists": (
            witness is not None and witness.support == m.all_indices
        ),
        "no_open_like_arbitrage_enlarged": not classify(m, pa, open_like, "enlarged").arbitrage,
    }
    if len(set(facets.values())) != 1:
        raise InternalError(f"the feasibility facets disagree: {facets}")

    return FeasibilityReport(
        feasible=not polar,
        facets=facets,
        ladder={"no_1p": not polar, "no_model_independent": bool(pa.omega_star)},
        verdicts={name: classify(m, pa, cls, "enlarged") for name, cls in m.classes.items()},
        full_support=witness,
    )
