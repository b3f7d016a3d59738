"""Level-set splitting, backward elimination to a fixpoint, and the aggregator.

A level set whose increment cone does not contain 0 in its relative interior
splits into strict-gain blocks plus an efficient residual.  Iterating block
removal backwards over time until nothing changes yields the maximal set of
scenarios supportable by martingale measures (``omega_star``); the aggregator
strategy holds, in each scenario, the separator that eliminated it.

The :class:`PolarAnalysis` that :func:`backward_eliminate` returns is the
per-market context of everything downstream.  Elimination starts by building
the natural filtration and, from it, a node index: per period, each
scenario's node (atom) id.  Level sets and a node's children are then groups
of ids, not of hashed price histories.  Elimination and the full-support
measure also share one LP memo: recombining trees ask the same separator and
zero-combination questions at many nodes, and each is solved once.  The
analysis keeps its market, the filtration, the index and the memo, and builds
three artifacts lazily, each at most once and only on first use: the
aggregator with its enlarged filtration, the full-support martingale measure,
and the natural-filtration gain set with its oracle strategy.  All of it
lives exactly as long as the analysis; nothing is cached on the market or at
module level, so a fresh ``backward_eliminate`` starts from nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Hashable, Iterable, Mapping, Optional, Sequence

from . import oracle
from .errors import DomainError, InternalError
from .market import Atom, DiscreteMeasure, Market, Partition, Strategy, natural_filtration, refine
from .ratgeom import Vec, maximal_separator

LevelKey = tuple[Vec, ...]


@dataclass(frozen=True)
class Splitting:
    """Decomposition of one level set at one period.

    ``blocks[i]`` gains strictly under ``separators[i]``; ``residual`` admits
    no one-step gain at all (its increment cone holds 0 in relative interior).
    """

    t: int
    level_key: LevelKey
    members: Atom
    blocks: tuple[Atom, ...]
    separators: tuple[Vec, ...]
    residual: Atom

    @property
    def beta(self) -> int:
        return len(self.blocks)

    def __post_init__(self):
        union = frozenset().union(*self.blocks) if self.blocks else frozenset()
        if union | self.residual != self.members or len(self.blocks) != len(self.separators):
            raise ValueError("inconsistent splitting")


@dataclass(frozen=True)
class Event:
    """One block-elimination step of the fixpoint (sweep >= 1)."""

    sweep: int
    splitting: Splitting


@dataclass(frozen=True)
class PolarAnalysis:
    """Full output of :func:`backward_eliminate`.

    ``survivors[t]`` is the set of scenarios not eliminated at any period
    strictly after t, so ``survivors[T]`` is everything and ``survivors[0]``
    equals ``omega_star``.  ``splittings`` holds the first-sweep decomposition
    of every level set (the reported, construction-faithful one); ``events``
    records every eliminating splitting across all sweeps.

    The per-analysis context takes no part in ``==`` or ``repr``: ``market``
    is the analysed market, ``natural`` its natural filtration F_0..F_T,
    ``nodes[t][i]`` the index of scenario i's atom in ``natural[t]`` (its node
    at time t), and ``lp_memo`` the answers of the separator and
    zero-combination LPs solved so far, keyed by :func:`solve_once`.
    The cached properties ``aggregator``, ``full_support`` and
    ``natural_arbitrage`` call :func:`universal_aggregator`,
    :func:`~arbscan.measures.full_support_measure` and
    :func:`~arbscan.oracle.oracle_arbitrage` once, on first read, and
    return that same object on every later read.  They are deterministic
    functions of (market, analysis), so reading them changes no answer; a new
    analysis of the same market shares none of them.
    """

    omega_star: Atom
    survivors: tuple[Atom, ...]
    splittings: Mapping[tuple[int, LevelKey], Splitting]
    events: tuple[Event, ...]
    eliminated_levels: Mapping[int, tuple[Splitting, ...]]
    rounds: int
    start_set: Atom
    market: Market = field(compare=False, repr=False)
    natural: tuple[Partition, ...] = field(compare=False, repr=False)
    nodes: tuple[tuple[int, ...], ...] = field(compare=False, repr=False)
    lp_memo: dict = field(compare=False, repr=False)

    @cached_property
    def aggregator(self) -> tuple[Strategy, tuple[Partition, ...]]:
        """The universal aggregator and its enlarged filtration."""
        agg, enlarged = universal_aggregator(self.market, self)
        return agg, tuple(enlarged)

    @cached_property
    def full_support(self) -> Optional[DiscreteMeasure]:
        """The martingale measure with support exactly ``omega_star`` (None if empty)."""
        from . import measures  # measures imports this module

        return measures.full_support_measure(self.market, self)

    @cached_property
    def natural_arbitrage(self) -> tuple[Atom, Optional[Strategy]]:
        """The natural-filtration gain set and a strategy gaining >= 1 on all of it."""
        return oracle.oracle_arbitrage(self.market, self.natural)


def solve_once(memo: dict, solve: Callable, points: tuple[Vec, ...]):
    """``solve(points)``, solved at most once per ``memo``.

    The geometric LPs are deterministic functions of their exact input, so a
    repeated question gets the very answer a fresh solve would give.  One
    ``setdefault`` with a one-slot holder hashes the key once per call; a
    solve that raises leaves the holder empty, so the question is asked again.
    """
    slot = memo.setdefault((solve, points), [])
    if not slot:
        slot.append(solve(points))
    return slot[0]


def group_by(key_of: Sequence[Hashable], members: Iterable[int]) -> list[list[int]]:
    """``members`` grouped by ``key_of[i]``, groups and their members in first-seen order.

    With sorted members and ``key_of`` a row of the node index, these are the
    level sets of :meth:`~arbscan.market.Market.level_sets`, found from
    integer ids.
    """
    groups: dict[Hashable, list[int]] = {}
    for i in members:
        groups.setdefault(key_of[i], []).append(i)
    return list(groups.values())


def split_level_set(
    m: Market,
    t: int,
    gamma: Atom,
    nodes: Optional[Sequence[Sequence[int]]] = None,
    memo: Optional[dict] = None,
) -> Splitting:
    """Iterated maximal separation of one level set's period-t increments.

    Peels strict-gain blocks until 0 enters the relative interior of the
    residual's increment cone; at most d rounds are possible because each
    separator drops the span dimension.  The scenarios of one child node
    share their increment, so each round's separator LP sees one point per
    remaining child, in the order of the children's least members.

    ``nodes`` is the analysis's node index (:attr:`PolarAnalysis.nodes`):
    with it the level set is checked and its children found by node id;
    without it, by price rows.  ``memo`` is the analysis's LP memo.
    """
    if not gamma:
        raise DomainError("cannot split an empty level set")
    members = frozenset(gamma)
    order = sorted(members)
    if nodes is None:
        shared = len({m.history(i, t - 1) for i in order}) == 1
        child_of: Sequence[Hashable] = [s.path[t] for s in m.scenarios]
    else:
        shared = len({nodes[t - 1][i] for i in order}) == 1
        child_of = nodes[t]
    if not shared:
        raise ValueError("level set mixes different price histories")
    memo = {} if memo is None else memo

    children = [(m.increment(t, c[0]), c) for c in group_by(child_of, order)]
    blocks: list[Atom] = []
    separators: list[Vec] = []
    while children:
        found = solve_once(memo, maximal_separator, tuple(p for p, _c in children))
        if found is None:
            break
        h, strict = found
        blocks.append(frozenset(i for k in strict for i in children[k][1]))
        separators.append(h)
        children = [c for k, c in enumerate(children) if k not in strict]
    sp = Splitting(
        t=t,
        level_key=m.history(order[0], t - 1),
        members=members,
        blocks=tuple(blocks),
        separators=tuple(separators),
        residual=frozenset(i for _p, c in children for i in c),
    )
    if sp.beta > m.d:
        raise InternalError(f"level set split into {sp.beta} blocks, more than d={m.d}")
    return sp


def backward_eliminate(m: Market, within: Optional[Atom] = None) -> PolarAnalysis:
    """Fixpoint block elimination over the (optionally restricted) scenario set.

    Each sweep walks t = T..1, splits every level set of the current
    survivors, and removes all blocks immediately; sweeps repeat until one
    full pass removes nothing.  On exit every surviving level set passes
    cone_ri_contains_zero, so every survivor is supportable by a martingale
    measure concentrated on the survivors.  Level sets are groups of the
    survivors by node id (see :class:`PolarAnalysis`).
    """
    start = m.all_indices if within is None else frozenset(within)
    natural = tuple(natural_filtration(m))
    nodes = tuple(_node_ids(part, m.n) for part in natural)
    memo: dict = {}
    surviving = set(start)
    cache: dict[tuple[int, Atom], Splitting] = {}
    round_one: dict[tuple[int, LevelKey], Splitting] = {}
    events: list[Event] = []
    eliminated: dict[int, list[Splitting]] = {t: [] for t in range(1, m.T + 1)}

    sweep = 0
    while True:
        sweep += 1
        changed = False
        for t in range(m.T, 0, -1):
            if not surviving:
                break
            for level in group_by(nodes[t - 1], sorted(surviving)):
                gamma = frozenset(level)
                ck = (t, gamma)
                sp = cache.get(ck)
                if sp is None:
                    sp = split_level_set(m, t, gamma, nodes, memo)
                    cache[ck] = sp
                if sweep == 1:
                    round_one[(t, sp.level_key)] = sp
                if sp.blocks:
                    changed = True
                    events.append(Event(sweep, sp))
                    for block in sp.blocks:
                        surviving -= block
                    if not sp.residual:
                        eliminated[t].append(sp)
        if not changed:
            break

    omega_star = frozenset(surviving)
    elim_time: dict[int, int] = {}
    for ev in events:
        for block in ev.splitting.blocks:
            for i in block:
                elim_time[i] = ev.splitting.t
    survivors = tuple(
        frozenset(i for i in start if elim_time.get(i, 0) <= t) for t in range(m.T + 1)
    )
    if survivors[0] != omega_star or survivors[m.T] != start:
        raise InternalError("survivor sets do not run from omega_star to the start set")

    return PolarAnalysis(
        omega_star=omega_star,
        survivors=survivors,
        splittings=round_one,
        events=tuple(events),
        eliminated_levels={t: tuple(v) for t, v in eliminated.items()},
        rounds=sweep,
        start_set=start,
        market=m,
        natural=natural,
        nodes=nodes,
        lp_memo=memo,
    )


def _node_ids(part: Partition, n: int) -> tuple[int, ...]:
    """Per scenario index, the position of its atom in ``part.atoms``."""
    ids = [0] * n
    for k, atom in enumerate(part.atoms):
        for i in atom:
            ids[i] = k
    return tuple(ids)


def universal_aggregator(m: Market, pa: PolarAnalysis) -> tuple[Strategy, list[Partition]]:
    """The aggregator strategy and the enlarged filtration it is predictable for.

    The strategy holds, at each scenario's elimination period, the separator
    of the block that removed it (zero otherwise); its strict-gain set is
    exactly the complement of ``omega_star``.  The filtration joins the
    natural one (``pa.natural``) with the value partitions of the aggregator
    one step ahead (no look-ahead term at T).

    Each block's separator is interned once: equal separators, common in
    recombining trees, share one id, so grouping scenarios by id is grouping
    them by value, and no vector is hashed per scenario and period.
    """
    values: list[Vec] = [(0,) * m.d]  # id 0 is the zero position
    id_of: dict[Vec, int] = {values[0]: 0}
    ids = [[0] * m.n for _ in range(m.T + 1)]
    for ev in pa.events:
        sp = ev.splitting
        for block, sep in zip(sp.blocks, sp.separators):
            k = id_of.setdefault(sep, len(values))
            if k == len(values):
                values.append(sep)
            row = ids[sp.t]
            for i in block:
                row[i] = k

    value_parts = [None] + [
        Partition(tuple(frozenset(g) for g in group_by(ids[t], range(m.n))))
        for t in range(1, m.T + 1)
    ]
    f = pa.natural
    enlarged = []
    for t in range(m.T + 1):
        part = f[t]
        for s in range(1, min(t + 1, m.T) + 1):
            part = refine(part, value_parts[s])
        enlarged.append(part)

    positions = []
    for t in range(1, m.T + 1):
        pos: dict[Atom, Vec] = {}
        row = ids[t]
        for atom in enlarged[t - 1].atoms:
            held = {row[i] for i in atom}
            if len(held) != 1:
                raise InternalError("aggregator not constant on an enlarged atom")
            pos[atom] = values[held.pop()]
        positions.append(pos)
    return Strategy(tuple(positions)), enlarged


def check_predictable(h: Strategy, filtration: Sequence[Partition]) -> bool:
    """True iff each period's positions are constant on the previous partition's atoms."""
    d = next((len(v) for pos in h.positions for v in pos.values()), None)
    if d is None:
        return True
    for t in range(1, len(h.positions) + 1):
        for atom in filtration[t - 1].atoms:
            vals = {h.vector(t, i, d) for i in atom}
            if len(vals) > 1:
                return False
    return True
