"""Level-set splitting, backward elimination in one sweep, and the aggregator.

A level set at period t is a node of F_{t-1}, and its splitting is keyed by
(t, node id).  At most one separator LP splits it: the maximal separator of
its increments gains strictly on one block, and the efficient residual holds
0 in the relative interior of its increment cone.  Increments that sum to
zero need no LP: nothing gains on them, and the level set is all residual.
Removing each block backwards, t = T..1, yields the maximal set of
scenarios supportable by martingale measures (``omega_star``) in one sweep:
a block removed at period t is a union of whole child nodes at time t, so
every level set of a later period lies inside it or misses it.  The
aggregator holds, in each scenario, the separator that eliminated it, and is
re-checked with ``check_predictable`` and ``value_process``, as every
emitted strategy is.

The :class:`PolarAnalysis` that :func:`backward_eliminate` returns is the
per-market context of everything downstream: the natural filtration once, as
node rows with one increment per node, the LP memo that elimination and the
full-support measure share, and three artifacts built lazily, at most once
each (see its docstring).  Nothing is cached on the market or at module
level, so a fresh ``backward_eliminate`` starts from nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterable, Mapping, Optional, Sequence

from . import oracle
from .errors import DomainError, InternalError
from .market import (
    Atom,
    DiscreteMeasure,
    Market,
    Strategy,
    atoms_of,
    check_predictable,
    natural_nodes,
    node_row,
    value_process,
)
from .ratgeom import Vec, maximal_separator


@dataclass(frozen=True)
class Splitting:
    """Decomposition of one level set at one period.

    The level set is a node of F_{t-1}, ``node`` its id in ``pa.nodes[t-1]``
    and ``members`` its live scenarios.  ``block`` gains strictly under
    ``separator``, and is empty, with ``separator`` None, when nothing gains;
    ``residual`` admits no one-step gain at all (its increment cone holds 0
    in relative interior).
    """

    t: int
    node: int
    members: Atom
    block: Atom
    separator: Optional[Vec]
    residual: Atom

    def __post_init__(self):
        block, rest = self.block, self.residual
        if block | rest != self.members or block & rest or (self.separator is None) != (not block):
            raise ValueError("inconsistent splitting")


@dataclass(frozen=True)
class PolarAnalysis:
    """Full output of :func:`backward_eliminate`.

    ``omega_star`` is the set of scenarios no period eliminated.
    ``splittings`` holds the decomposition of every level set the sweep met,
    keyed by ``(t, node)``, the level set's period and its node id at t-1,
    in report order: t ascending, then least member; ``events`` holds those
    with a block, in the order they were removed.  Elimination is
    one sweep, so ``rounds`` is always 1.  The benchmark's ``splitter.sweeps``
    counter is its only reader; once the benchmark drops that counter, the
    attribute goes too.

    The per-analysis context takes no part in ``==`` or ``repr``: ``market``
    is the analysed market, ``nodes[t][i]`` the id of scenario i's node at
    time t (:func:`~arbscan.market.natural_nodes`; ids run in order of least
    member), ``increments[t][c]`` the price increment over (t-1, t] that
    every scenario of node c at time t shares (``increments[0]`` is empty),
    and ``lp_memo`` the answers of the separator and zero-combination LPs
    solved so far, one per point set, kept by :func:`solve_once`.
    ``nodes`` is also the natural filtration wherever one is taken.
    The cached properties ``aggregator``, ``full_support`` and
    ``natural_arbitrage`` are built once, on first read, by
    :func:`universal_aggregator`,
    :func:`~arbscan.measures.full_support_measure` and
    :func:`~arbscan.oracle.oracle_arbitrage`, and return that same object on
    every later read.  They are deterministic
    functions of (market, analysis), so reading them changes no answer; a new
    analysis of the same market shares none of them.
    """

    omega_star: Atom
    splittings: Mapping[tuple[int, int], Splitting]
    events: tuple[Splitting, ...]
    start_set: Atom
    market: Market = field(compare=False, repr=False)
    nodes: tuple[tuple[int, ...], ...] = field(compare=False, repr=False)
    increments: tuple[tuple[Vec, ...], ...] = field(compare=False, repr=False)
    lp_memo: dict = field(compare=False, repr=False)

    rounds = 1

    @cached_property
    def aggregator(self) -> tuple[Strategy, tuple[tuple[int, ...], ...]]:
        """The universal aggregator and its enlarged filtration's node rows."""
        return universal_aggregator(self.market, self)

    @cached_property
    def full_support(self) -> Optional[DiscreteMeasure]:
        """The martingale measure with support exactly ``omega_star`` (None if empty)."""
        from . import measures  # measures imports this module

        return measures.full_support_measure(self.market, self)

    @cached_property
    def natural_arbitrage(self) -> tuple[Atom, Optional[Strategy]]:
        """The natural-filtration gain set and a strategy gaining >= 1 on all of it."""
        return oracle.oracle_arbitrage(self.market, self.nodes)


def solve_once(memo: dict, solve: Callable, points: Sequence[Vec], move: Callable):
    """``solve(points)``, solved at most once per point set per ``memo``.

    The question is keyed on its points in sorted order, so the same points
    asked in another order are not solved again.  A miss is solved in the
    asker's own order (the simplex's pivots depend on column order, and a
    sorted solve was measured slower) and kept against the points' sorted
    ranks.  ``move(answer, index)`` re-indexes an answer, sending the part of
    point k to position ``index[k]``; each later asker gets the kept answer
    moved to its own order.  The answers are exact, and a separator, its
    strict set and max-min zero-combination weights stay valid under any
    order of the points, so every answer holds for the point set; it is the
    first asker's solve.

    One ``setdefault`` with a one-slot holder hashes the key once per call; a
    solve that raises leaves the holder empty, so the question is asked again.
    """
    order = sorted(range(len(points)), key=points.__getitem__)
    slot = memo.setdefault((solve, tuple(map(points.__getitem__, order))), [])
    if slot:
        return move(slot[0], order)
    answer = solve(points)
    rank = [0] * len(order)
    for r, k in enumerate(order):
        rank[k] = r
    slot.append(move(answer, rank))
    return answer


def move_strict(found: Optional[tuple[Vec, Iterable[int]]], index: Sequence[int]):
    """A :func:`~arbscan.ratgeom.maximal_separator` answer with its strict set re-indexed."""
    if found is None:
        return None
    h, strict = found
    return h, frozenset(index[k] for k in strict)


def move_weights(weights: Sequence, index: Sequence[int]) -> tuple:
    """Per-point ``weights`` with the weight of point k moved to position ``index[k]``."""
    out = [None] * len(weights)
    for k, w in enumerate(weights):
        out[index[k]] = w
    return tuple(out)


def split_level_set(
    t: int, node: int, children: Sequence[tuple[Vec, Atom]], memo: dict
) -> Splitting:
    """One maximal separation of one level set's period-t increments.

    The level set is node ``node`` of the row at t-1, and ``children`` are
    its child nodes at t as (shared increment, members) pairs, as
    :func:`backward_eliminate` reads them off the node rows; their members
    make up the level set.  One separator question, in ``memo``, sees one
    point per child; it takes one LP, or none when the points sum to zero.
    The block is its strict set, and the residual needs no second question
    (see :func:`~arbscan.ratgeom.maximal_separator`).
    """
    members = frozenset().union(*(c for _p, c in children))
    if not members:
        raise DomainError("cannot split an empty level set")
    found = solve_once(memo, maximal_separator, tuple(p for p, _c in children), move_strict)
    h, strict = (None, ()) if found is None else found
    block = frozenset().union(*(children[k][1] for k in strict))
    return Splitting(
        t=t, node=node, members=members, block=block, separator=h, residual=members - block
    )


def backward_eliminate(m: Market, within: Optional[Atom] = None) -> PolarAnalysis:
    """Block elimination over the (optionally restricted) scenario set, in one sweep.

    ``within`` restricts the sweep to those scenario indices; one outside
    ``range(m.n)`` raises ValueError.  The sweep walks t = T..1 up the node rows.  At each period it splits the
    level set of every node at time t-1 that still has survivors: the node's
    surviving children, with the increments they share.  Every block is
    removed at once, and the residuals are the surviving nodes one period up.
    A block is a union of whole surviving child nodes, so the level sets of
    later periods were final when it was removed, and a second sweep would
    remove nothing.  On exit every surviving level set passes
    cone_ri_contains_zero, so every survivor is supportable by a martingale
    measure concentrated on the survivors.
    """
    start = m.all_indices if within is None else frozenset(within)
    if not start <= m.all_indices:
        raise ValueError(f"within holds {sorted(start - m.all_indices)}, outside range({m.n})")
    nodes = natural_nodes(m)
    # node ids run in order of least member, so node c first appears at its
    # least member, when c new ids have been seen
    increments: list[tuple[Vec, ...]] = [()]
    for t in range(1, m.T + 1):
        incs: list[Vec] = []
        for i, c in enumerate(nodes[t]):
            if c == len(incs):
                incs.append(m.increment(t, i))
        increments.append(tuple(incs))
    memo: dict = {}
    # per period, the splittings in order of least member
    split_at: list[list[Splitting]] = [[] for _ in range(m.T + 1)]
    events: list[Splitting] = []

    # (least member, node id, members) of each node at time t that has
    # survivors, in order of least surviving member; a node's least survivor
    # is its first child's, so its level set and its children keep that order
    leaves: dict[int, list[int]] = {}
    for i in sorted(start):
        leaves.setdefault(nodes[m.T][i], []).append(i)
    alive = [(members[0], c, frozenset(members)) for c, members in leaves.items()]
    for t in range(m.T, 0, -1):
        up = nodes[t - 1]
        levels: dict[int, list[tuple[Vec, Atom]]] = {}
        for least, c, members in alive:
            levels.setdefault(up[least], []).append((increments[t][c], members))
        alive = []
        for k, children in levels.items():
            sp = split_level_set(t, k, children, memo)
            split_at[t].append(sp)
            if sp.residual:
                alive.append((min(sp.residual), k, sp.residual))
            if sp.block:
                events.append(sp)
        alive.sort()

    return PolarAnalysis(
        omega_star=frozenset().union(*(members for _least, _k, members in alive)),
        splittings={(sp.t, sp.node): sp for level in split_at for sp in level},
        events=tuple(events),
        start_set=start,
        market=m,
        nodes=nodes,
        increments=tuple(increments),
        lp_memo=memo,
    )


def universal_aggregator(
    m: Market, pa: PolarAnalysis
) -> tuple[Strategy, tuple[tuple[int, ...], ...]]:
    """The aggregator strategy and the enlarged filtration it is predictable for.

    The strategy holds, at each scenario's elimination period, the separator
    of the block that removed it (zero otherwise); its strict-gain set is
    exactly the complement of ``omega_star``.  The filtration joins the
    natural one with the value partitions of the aggregator one step ahead
    (no look-ahead term at T): F~_t groups scenarios by their node id at t
    (``pa.nodes``) and their held values over periods 1..min(t+1, T).  The
    filtration is returned as node-id rows, numbered like ``pa.nodes``.

    Each event's separator is interned once: a separator that recurs, as is
    common in recombining trees, keeps one id, so grouping scenarios by id
    is grouping them by value, and no vector is hashed per scenario and
    period.  Each scenario's value history and each enlarged atom are
    interned the same way, as ids in order of least member.  The strategy is re-checked: it is
    predictable for the enlarged rows, V_T >= 0 everywhere and V_T > 0
    exactly on ``start_set - omega_star``, or InternalError is raised.
    """
    id_of: dict[Vec, int] = {(0,) * m.d: 0}  # id 0 is the zero position
    ids = [[0] * m.n for _ in range(m.T + 1)]
    for sp in pa.events:
        k = id_of.setdefault(sp.separator, len(id_of))
        for i in sp.block:
            ids[sp.t][i] = k

    # history[s][i]: the id of scenario i's held values over periods 1..s
    history = [ids[0]]
    for s in range(1, m.T + 1):
        history.append(node_row(zip(history[-1], ids[s])))
    enlarged = tuple(
        node_row(zip(pa.nodes[t], history[min(t + 1, m.T)])) for t in range(m.T + 1)
    )

    values = list(id_of)
    # keyed by (enlarged node, held value), so a node holding two values
    # splits in two and fails the predictability check
    h = Strategy(tuple(
        {
            atom: values[ids[t][min(atom)]]
            for atom in atoms_of(node_row(zip(enlarged[t - 1], ids[t])))
        }
        for t in range(1, m.T + 1)
    ))
    signs = [x.numerator for x in value_process(m, h)[m.T]]  # int, cheaper to compare
    if not check_predictable(h, enlarged):
        raise InternalError("aggregator not predictable for its enlarged filtration")
    if any(x < 0 for x in signs):
        raise InternalError("aggregator loses on some scenario")
    if {i for i, x in enumerate(signs) if x > 0} != pa.start_set - pa.omega_star:
        raise InternalError("aggregator gain set differs from the polar complement")
    return h, enlarged
