"""Level-set splitting, backward elimination in one sweep, and the aggregator.

A level set at period t is a node of F_{t-1}, and its splitting names it by
(t, node id).  At most one separator LP splits it: the maximal separator of
its increments gains strictly on one block, and the members it leaves hold
0 in the relative interior of their increment cone.  Increments that sum to
zero need no LP: nothing gains on them, and the level set keeps all its
members.
Nor do those of one asset or of one distinct point (a one-child node),
whose LP answers have closed forms (see ``maximal_separator``).
Removing each block backwards, t = T..1, yields the maximal set of
scenarios supportable by martingale measures (``omega_star``) in one sweep:
a block removed at period t is a union of whole child nodes at time t, so
every level set of a later period lies inside it or misses it.  The
aggregator is the events themselves: each block holds the separator that
eliminated it, and nothing else is held.  It is re-checked with
``check_predictable`` and on the ``int`` numerators of its terminal values
(``terminal_values``), as every emitted strategy is.

The :class:`PolarAnalysis` that :func:`backward_eliminate` returns is the
per-market context of everything downstream: the natural filtration once, as
node rows with one increment per node, and three artifacts built lazily, at
most once each (see its docstring).  Nothing is cached on the market or at
module level, so a fresh ``backward_eliminate`` starts from nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from operator import sub
from typing import Optional, Sequence

from . import oracle
from .errors import DomainError, InternalError
from .market import (
    Atom,
    DiscreteMeasure,
    Market,
    Strategy,
    check_predictable,
    natural_nodes,
    node_row,
    terminal_values,
)
from .ratgeom import Vec, maximal_separator


@dataclass(frozen=True)
class Splitting:
    """One elimination event: the block one level set loses at one period.

    The level set is a node of F_{t-1}, ``node`` its id in ``pa.nodes[t-1]``
    and ``members`` its live scenarios.  ``block`` gains strictly under
    ``separator``; the members it leaves admit no one-step gain at all
    (their increment cone holds 0 in relative interior).  A level set on
    which nothing gains keeps all its members and has no splitting.
    """

    t: int
    node: int
    members: Atom
    block: Atom
    separator: Vec

    def __post_init__(self):
        if self.separator is None or not self.block or not self.block <= self.members:
            raise ValueError("inconsistent splitting")


@dataclass(frozen=True)
class PolarAnalysis:
    """Full output of :func:`backward_eliminate`.

    ``omega_star`` is the set of scenarios no period eliminated.
    ``events`` holds the splitting of every level set that lost a block, in
    report order: t ascending, then least member.  Elimination is
    one sweep, so ``rounds`` is always 1.  The benchmark's ``splitter.sweeps``
    counter is its only reader; once the benchmark drops that counter, the
    attribute goes too.

    The per-analysis context takes no part in ``==`` or ``repr``: ``market``
    is the analysed market, ``nodes[t][i]`` the id of scenario i's node at
    time t (:func:`~arbscan.market.natural_nodes`; ids run in order of least
    member), ``increments[t][c]`` the price increment over (t-1, t] that
    every scenario of node c at time t shares (``increments[0]`` is empty),
    and ``parents[t][c]`` the id in ``nodes[t-1]`` of node c's parent
    (``parents[0]`` is empty).  ``parents`` and ``increments`` are the node
    tree: a walk over surviving nodes reads them, not the scenario rows.
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
    events: tuple[Splitting, ...]
    start_set: Atom
    market: Market = field(compare=False, repr=False)
    nodes: tuple[tuple[int, ...], ...] = field(compare=False, repr=False)
    increments: tuple[tuple[Vec, ...], ...] = field(compare=False, repr=False)
    parents: tuple[tuple[int, ...], ...] = field(compare=False, repr=False)

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


def split_level_set(
    t: int, node: int, children: Sequence[tuple[Vec, Atom]]
) -> Optional[Splitting]:
    """One maximal separation of one level set's period-t increments.

    The level set is node ``node`` of the row at t-1, and ``children`` are
    its child nodes at t as (shared increment, members) pairs, as
    :func:`backward_eliminate` reads them off the node rows; their members
    make up the level set.  One separator question sees one point per
    child; it takes one LP, or none when the points sum to zero, hold one
    asset or are one distinct point.
    The block is its strict set, and the members it leaves need no second
    question (see :func:`~arbscan.ratgeom.maximal_separator`).  None means
    nothing gains: the level set keeps all its members.
    """
    if not children:
        raise DomainError("cannot split an empty level set")
    found = maximal_separator([p for p, _c in children])
    if found is None:
        return None
    h, strict = found
    kids = [c for _p, c in children]
    block = frozenset().union(*(kids[k] for k in strict))
    return Splitting(t, node, frozenset().union(*kids), block, h)


def backward_eliminate(m: Market, within: Optional[Atom] = None) -> PolarAnalysis:
    """Block elimination over the (optionally restricted) scenario set, in one sweep.

    ``within`` restricts the sweep to those scenario indices; one outside
    ``range(m.n)`` raises ValueError.  The sweep walks t = T..1 up the node rows.  At each period it splits the
    level set of every node at time t-1 that still has survivors: the node's
    surviving children, with the increments they share.  Every block is
    removed at once, and what each level set keeps is a surviving node one
    period up.
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
    # node ids run in order of least member, so a dict keyed by node id holds
    # them in id order; every member of a node, here its last, shares the
    # node's price path up to t and its parent node
    paths = [s.path for s in m.scenarios]
    increments: list[tuple[Vec, ...]] = [()]
    parents: list[tuple[int, ...]] = [()]
    for t in range(1, m.T + 1):
        member = dict(zip(nodes[t], paths))
        increments.append(tuple([tuple(map(sub, p[t], p[t - 1])) for p in member.values()]))
        parents.append(tuple(dict(zip(nodes[t], nodes[t - 1])).values()))
    events: list[Splitting] = []

    # (least member, node id, members) of each node at time t that has
    # survivors, in order of least surviving member; a node's least survivor
    # is its first child's, so its level set and its children keep that order
    leaves: dict[int, list[int]] = {}
    last = nodes[m.T]
    for i in sorted(start):
        leaves.setdefault(last[i], []).append(i)
    alive = [(members[0], c, frozenset(members)) for c, members in leaves.items()]
    for t in range(m.T, 0, -1):
        up = nodes[t - 1]
        levels: dict[int, list[tuple[Vec, Atom]]] = {}
        least_of: dict[int, int] = {}  # a level set's least survivor: its first child's
        for least, c, members in alive:
            k = up[least]
            least_of.setdefault(k, least)
            levels.setdefault(k, []).append((increments[t][c], members))
        alive = []
        split = []
        for k, children in levels.items():
            sp = split_level_set(t, k, children)
            if sp is None:
                alive.append((least_of[k], k, frozenset().union(*(c for _p, c in children))))
                continue
            kept = sp.members - sp.block
            if kept:
                alive.append((min(kept), k, kept))
            split.append(sp)
        alive.sort()
        # the sweep runs t = T..1, so a period's events go before the later ones
        events[:0] = split

    return PolarAnalysis(
        omega_star=frozenset().union(*(members for _least, _k, members in alive)),
        events=tuple(events),
        start_set=start,
        market=m,
        nodes=nodes,
        increments=tuple(increments),
        parents=tuple(parents),
    )


def _refine(row: Sequence[int], keys: Sequence[int]) -> Sequence[int]:
    """The node-id row grouping scenario i by ``(row[i], keys[i])``.

    ``row`` is numbered as :func:`~arbscan.market.node_row` numbers it, so
    refining it by all-zero keys leaves it as it is, and no row is built.
    """
    return node_row(zip(row, keys)) if any(keys) else row


def universal_aggregator(
    m: Market, pa: PolarAnalysis
) -> tuple[Strategy, tuple[tuple[int, ...], ...]]:
    """The aggregator strategy and the enlarged filtration it is predictable for.

    The strategy is the elimination events: at period t each event's
    ``block`` holds its ``separator``, and no other position is held (a
    scenario no atom covers holds zero).  Its strict-gain set is exactly the
    complement of ``omega_star``.  The filtration joins the
    natural one with the value partitions of the aggregator one step ahead
    (no look-ahead term at T): F~_t groups scenarios by their node id at t
    (``pa.nodes``) and their held values over periods 1..min(t+1, T).  The
    filtration is returned as node-id rows, numbered like ``pa.nodes``.

    Each event's separator is interned once: a separator that recurs, as is
    common in recombining trees, keeps one id, so grouping scenarios by id
    is grouping them by value, and no vector is hashed per scenario and
    period.  Each scenario's value history and each enlarged atom are
    interned the same way, as ids in order of least member; a period in which
    nothing is held refines no row (``_refine``).  Each block is a whole
    atom of F~_{t-1}: its members share their node at t-1 and the history
    (0, ..., 0, k), and no other event splits their level set.  The strategy
    is re-checked all the same: it is predictable for the enlarged rows,
    V_T >= 0 everywhere and V_T > 0 exactly on ``start_set - omega_star``,
    or InternalError is raised.
    """
    id_of: dict[Vec, int] = {(0,) * m.d: 0}  # id 0 is the zero position
    ids = [[0] * m.n for _ in range(m.T + 1)]
    positions: list[dict[Atom, Vec]] = [{} for _ in range(m.T)]
    for sp in pa.events:
        positions[sp.t - 1][sp.block] = sp.separator
        k = id_of.setdefault(sp.separator, len(id_of))
        for i in sp.block:
            ids[sp.t][i] = k

    # history[s][i]: the id of scenario i's held values over periods 1..s
    history = [ids[0]]
    for s in range(1, m.T + 1):
        history.append(_refine(history[-1], ids[s]))
    enlarged = tuple(_refine(pa.nodes[t], history[min(t + 1, m.T)]) for t in range(m.T + 1))

    h = Strategy(tuple(positions))
    signs, _den = terminal_values(m, h)  # V_T's numerators carry its signs
    if not check_predictable(h, enlarged):
        raise InternalError("aggregator not predictable for its enlarged filtration")
    if any(x < 0 for x in signs):
        raise InternalError("aggregator loses on some scenario")
    if {i for i, x in enumerate(signs) if x > 0} != pa.start_set - pa.omega_star:
        raise InternalError("aggregator gain set differs from the polar complement")
    return h, enlarged
