"""Martingale measures: the martingale check, the full-support measure, mixing.

A measure is a martingale measure iff, for every period and every node of the
conditioning filtration, the weighted increments sum to zero exactly.  The
full-support measure comes from one top-down walk of the analysis's node
tree (``pa.parents`` and ``pa.increments``) over the surviving nodes only:
the final nodes that hold a scenario of ``omega_star``, and their ancestors.
At each node :func:`convex_combination_for_zero` gives the node's children
strictly positive weights under which the mean increment is zero, with the
smallest weight as large as possible.  Children whose increments sum to
zero get the equal weights, the unique such answer, without an LP; any
other node asks one LP with one row per asset plus one, none per child.
Either way the weights are re-checked exactly before they are returned.
A child's mass is its parent's mass times its weight; the masses of one
level are ``int`` numerators over one common denominator, and the measure is
built on its scenarios' numerators (``DiscreteMeasure.from_numerators``),
so only one ``Fraction`` is built per distinct weight.  Backward elimination
leaves 0 in the relative interior of every surviving level set's increment
cone, so those weights exist, and the product is an exact martingale
measure for the natural and the enlarged filtration whose support is
exactly ``omega_star``.  It charges every survivor, so it is also the
measure returned for a single surviving scenario and for a class whose sets
all meet ``omega_star``.  Callers read it as ``pa.full_support``, which
builds it once per analysis.  The node re-checks do not see how node
weights are assembled into scenario masses, so the finished measure is
re-checked whole on the node tree: its ``int`` numerators are summed per
final node and rolled up through ``pa.parents``, one sum per node and
period.  :func:`check_martingale` is the same check against any node rows,
for any caller's measure.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import lcm
from typing import Optional, Sequence

from .errors import DomainError, InternalError
from .market import DiscreteMeasure, Market
from .ratgeom import convex_combination_for_zero
from .splitter import PolarAnalysis

_ZERO = Fraction(0)


def check_martingale(m: Market, q: DiscreteMeasure, rows: Sequence[Sequence[int]]) -> bool:
    """Exact per-node zero-expectation check against the filtration ``rows`` (node-id rows).

    Node sums run on the weights' ``int`` numerators over their one common
    denominator (``q.numerators``), which scales every sum alike and keeps
    which are zero.  Scenarios that share a node and the price rows t-1 and
    t share their increment over (t-1, t], so their masses are summed first
    and each distinct increment is multiplied once.

    Rows 0..T-1 are read; fewer, or one of other than n ids, raise
    ValueError, as does a weight on an index outside ``range(m.n)``.
    """
    if len(rows) < m.T or any(len(row) != m.n for row in rows[: m.T]):
        raise ValueError(f"node row lengths {list(map(len, rows))}, expected T={m.T} of n={m.n}")
    outside = q.support - m.all_indices
    if outside:
        raise ValueError(f"measure charges {sorted(outside)}, outside range({m.n})")
    weights = q.numerators.items()
    paths = [s.path for s in m.scenarios]
    for t, row in enumerate(rows[: m.T], 1):
        masses: dict = {}
        for i, w in weights:
            path = paths[i]
            key = (row[i], path[t - 1], path[t])
            masses[key] = masses.get(key, 0) + w
        totals: dict[int, list] = {}
        for (k, before, after), w in masses.items():
            total = totals.setdefault(k, [0] * m.d)
            for j, (a, b) in enumerate(zip(after, before)):
                total[j] += w * (a - b)
        if any(any(total) for total in totals.values()):
            return False
    return True


def _martingale_on_tree(pa: PolarAnalysis, q: DiscreteMeasure) -> bool:
    """``check_martingale(pa.market, q, pa.nodes)``, read off the node tree.

    ``q``'s ``int`` numerators are summed per final node in one pass; each
    period's node masses are then rolled up to their parents
    (``pa.parents``), and every parent's children must give
    sum_c mass_c * ``pa.increments[t][c]`` = 0.  Scenarios of one natural
    node share its increment, so this is the per-scenario check, summed per
    node first.
    """
    m = pa.market
    last = pa.nodes[m.T]
    mass: dict[int, int] = {}
    for i, w in q.numerators.items():
        c = last[i]
        mass[c] = mass.get(c, 0) + w
    for t in range(m.T, 0, -1):
        up, increments = pa.parents[t], pa.increments[t]
        above: dict[int, int] = {}
        totals: dict[int, list[int]] = {}
        for c, w in mass.items():
            k = up[c]
            above[k] = above.get(k, 0) + w
            total = totals.setdefault(k, [0] * m.d)
            for j, x in enumerate(increments[c]):
                total[j] += w * x
        if any(any(total) for total in totals.values()):
            return False
        mass = above
    return True


def full_support_measure(m: Market, pa: PolarAnalysis) -> Optional[DiscreteMeasure]:
    """A martingale measure whose support is exactly ``omega_star`` (None if empty).

    Each time-0 node of ``omega_star`` gets an equal share of the mass; each
    surviving node passes its mass to its surviving children in the
    proportions of :func:`convex_combination_for_zero` on their increments
    (``pa.increments``); a final group of identical paths splits its mass
    evenly.  Nodes are the node ids of ``pa.nodes``.  One pass over
    ``omega_star`` finds the surviving final nodes and their sizes; each
    earlier period's surviving nodes are the parents (``pa.parents``) of the
    later ones, grouped by parent from those node sets, and each parent
    passes its children to the LP in ascending node id.  The measure is
    built on ``int`` numerators over ``den * lcm(final node sizes)``, and
    re-checked whole on the node tree.
    """
    star = sorted(pa.omega_star)
    if not star:
        return None
    last = pa.nodes[m.T]
    size = Counter(map(last.__getitem__, star))
    # bottom-up: per period t = T..1, each surviving parent's surviving
    # children in ascending id, from the node sets alone
    level = sorted(size)
    families: list[dict[int, list[int]]] = []
    for t in range(m.T, 0, -1):
        up = pa.parents[t]
        children: dict[int, list[int]] = {}
        for c in level:
            children.setdefault(up[c], []).append(c)
        families.append(children)
        level = sorted(children)
    # top-down: (node, its mass's numerator) per surviving node, over one
    # den per level
    frontier = [(k, 1) for k in level]
    den = len(level)
    for t in range(1, m.T + 1):
        children, increments = families[m.T - t], pa.increments[t]
        splits = []
        for k, mass in frontier:
            kids = children[k]
            try:
                nums, lam_den = convex_combination_for_zero([increments[c] for c in kids])
            except DomainError as exc:
                up = pa.nodes[t - 1]
                i = next(i for i in star if up[i] == k)
                raise InternalError(
                    f"surviving node of {m.scenarios[i].id!r} at time {t - 1} "
                    f"has no strictly positive martingale weights"
                ) from exc
            splits.append((mass, kids, nums, lam_den))
        step = lcm(*(split[-1] for split in splits))
        den *= step
        frontier = [
            (c, mass * w * (step // lam_den))
            for mass, kids, nums, lam_den in splits for c, w in zip(kids, nums)
        ]
    # a final node's members share its mass evenly: over den * lcm(sizes),
    # each member of node c holds mass_c * (lcm // size_c)
    common = lcm(*size.values())
    share = {c: mass * (common // size[c]) for c, mass in frontier}
    q = DiscreteMeasure.from_numerators({i: share[last[i]] for i in star}, den * common)
    if q.support != pa.omega_star:
        raise InternalError("full-support measure does not charge exactly omega_star")
    # no node re-check sees how node weights become scenario masses, so the
    # finished measure is re-checked whole
    if not _martingale_on_tree(pa, q):
        raise InternalError("full-support measure is not a martingale measure")
    return q


def supporting_measure(m: Market, pa: PolarAnalysis, target: int) -> DiscreteMeasure:
    """A martingale measure giving ``target`` positive weight: the full-support one.

    ``target`` must lie in ``omega_star``; a polar target raises DomainError.
    """
    if target not in pa.omega_star:
        raise DomainError(
            f"scenario {m.scenarios[target].id!r} is polar: no martingale measure charges it"
        )
    return pa.full_support


def mix(measures: Sequence[DiscreteMeasure], weights: Sequence[Fraction]) -> DiscreteMeasure:
    """Convex combination; martingality is preserved by linearity of the constraints."""
    if len(measures) != len(weights):
        raise DomainError("measures and weights have different lengths")
    if any(w <= 0 for w in weights):
        raise DomainError("mixing weights must be positive")
    if sum(weights, _ZERO) != 1:
        raise DomainError("mixing weights must sum to 1")
    out: dict[int, Fraction] = {}
    for q, w in zip(measures, weights):
        for i, v in q.weights.items():
            out[i] = out.get(i, _ZERO) + w * v
    return DiscreteMeasure(out)


def class_measure(m: Market, pa: PolarAnalysis, cls) -> Optional[DiscreteMeasure]:
    """A martingale measure charging every set of the class, or None.

    None exactly when some declared set is contained in the polar complement;
    otherwise the full-support measure, which charges every survivor.
    """
    if any(c.isdisjoint(pa.omega_star) for c in cls.sets):
        return None
    return pa.full_support
