"""Finite scenario-tree market model: scenarios, filtrations, strategies, measures.

A filtration is a tuple of node-id rows, one per period t = 0..T: ``rows[t][i]``
is the id of the node (the atom of F_t) holding scenario i, and ids run 0, 1,
... in order of each node's least member, as :func:`natural_nodes` numbers
them.  Measurability is constancy on nodes.  :func:`atoms_of` groups a row
into atoms where a strategy key or a report needs them.  A
:class:`Strategy` is atom-keyed positions per period, as strategy files
print them; :func:`check_predictable` checks one against node rows and
:func:`value_process` values it.  Everything is exact rational arithmetic.

The re-checks that read only signs and masses stay on integers:
:func:`terminal_values` gives V_T as ``int`` numerators over one
denominator from the same valuation as :func:`value_process`, and a
:class:`DiscreteMeasure` keeps its weights' ``int`` numerators over their
common denominator, which :meth:`DiscreteMeasure.mass` sums.  A measure
whose weights are born as ``int`` numerators is built on them
(:meth:`DiscreteMeasure.from_numerators`).
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from operator import itemgetter, mul, sub
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence, Union

from .errors import MarketFormatError
from .ratgeom import Vec, over_common_denominator, rat

Atom = frozenset[int]

_ZERO = Fraction(0)


@dataclass(frozen=True)
class Scenario:
    """One price trajectory: ``path[t]`` is the d-vector of prices at time t.

    Each price is an exact rational, an ``int`` or a ``Fraction``;
    :func:`load_market` stores a price with denominator 1 as an ``int``.
    The two are equally exact and an ``int`` equals, hashes and prints like
    the equal ``Fraction``, so every answer is the same, only cheaper.
    """

    id: str
    path: tuple[Vec, ...]


@dataclass(frozen=True)
class SignificantClass:
    """A named finite family of nonempty scenario sets."""

    name: str
    sets: tuple[Atom, ...]

    def __post_init__(self):
        object.__setattr__(self, "sets", tuple(map(frozenset, self.sets)))
        if not self.sets:
            raise MarketFormatError(f"class {self.name!r} declares no sets")
        if not all(self.sets):
            raise MarketFormatError(f"class {self.name!r} contains an empty set")


@dataclass(frozen=True)
class DiscreteMeasure:
    """Exact probability vector over scenario indices (zero weights may be omitted).

    Each weight is an ``int`` or a ``Fraction``; any other type, ``bool`` and
    ``float`` included, raises MarketFormatError naming its index, as does a
    negative weight, and a total other than 1 raises it too.  Weights are
    kept as ``Fraction``s, and zero weights are dropped.
    """

    weights: Mapping[int, Fraction]

    def __post_init__(self):
        w = {}
        for i, v in self.weights.items():
            if type(v) is not Fraction:
                if isinstance(v, bool) or not isinstance(v, (int, Fraction)):
                    raise MarketFormatError(
                        f"weight on scenario index {i} is {v!r}; use an int or a Fraction"
                    )
                if isinstance(v, int):
                    v = Fraction(v)
            w[i] = v
        nums, den = over_common_denominator(w.values())
        self._set_numerators(dict(zip(w, nums)), den)
        object.__setattr__(self, "weights", {i: w[i] for i in self.numerators})

    @classmethod
    def from_numerators(cls, nums: Mapping[int, int], den: int) -> DiscreteMeasure:
        """The measure with weight ``nums[i] / den`` on scenario index i.

        ``den`` must be a positive ``int`` and each numerator a nonnegative
        ``int`` (not a ``bool``), summing to ``den``; anything else raises
        MarketFormatError.  Zero numerators are dropped and the rest reduced
        by their gcd with ``den``, so ``numerators`` and ``denominator`` are
        the ones ``DiscreteMeasure(weights)`` would compute, and so are
        ``==`` and ``repr``; only one ``Fraction`` is built per distinct
        numerator.
        """
        if isinstance(den, bool) or not isinstance(den, int) or den <= 0:
            raise MarketFormatError(f"measure denominator {den!r} is not a positive int")
        for i, k in nums.items():
            if type(k) is not int and (isinstance(k, bool) or not isinstance(k, int)):
                raise MarketFormatError(f"numerator on scenario index {i} is {k!r}; use an int")
        q = cls.__new__(cls)
        q._set_numerators(nums, den)
        one = {k: Fraction(k, q.denominator) for k in set(q.numerators.values())}
        object.__setattr__(q, "weights", {i: one[k] for i, k in q.numerators.items()})
        return q

    def _set_numerators(self, nums: Mapping[int, int], den: int) -> None:
        """Set ``numerators`` and ``denominator``: the weights ``nums[i] / den``, reduced.

        Zero numerators are dropped; a negative one, or a sum other than
        ``den``, raises MarketFormatError.  The rest are divided by their gcd
        with ``den``.  Both are plain attributes, not fields, so ``==`` and
        ``repr`` read only the weights.
        """
        kept = {}
        for i, k in nums.items():
            if k:
                if k < 0:
                    raise MarketFormatError(f"negative weight on scenario index {i}")
                kept[i] = k
        if sum(kept.values()) != den:
            raise MarketFormatError("weights do not sum to 1")
        g = gcd(den, *kept.values())
        if g != 1:
            den //= g
            kept = {i: k // g for i, k in kept.items()}
        object.__setattr__(self, "numerators", kept)
        object.__setattr__(self, "denominator", den)

    def __getitem__(self, i: int) -> Fraction:
        return self.weights.get(i, _ZERO)

    @cached_property
    def support(self) -> Atom:
        return frozenset(self.weights)

    def mass(self, indices) -> Fraction:
        """The exact mass of ``indices``, summed on the weights' ``int`` numerators."""
        nums = self.numerators
        return Fraction(sum([nums.get(i, 0) for i in indices]), self.denominator)


@dataclass(frozen=True)
class Strategy:
    """Positions per period: ``positions[t-1]`` maps atoms to the d-vector kept over (t-1, t].

    Atoms are any disjoint sets of scenario indices, nodes of a filtration
    or not, and a scenario no atom covers holds zero.  This is the one
    format; :func:`check_predictable` and :func:`value_process` read it.
    """

    positions: tuple[Mapping[Atom, Vec], ...]

    def __post_init__(self):
        norm = tuple({frozenset(a): tuple(v) for a, v in pos.items()} for pos in self.positions)
        for t, pos in enumerate(norm, 1):
            if sum(map(len, pos)) != len(frozenset().union(*pos)):
                raise ValueError(f"strategy atoms overlap at period {t}")
        object.__setattr__(self, "positions", norm)


@dataclass(frozen=True)
class Market:
    d: int
    T: int
    scenarios: tuple[Scenario, ...]
    classes: Mapping[str, SignificantClass] = field(default_factory=dict)
    probabilities: Mapping[str, DiscreteMeasure] = field(default_factory=dict)

    def __post_init__(self):
        if self.T < 1:
            raise MarketFormatError("T must be at least 1")
        if not self.scenarios:
            raise MarketFormatError("market declares no scenarios")
        seen = set()
        for s in self.scenarios:
            if s.id in seen:
                raise MarketFormatError(f"duplicate scenario id {s.id!r}")
            seen.add(s.id)
            if len(s.path) != self.T + 1:
                raise MarketFormatError(
                    f"scenario {s.id!r} has {len(s.path)} price rows, expected {self.T + 1}"
                )
            for row in s.path:
                if len(row) != self.d:
                    raise MarketFormatError(
                        f"scenario {s.id!r} has a price row of length {len(row)}, expected d={self.d}"
                    )
        if len({s.path[0] for s in self.scenarios}) > 1:
            warnings.warn(
                "initial prices differ across scenarios; time-0 information is nontrivial",
                stacklevel=3,  # past __post_init__ and the generated __init__
            )
        # every scenario index and every id in index order, built once;
        # plain attributes, not fields, so == and repr are unchanged
        object.__setattr__(self, "all_indices", frozenset(range(self.n)))
        object.__setattr__(self, "scenario_ids", tuple(s.id for s in self.scenarios))

    @property
    def n(self) -> int:
        return len(self.scenarios)

    @cached_property
    def _index_by_id(self) -> dict[str, int]:
        return {s.id: i for i, s in enumerate(self.scenarios)}

    def index_of(self, scenario_id: str) -> int:
        return self._index_by_id[scenario_id]

    def ids(self, indices) -> list[str]:
        return list(map(self.scenario_ids.__getitem__, sorted(indices)))

    def increment(self, t: int, i: int) -> Vec:
        """Price increment over (t-1, t] in scenario i."""
        path = self.scenarios[i].path
        return tuple(map(sub, path[t], path[t - 1]))

    def level_sets(self, members, depth: int) -> list[Atom]:
        """Group ``members`` by equality of price rows 0..depth, ordered by least member."""
        groups: dict[tuple[Vec, ...], list[int]] = {}
        # sorted iteration inserts each group at its least member
        for i in sorted(members):
            groups.setdefault(self.scenarios[i].path[: depth + 1], []).append(i)
        return [frozenset(g) for g in groups.values()]


def node_row(keys: Iterable) -> tuple[int, ...]:
    """The node-id row grouping scenario i by ``keys[i]``, ids in order of least member."""
    seen: dict = {}
    return tuple([seen.setdefault(key, len(seen)) for key in keys])


def natural_nodes(m: Market) -> tuple[tuple[int, ...], ...]:
    """Per period t = 0..T, each scenario's node id in the natural filtration.

    ``nodes[t][i]`` is the id of the atom of F_t holding scenario i.  Node
    ids at each period run 0, 1, ... in order of each node's least member.
    F_0 is the level sets at depth 0;
    each later row interns (node id at t-1, price row at t) per scenario, so
    each row is hashed once rather than once per later period.
    """
    root = {i: k for k, atom in enumerate(m.level_sets(m.all_indices, 0)) for i in atom}
    rows = [tuple(map(root.__getitem__, range(m.n)))]
    paths = [s.path for s in m.scenarios]
    for t in range(1, m.T + 1):
        rows.append(node_row(zip(rows[-1], map(itemgetter(t), paths))))
    return tuple(rows)


def atoms_of(row: Sequence[int]) -> tuple[Atom, ...]:
    """The atoms of a node-id row: atom k holds every i with ``row[i] == k``.

    ``row`` must be numbered as :func:`natural_nodes` numbers it: 0, 1, ...
    in order of each node's least member, so each id first appears right
    after the ids below it, and the atoms come in order of least member.
    Any other row raises ValueError.
    """
    atoms: list[list[int]] = []
    for i, k in enumerate(row):
        if k == len(atoms):
            atoms.append([i])
        elif 0 <= k < len(atoms):
            atoms[k].append(i)
        else:
            raise ValueError(f"node-id row {list(row)} is not numbered in order of least member")
    return tuple(map(frozenset, atoms))


def check_predictable(h: Strategy, rows: Sequence[Sequence[int]]) -> bool:
    """True iff each period's positions are constant on the nodes of the previous row.

    ``rows`` is a filtration as node-id rows, under any numbering; a
    scenario no atom of ``h`` covers holds the zero position.  Too few rows,
    or a row too short for an index ``h`` holds, raises ValueError.
    """
    if len(rows) < len(h.positions):
        raise ValueError(f"{len(rows)} node rows for a strategy of {len(h.positions)} periods")
    # the index set of each row length, built once
    every = {n: frozenset(range(n)) for n in set(map(len, rows[: len(h.positions)]))}
    for t, pos in enumerate(h.positions, 1):
        row = rows[t - 1]
        _check_indices(pos, every[len(row)], f"node row {t - 1}")
        # each scenario's position as an id, equal vectors one id and every
        # zero vector 0; a node holds one position iff it pairs with one id
        held = [0] * len(row)
        vec_ids: dict[Vec, int] = {}
        for atom, v in pos.items():
            if any(v):
                k = vec_ids.setdefault(v, len(vec_ids) + 1)
                for i in atom:
                    held[i] = k
        if len(set(zip(row, held))) != len(set(row)):
            return False
    return True


def _check_indices(pos: Mapping[Atom, Vec], every: Atom, where: str) -> None:
    """ValueError unless every atom of ``pos`` lies inside ``every``."""
    for atom in pos:
        if not atom <= every:
            raise ValueError(f"atom {sorted(atom)} is outside the {len(every)} scenarios of {where}")


def _value_numerators(m: Market, h: Strategy) -> Iterator[tuple[list[int], int]]:
    """Per period t = 1..T, V_t's ``int`` numerators over one positive denominator.

    Each period's positions are ``int`` numerators over one common
    denominator, and its gains too, so the running values are ``int``
    numerators over the lcm of those denominators; no ``Fraction`` is built.
    The list yielded for t is not touched again.  A position whose length
    is not ``m.d`` raises ValueError.
    """
    if len(h.positions) != m.T:
        raise ValueError(f"strategy covers {len(h.positions)} periods, expected {m.T}")
    total, den = [0] * m.n, 1  # V_t's numerators over den
    every = m.all_indices
    paths = [s.path for s in m.scenarios]
    for t, pos in enumerate(h.positions, 1):
        _check_indices(pos, every, "the market")
        held = []  # the nonzero positions; a zero one gains nothing
        for atom, v in pos.items():
            if len(v) != m.d:
                raise ValueError(f"position at period {t} has length {len(v)}, expected d={m.d}")
            if any(v):
                held.append((atom, v))
        vden = lcm(*(x.denominator for _atom, v in held for x in v))
        gains = {}  # per covered scenario, its gain's numerator over vden
        for atom, v in held:
            vec = [x.numerator * (vden // x.denominator) for x in v]
            for i in atom:
                path = paths[i]
                gains[i] = sum(map(mul, vec, map(sub, path[t], path[t - 1])))
        gnums, gden = over_common_denominator(gains.values())
        scale = lcm(den, vden * gden) // den
        total = [x * scale for x in total] if scale != 1 else total.copy()
        den *= scale
        for i, g in zip(gains, gnums):
            total[i] += g * (den // (vden * gden))
        yield total, den


def value_process(m: Market, h: Strategy) -> list[list[Fraction]]:
    """V[t][i]: the exact gains of ``h`` in scenario i up to time t; V[0] = 0.

    The atoms of ``h`` are taken as they are: any disjoint sets will do,
    nodes of a filtration or not (:func:`check_predictable` is the separate
    question); an index outside ``range(m.n)`` raises ValueError.  The
    values are summed on ``int`` numerators and become ``Fraction``s only
    when they are returned.
    """
    out = [[_ZERO] * m.n]
    for total, den in _value_numerators(m, h):
        out.append([Fraction(x, den) if x else _ZERO for x in total])
    return out


def terminal_values(m: Market, h: Strategy) -> tuple[list[int], int]:
    """V_T of ``h`` as ``int`` numerators over one positive denominator.

    ``value_process(m, h)[m.T][i] == Fraction(nums[i], den)`` for
    ``nums, den = terminal_values(m, h)``, with the same ValueErrors, and no
    ``Fraction`` is built: the re-checks that read only the signs or sizes
    of V_T compare the numerators (V_T(i) > 0 iff ``nums[i] > 0``, and
    V_T(i) >= 1 iff ``nums[i] >= den``).
    """
    for total, den in _value_numerators(m, h):
        pass
    return total, den


# ---------------------------------------------------------------------------
# Market file loading
# ---------------------------------------------------------------------------


def _parse_rat(value, where: str) -> Fraction:
    try:
        return rat(value)
    except ValueError as exc:
        raise MarketFormatError(f"{where}: {exc}") from exc


def _parse_price(value, where: str) -> Union[int, Fraction]:
    """A price as :func:`_parse_rat` reads it, an ``int`` when it is integral."""
    if type(value) is int:  # a JSON integer; bool, an int subclass, is rejected below
        return value
    q = _parse_rat(value, where)
    return q.numerator if q.denominator == 1 else q


_INT_TYPES = frozenset({int})

_JSON_KINDS = {list: "a JSON array", dict: "a JSON object", str: "a string"}


def _expect(value, kind: type, where: str):
    """``value`` itself if it is a ``kind`` (list, dict or str); else MarketFormatError."""
    if not isinstance(value, kind):
        raise MarketFormatError(f"{where} must be {_JSON_KINDS[kind]}, not {type(value).__name__}")
    return value


def _unique_keys(pairs: list) -> dict:
    """One JSON object's key-value pairs as a dict; a repeated key raises MarketFormatError.

    Plain ``json.loads`` keeps the last of two equal keys, which would drop
    an entry before any later check could see it.
    """
    doc = dict(pairs)
    if len(doc) != len(pairs):
        seen = set()
        for key, _value in pairs:
            if key in seen:
                raise MarketFormatError(f"key {key!r} appears twice in one JSON object")
            seen.add(key)
    return doc


def _read_document(source: Union[str, Path, dict], what: str) -> dict:
    """The JSON object in ``source``: a dict, JSON text starting with "{", or a file path.

    A file that cannot be opened raises ``OSError``; content that is not a
    JSON object, or that repeats a key within one object, raises
    MarketFormatError naming ``what``.
    """
    if isinstance(source, dict):
        doc = source
    else:
        if isinstance(source, str) and source.lstrip().startswith("{"):
            text = source
        else:
            try:
                text = Path(source).read_text("utf-8")
            except UnicodeDecodeError as exc:
                raise MarketFormatError(f"{what} is not UTF-8 text: {exc}") from exc
        try:
            doc = json.loads(text, object_pairs_hook=_unique_keys)
        except MarketFormatError as exc:
            raise MarketFormatError(f"{what}: {exc}") from None
        except (ValueError, RecursionError) as exc:
            raise MarketFormatError(f"{what} is not valid JSON: {exc}") from exc
    return _expect(doc, dict, what)


def _optional_table(doc: dict, key: str) -> dict:
    """``doc[key]`` if it is a JSON object, ``{}`` if the key is missing or null."""
    value = doc.get(key)
    return {} if value is None else _expect(value, dict, key)


def load_market(source: Union[str, Path, dict]) -> Market:
    """Parse and validate a market document (path, JSON text, or dict)."""
    doc = _read_document(source, "market document")

    for key in ("d", "T", "scenarios"):
        if key not in doc:
            raise MarketFormatError(f"missing required key {key!r}")
    d, T = doc["d"], doc["T"]
    if not isinstance(d, int) or isinstance(d, bool) or d < 1:
        raise MarketFormatError("d must be a positive integer")
    if not isinstance(T, int) or isinstance(T, bool):
        raise MarketFormatError("T must be an integer")

    scenarios = []
    for k, entry in enumerate(_expect(doc["scenarios"], list, "scenarios")):
        if type(entry) is not dict:
            entry = _expect(entry, dict, f"scenario entry {k}")
        sid = entry.get("id")
        if not isinstance(sid, str):
            raise MarketFormatError("every scenario needs a string id")
        if "," in sid:
            # strategy atom keys join ids with commas, so one would be ambiguous
            raise MarketFormatError(f"scenario id {sid!r} contains a comma")
        rows = entry.get("prices")
        if not isinstance(rows, list):
            raise MarketFormatError(f"scenario {sid!r} has no price rows")
        path = []
        for row in rows:
            # a row of JSON integers passes one C-level type screen as it is;
            # any other row, bool entries included, is parsed entry by entry
            if type(row) is list and _INT_TYPES.issuperset(map(type, row)):
                path.append(tuple(row))
            else:
                where = f"scenario {sid!r}"
                row = _expect(row, list, f"{where} price row")
                path.append(tuple(_parse_price(x, where) for x in row))
        scenarios.append(Scenario(sid, tuple(path)))

    # Market validates only its scenarios, so it is built once, first, and
    # the class and probability tables it holds are filled in afterwards
    classes: dict[str, SignificantClass] = {}
    probabilities: dict[str, DiscreteMeasure] = {}
    market = Market(
        d=d, T=T, scenarios=tuple(scenarios), classes=classes, probabilities=probabilities
    )
    idx = {s.id: i for i, s in enumerate(market.scenarios)}

    def to_indices(ids, where: str) -> Atom:
        out = set()
        for sid in _expect(ids, list, f"{where} set"):
            if not isinstance(sid, str) or sid not in idx:
                raise MarketFormatError(f"{where} references unknown scenario {sid!r}")
            out.add(idx[sid])
        return frozenset(out)

    for name, sets in _optional_table(doc, "classes").items():
        where = f"class {name!r}"
        classes[name] = SignificantClass(
            name, tuple(to_indices(s, where) for s in _expect(sets, list, where))
        )

    for name, weights in _optional_table(doc, "probabilities").items():
        mapped = {}
        for sid, w in _expect(weights, dict, f"probability {name!r}").items():
            if sid not in idx:
                raise MarketFormatError(
                    f"probability {name!r} references unknown scenario {sid!r}"
                )
            w = _parse_rat(w, f"probability {name!r}")
            if w < 0:
                raise MarketFormatError(
                    f"probability {name!r}: negative weight on scenario {sid!r}"
                )
            mapped[idx[sid]] = w
        # the weights are nonnegative, so the sum is the only check left
        try:
            probabilities[name] = DiscreteMeasure(mapped)
        except MarketFormatError:
            raise MarketFormatError(f"probability {name!r} does not sum to 1") from None

    return market


def load_strategy(m: Market, source: Union[str, Path, dict]) -> Strategy:
    """Parse a strategy document against ``m`` (path, JSON text, or dict).

    ``positions`` maps each period "1".."T" to a table from comma-joined
    scenario ids to a d-vector of rationals; periods left out hold zero, and
    any other key is a format error.  So is a key that names a scenario
    twice, or two keys of one period that name the same scenarios, which a
    table from scenario sets would silently merge.
    """
    doc = _read_document(source, "strategy document")
    table = _expect(doc.get("positions", {}), dict, "strategy positions")
    periods = {str(t) for t in range(1, m.T + 1)}
    for key in table:
        if key not in periods:
            raise MarketFormatError(f"strategy positions key {key!r} is not a period 1..{m.T}")
    positions = []
    for t in range(1, m.T + 1):
        where = f"strategy period {t}"
        pos = {}
        key_of = {}
        for key, vec_ in _expect(table.get(str(t), {}), dict, where).items():
            atom = set()
            for sid in _expect(key, str, f"{where} atom").split(","):
                try:
                    i = m.index_of(sid)
                except KeyError:
                    raise MarketFormatError(
                        f"{where} references unknown scenario {sid!r}"
                    ) from None
                if i in atom:
                    raise MarketFormatError(f"{where} atom {key!r} names {sid!r} twice")
                atom.add(i)
            atom = frozenset(atom)
            if atom in key_of:
                raise MarketFormatError(
                    f"{where} atoms {key_of[atom]!r} and {key!r} name the same scenarios"
                )
            key_of[atom] = key
            vec_ = _expect(vec_, list, f"{where} position of {key!r}")
            if len(vec_) != m.d:
                raise MarketFormatError(
                    f"{where} position of {key!r} has length {len(vec_)}, expected d={m.d}"
                )
            pos[atom] = tuple(_parse_rat(x, where) for x in vec_)
        positions.append(pos)
    try:
        return Strategy(tuple(positions))
    except ValueError as exc:
        raise MarketFormatError(str(exc)) from None
