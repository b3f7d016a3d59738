"""Finite scenario-tree market model: scenarios, filtrations, strategies, measures.

A filtration is a tuple of node-id rows, one per period t = 0..T: ``rows[t][i]``
is the id of the node (the atom of F_t) holding scenario i, and ids run 0, 1,
... in order of each node's least member, as :func:`natural_nodes` numbers
them.  Measurability is constancy on nodes.  :func:`atoms_of` groups a row
into atoms where a strategy key or a report needs them.  Everything is exact
rational arithmetic.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from operator import sub
from pathlib import Path
from typing import Mapping, Sequence, Union

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
        object.__setattr__(self, "sets", tuple(frozenset(s) for s in self.sets))
        if not self.sets:
            raise MarketFormatError(f"class {self.name!r} declares no sets")
        for s in self.sets:
            if not s:
                raise MarketFormatError(f"class {self.name!r} contains an empty set")


@dataclass(frozen=True)
class DiscreteMeasure:
    """Exact probability vector over scenario indices (zero weights may be omitted)."""

    weights: Mapping[int, Fraction]

    def __post_init__(self):
        w = {}
        for i, v in self.weights.items():
            if not isinstance(v, Fraction):
                v = Fraction(v)
            if v.numerator:
                w[i] = v
        object.__setattr__(self, "weights", w)
        for i, v in w.items():
            if v.numerator < 0:
                raise MarketFormatError(f"negative weight on scenario index {i}")
        nums, den = over_common_denominator(w.values())
        if sum(nums) != den:
            raise MarketFormatError("weights do not sum to 1")

    def __getitem__(self, i: int) -> Fraction:
        return self.weights.get(i, _ZERO)

    @property
    def support(self) -> Atom:
        return frozenset(self.weights)

    def mass(self, indices) -> Fraction:
        return sum((self.weights.get(i, _ZERO) for i in indices), _ZERO)


@dataclass(frozen=True)
class Strategy:
    """Predictable positions: ``positions[t-1]`` maps time-(t-1) atoms to vectors.

    Atoms within one period must be disjoint; indices not covered by any atom
    hold the zero position.  ``held[t-1]`` maps each covered scenario index to
    its period-t position.
    """

    positions: tuple[Mapping[Atom, Vec], ...]
    held: tuple[Mapping[int, Vec], ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        norm = []
        held = []
        for t, pos in enumerate(self.positions):
            pos = {frozenset(a): tuple(v) for a, v in pos.items()}
            index: dict[int, Vec] = {}
            for a, v in pos.items():
                for i in a:
                    if i in index:
                        raise ValueError(f"strategy atoms overlap at period {t + 1}")
                    index[i] = v
            norm.append(pos)
            held.append(index)
        object.__setattr__(self, "positions", tuple(norm))
        object.__setattr__(self, "held", tuple(held))

    def vector(self, t: int, i: int, d: int) -> Vec:
        """Position held over (t-1, t] in scenario i."""
        v = self.held[t - 1].get(i)
        return tuple(_ZERO for _ in range(d)) if v is None else v


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

    @property
    def n(self) -> int:
        return len(self.scenarios)

    @property
    def all_indices(self) -> Atom:
        return frozenset(range(self.n))

    @cached_property
    def _index_by_id(self) -> dict[str, int]:
        return {s.id: i for i, s in enumerate(self.scenarios)}

    def index_of(self, scenario_id: str) -> int:
        return self._index_by_id[scenario_id]

    def ids(self, indices) -> list[str]:
        return [self.scenarios[i].id for i in sorted(indices)]

    def increment(self, t: int, i: int) -> Vec:
        """Price increment over (t-1, t] in scenario i."""
        path = self.scenarios[i].path
        return tuple(map(sub, path[t], path[t - 1]))

    def history(self, i: int, upto: int) -> tuple[Vec, ...]:
        """Price rows 0..upto of scenario i (a level-set key)."""
        return self.scenarios[i].path[: upto + 1]

    def level_sets(self, members, depth: int) -> list[tuple[tuple[Vec, ...], Atom]]:
        """Group ``members`` by equality of price rows 0..depth, ordered by min index."""
        groups: dict[tuple[Vec, ...], set[int]] = {}
        # sorted iteration inserts each group at its least member
        for i in sorted(members):
            groups.setdefault(self.history(i, depth), set()).add(i)
        return [(k, frozenset(v)) for k, v in groups.items()]


def natural_nodes(m: Market) -> tuple[tuple[int, ...], ...]:
    """Per period t = 0..T, each scenario's node id in the natural filtration.

    ``nodes[t][i]`` is the id of the atom of F_t holding scenario i.  Node
    ids at each period run 0, 1, ... in order of each node's least member.
    F_0 is the level sets at depth 0;
    each later row interns (node id at t-1, price row at t) per scenario, so
    each row is hashed once rather than once per later period.
    """
    first = [0] * m.n
    for k, (_key, atom) in enumerate(m.level_sets(m.all_indices, 0)):
        for i in atom:
            first[i] = k
    rows = [tuple(first)]
    for t in range(1, m.T + 1):
        up = rows[-1]
        ids: dict[tuple[int, Vec], int] = {}
        rows.append(tuple([
            ids.setdefault((k, s.path[t]), len(ids)) for k, s in zip(up, m.scenarios)
        ]))
    return tuple(rows)


def atoms_of(row: Sequence[int]) -> tuple[Atom, ...]:
    """The atoms of a node-id row: atom k holds every i with ``row[i] == k``.

    ``row`` is numbered as :func:`natural_nodes` numbers it: 0, 1, ... in
    order of each node's least member, so each id first appears right after
    the ids below it, and the atoms come in order of least member.
    """
    atoms: list[list[int]] = []
    for i, k in enumerate(row):
        if k == len(atoms):
            atoms.append([i])
        else:
            atoms[k].append(i)
    return tuple(map(frozenset, atoms))


def value_process(
    m: Market, rows: Sequence[Sequence[int]], h: Strategy
) -> list[list[Fraction]]:
    """V[t][i]: exact gains of ``h``; V[0] = 0 everywhere.

    ``rows`` is a filtration as node-id rows, and every atom that ``h``
    references at period t must be an atom of ``rows[t-1]``.
    """
    if len(h.positions) != m.T:
        raise ValueError(f"strategy covers {len(h.positions)} periods, expected {m.T}")
    for t in range(1, m.T + 1):
        legal = set(atoms_of(rows[t - 1]))
        for a in h.positions[t - 1]:
            if a not in legal:
                raise ValueError(
                    f"strategy references atom {sorted(a)} absent from the filtration at time {t - 1}"
                )
    return strategy_values(m, h)


def strategy_values(m: Market, h: Strategy) -> list[list[Fraction]]:
    """V[t][i] without any filtration cross-check (atoms taken at face value)."""
    v = [[_ZERO] * m.n]
    for t in range(1, m.T + 1):
        row = list(v[-1])
        for i, pos in h.held[t - 1].items():
            if any(pos):
                inc = m.increment(t, i)
                row[i] += sum((a * b for a, b in zip(pos, inc)), _ZERO)
        v.append(row)
    return v


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


_JSON_KINDS = {list: "a JSON array", dict: "a JSON object", str: "a string"}


def _expect(value, kind: type, where: str):
    """``value`` itself if it is a ``kind`` (list, dict or str); else MarketFormatError."""
    if not isinstance(value, kind):
        raise MarketFormatError(f"{where} must be {_JSON_KINDS[kind]}, not {type(value).__name__}")
    return value


def _read_document(source: Union[str, Path, dict], what: str) -> dict:
    """The JSON object in ``source``: a dict, JSON text starting with "{", or a file path.

    A file that cannot be opened raises ``OSError``; content that is not a
    JSON object raises MarketFormatError naming ``what``.
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
            doc = json.loads(text)
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
        entry = _expect(entry, dict, f"scenario entry {k}")
        sid = entry.get("id")
        if not isinstance(sid, str):
            raise MarketFormatError("every scenario needs a string id")
        rows = entry.get("prices")
        if not isinstance(rows, list):
            raise MarketFormatError(f"scenario {sid!r} has no price rows")
        where = f"scenario {sid!r}"
        path = tuple(
            tuple(_parse_price(x, where) for x in _expect(row, list, f"{where} price row"))
            for row in rows
        )
        scenarios.append(Scenario(sid, path))

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
    any other key is a format error.
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
        for key, vec_ in _expect(table.get(str(t), {}), dict, where).items():
            atom = set()
            for sid in _expect(key, str, f"{where} atom").split(","):
                try:
                    atom.add(m.index_of(sid))
                except KeyError:
                    raise MarketFormatError(
                        f"{where} references unknown scenario {sid!r}"
                    ) from None
            vec_ = _expect(vec_, list, f"{where} position of {key!r}")
            if len(vec_) != m.d:
                raise MarketFormatError(
                    f"{where} position of {key!r} has length {len(vec_)}, expected d={m.d}"
                )
            pos[frozenset(atom)] = tuple(_parse_rat(x, where) for x in vec_)
        positions.append(pos)
    try:
        return Strategy(tuple(positions))
    except ValueError as exc:
        raise MarketFormatError(str(exc)) from None
