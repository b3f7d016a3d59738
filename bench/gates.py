"""Correctness gates recomputed from the market document.

The gates do not call arbscan's own checkers: prices, natural atoms,
strategy values and martingale sums are recomputed here from the generated
market JSON, so a fast wrong answer fails whatever the program says about
itself.  Each check returns a list of problems; an empty list passes.
"""

from __future__ import annotations

from fractions import Fraction

_ZERO = Fraction(0)


class Book:
    """Exact prices of one market document, indexed like the program indexes them."""

    def __init__(self, doc: dict):
        self.d = doc["d"]
        self.T = doc["T"]
        self.ids = [s["id"] for s in doc["scenarios"]]
        self.index = {sid: i for i, sid in enumerate(self.ids)}
        self.paths = [
            tuple(tuple(Fraction(x) for x in row) for row in s["prices"])
            for s in doc["scenarios"]
        ]
        self.n = len(self.paths)
        self.natural = [self._atoms_by_prefix(t) for t in range(self.T + 1)]

    def _atoms_by_prefix(self, t: int) -> list[frozenset]:
        groups: dict[tuple, set] = {}
        for i, path in enumerate(self.paths):
            groups.setdefault(path[: t + 1], set()).add(i)
        return [frozenset(g) for g in groups.values()]

    def inc(self, t: int, i: int) -> tuple:
        return tuple(b - a for a, b in zip(self.paths[i][t - 1], self.paths[i][t]))

    def indices(self, ids) -> frozenset:
        return frozenset(self.index[sid] for sid in ids)

    def terminal_values(self, positions) -> list[Fraction]:
        """V_T per scenario; ``positions[t-1]`` maps index atoms to position vectors."""
        v = [_ZERO] * self.n
        for t in range(1, self.T + 1):
            for atom, h in positions[t - 1].items():
                for i in atom:
                    v[i] += sum((a * b for a, b in zip(h, self.inc(t, i))), _ZERO)
        return v

    def measure_problems(self, weights: dict, filtrations: dict, what: str) -> list[str]:
        """Nonnegative weights summing to 1 with zero conditional increments."""
        out = []
        if any(w < 0 for w in weights.values()):
            out.append(f"{what}: negative weight")
        if sum(weights.values(), _ZERO) != 1:
            out.append(f"{what}: weights do not sum to 1")
        for fname, atoms_by_t in filtrations.items():
            for t in range(1, self.T + 1):
                for atom in atoms_by_t[t - 1]:
                    total = [_ZERO] * self.d
                    for i in atom:
                        w = weights.get(i, _ZERO)
                        if w:
                            for j, x in enumerate(self.inc(t, i)):
                                total[j] += w * x
                    if any(total):
                        out.append(f"{what}: not a martingale for the {fname} filtration at t={t}")
                        return out
        return out

    def predictable_problems(self, positions, atoms_by_t, what: str) -> list[str]:
        """Every position atom lies inside one atom of the time t-1 partition."""
        for t in range(1, self.T + 1):
            for atom in positions[t - 1]:
                if not any(atom <= a for a in atoms_by_t[t - 1]):
                    return [f"{what}: position atom at t={t} is not measurable"]
        return []


def _positions_from_json(book: Book, table: dict) -> list[dict]:
    return [
        {
            book.indices(key.split(",")): tuple(Fraction(x) for x in vec)
            for key, vec in table.get(str(t), {}).items()
        }
        for t in range(1, book.T + 1)
    ]


def analyze_problems(book: Book, report: dict) -> list[str]:
    """Gate the ``analyze`` report.

    The full-support measure is an exact martingale measure for the natural
    and the enlarged filtration with support exactly ``omega_star``; the
    aggregator is enlarged-predictable, its terminal gains are >= 0 everywhere
    and > 0 exactly on the polar complement.
    """
    out = []
    star = book.indices(report["omega_star"])
    polar = book.indices(report["polar_complement"])
    if star | polar != frozenset(range(book.n)) or star & polar:
        out.append("omega_star and polar complement do not partition the scenarios")
    enlarged = [
        [book.indices(a) for a in report["enlarged_filtration"][str(t)]]
        for t in range(book.T + 1)
    ]
    full = report["measures"]["full_support"]
    if star:
        if full is None:
            out.append("no full-support measure although omega_star is nonempty")
        else:
            weights = {book.index[sid]: Fraction(w) for sid, w in full.items()}
            if frozenset(i for i, w in weights.items() if w) != star:
                out.append("full-support measure support differs from omega_star")
            out += book.measure_problems(
                weights, {"natural": book.natural, "enlarged": enlarged}, "full-support measure"
            )
    elif full is not None:
        out.append("full-support measure emitted for an empty omega_star")

    positions = _positions_from_json(book, report["aggregator"]["positions"])
    out += book.predictable_problems(positions, enlarged, "aggregator")
    v = book.terminal_values(positions)
    if any(x < 0 for x in v):
        out.append("aggregator loses on some scenario")
    if frozenset(i for i, x in enumerate(v) if x > 0) != polar:
        out.append("aggregator gain set differs from the polar complement")
    return out


def oracle_problems(book: Book, support_ids, star_ids) -> list[str]:
    """The LP oracle's support equals the geometric ``omega_star``."""
    if book.indices(support_ids) != book.indices(star_ids):
        return ["oracle support disagrees with omega_star"]
    return []


def natural_problems(book: Book, class_sets, verdict) -> list[str]:
    """Gate one natural-filtration class verdict.

    An Arbitrage witness is naturally predictable, has V_T >= 0 everywhere
    and V_T >= 1 on its cited class set; a NoArbitrage certificate measure is
    an exact martingale measure charging every set of the class.
    """
    if verdict.arbitrage:
        if verdict.witness is None or verdict.witness_class not in class_sets:
            return ["arbitrage verdict without a witness for a class set"]
        positions = list(verdict.witness.positions)
        out = book.predictable_problems(positions, book.natural, "natural witness")
        v = book.terminal_values(positions)
        if any(x < 0 for x in v):
            out.append("natural witness loses on some scenario")
        if any(v[i] < 1 for i in verdict.witness_class):
            out.append("natural witness has V_T < 1 on its class set")
        return out
    q = verdict.certificate_measure
    if q is None:
        return []
    weights = dict(q.weights)
    out = book.measure_problems(weights, {"natural": book.natural}, "natural certificate")
    if any(sum((weights.get(i, _ZERO) for i in c), _ZERO) <= 0 for c in class_sets):
        out.append("natural certificate misses a class set")
    return out
