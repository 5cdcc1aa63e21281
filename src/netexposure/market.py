"""Market graphs: class-labelled links, netting partitions, degree queries,
and deterministic (realised-weight) risk measures.

A market holds N participants and K derivative classes; each link is the
netted bilateral position of one pair within one class, so there is at
most one link per (pair, class). Links may be directed (the target is the
creditor) or undirected (sign of a realised weight is read relative to the
link's source). Values are immutable after construction; every query here
is read-only.
"""

import itertools
from collections import defaultdict
from dataclasses import dataclass, replace
from functools import cached_property
from math import inf
from operator import itemgetter
from typing import Iterator, NamedTuple

__all__ = [
    "Link",
    "Market",
    "DegreeProfile",
    "NettingSet",
    "Bilateral",
    "Multilateral",
    "Custom",
    "MarketError",
    "validate_market",
    "require_valid",
    "degree_profile",
    "is_eulerian",
    "netting_sets",
    "enumerate_orientations",
    "current_bilateral_risk",
    "current_multilateral_risk",
    "MultilateralRisk",
    "ORIENTATION_CAP",
]

ORIENTATION_CAP = 20

SIGN_SYMMETRIC = 0  # netting-set item sign for undirected links


class MarketError(ValueError):
    """A market or partition failed validation."""


@dataclass(frozen=True, slots=True)
class Link:
    """One netted bilateral position within a derivative class.

    For a directed link the source is the debtor and the target the
    creditor. For an undirected link the endpoint order only fixes how the
    sign of a realised weight is read: positive means the source claims.
    """

    source: str
    target: str
    cls: int
    directed: bool
    weight: float | None = None

    def other(self, vertex: str) -> str:
        return self.target if vertex == self.source else self.source

    def incident(self, vertex: str) -> bool:
        return vertex == self.source or vertex == self.target


@dataclass(frozen=True)
class Market:
    """N participants, K classes and the links between them.

    The validation errors are computed lazily, once per instance; a market
    built by ``dataclasses.replace`` starts without them.
    """

    participants: tuple[str, ...]
    n_classes: int
    links: tuple[Link, ...]

    @cached_property
    def _errors(self) -> tuple[str, ...]:
        return tuple(validate_market(self))


@dataclass(frozen=True)
class DegreeProfile:
    in_degree: int
    out_degree: int

    @property
    def eulerian_degree(self) -> int:
        return self.in_degree - self.out_degree


class NettingSet(NamedTuple):
    """One block of a participant's netting partition.

    Items are (link index, sign) pairs with sign +1 when the owner is the
    creditor, -1 when the debtor, and 0 for undirected links.
    """

    owner: str
    items: tuple[tuple[int, int], ...]
    kind: str = ""

    @property
    def link_indices(self) -> tuple[int, ...]:
        return tuple(map(itemgetter(0), self.items))

    @property
    def signs(self) -> tuple[int, ...]:
        return tuple(map(itemgetter(1), self.items))


# Netting conventions ---------------------------------------------------------

@dataclass(frozen=True)
class Bilateral:
    """Net across all classes, per counterparty pair."""


@dataclass(frozen=True)
class Multilateral:
    """Clear one class through a central counterparty (netting across all
    of a participant's positions in that class); other classes stay
    bilateral."""

    cls: int


@dataclass(frozen=True)
class Custom:
    """Explicit partition: owner -> tuple of blocks of link indices."""

    sets: tuple[tuple[str, tuple[int, ...]], ...]


Convention = Bilateral | Multilateral | Custom


# Validation ------------------------------------------------------------------

def validate_market(m: Market) -> list[str]:
    """All invariant violations, empty when the market is well formed."""
    errors = []
    if len(m.participants) < 1:
        errors.append("market needs at least one participant")
    if len(set(m.participants)) != len(m.participants):
        errors.append("duplicate participant identifiers")
    if m.n_classes < 1:
        errors.append("market needs at least one derivative class")
    known = set(m.participants)
    seen_pairs = set()
    for idx, a in enumerate(m.links):
        u, w, cls, weight = a.source, a.target, a.cls, a.weight
        key = (u, w, cls) if u < w else (w, u, cls)
        duplicate = key in seen_pairs
        seen_pairs.add(key)
        if not (duplicate or u == w or u not in known or w not in known
                or not 1 <= cls <= m.n_classes
                or weight is not None and not -inf < weight < inf):
            continue
        where = f"links[{idx}]"
        if a.source == a.target:
            errors.append(f"{where}: self-link at {a.source!r}")
        for v in (a.source, a.target):
            if v not in known:
                errors.append(f"{where}: unknown participant {v!r}")
        if not 1 <= a.cls <= m.n_classes:
            errors.append(f"{where}: unknown class {a.cls} "
                          f"(market has {m.n_classes})")
        if duplicate:
            errors.append(f"{where}: duplicate pair-class link "
                          f"{a.source}-{a.target} in class {a.cls}")
        if weight is not None and not -inf < weight < inf:
            errors.append(f"{where}: realised weight {weight!r} is not finite")
    return errors


def require_valid(m: Market) -> Market:
    if m._errors:
        raise MarketError("; ".join(m._errors))
    return m


def _require_class(m: Market, cls: int) -> None:
    if not 1 <= cls <= m.n_classes:
        raise MarketError(f"unknown class {cls} (market has {m.n_classes})")


# Degrees and orientations ----------------------------------------------------

def _class_links(m: Market, cls: int) -> list[tuple[int, Link]]:
    _require_class(m, cls)
    return [(i, a) for i, a in enumerate(m.links) if a.cls == cls]


def degree_profile(m: Market, vertex: str, cls: int) -> DegreeProfile:
    """In/out degree of a vertex within one (fully directed) class."""
    ins = outs = 0
    for _, a in _class_links(m, cls):
        if not a.directed:
            raise MarketError(
                f"undirected links have no degree profile (class {cls})")
        if a.target == vertex:
            ins += 1
        elif a.source == vertex:
            outs += 1
    return DegreeProfile(ins, outs)


def is_eulerian(m: Market, cls: int) -> bool:
    """True when every vertex balances claims and debts in the class."""
    return all(degree_profile(m, v, cls).eulerian_degree == 0
               for v in m.participants)


def enumerate_orientations(m: Market, cls: int) -> Iterator[Market]:
    """All 2^m directed versions of a fully undirected class.

    Brute-force enumeration is a test oracle, not a production path, so
    the class size is capped at ORIENTATION_CAP links.
    """
    indexed = _class_links(m, cls)
    if any(a.directed for _, a in indexed):
        raise MarketError(f"class {cls} already contains directed links")
    if len(indexed) > ORIENTATION_CAP:
        raise MarketError(
            f"orientation space too large: {len(indexed)} links "
            f"(cap {ORIENTATION_CAP})")
    indices = [i for i, _ in indexed]
    for choice in itertools.product((False, True), repeat=len(indices)):
        links = list(m.links)
        for flip, i in zip(choice, indices):
            a = links[i]
            src, dst = (a.target, a.source) if flip else (a.source, a.target)
            links[i] = replace(a, source=src, target=dst, directed=True)
        yield replace(m, links=tuple(links))


# Netting partitions ----------------------------------------------------------

def _partition(m: Market, convention: Convention
               ) -> dict[str, dict[str | None, list]]:
    """Every vertex's netting groups under a built-in convention, from one
    pass over the links that takes their signature census as it goes: its
    pooled-class links form one group under the key None, listed first,
    and its other links one group per counterparty under the peer's name,
    peers in the order of their first link. A group is the list [claims,
    debts, undirected, *items], items ascending by link index; an unused
    pool stays [0, 0, 0]."""
    if isinstance(convention, Multilateral):
        _require_class(m, convention.cls)
    elif not isinstance(convention, Bilateral):
        raise TypeError(f"unknown convention: {convention!r}")
    pool = getattr(convention, "cls", None)
    groups = {v: defaultdict([0, 0, 0].copy, {None: [0, 0, 0]})
              for v in m.participants}
    for i, a in enumerate(m.links):
        u, w = a.source, a.target
        # the target's sign, and each end's census slot
        sign, at_w, at_u = (1, 0, 1) if a.directed else (SIGN_SYMMETRIC, 2, 2)
        in_pool = a.cls == pool
        if (g := groups.get(w)) is not None:
            group = g[None if in_pool else u]
            group[at_w] += 1
            group.append((i, sign))
        if u != w and (g := groups.get(u)) is not None:
            group = g[None if in_pool else w]
            group[at_u] += 1
            group.append((i, -sign))
    return groups


def _kind(key: str | None, convention: Convention) -> str:
    """The kind of the netting set of a ``_partition`` group's key."""
    return f"multilateral:{convention.cls}" if key is None else \
        f"bilateral:{key}"


def netting_sets(m: Market, convention: Convention
                 ) -> dict[str, list[NettingSet]]:
    """Netting partition of every participant under a convention.

    The multilateral convention pools one class per vertex and keeps the
    remaining classes bilateral. Custom partitions are validated: blocks
    must be disjoint, non-empty, incident to their owner, and cover all of
    the owner's links.
    """
    if isinstance(convention, Custom):
        out = {v: [] for v in m.participants}
        # each owner's incident links and their signs, by link index
        incident = {v: dict(item for g in groups.values() for item in g[3:])
                    for v, groups in _partition(m, Bilateral()).items()}
        for owner, block in convention.sets:
            if owner not in out:
                raise MarketError(f"unknown participant {owner!r} "
                                  f"in custom partition")
            signs = incident[owner]
            for i in block:
                if i not in signs:
                    raise MarketError(f"link {i} in a netting set of "
                                      f"{owner!r} is not incident to it")
            items = tuple((i, signs[i]) for i in block)
            out[owner].append(NettingSet(owner=owner, items=items,
                                         kind="custom"))
        for v, sets in out.items():
            if not all(s.items for s in sets):
                raise MarketError(f"empty netting set for {v!r}")
            covered = [i for s in sets for i, _ in s.items]
            if len(covered) != len(set(covered)):
                raise MarketError(f"overlapping netting sets for {v!r}")
            if set(covered) != incident[v].keys():
                missing = sorted(incident[v].keys() - set(covered))
                raise MarketError(f"netting sets of {v!r} do not cover "
                                  f"links {missing}")
        return out
    return {v: [NettingSet(v, tuple(group[3:]), _kind(key, convention))
                for key, group in g.items() if len(group) > 3]
            for v, g in _partition(m, convention).items()}


# Deterministic risk measures -------------------------------------------------

def _require_weights(m: Market) -> None:
    require_valid(m)
    for i, a in enumerate(m.links):
        if a.weight is None:
            raise MarketError(f"links[{i}] carries no realised weight")


def _pair_positions(m: Market, cleared: int | None = None
                    ) -> dict[tuple[str, str], float]:
    """Net realised position per unordered pair outside class ``cleared``,
    signed towards the key's first (lexicographically smaller) vertex."""
    pos: dict[tuple[str, str], float] = {}
    for a in m.links:
        if a.cls == cleared:
            continue
        credit = a.target if a.directed else a.source
        debit = a.source if a.directed else a.target
        key = (credit, debit) if credit < debit else (debit, credit)
        signed = a.weight if key[0] == credit else -a.weight
        pos[key] = pos.get(key, 0.0) + signed
    return pos


def current_bilateral_risk(m: Market) -> float:
    """Sum of positive netted pair positions over both perspectives.

    Claims of one side are the liabilities of the other, so each unordered
    pair contributes the absolute value of its net position.
    """
    _require_weights(m)
    return float(sum(abs(y) for y in _pair_positions(m).values()))


@dataclass(frozen=True)
class MultilateralRisk:
    class_measure: float  # sum over vertices of |net class position|
    combined: float       # class measure plus bilateral risk of the rest


def current_multilateral_risk(m: Market, cls: int) -> MultilateralRisk:
    """Centrally cleared measure of one class plus the bilateral rest.

    Every position appears twice in the class measure, once as a claim and
    once as a debt, so it equals twice the summed positive parts.
    """
    _require_weights(m)
    _require_class(m, cls)
    per_vertex = {v: 0.0 for v in m.participants}
    for a in m.links:
        if a.cls != cls:
            continue
        credit = a.target if a.directed else a.source
        debit = a.source if a.directed else a.target
        per_vertex[credit] += a.weight
        per_vertex[debit] -= a.weight
    class_measure = float(sum(abs(y) for y in per_vertex.values()))
    rest = float(sum(abs(y) for y in _pair_positions(m, cls).values()))
    return MultilateralRisk(class_measure=class_measure,
                            combined=class_measure + rest)
