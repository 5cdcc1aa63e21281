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
from collections import defaultdict, namedtuple
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


def _signature(signs) -> tuple[int, int, int]:
    """(claims, debts, undirected) counts of netting-set item signs."""
    return signs.count(+1), signs.count(-1), signs.count(SIGN_SYMMETRIC)


class MarketError(ValueError):
    """A market or partition failed validation."""


class Link(NamedTuple):
    """One netted bilateral position within a derivative class.

    For a directed link the source is the debtor and the target the
    creditor. For an undirected link the endpoint order only fixes how the
    sign of a realised weight is read: positive means the source claims.
    A named tuple, copied with ``_replace``; equal to its plain tuple.
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


class Market(namedtuple("Market", "participants n_classes links")):
    """N participants (a tuple of names), K classes and a tuple of links.

    A named tuple with an instance ``__dict__``, where the validation
    errors are cached, computed lazily once per instance; a market built
    by ``_replace`` starts without them.
    """

    @cached_property
    def _errors(self) -> tuple[str, ...]:
        return tuple(validate_market(self))


class DegreeProfile(NamedTuple):
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

class Bilateral:
    """Net across all classes, per counterparty pair. Not a named tuple:
    one without fields would be falsy and equal ``()``."""

    __slots__ = ()

    def __eq__(self, other):
        return type(other) is Bilateral

    def __hash__(self):
        return hash(Bilateral)

    def __repr__(self):
        return "Bilateral()"


class Multilateral(NamedTuple):
    """Clear one class through a central counterparty (netting across all
    of a participant's positions in that class); other classes stay
    bilateral."""

    cls: int


class Custom(NamedTuple):
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
    for idx, (u, w, cls, _, weight) in enumerate(m.links):
        key = (u, w, cls) if u < w else (w, u, cls)
        duplicate = key in seen_pairs
        seen_pairs.add(key)
        if not (duplicate or u == w or u not in known or w not in known
                or not 1 <= cls <= m.n_classes
                or weight is not None and not -inf < weight < inf):
            continue
        where = f"links[{idx}]"
        if u == w:
            errors.append(f"{where}: self-link at {u!r}")
        for v in (u, w):
            if v not in known:
                errors.append(f"{where}: unknown participant {v!r}")
        if not 1 <= cls <= m.n_classes:
            errors.append(f"{where}: unknown class {cls} "
                          f"(market has {m.n_classes})")
        if duplicate:
            errors.append(f"{where}: duplicate pair-class link "
                          f"{u}-{w} in class {cls}")
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

def _degree_census(m: Market, cls: int) -> dict[str, list]:
    """Each participant's pool under ``Multilateral(cls)``, whose claims
    and debts are its in and out degrees in that fully directed class."""
    pools = {v: groups[None]
             for v, groups in _partition(m, Multilateral(cls)).items()}
    if any(pool[2] for pool in pools.values()):
        raise MarketError(
            f"undirected links have no degree profile (class {cls})")
    return pools


def degree_profile(m: Market, vertex: str, cls: int) -> DegreeProfile:
    """In/out degree of a vertex within one (fully directed) class."""
    ins, outs, *_ = _degree_census(m, cls).get(vertex, (0, 0))
    return DegreeProfile(ins, outs)


def is_eulerian(m: Market, cls: int) -> bool:
    """True when every vertex balances claims and debts in the class."""
    return all(ins == outs
               for ins, outs, *_ in _degree_census(m, cls).values())


def enumerate_orientations(m: Market, cls: int) -> Iterator[Market]:
    """All 2^m directed versions of a fully undirected class.

    Brute-force enumeration is a test oracle, not a production path, so
    the class size is capped at ORIENTATION_CAP links.
    """
    _require_class(m, cls)
    indices = [i for i, a in enumerate(m.links) if a.cls == cls]
    if any(m.links[i].directed for i in indices):
        raise MarketError(f"class {cls} already contains directed links")
    if len(indices) > ORIENTATION_CAP:
        raise MarketError(
            f"orientation space too large: {len(indices)} links "
            f"(cap {ORIENTATION_CAP})")
    for choice in itertools.product((False, True), repeat=len(indices)):
        links = list(m.links)
        for flip, i in zip(choice, indices):
            a = links[i]
            src, dst = (a.target, a.source) if flip else (a.source, a.target)
            links[i] = a._replace(source=src, target=dst, directed=True)
        yield m._replace(links=tuple(links))


# Netting partitions ----------------------------------------------------------

def _partition(m: Market, convention: Convention
               ) -> dict[str, dict[str | int | None, list]]:
    """Every vertex's netting groups under a convention, with their
    signature census. A group is [claims, debts, undirected, *items].

    The built-in conventions take one pass over the links, with items
    ascending by link index: the vertex's pooled-class links, first under
    the key None (an unused pool stays [0, 0, 0]), then per peer, in
    first-link order, a pair record that both share, written from the
    smaller name's side. A custom partition is validated (see
    ``netting_sets``) and keyed by block position, its items in block
    order and signed as the bilateral groups sign them."""
    if isinstance(convention, Custom):
        incident = {v: dict(item for k, g in groups.items()
                            for item in _items(v, k, g))
                    for v, groups in _partition(m, Bilateral()).items()}
        out = {v: [] for v in m.participants}
        for owner, block in convention.sets:
            if owner not in out:
                raise MarketError(f"unknown participant {owner!r} "
                                  f"in custom partition")
            signs = incident[owner]
            for i in block:
                if i not in signs:
                    raise MarketError(f"link {i} in a netting set of "
                                      f"{owner!r} is not incident to it")
            out[owner].append([*_signature([signs[i] for i in block]),
                               *[(i, signs[i]) for i in block]])
        for v, blocks in out.items():
            if not all(len(g) > 3 for g in blocks):
                raise MarketError(f"empty netting set for {v!r}")
            covered = [i for g in blocks for i, _ in g[3:]]
            if len(covered) != len(set(covered)):
                raise MarketError(f"overlapping netting sets for {v!r}")
            if missing := sorted(incident[v].keys() - set(covered)):
                raise MarketError(f"netting sets of {v!r} do not cover "
                                  f"links {missing}")
        return {v: dict(enumerate(blocks)) for v, blocks in out.items()}
    if isinstance(convention, Multilateral):
        _require_class(m, convention.cls)
    elif not isinstance(convention, Bilateral):
        raise TypeError(f"unknown convention: {convention!r}")
    pool = getattr(convention, "cls", None)
    groups = defaultdict(lambda: {None: [0, 0, 0]})  # unknown ends dropped
    for i, (u, w, cls, directed, _) in enumerate(m.links):
        # the target's census slot and sign; the source's are at + sign, -sign
        at, sign = (0, 1) if directed else (2, SIGN_SYMMETRIC)
        if cls == pool:
            if u != w:
                group = groups[u][None]
                group[at + sign] += 1
                group.append((i, -sign))
            group = groups[w][None]
        elif (group := groups[w].get(u)) is None:
            group = groups[w][u] = groups[u][w] = [0, 0, 0]
        if u < w and cls != pool:  # signed from the smaller name's side
            at, sign = at + sign, -sign
        group[at] += 1
        group.append((i, sign))
    return {v: groups[v] for v in m.participants}


def _mirrored(owner: str, key, group: list) -> bool:
    """Whether ``owner`` reads its ``_partition`` group under ``key``
    mirrored: a pair record with directed links, read from the larger
    name, swaps claims and debts and negates signs."""
    return type(key) is str and owner > key and group[0] + group[1] > 0


def _items(owner: str, key, group: list) -> tuple[tuple[int, int], ...]:
    """``owner``'s netting-set items of its group under ``key``."""
    if _mirrored(owner, key, group):
        return tuple([(i, -s) for i, s in group[3:]])
    return tuple(group[3:])


def _set(owner: str, key, group: list, convention: Convention) -> NettingSet:
    """``owner``'s netting set of its ``_partition`` group under ``key``."""
    kind = f"multilateral:{convention.cls}" if key is None else \
        f"bilateral:{key}" if type(key) is str else "custom"
    return NettingSet(owner, _items(owner, key, group), kind)


def netting_sets(m: Market, convention: Convention
                 ) -> dict[str, list[NettingSet]]:
    """Netting partition of every participant under a convention: one set
    per nonempty ``_partition`` group, in its order.

    Bilateral netting gives one set per counterparty. The multilateral
    convention pools one class per vertex and keeps the remaining classes
    bilateral. Custom partitions are validated: blocks must be disjoint,
    non-empty, incident to their owner, and cover all of the owner's
    links.
    """
    return {v: [_set(v, k, g, convention) for k, g in groups.items()
                if len(g) > 3]
            for v, groups in _partition(m, convention).items()}


# Deterministic risk measures -------------------------------------------------

def _realised(m: Market, convention: Convention
              ) -> Iterator[tuple[str | None, float]]:
    """Key and realised net of every netting set under a convention, in
    participant order, each read by its owner: a claim adds its weight, a
    debt subtracts it, and an undirected link adds it for its source."""
    require_valid(m)
    for i, a in enumerate(m.links):
        if a.weight is None:
            raise MarketError(f"links[{i}] carries no realised weight")
    for v, groups in _partition(m, convention).items():
        for key, group in groups.items():
            y = 0.0
            for i, sign in _items(v, key, group):
                a = m.links[i]
                y += (sign or (1 if a.source == v else -1)) * a.weight
            yield key, y


def current_bilateral_risk(m: Market) -> float:
    """Sum over every participant's bilateral netting sets of its positive
    realised net.

    Claims of one side are the liabilities of the other, so each unordered
    pair contributes the absolute value of its net position.
    """
    risk = 0.0
    for _, y in _realised(m, Bilateral()):
        risk += max(y, 0.0)
    return risk


class MultilateralRisk(NamedTuple):
    class_measure: float  # sum over vertices of |net class position|
    combined: float       # class measure plus bilateral risk of the rest


def current_multilateral_risk(m: Market, cls: int) -> MultilateralRisk:
    """Centrally cleared measure of one class plus the bilateral rest,
    over the netting sets of ``Multilateral(cls)``: the class measure sums
    |realised net| over the pools, the rest the positive realised nets of
    the remaining sets.

    Every position appears twice in the class measure, once as a claim and
    once as a debt, so it equals twice the summed positive parts.
    """
    class_measure = rest = 0.0
    for key, y in _realised(m, Multilateral(cls)):
        if key is None:
            class_measure += abs(y)
        else:
            rest += max(y, 0.0)
    return MultilateralRisk(class_measure, class_measure + rest)
