"""Metamorphic properties of market totals.

Laplace and uniform markets have exact rational totals, so each relation
below holds bit for bit: reversing every directed link, relabelling
participants and reordering links, scaling the law, swapping two classes
(with the cleared class), and taking the disjoint union of two markets.
Normal markets scale with sigma within their reported error bounds.
"""

from collections import defaultdict
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from netexposure import (
    Bilateral,
    LaplaceSym,
    Link,
    Market,
    Multilateral,
    NormalSym,
    UniformSym,
    expected_market,
)

# a pair-class slot holds no link, an undirected link, or a directed one
# either way
SLOTS = ("none", "undirected", "forward", "backward")


@st.composite
def markets(draw, k: int, prefix: str = "p") -> Market:
    """N <= 7 participants, ``k`` classes, mixed directed and undirected
    links, at least one link."""
    n = draw(st.integers(2, 7))
    parts = tuple(f"{prefix}{i}" for i in range(n))
    slots = [(parts[i], parts[j], c) for c in range(1, k + 1)
             for i in range(n) for j in range(i + 1, n)]
    kinds = draw(st.lists(st.sampled_from(SLOTS), min_size=len(slots),
                          max_size=len(slots)).filter(
        lambda kinds: set(kinds) != {"none"}))
    links = []
    for (u, w, c), kind in zip(slots, kinds):
        if kind == "backward" or kind == "undirected" and draw(st.booleans()):
            u, w = w, u
        if kind != "none":
            links.append(Link(u, w, c, kind != "undirected"))
    return Market(parts, k, tuple(draw(st.permutations(links))))


laws = st.sampled_from([LaplaceSym, UniformSym])
scales = st.sampled_from([1.0, 0.5, 2.5, 3.0, 0.1])


def conventions(k: int):
    """Bilateral, or ``multilateral:c`` for a class c <= k."""
    return st.sampled_from([Bilateral(),
                            *(Multilateral(c) for c in range(1, k + 1))])


@st.composite
def cases(draw):
    """(market, law at a scale, convention)."""
    k = draw(st.integers(1, 3))
    return draw(markets(k)), draw(laws)(draw(scales)), draw(conventions(k))


def _exact(m, dist, convention) -> tuple[Fraction, dict[str, Fraction]]:
    """The exact market total and each participant's exact exposure."""
    report = expected_market(m, dist, convention)
    per_participant = defaultdict(Fraction)
    for e in report.per_netting_set:
        per_participant[e.owner] += e.exact
    return report.market_total_exact, per_participant


def _scale(dist) -> Fraction:
    return Fraction(dist.scale if isinstance(dist, LaplaceSym)
                    else dist.half_width)


def _mean_abs(dist) -> Fraction:
    """E|X| of the law."""
    return _scale(dist) / (1 if isinstance(dist, LaplaceSym) else 2)


@settings(max_examples=40, deadline=None)
@given(cases())
def test_global_reversal(case):
    # totals are equal, and each participant's exposure moves by its
    # directed links' E(Y) = (claims - debts) E|X|, since reversal maps
    # each set's Y to -Y in law and E max[Y; 0] - E max[-Y; 0] = E(Y)
    m, dist, convention = case
    reversed_links = tuple(Link(a.target, a.source, a.cls, True)
                           if a.directed else a for a in m.links)
    total, per = _exact(m, dist, convention)
    total_r, per_r = _exact(Market(m.participants, m.n_classes,
                                   reversed_links), dist, convention)
    assert total_r == total
    for v in m.participants:
        net = sum((a.target == v) - (a.source == v)
                  for a in m.links if a.directed)
        assert per[v] - per_r[v] == net * _mean_abs(dist), v


@settings(max_examples=40, deadline=None)
@given(cases(), st.data())
def test_relabelling(case, data):
    m, dist, convention = case
    names = data.draw(st.permutations([f"q{i}" for i in range(7)]))
    rename = dict(zip(m.participants, names))
    links = [Link(rename[a.source], rename[a.target], a.cls, a.directed)
             for a in m.links]
    parts = data.draw(st.permutations(names[:len(rename)]))
    relabelled = Market(tuple(parts), m.n_classes,
                        tuple(data.draw(st.permutations(links))))
    total, per = _exact(m, dist, convention)
    total_q, per_q = _exact(relabelled, dist, convention)
    assert total_q == total
    assert {rename[v]: value for v, value in per.items()} == per_q


@settings(max_examples=40, deadline=None)
@given(cases())
def test_scale(case):
    m, dist, convention = case
    unit, _ = _exact(m, type(dist)(1.0), convention)
    total, _ = _exact(m, dist, convention)
    assert total == _scale(dist) * unit


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3), laws, scales, st.data())
def test_disjoint_union(k, law, scale, data):
    a, b = data.draw(markets(k, "a")), data.draw(markets(k, "b"))
    convention = data.draw(conventions(k))
    union = Market(a.participants + b.participants, k, a.links + b.links)
    dist = law(scale)
    total_a, _ = _exact(a, dist, convention)
    total_b, _ = _exact(b, dist, convention)
    total, _ = _exact(union, dist, convention)
    assert total == total_a + total_b


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 3), laws, scales, st.data())
def test_class_swap(k, law, scale, data):
    m = data.draw(markets(k))
    i, j = data.draw(st.permutations(range(1, k + 1)))[:2]
    swap = {i: j, j: i}
    swapped = Market(m.participants, k, tuple(
        Link(a.source, a.target, swap.get(a.cls, a.cls), a.directed)
        for a in m.links))
    dist = law(scale)
    report = expected_market(m, dist, Multilateral(i))
    report_s = expected_market(swapped, dist, Multilateral(j))
    assert report_s.market_total_exact == report.market_total_exact
    assert report_s.market_total.hex() == report.market_total.hex()
    assert report_s.per_participant == report.per_participant
    assert report_s.components == report.components
    assert report_s.pair_view == report.pair_view
    assert ([(e.owner, e.links, e.exact, e.value.hex())
             for e in report_s.per_netting_set]
            == [(e.owner, e.links, e.exact, e.value.hex())
                for e in report.per_netting_set])


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3), scales, st.data())
def test_normal_scale_within_reported_bounds(k, sigma, data):
    # a normal set's value at sigma is sigma times its unit value up to
    # both reported error bounds and a few ulps of float rounding
    m = data.draw(markets(k))
    convention = data.draw(conventions(k))
    report = expected_market(m, NormalSym(sigma), convention)
    unit = expected_market(m, NormalSym(1.0), convention)
    ulps = 8 * len(report.per_netting_set) * 2.0 ** -52
    bounds = 0.0
    for e, e1 in zip(report.per_netting_set, unit.per_netting_set):
        bound = e.error + sigma * e1.error
        assert abs(e.value - sigma * e1.value) <= bound + ulps * e.value
        bounds += bound
    assert (abs(report.market_total - sigma * unit.market_total)
            <= bounds + ulps * report.market_total)
