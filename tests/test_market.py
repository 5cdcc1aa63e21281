"""Market graphs: validation, degrees, partitions, orientations, and the
deterministic realised-weight risk measures."""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netexposure import (
    Bilateral,
    Custom,
    LaplaceSym,
    Link,
    Market,
    MarketError,
    Multilateral,
    NettingSet,
    ccp_advantage,
    current_bilateral_risk,
    current_multilateral_risk,
    degree_profile,
    enumerate_orientations,
    exact_exposure,
    expected_exposure,
    expected_market,
    is_eulerian,
    mc_market_totals,
    netting_sets,
    validate_market,
)
from netexposure.io import MarketFile, parse_market_data, serialize_market
from netexposure.market import _items, _mirrored, _partition, require_valid
from conftest import (
    illustrative_market,
    path_market,
    triangle_directed,
    triangle_undirected,
    two_tier,
    two_vertex_market,
)


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

def test_minimal_legal_market():
    m = Market(("v", "w"), 1, (Link("v", "w", 1, False),))
    assert validate_market(m) == []


def test_self_link_rejected():
    m = Market(("v", "w"), 1, (Link("v", "v", 1, False),))
    assert any("self-link" in e for e in validate_market(m))


def test_duplicate_pair_class_rejected():
    m = Market(("v", "w"), 1,
               (Link("v", "w", 1, False), Link("w", "v", 1, False)))
    assert any("duplicate pair-class" in e for e in validate_market(m))


def test_unknown_class_rejected():
    m = Market(("v", "w"), 2, (Link("v", "w", 3, False),))
    assert any("unknown class" in e for e in validate_market(m))


def test_same_pair_digfferent_class_is_fine():
    m = Market(("v", "w"), 2,
               (Link("v", "w", 1, False), Link("v", "w", 2, False)))
    assert validate_market(m) == []


def test_all_violations_reported_together():
    m = Market(("v", "w"), 1,
               (Link("v", "v", 1, False), Link("v", "w", 9, False)))
    errors = validate_market(m)
    assert len(errors) == 2


@pytest.mark.parametrize("classes", [0, -3])
def test_market_needs_a_derivative_class(classes):
    m = Market(("a",), classes, ())
    assert validate_market(m) == [
        "market needs at least one derivative class"]
    with pytest.raises(MarketError, match="at least one derivative class"):
        require_valid(m)


@pytest.mark.parametrize("weight", [float("nan"), float("inf"),
                                    -float("inf")])
def test_non_finite_weight_rejected(weight):
    m = Market(("v", "w"), 1, (Link("v", "w", 1, False, weight=weight),))
    message = f"links[0]: realised weight {weight!r} is not finite"
    assert validate_market(m) == [message]
    with pytest.raises(MarketError, match=re.escape(message)):
        current_bilateral_risk(m)
    with pytest.raises(MarketError, match=re.escape(message)):
        current_multilateral_risk(m, 1)


def test_violation_messages_in_link_order():
    m = Market(("v", "w", "v"), 2,
               (Link("v", "v", 1, True), Link("v", "x", 3, False),
                Link("w", "v", 1, False), Link("v", "w", 1, False),
                Link("y", "z", 2, False)))
    assert validate_market(m) == [
        "duplicate participant identifiers",
        "links[0]: self-link at 'v'",
        "links[1]: unknown participant 'x'",
        "links[1]: unknown class 3 (market has 2)",
        "links[3]: duplicate pair-class link v-w in class 1",
        "links[4]: unknown participant 'y'",
        "links[4]: unknown participant 'z'",
    ]


# ---------------------------------------------------------------------------
# Degrees and the balance criterion
# ---------------------------------------------------------------------------

def test_path_middle_vertex_degree():
    p = degree_profile(path_market(), "v", 1)
    assert (p.in_degree, p.out_degree, p.eulerian_degree) == (1, 1, 0)


def test_circle_balances_every_vertex():
    tri = triangle_directed()
    for v in tri.participants:
        assert degree_profile(tri, v, 1).eulerian_degree == 0


def test_isolated_vertex_degree():
    m = Market(("a", "b", "c"), 1, (Link("a", "b", 1, True),))
    assert degree_profile(m, "c", 1) == degree_profile(m, "c", 1)
    p = degree_profile(m, "c", 1)
    assert (p.in_degree, p.out_degree, p.eulerian_degree) == (0, 0, 0)


def test_degree_requires_directed_class():
    with pytest.raises(MarketError, match="no degree profile"):
        degree_profile(triangle_undirected(), "v1", 1)


def test_cyclic_triangle_is_eulerian():
    assert is_eulerian(triangle_directed(), 1)


def test_noncyclic_orientation_is_not_eulerian():
    m = Market(("v1", "v2", "v3"), 1,
               (Link("v1", "v2", 1, True), Link("v3", "v2", 1, True),
                Link("v1", "v3", 1, True)))
    assert not is_eulerian(m, 1)


def test_single_arrow_not_eulerian():
    m = Market(("v", "w"), 1, (Link("v", "w", 1, True),))
    assert not is_eulerian(m, 1)


@st.composite
def directed_class_markets(draw):
    """Classes 1..k fully directed, each random or one directed cycle
    (balanced); the last participant has no link, and class k + 1 holds
    one undirected link."""
    n = draw(st.integers(3, 6))
    k = draw(st.integers(1, 3))
    parts = [f"p{i}" for i in range(n)]
    linked = parts[:-1]
    links = []
    for c in range(1, k + 1):
        if len(linked) > 2 and draw(st.booleans()):
            cycle = draw(st.permutations(linked))
            links += [Link(u, w, c, True)
                      for u, w in zip(cycle, cycle[1:] + cycle[:1])]
            continue
        for i, u in enumerate(linked):
            for w in linked[i + 1:]:
                if draw(st.booleans()):
                    src, dst = (u, w) if draw(st.booleans()) else (w, u)
                    links.append(Link(src, dst, c, True))
    links.append(Link(parts[0], parts[1], k + 1, False))
    links = draw(st.permutations(links))
    return Market(tuple(draw(st.permutations(parts))), k + 1, tuple(links))


@settings(max_examples=100, deadline=None)
@given(directed_class_markets())
def test_degree_queries_match_a_link_scan(m):
    assert validate_market(m) == []
    directed = range(1, m.n_classes)
    for c in directed:
        scanned = {v: (sum(a.target == v for a in m.links if a.cls == c),
                       sum(a.source == v for a in m.links if a.cls == c))
                   for v in m.participants}
        assert scanned[f"p{len(m.participants) - 1}"] == (0, 0)
        for v in m.participants:
            assert degree_profile(m, v, c) == scanned[v]
        assert is_eulerian(m, c) == all(i == o for i, o in scanned.values())
    undirected = m.n_classes
    message = f"undirected links have no degree profile (class {undirected})"
    for query in (lambda: degree_profile(m, "p0", undirected),
                  lambda: is_eulerian(m, undirected)):
        with pytest.raises(MarketError, match=re.escape(message)):
            query()
    for c in (0, m.n_classes + 1):
        message = f"unknown class {c} (market has {m.n_classes})"
        for query in (lambda: degree_profile(m, "p0", c),
                      lambda: is_eulerian(m, c)):
            with pytest.raises(MarketError, match=re.escape(message)):
                query()


# ---------------------------------------------------------------------------
# Partitions
# ---------------------------------------------------------------------------

def test_bilateral_partition_groups_by_neighbour():
    sets = netting_sets(illustrative_market(), Bilateral())["v1"]
    by_peer = {s.kind.split(":")[1]: set(s.link_indices) for s in sets}
    assert by_peer == {"v3": {0}, "v4": {2, 6}, "v2": {5}}


def test_two_vertex_market_single_set_per_side():
    m = two_vertex_market(4)
    sets = netting_sets(m, Bilateral())
    assert len(sets["v"]) == 1 and len(sets["w"]) == 1
    assert len(sets["v"][0].items) == 4


def test_bilateral_partition_isolated_vertex_empty():
    m = Market(("a", "b", "c"), 1, (Link("a", "b", 1, False),))
    assert netting_sets(m, Bilateral())["c"] == []


def test_multilateral_partition_illustrative_v3():
    pooled = netting_sets(illustrative_market(), Multilateral(1))["v3"][0]
    assert pooled.kind == "multilateral:1"
    assert set(pooled.link_indices) == {0, 1, 3}


def test_multilateral_partition_triangle():
    sets = netting_sets(triangle_undirected(), Multilateral(1))
    for v in ("v1", "v2", "v3"):
        assert [len(s.items) for s in sets[v]] == [2]


def test_multilateral_partition_absent_vertex_empty():
    # c has no class-1 link, so it has no pooled set, only its bilateral one
    m = Market(("a", "b", "c"), 2,
               (Link("a", "b", 1, False), Link("a", "c", 2, False)))
    sets = netting_sets(m, Multilateral(1))["c"]
    assert sets == [NettingSet("c", ((1, 0),), "bilateral:a")]


def test_netting_set_signs_relative_to_owner():
    tri = triangle_directed()  # v1 -> v2 -> v3 -> v1
    signs = dict(netting_sets(tri, Multilateral(1))["v1"][0].items)
    assert signs[2] == +1  # v3 -> v1: claim of v1
    assert signs[0] == -1  # v1 -> v2: debt of v1


def partition_covers(m, sets_by_vertex):
    for v in m.participants:
        incident = set(scan_incident(m, v))
        covered = []
        for s in sets_by_vertex[v]:
            covered.extend(s.link_indices)
        assert len(covered) == len(set(covered)), f"overlap at {v}"
        assert set(covered) == incident, f"coverage gap at {v}"


@pytest.mark.parametrize("convention", [Bilateral(), Multilateral(1),
                                        Multilateral(2)])
def test_partition_property(convention):
    m = illustrative_market()
    partition_covers(m, netting_sets(m, convention))


def test_multilateral_convention_reproduces_mixed_partition():
    m = illustrative_market()
    sets = netting_sets(m, Multilateral(1))
    shapes = {v: sorted(len(s.items) for s in sets[v])
              for v in m.participants}
    assert shapes == {"v1": [1, 1, 2], "v2": [1, 1, 1],
                      "v3": [1, 3], "v4": [1, 2]}


def test_custom_partition_accepted_and_validated():
    m = two_vertex_market(2)
    conv = Custom(sets=((("v"), (0, 1)), (("w"), (0,)), (("w"), (1,))))
    sets = netting_sets(m, conv)
    assert len(sets["v"]) == 1 and len(sets["w"]) == 2
    partition_covers(m, sets)


def test_custom_partition_rejects_gap():
    m = two_vertex_market(2)
    conv = Custom(sets=((("v"), (0, 1)), (("w"), (0,))))
    with pytest.raises(MarketError, match="cover"):
        netting_sets(m, conv)


def test_custom_partition_rejects_overlap():
    m = two_vertex_market(2)
    conv = Custom(sets=(("v", (0, 1)), ("w", (0, 1)), ("w", (1,))))
    with pytest.raises(MarketError, match="verlapping"):
        netting_sets(m, conv)


def test_custom_partition_rejects_nonincident():
    m = Market(("a", "b", "c"), 1,
               (Link("a", "b", 1, False), Link("b", "c", 1, False)))
    conv = Custom(sets=(("a", (0, 1)), ("b", (0,)), ("b", (1,)),
                        ("c", (1,))))
    with pytest.raises(MarketError, match="not\\s+incident"):
        netting_sets(m, conv)


@pytest.mark.parametrize("index", [5, 1, -1, -2])
def test_custom_partition_rejects_link_index_out_of_range(index):
    m = Market(("a", "b"), 1, (Link("a", "b", 1, False),))
    conv = Custom(sets=(("a", (0,)), ("b", (index,))))
    with pytest.raises(MarketError,
                       match=f"link {index} in a netting set of 'b'"):
        netting_sets(m, conv)


# ---------------------------------------------------------------------------
# Incidence index against the link scan
# ---------------------------------------------------------------------------

def scan_incident(m, v, cls=None):
    """Reference incidence: one pass over every link."""
    return [i for i, a in enumerate(m.links)
            if a.incident(v) and (cls is None or a.cls == cls)]


def scan_peers(m, v):
    """Reference neighbourhood: v's peers in first-link order."""
    return list(dict.fromkeys(m.links[i].other(v)
                              for i in scan_incident(m, v)))


def scan_sign(a, owner):
    if not a.directed:
        return 0
    return +1 if a.target == owner else -1


def scan_bilateral(m, skip_cls=None):
    out = {}
    for v in m.participants:
        by_peer = {}
        for i in scan_incident(m, v):
            a = m.links[i]
            if a.cls != skip_cls:
                by_peer.setdefault(a.other(v), []).append(
                    (i, scan_sign(a, v)))
        out[v] = [NettingSet(v, tuple(items), f"bilateral:{peer}")
                  for peer, items in by_peer.items()]
    return out


def scan_netting_sets(m, convention):
    """Brute-force partition oracle built on ``scan_incident``."""
    if isinstance(convention, Bilateral):
        return scan_bilateral(m)
    if isinstance(convention, Multilateral):
        rest = scan_bilateral(m, convention.cls)
        out = {}
        for v in m.participants:
            items = tuple((i, scan_sign(m.links[i], v))
                          for i in scan_incident(m, v, convention.cls))
            pooled = NettingSet(v, items, f"multilateral:{convention.cls}")
            out[v] = ([pooled] if items else []) + rest[v]
        return out
    out = {v: [] for v in m.participants}
    for owner, block in convention.sets:
        out[owner].append(NettingSet(
            owner, tuple((i, scan_sign(m.links[i], owner)) for i in block),
            "custom"))
    return out


@st.composite
def small_markets(draw):
    n = draw(st.integers(1, 5))
    k = draw(st.integers(1, 3))
    directed = draw(st.booleans())
    parts = tuple(f"p{i}" for i in range(n))
    links = []
    for c in range(1, k + 1):
        for i in range(n):
            for j in range(i + 1, n):
                if draw(st.booleans()):
                    src, dst = (parts[i], parts[j]) if draw(st.booleans()) \
                        else (parts[j], parts[i])
                    links.append(Link(src, dst, c, directed
                                      and draw(st.booleans())))
    links = draw(st.permutations(links))
    return Market(parts, k, tuple(links))


def random_custom(m, rng):
    """A valid custom partition: each owner's links, shuffled and cut
    into nonempty blocks."""
    sets = []
    for v in m.participants:
        links = scan_incident(m, v)
        rng.shuffle(links)
        while links:
            size = rng.randint(1, len(links))
            sets.append((v, tuple(links[:size])))
            links = links[size:]
    rng.shuffle(sets)
    return Custom(sets=tuple(sets))


@settings(max_examples=150, deadline=None)
@given(small_markets(), st.randoms(use_true_random=False))
def test_partitions_match_scan_oracle(m, rng):
    assert validate_market(m) == []
    conventions = [Bilateral(), random_custom(m, rng)]
    conventions += [Multilateral(c) for c in range(1, m.n_classes + 1)]
    for conv in conventions:
        # equal lists: set order and item order included
        assert netting_sets(m, conv) == scan_netting_sets(m, conv)


@settings(max_examples=100, deadline=None)
@given(small_markets(), st.randoms(use_true_random=False))
def test_custom_partition_of_the_bilateral_sets_values_as_bilateral(m, rng):
    # Laplace values at scale 1 are dyadic, so every float sum is exact
    # and the shuffled block order cannot move a total
    law = LaplaceSym(1.0)
    blocks = [(v, s.link_indices)
              for v, sets in netting_sets(m, Bilateral()).items()
              for s in sets]
    rng.shuffle(blocks)
    custom = expected_market(m, law, Custom(sets=tuple(blocks)))
    bilateral = expected_market(m, law, Bilateral())
    assert custom.convention == "custom"
    assert custom.per_participant == bilateral.per_participant
    assert custom.market_total == bilateral.market_total
    assert custom.market_total_exact == bilateral.market_total_exact
    assert custom.components == {} and custom.pair_view == {}
    rows = custom.per_netting_set
    assert len(rows) == len(blocks)
    for row in rows:
        signs = [scan_sign(m.links[i], row.owner) for i in row.links]
        exact = exact_exposure(law, signs.count(1), signs.count(-1),
                               signs.count(0))
        assert (row.kind, row.exact, row.value) == (
            "custom", exact, float(exact))


def definition_partition(m, pool=None):
    """Netting sets straight from the definitions: per owner, one pool of
    its class-``pool`` links (first, when nonempty), then one block per
    counterparty of its links in the other classes, blocks in the order
    of their lowest link index; items ascend by link index."""
    out = {}
    for v in m.participants:
        def item(i):
            a = m.links[i]
            return i, (0 if not a.directed else 1 if a.target == v else -1)

        pooled = tuple(item(i) for i, a in enumerate(m.links)
                       if a.cls == pool and v in (a.source, a.target))
        blocks = []
        for w in m.participants:
            items = tuple(item(i) for i, a in enumerate(m.links)
                          if a.cls != pool and w != v
                          and {a.source, a.target} == {v, w})
            if items:
                blocks.append(NettingSet(v, items, f"bilateral:{w}"))
        blocks.sort(key=lambda s: s.items[0][0])
        out[v] = ([NettingSet(v, pooled, f"multilateral:{pool}")]
                  if pooled else []) + blocks
    return out


@st.composite
def shaped_markets(draw):
    """Directed, undirected or mixed markets, some with isolated
    participants, in random participant and link order."""
    shape = draw(st.sampled_from(["directed", "undirected", "mixed",
                                  "isolated"]))
    n = draw(st.integers(2, 6))
    k = draw(st.integers(1, 3))
    parts = [f"p{i}" for i in range(n)]
    linked = parts[:max(2, n - 2)] if shape == "isolated" else parts
    links = []
    for c in range(1, k + 1):
        for i, u in enumerate(linked):
            for w in linked[i + 1:]:
                if draw(st.booleans()):
                    directed = (shape == "directed" or shape == "mixed"
                                and draw(st.booleans()))
                    src, dst = (u, w) if draw(st.booleans()) else (w, u)
                    links.append(Link(src, dst, c, directed))
    links = draw(st.permutations(links))
    return Market(tuple(draw(st.permutations(parts))), k, tuple(links))


@settings(max_examples=200, deadline=None)
@given(shaped_markets())
def test_partitions_match_their_definitions(m):
    assert validate_market(m) == []
    assert netting_sets(m, Bilateral()) == definition_partition(m)
    for c in range(1, m.n_classes + 1):
        assert netting_sets(m, Multilateral(c)) == definition_partition(m, c)


def test_partition_of_invalid_markets_and_mirrored_sides():
    # netting_sets still takes markets that validate_market rejects: a
    # self-link is listed once, on its target's side, and a link to an
    # unknown participant only on its known end
    m = Market(("v", "w"), 2, (Link("v", "w", 1, True),
                               Link("w", "w", 1, True),
                               Link("v", "x", 1, True),
                               Link("y", "w", 2, False),
                               Link("w", "v", 2, False)))
    assert validate_market(m) != []
    assert netting_sets(m, Bilateral()) == {
        "v": [NettingSet("v", ((0, -1), (4, 0)), "bilateral:w"),
              NettingSet("v", ((2, -1),), "bilateral:x")],
        "w": [NettingSet("w", ((0, 1), (4, 0)), "bilateral:v"),
              NettingSet("w", ((1, 1),), "bilateral:w"),
              NettingSet("w", ((3, 0),), "bilateral:y")]}
    assert netting_sets(m, Multilateral(1)) == {
        "v": [NettingSet("v", ((0, -1), (2, -1)), "multilateral:1"),
              NettingSet("v", ((4, 0),), "bilateral:w")],
        "w": [NettingSet("w", ((0, 1), (1, 1)), "multilateral:1"),
              NettingSet("w", ((3, 0),), "bilateral:y"),
              NettingSet("w", ((4, 0),), "bilateral:v")]}
    # the two owners of a pair see one set from both sides: claims and
    # debts swap, directed signs flip and undirected items are equal, on
    # directed, undirected and mixed pairs with either name the smaller
    mixed = Market(("b", "a", "c"), 3, (
        Link("a", "b", 1, True), Link("b", "a", 2, True),
        Link("a", "b", 3, False), Link("c", "b", 1, True),
        Link("b", "c", 2, False), Link("c", "a", 1, False),
        Link("c", "a", 3, True)))
    assert validate_market(mixed) == []
    for convention in (Bilateral(), Multilateral(1), Multilateral(2)):
        groups = _partition(mixed, convention)
        sets = netting_sets(mixed, convention)
        by_kind = {(v, s.kind): s for v in sets for s in sets[v]}
        for v in mixed.participants:
            for key, group in groups[v].items():
                if key is None:
                    continue
                claims, debts, undirected = group[:3]
                if _mirrored(v, key, group):
                    claims, debts = debts, claims
                items = _items(v, key, group)
                mine = by_kind[v, f"bilateral:{key}"]
                theirs = by_kind[key, f"bilateral:{v}"]
                assert (claims, debts, undirected) == (
                    mine.signs.count(1), mine.signs.count(-1),
                    mine.signs.count(0))
                assert (debts, claims) == (theirs.signs.count(1),
                                           theirs.signs.count(-1))
                assert mine.items == items == tuple(
                    (i, -s) for i, s in theirs.items)


def test_records_are_immutable():
    m = triangle_directed()
    s = netting_sets(m, Bilateral())["v1"][0]
    e = expected_exposure(m, s, LaplaceSym(1.0))
    for record, field in (
            (m.links[0], "cls"), (m, "n_classes"), (s, "owner"),
            (e, "value"), (MarketFile(m, None, None), "market"),
            (ccp_advantage(m, LaplaceSym(1.0), 1), "tie"),
            (degree_profile(m, "v1", 1), "in_degree"),
            (current_multilateral_risk(weighted(m, [1.0] * 3), 1),
             "combined"),
            (mc_market_totals(m, LaplaceSym(1.0), 10, 1), "stderr"),
            (Multilateral(1), "cls"),
            (expected_market(m, LaplaceSym(1.0), Bilateral()),
             "market_total")):
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):  # no fields, and no __dict__
        Bilateral().cls = 1
    assert hash(m) == hash(triangle_directed())
    # a convention with no fields is still a true value, equal to its kind
    assert Bilateral() and Bilateral() == Bilateral() != ()
    assert hash(Bilateral()) == hash(Bilateral())
    assert repr(Bilateral()) == "Bilateral()"


def test_link_is_a_named_tuple():
    a = Link("v", "w", 2, True, 1.5)
    assert a == ("v", "w", 2, True, 1.5) and hash(a) == hash(tuple(a))
    assert Link("v", "w", 2, True) == ("v", "w", 2, True, None)
    moved = a._replace(target="x", weight=None)
    assert type(moved) is Link and moved == ("v", "x", 2, True, None)
    mf = MarketFile(Market(("v", "w"), 2, (a,)), None, None)
    keys = {"from": "source", "to": "target", "class": "cls"}
    data = serialize_market(mf)
    assert Link._fields == tuple(keys.get(k, k) for k in data["links"][0])
    parsed = parse_market_data(data).market.links
    assert parsed == (a,) and type(parsed[0]) is Link
    links = [b for om in enumerate_orientations(triangle_undirected(), 1)
             for b in om.links]
    assert links and all(type(b) is Link for b in links)


def test_require_valid_raises_on_every_call():
    m = Market(("v", "w"), 1, (Link("v", "v", 1, False),))
    for _ in range(3):
        with pytest.raises(MarketError, match="self-link"):
            require_valid(m)
    assert validate_market(m) == validate_market(m) != []


def test_replace_sees_new_links():
    m = two_vertex_market(2)
    require_valid(m)
    grown = m._replace(
        participants=("v", "w", "x"),
        links=m.links + (Link("v", "x", 1, False), Link("x", "x", 2, False)))
    assert len(netting_sets(grown, Bilateral())["v"]) == 2
    with pytest.raises(MarketError, match="self-link"):
        require_valid(grown)
    assert m == two_vertex_market(2)
    assert hash(m) == hash(two_vertex_market(2))


# ---------------------------------------------------------------------------
# Orientations
# ---------------------------------------------------------------------------

def test_triangle_has_eight_orientations_two_eulerian():
    oriented = list(enumerate_orientations(triangle_undirected(), 1))
    assert len(oriented) == 8
    assert len({tuple(a for a in om.links) for om in oriented}) == 8
    eulerian = [om for om in oriented if is_eulerian(om, 1)]
    assert len(eulerian) == 2


def test_single_edge_two_orientations():
    m = Market(("v", "w"), 1, (Link("v", "w", 1, False),))
    assert len(list(enumerate_orientations(m, 1))) == 2


def test_four_edges_sixteen_orientations():
    m = Market(("a", "b", "c", "d"), 1,
               (Link("a", "b", 1, False), Link("b", "c", 1, False),
                Link("c", "d", 1, False), Link("d", "a", 1, False)))
    assert len(list(enumerate_orientations(m, 1))) == 16


def test_orientation_cap():
    parts = tuple(f"x{i}" for i in range(22))
    links = tuple(Link(parts[i], parts[i + 1], 1, False) for i in range(21))
    m = Market(parts, 1, links)
    with pytest.raises(MarketError, match="too large"):
        list(enumerate_orientations(m, 1))


def test_orientations_leave_other_classes_untouched():
    m = illustrative_market()
    for om in enumerate_orientations(m, 1):
        assert all(a.directed for a in om.links if a.cls == 1)
        assert all(not a.directed for a in om.links if a.cls == 2)


# ---------------------------------------------------------------------------
# Deterministic risk measures
# ---------------------------------------------------------------------------

def weighted(m: Market, weights) -> Market:
    links = tuple(a._replace(weight=w) for a, w in zip(m.links, weights))
    return m._replace(links=links)


def test_single_claim_counted_once():
    m = Market(("v", "w"), 1, (Link("v", "w", 1, True, weight=5.0),))
    assert current_bilateral_risk(m) == 5.0


def test_offsetting_pair_nets_to_zero():
    m = Market(("v", "w"), 2,
               (Link("v", "w", 1, True, weight=5.0),
                Link("w", "v", 2, True, weight=5.0)))
    assert current_bilateral_risk(m) == 0.0


def test_exposure_circle_has_no_bilateral_offsetting():
    tri = weighted(triangle_directed(), [100.0, 100.0, 100.0])
    assert current_bilateral_risk(tri) == 300.0


def test_exposure_circle_pools_to_zero():
    tri = weighted(triangle_directed(), [100.0, 100.0, 100.0])
    assert current_multilateral_risk(tri, 1).class_measure == 0.0


def test_single_position_counted_twice_in_pool():
    m = Market(("v", "w"), 1, (Link("v", "w", 1, True, weight=5.0),))
    assert current_multilateral_risk(m, 1).class_measure == 10.0


def test_star_pool_measure():
    # centre owes 3 and 4, is owed 5: |5-7| + (3+4+5) = 14
    m = Market(("c", "a", "b", "d"), 1,
               (Link("c", "a", 1, True, weight=3.0),
                Link("c", "b", 1, True, weight=4.0),
                Link("d", "c", 1, True, weight=5.0)))
    assert current_multilateral_risk(m, 1).class_measure == 14.0


def test_missing_weight_raises():
    with pytest.raises(MarketError, match="weight"):
        current_bilateral_risk(triangle_directed())
    with pytest.raises(MarketError, match="weight"):
        current_multilateral_risk(triangle_directed(), 1)


def test_combined_measure_decomposes():
    m = weighted(two_tier(True), [1.0, 2.0, 3.0, 4.0, 5.0,
                                  6.0, 7.0, 8.0, 9.0, 10.0])
    pooled = current_multilateral_risk(m, 1)
    rest = Market(m.participants, m.n_classes,
                  tuple(a for a in m.links if a.cls != 1))
    assert pooled.combined == pytest.approx(
        pooled.class_measure + current_bilateral_risk(rest), abs=1e-12)


def pair_position(m: Market, v: str, w: str) -> float:
    y = 0.0
    for a in m.links:
        if {a.source, a.target} != {v, w}:
            continue
        credit = a.target if a.directed else a.source
        y += a.weight if credit == v else -a.weight
    return y


def brute_force_bilateral(m: Market) -> float:
    """Independent oracle: explicit ordered-pair double sum."""
    total = 0.0
    for v in m.participants:
        for w in scan_peers(m, v):
            total += max(pair_position(m, v, w), 0.0)
    return total


def brute_force_pool(m: Market, cls: int):
    per_vertex = {}
    for v in m.participants:
        y = 0.0
        for a in m.links:
            if a.cls != cls or not a.incident(v):
                continue
            credit = a.target if a.directed else a.source
            y += a.weight if credit == v else -a.weight
        per_vertex[v] = y
    return per_vertex


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(min_value=-50, max_value=50,
                          allow_nan=False, allow_infinity=False),
                min_size=10, max_size=10))
def test_bilateral_measure_matches_brute_force(weights):
    m = weighted(two_tier(True), weights)
    assert current_bilateral_risk(m) == pytest.approx(
        brute_force_bilateral(m), abs=1e-9)
    # claims of one side are the liabilities of the other, pair by pair
    for v in m.participants:
        for w in scan_peers(m, v):
            assert pair_position(m, v, w) == pytest.approx(
                -pair_position(m, w, v), abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(min_value=-50, max_value=50,
                          allow_nan=False, allow_infinity=False),
                min_size=10, max_size=10))
def test_double_count_identity_and_antisymmetry(weights):
    m = weighted(two_tier(True), weights)
    per_vertex = brute_force_pool(m, 1)
    lhs = sum(abs(y) for y in per_vertex.values())
    rhs = 2.0 * sum(max(y, 0.0) for y in per_vertex.values())
    assert lhs == pytest.approx(rhs, abs=1e-9)
    assert current_multilateral_risk(m, 1).class_measure == pytest.approx(
        lhs, abs=1e-9)
    # claims of one side are the liabilities of the other
    assert sum(per_vertex.values()) == pytest.approx(0.0, abs=1e-9)


def test_undirected_weight_sign_relative_to_source():
    m = Market(("v", "w"), 1, (Link("v", "w", 1, False, weight=-3.0),))
    # v's position is -3, so w holds the claim
    assert current_bilateral_risk(m) == 3.0


def test_degree_profile_of_an_unknown_class_rejected():
    with pytest.raises(MarketError, match=r"unknown class 9 \(market has 1\)"):
        degree_profile(path_market(), "v", 9)


def test_orientations_of_a_directed_class_rejected():
    with pytest.raises(MarketError,
                       match="class 1 already contains directed links"):
        next(enumerate_orientations(triangle_directed(), 1))
