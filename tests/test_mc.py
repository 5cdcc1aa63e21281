"""Monte Carlo oracle: determinism, convergence, and agreement with the
deterministic measures on materialised sampled markets."""

import numpy as np
import pytest

import netexposure.mc as mc
from netexposure import (
    Bilateral,
    Gamma,
    LaplaceSym,
    Link,
    MCEstimate,
    Market,
    Multilateral,
    NormalSym,
    UniformSym,
    current_bilateral_risk,
    current_multilateral_risk,
    mc_expected_exposure,
    mc_market_totals,
)
from netexposure.laws import MomentError
from netexposure.market import SIGN_SYMMETRIC, netting_sets
from netexposure.mc import _link_rng, link_draw, market_total_samples, sample
from conftest import complete_market, path_market, triangle_directed, two_tier

TWO_SIDED = [LaplaceSym(1.5), NormalSym(1.5), UniformSym(2.0)]


def test_seed_determinism():
    m = two_tier(True)
    a = mc_market_totals(m, LaplaceSym(1.0), 50_000, 3, ccp_class=1)
    b = mc_market_totals(m, LaplaceSym(1.0), 50_000, 3, ccp_class=1)
    assert a == b
    ea = mc_expected_exposure(m, Bilateral(), LaplaceSym(1.0), 50_000, 3)
    eb = mc_expected_exposure(m, Bilateral(), LaplaceSym(1.0), 50_000, 3)
    assert ea == eb


def test_seed_changes_estimates():
    m = triangle_directed()
    a = mc_market_totals(m, LaplaceSym(1.0), 50_000, 3)
    b = mc_market_totals(m, LaplaceSym(1.0), 50_000, 4)
    assert a.estimate != b.estimate


def test_draws_are_order_independent():
    # the same link produces the same stream regardless of who asks first
    m = two_tier(True)
    forward = [link_draw(m, LaplaceSym(1.0), i, 1000, 11)
               for i in range(len(m.links))]
    backward = [link_draw(m, LaplaceSym(1.0), i, 1000, 11)
                for i in reversed(range(len(m.links)))][::-1]
    for a, b in zip(forward, backward):
        assert np.array_equal(a, b)


def test_directed_laplace_draws_are_exponential_magnitudes():
    m = triangle_directed()
    n = 200_000
    x = link_draw(m, LaplaceSym(2.0), 1, n, 5)
    assert np.all(x >= 0)
    assert abs(np.mean(x) - 2.0) < 4 * 2.0 / np.sqrt(n)


@pytest.mark.parametrize("dist", [NormalSym(1.5), UniformSym(2.0)], ids=str)
def test_normal_and_uniform_draws_keep_their_streams(dist):
    n, seed = 1000, 19
    for m, directed in ((triangle_directed(), True),
                        (two_tier(False), False)):
        for i in range(len(m.links)):
            x = sample(dist, _link_rng(seed, i), size=n)
            want = np.abs(x) if directed else x
            assert np.array_equal(link_draw(m, dist, i, n, seed), want)


@pytest.mark.parametrize("dist", TWO_SIDED, ids=str)
def test_link_draw_into_out_keeps_the_bits(dist):
    n, seed = 1000, 19
    for m in (triangle_directed(), two_tier(False)):
        for i in range(len(m.links)):
            buf = np.full(n, np.nan)
            got = link_draw(m, dist, i, n, seed, buf)
            assert got is buf
            assert got.tobytes() == link_draw(m, dist, i, n, seed).tobytes()


@pytest.mark.parametrize("seed", [0, 19, -7, 2**64 + 5, 3 * 2**70 - 1])
def test_link_rng_matches_a_fresh_philox(seed):
    for i in (0, 7):
        # another link's stream left mid-buffer, with a spare 32-bit word
        other = _link_rng(seed + 1, 99)
        other.standard_normal(3)
        other.random(3, dtype=np.float32)
        got = _link_rng(seed, i)
        key = np.array([seed % 2**64, i], dtype=np.uint64)
        want = np.random.Generator(np.random.Philox(key=key))
        assert str(got.bit_generator.state) == str(want.bit_generator.state)
        for draw in (lambda g: g.standard_normal(33),
                     lambda g: g.standard_exponential(33),
                     lambda g: g.bit_generator.random_raw(9)):
            assert np.array_equal(draw(got), draw(want))


@pytest.mark.parametrize("convention",
                         [Bilateral(), Multilateral(1), Multilateral(2)],
                         ids=str)
def test_one_draw_per_set_member_and_per_link(monkeypatch, convention):
    # every draw goes through the module binding: one per netting-set
    # member for the per-set estimates, one per link for the totals
    m = two_tier(True)
    calls = []
    real = mc.link_draw

    def counting(*args):
        calls.append(args[2])
        return real(*args)

    monkeypatch.setattr(mc, "link_draw", counting)
    mc_expected_exposure(m, convention, LaplaceSym(1.0), 100, 3)
    ccp = convention.cls if isinstance(convention, Multilateral) else None
    mc_market_totals(m, LaplaceSym(1.0), 100, 3, ccp_class=ccp)
    members = sum(len(s.items) for sets in netting_sets(m, convention).values()
                  for s in sets)
    assert len(calls) == members + len(m.links)


def test_single_undirected_laplace_link():
    m = Market(("v", "w"), 1, (Link("v", "w", 1, False),))
    est = mc_expected_exposure(m, Bilateral(), LaplaceSym(1.0),
                               1_000_000, 42)
    for (owner, _), e in est.items():
        assert abs(e.estimate - 0.5) < 4 * e.stderr


def test_uniform_path_middle_set():
    est = mc_expected_exposure(path_market(), Multilateral(1),
                               UniformSym(1.0), 1_000_000, 42)
    mid = est[("v", (0, 1))]
    assert abs(mid.estimate - 1.0 / 6.0) < 4 * mid.stderr


def test_all_debt_set_is_exactly_zero():
    est = mc_expected_exposure(path_market(), Multilateral(1),
                               UniformSym(1.0), 100_000, 42)
    start = est[("u", (0,))]
    assert start.estimate == 0.0
    assert start.stderr == 0.0


def test_one_sided_law_rejected():
    with pytest.raises(ValueError, match="two-sided"):
        mc_market_totals(triangle_directed(), Gamma(1.0, 2.0), 1000, 1)


def test_standard_error_convergence_rate():
    m = triangle_directed()
    n = 100_000
    small = mc_market_totals(m, LaplaceSym(1.0), n, 5)
    large = mc_market_totals(m, LaplaceSym(1.0), 4 * n, 5)
    ratio = large.stderr / small.stderr
    assert 0.4 <= ratio <= 0.6


def materialise(m: Market, dist, n: int, seed: int):
    """Turn the first n sampled realisations into weighted markets."""
    draws = [link_draw(m, dist, i, n, seed) for i in range(len(m.links))]
    markets = []
    for j in range(n):
        links = tuple(a._replace(weight=float(draws[i][j]))
                      for i, a in enumerate(m.links))
        markets.append(m._replace(links=links))
    return markets


def test_sampled_markets_satisfy_double_count_identity():
    m = two_tier(True)
    for sampled in materialise(m, LaplaceSym(1.0), 40, 17):
        pooled = current_multilateral_risk(sampled, 1)
        per_vertex = {}
        for a in sampled.links:
            if a.cls != 1:
                continue
            per_vertex[a.target] = per_vertex.get(a.target, 0.0) + a.weight
            per_vertex[a.source] = per_vertex.get(a.source, 0.0) - a.weight
        clipped = sum(max(y, 0.0) for y in per_vertex.values())
        # the two sides differ by exactly -sum(y_v), which is zero up to
        # the rounding of the per-vertex sums
        scale = sum(abs(a.weight) for a in sampled.links)
        assert pooled.class_measure == pytest.approx(2.0 * clipped,
                                                     abs=1e-12 * scale)


def test_vectorised_totals_match_deterministic_measures():
    m = two_tier(True)
    n = 25
    bilateral = market_total_samples(m, LaplaceSym(1.0), n, 23)
    pooled = market_total_samples(m, LaplaceSym(1.0), n, 23, ccp_class=1)
    for j, sampled in enumerate(materialise(m, LaplaceSym(1.0), n, 23)):
        assert bilateral[j] == pytest.approx(
            current_bilateral_risk(sampled), abs=1e-12)
        pooled_det = current_multilateral_risk(sampled, 1)
        # expected-exposure semantics: clipped class positions, once
        want = 0.5 * pooled_det.class_measure \
            + (pooled_det.combined - pooled_det.class_measure)
        assert pooled[j] == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("directed, ccp", [(False, None), (True, None),
                                           (True, 1), (False, 2)])
def test_market_total_memory_is_bounded(directed, ccp):
    # tracemalloc sees numpy's buffers. Each pair's |net| vector is added
    # to the total and dropped, so a bilateral total holds at most four
    # sample vectors at a time, and a cleared class adds one position per
    # participant.
    import tracemalloc

    m = complete_market(10, 3)  # 135 links in 45 pairs
    if directed:
        m = m._replace(links=tuple(
            a._replace(directed=True) for a in m.links))
    n = 20_000
    tracemalloc.start()
    try:
        market_total_samples(m, LaplaceSym(1.0), n, 3, ccp)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    vectors = 4 if ccp is None else len(m.participants) + 4
    assert peak <= vectors * 8 * n


def mixed_market() -> Market:
    """Complete graph on five participants, two classes, with every
    other link directed."""
    m = complete_market(5, 2)
    return m._replace(links=tuple(
        a._replace(directed=bool(i % 2))
        for i, a in enumerate(m.links)))


def naive_set_estimates(m: Market, convention, dist, n: int, seed: int):
    """Per-set estimates from fresh draws added to zeros."""
    out = {}
    for owner, sets in netting_sets(m, convention).items():
        for s in sets:
            total = np.zeros(n)
            for i, sign in s.items:
                if sign == SIGN_SYMMETRIC:  # relative to the owner
                    sign = 1 if owner == m.links[i].source else -1
                total = total + sign * link_draw(m, dist, i, n, seed)
            out[(owner, s.link_indices)] = mc._estimate(
                np.maximum(total, 0.0))
    return out


def naive_total(m: Market, dist, n: int, seed: int, ccp_class):
    """Market total from fresh draws: each bilateral pair's |net| from
    the smaller-named participant's side, plus the clipped cleared-class
    positions."""
    y = {v: np.zeros(n) for v in m.participants}
    pairs = {}
    for i, a in enumerate(m.links):
        x = link_draw(m, dist, i, n, seed)
        credit, debit = ((a.target, a.source) if a.directed
                         else (a.source, a.target))
        if a.cls == ccp_class:
            y[credit] = y[credit] + x
            y[debit] = y[debit] - x
            continue
        key = frozenset((a.source, a.target))
        signed = x if credit == min(key) else -x
        pairs[key] = pairs[key] + signed if key in pairs else signed
    total = np.zeros(n)
    if ccp_class is not None:
        for v in m.participants:
            total = total + np.maximum(y[v], 0.0)
    for net in pairs.values():
        total = total + np.abs(net)
    return mc._estimate(total)


def as_bits(estimate: MCEstimate) -> tuple[str, str]:
    return estimate.estimate.hex(), estimate.stderr.hex()


@pytest.mark.parametrize("dist", TWO_SIDED + [LaplaceSym(5e-324)], ids=str)
@pytest.mark.parametrize("market", ["directed", "undirected", "mixed"])
def test_oracle_matches_a_naive_reference_bit_for_bit(market, dist):
    # 20,000 samples make 160 KB vectors, past the C allocator's default
    # 128 KiB mmap threshold (the goldens' 2,000 stay below it); the
    # smallest Laplace scale rounds many draws to +0.0 or -0.0
    m = {"directed": two_tier(True), "undirected": two_tier(False),
         "mixed": mixed_market()}[market]
    n, seed = 20_000, 29
    for convention in (Bilateral(), Multilateral(1)):
        got = mc_expected_exposure(m, convention, dist, n, seed)
        want = naive_set_estimates(m, convention, dist, n, seed)
        assert list(got) == list(want)
        assert [as_bits(e) for e in got.values()] == [
            as_bits(e) for e in want.values()]
    for ccp in (None, 1):
        assert as_bits(mc_market_totals(m, dist, n, seed, ccp)) == as_bits(
            naive_total(m, dist, n, seed, ccp))


def test_all_zero_sets_read_plus_zero():
    # at two samples and the smallest Laplace scale, every draw of a set
    # is often zero, some of them -0.0 (a flipped sign or a debt); the
    # estimate of such a set is the +0.0 of draws added to zeros
    dist = LaplaceSym(5e-324)
    zeros = 0
    for m in (two_tier(True), two_tier(False), mixed_market()):
        for seed in range(12):
            for convention in (Bilateral(), Multilateral(1)):
                got = mc_expected_exposure(m, convention, dist, 2, seed)
                want = naive_set_estimates(m, convention, dist, 2, seed)
                assert [as_bits(e) for e in got.values()] == [
                    as_bits(e) for e in want.values()]
                zeros += sum(e.estimate == 0.0 for e in want.values())
    assert zeros > 0


@pytest.mark.parametrize("dist", TWO_SIDED, ids=str)
@pytest.mark.parametrize("directed", [False, True])
def test_set_estimates_hold_two_sample_vectors(directed, dist):
    # every set is summed in one accumulator and one draw buffer. On top
    # of those, an undirected Laplace draw takes its sign bits (about 3
    # bytes a sample, and numpy's 64 KiB casting buffer); estimates and
    # the partition of this small market stay under 16 KiB
    import tracemalloc

    m = two_tier(directed)
    n = 20_000
    tracemalloc.start()
    try:
        for convention in (Bilateral(), Multilateral(1)):
            mc_expected_exposure(m, convention, dist, n, 3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 8 * n + 4 * n + 2**16 + 2**14


def test_market_totals_against_analytic_triangle():
    pooled = mc_market_totals(triangle_directed(), LaplaceSym(1.0),
                              1_000_000, 42, ccp_class=1)
    bilateral = mc_market_totals(triangle_directed(), LaplaceSym(1.0),
                                 1_000_000, 42)
    assert abs(pooled.estimate - 1.5) < 4 * pooled.stderr
    assert abs(bilateral.estimate - 3.0) < 4 * bilateral.stderr


def test_unknown_ccp_class_rejected():
    with pytest.raises(ValueError, match="unknown class"):
        mc_market_totals(triangle_directed(), LaplaceSym(1.0), 1000, 1,
                         ccp_class=7)


def test_z_score_needs_a_spread():
    # an all-debt set: no spread, and the analytic value is exactly hit
    assert MCEstimate(0.0, 0.0).z_score(0.0) == 0.0
    for stderr in (0.0, np.inf, np.nan):
        with pytest.raises(MomentError, match="standard error is"):
            MCEstimate(1e-301, stderr).z_score(0.0)


@pytest.mark.parametrize("n", [2, 3, 17, 8192, 100_003])
def test_estimate_matches_the_numpy_reductions_bit_for_bit(n):
    rng = np.random.default_rng(n)
    for values in (rng.laplace(size=n) * 7.0 + 0.3,
                   np.maximum(rng.normal(size=n), 0.0)):
        expected = (float(np.mean(values)),
                    float(np.std(values, ddof=1) / np.sqrt(n)))
        got = mc._estimate(values.copy())
        assert [got.estimate.hex(), got.stderr.hex()] == [
            x.hex() for x in expected]
