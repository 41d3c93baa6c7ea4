"""The batched Monte-Carlo path against its one-profile-at-a-time oracles:
value tensors, the piecewise quantile, the truthful strategy and the GSP
revenue kernel, and the estimators built on them."""

import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bmlab.analysis import (
    _MC_CHUNK,
    counterexample_scenario,
    homogeneity,
    homogeneity_batch,
    revenue_welfare_stats,
)
from bmlab import cli, equilibrium
from bmlab.cli import _realized_homogeneity
from bmlab.equilibrium import estimate_bne_regret, truthful_keyword_strategy
from bmlab.errors import ValidationError
from bmlab.market import (
    BayesScenario,
    BipartiteGraph,
    MatchingPolicy,
    QueryDistribution,
    Scenario,
    SlotWeights,
    ValuationProfile,
    keyword_value_tensor,
)
from bmlab.mechanisms import (
    gsp_outcome,
    gsp_rank,
    pbm_expected_revenue,
    pbm_expected_revenue_batch,
    pbm_expected_welfare,
    pbm_expected_welfare_batch,
)
from bmlab.reserves import (
    Empirical,
    PointMass,
    Uniform,
    plateau_then_spike_density,
    bayes_scenario_from_json,
    ramp_then_plateau_density,
)

from helpers import (
    dict_expected_revenue,
    dict_expected_welfare,
    per_call_truthful_bids,
    per_draw_bne_regret,
    per_draw_realized_homogeneity,
    per_draw_valuations,
    per_sample_revenue_welfare_stats,
    random_dist,
    random_piecewise,
    scalar_homogeneity,
    scalar_piecewise_quantile,
)

DATA = Path(__file__).parent / "data"
FAMILIES = ("uniform", "exponential", "truncated_exponential", "piecewise",
            "empirical", "point", "missing")


def random_bayes(rng) -> BayesScenario:
    """Small random Bayes scenario: every family, missing distributions
    (value 0), point-mass ties, trailing zero slot weights, kappa < |S|."""
    n_q, n_s, n_a = (int(rng.integers(1, 4)), int(rng.integers(1, 4)),
                     int(rng.integers(1, 5)))
    queries = [f"q{j}" for j in range(n_q)]
    keywords = [f"s{j}" for j in range(n_s)][::-1]   # declared order != name order
    edges = {(q, keywords[int(rng.integers(n_s))]) for q in queries}
    edges |= {(queries[int(rng.integers(n_q))], s) for s in keywords}
    edges |= {(q, s) for q in queries for s in keywords if rng.random() < 0.3}
    graph = BipartiteGraph(queries, keywords, sorted(edges))
    p_raw = rng.uniform(0.2, 1.0, n_q)
    pi = {}
    for q in queries:
        nbrs = graph.query_neighbors(q)
        raw = rng.uniform(0.2, 1.0, len(nbrs))
        pi[q] = {s: float(x / raw.sum()) for s, x in zip(nbrs, raw)}
    weights = sorted(rng.choice([1.0, 0.7, 0.4, 0.0], size=int(rng.integers(1, 4))),
                     reverse=True)
    dists = {}
    for a in range(n_a):
        row = {}
        for q in rng.permutation(queries):      # value_dists order != graph order
            dist = random_dist(rng, FAMILIES[int(rng.integers(len(FAMILIES)))])
            if dist is not None:
                row[str(q)] = dist
        dists[f"a{a}"] = row
    return BayesScenario(graph, QueryDistribution(dict(zip(queries, p_raw / p_raw.sum()))),
                         MatchingPolicy(pi), SlotWeights(weights),
                         int(rng.integers(1, n_s + 1)), dists)


def random_reserves(rng, bayes) -> dict:
    """Reserves absent, zero, below, at (1.0 and 2.0 are point and
    empirical values) and above typical draws."""
    out = {}
    for s in bayes.graph.keywords:
        r = rng.choice([-1.0, 0.0, 0.3, 1.0, 2.0, 6.0])
        if r >= 0.0:
            out[s] = float(r)
    return out


# ---------------------------------------------------------- value tensors


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 20))
def test_sample_values_is_the_per_draw_stream(seed, n):
    bayes = random_bayes(np.random.default_rng(seed))
    rng, twin = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
    values = bayes.sample_values(rng, n)
    assert values.shape == (n, len(bayes.advertisers), len(bayes.graph.queries))
    for t in range(n):
        assert bayes.valuations_at(values[t]) == per_draw_valuations(bayes, twin)
    assert rng.random() == twin.random()
    # pairs without a distribution are zero
    for a, i in enumerate(bayes.advertisers):
        for j, q in enumerate(bayes.graph.queries):
            if bayes.dist(i, q) is None:
                assert not values[:, a, j].any()


def test_sample_valuations_is_one_row_of_sample_values():
    bayes = random_bayes(np.random.default_rng(3))
    rng, twin = np.random.default_rng(9), np.random.default_rng(9)
    rows = bayes.sample_values(twin, 5)
    for t in range(5):
        assert bayes.sample_valuations(rng) == bayes.valuations_at(rows[t])


def test_empirical_draws_through_its_quantile():
    dist = Empirical([3.0, 1.0, 2.0, 2.0])
    rng, twin = np.random.default_rng(4), np.random.default_rng(4)
    draws = dist.sample(rng, 1000)
    assert np.array_equal(draws, dist.quantile(twin.random(1000)))
    assert set(draws.tolist()) == {1.0, 2.0, 3.0}


# ------------------------------------------------------ piecewise quantile


def _check_quantile(dist, u):
    fast = dist.quantile(u)
    # Piece raises to its powers through np.power, so a number rounds as an
    # array element does and the bisections agree bit for bit
    assert fast.tobytes() == scalar_piecewise_quantile(dist, u).tobytes()
    # the cdf at the quantile is u, up to the cdf's rise over the two
    # floats around x (near-vertical on the spike density's top piece)
    for x, ui in zip(fast, u):
        step = 2.0 * max(dist.pdf(x), dist.pdf(x - np.spacing(x))) * np.spacing(x)
        assert abs(dist.cdf(x) - ui) <= 1e-12 + step


@pytest.mark.parametrize("eps1", [0.05, 0.0595, 0.01, 0.002])
def test_piecewise_quantile_on_the_counterexample_densities(eps1):
    u = np.random.default_rng(1).random(600)
    _check_quantile(ramp_then_plateau_density(eps1), u)
    _check_quantile(plateau_then_spike_density(eps1 * eps1 / 12.5, 11), u)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_piecewise_quantile_on_random_pieces(seed):
    rng = np.random.default_rng(seed)
    dist = random_piecewise(rng)
    u = np.concatenate([rng.random(100), [0.0, 1.0], dist._cum])
    _check_quantile(dist, np.clip(u, 0.0, 1.0))


def test_piecewise_quantile_keeps_scalars_and_order():
    dist = ramp_then_plateau_density(0.05)
    u = np.array([0.9, 0.01, 0.5, 0.01])
    out = dist.quantile(u)
    assert [dist.quantile(x) for x in u] == out.tolist()
    assert isinstance(dist.quantile(0.3), float)


# ------------------------------------------------------------ MC revenue


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 30))
def test_batched_revenue_stats_equal_the_per_sample_loop(seed, n):
    rng = np.random.default_rng(seed)
    bayes = random_bayes(rng)
    reserves = random_reserves(rng, bayes)
    truthful = truthful_keyword_strategy(bayes)
    got = revenue_welfare_stats(bayes, truthful, reserves, n, np.random.default_rng(seed + 1))
    want = per_sample_revenue_welfare_stats(bayes, truthful, reserves, n,
                                            np.random.default_rng(seed + 1))
    assert got == want


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_batched_revenue_stats_equal_the_loop_for_any_strategy(seed):
    rng = np.random.default_rng(seed)
    bayes = random_bayes(rng)
    reserves = random_reserves(rng, bayes)

    def shaded(values):
        # every keyword at half its value, ignoring kappa
        return 0.5 * keyword_value_tensor(bayes, values)

    got = revenue_welfare_stats(bayes, shaded, reserves, 12, np.random.default_rng(seed))
    want = per_sample_revenue_welfare_stats(bayes, shaded, reserves, 12,
                                            np.random.default_rng(seed))
    assert got == want


def test_batched_revenue_stats_across_chunks():
    bayes = bayes_scenario_from_json(DATA / "bayes_3x3.json")
    reserves = {"s1": 1.0, "s2": 0.6, "s3": 0.45}
    n = _MC_CHUNK + 37
    strategy = truthful_keyword_strategy(bayes)
    got = revenue_welfare_stats(bayes, strategy, reserves, n, np.random.default_rng(5))
    want = per_sample_revenue_welfare_stats(bayes, strategy, reserves, n,
                                            np.random.default_rng(5))
    assert got == want


def random_bid_tensor(rng, bayes, values):
    """A bid tensor off the keyword values of a value tensor: each bid zero,
    shaded, truthful or an overbid (0, 0.5, 1 or 1.5 times the value), half
    of them rounded to halves so that bids tie, and on one keyword every
    advertiser bidding the first advertiser's bid."""
    kv = keyword_value_tensor(bayes, values)
    bids = kv * rng.choice([0.0, 0.5, 1.0, 1.5], size=kv.shape)
    bids = np.where(rng.random(kv.shape) < 0.5, np.round(2.0 * bids) / 2.0, bids)
    k = int(rng.integers(kv.shape[2]))
    bids[:, :, k] = bids[:, :1, k]
    return bids


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 12))
def test_batched_functionals_equal_the_dict_oracles(seed, n):
    """Welfare and revenue of sampled values and random bid tensors equal
    the dict-profile oracles bit for bit, profile by profile, and so do
    the one-profile forms; the revenue under reserves too."""
    rng = np.random.default_rng(seed)
    bayes = random_bayes(rng)
    reserves = random_reserves(rng, bayes)
    values = bayes.sample_values(rng, n)
    bids = random_bid_tensor(rng, bayes, values)
    welfare = pbm_expected_welfare_batch(bayes, values, bids).tolist()
    revenue = pbm_expected_revenue_batch(bayes, bids, reserves).tolist()
    for t in range(n):
        sc = bayes.to_scenario(bayes.valuations_at(values[t]))
        profile = {i: dict(zip(bayes.graph.keywords, row))
                   for i, row in zip(bayes.advertisers, bids[t].tolist())}
        want = dict_expected_welfare(sc, profile)
        assert welfare[t].hex() == want.hex() == pbm_expected_welfare(sc, profile).hex()
        want = dict_expected_revenue(sc, profile, reserves)
        assert revenue[t].hex() == want.hex() == pbm_expected_revenue(sc, profile, reserves).hex()


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_revenue_kernel_rejects_non_finite_bids_like_gsp_rank(bad):
    bayes = random_bayes(np.random.default_rng(2))
    bids = np.ones((4, len(bayes.advertisers), len(bayes.graph.keywords)))
    bids[2, -1, -1] = bad
    bids[3, 0, 0] = bad
    with pytest.raises(ValidationError) as expected:
        gsp_rank({bayes.advertisers[-1]: bad})
    with pytest.raises(ValidationError) as got:
        pbm_expected_revenue_batch(bayes, bids)
    assert str(got.value) == str(expected.value)


def test_revenue_kernel_rejects_a_negative_reserve():
    bayes = random_bayes(np.random.default_rng(2))
    bids = np.ones((2, len(bayes.advertisers), len(bayes.graph.keywords)))
    with pytest.raises(ValidationError, match="reserve"):
        pbm_expected_revenue_batch(bayes, bids, {bayes.graph.keywords[0]: -1.0})


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 50))
def test_truthful_strategy_is_the_per_call_rule(seed, n):
    bayes = random_bayes(np.random.default_rng(seed))
    values = bayes.sample_values(np.random.default_rng(seed + 1), n)
    bids = truthful_keyword_strategy(bayes)(values)
    assert bids.shape == (n, len(bayes.advertisers), len(bayes.graph.keywords))
    assert np.array_equal(bids, per_call_truthful_bids(bayes, values))
    assert ((bids > 0.0).sum(axis=2) <= bayes.kappa).all()


# ------------------------------------------------------------- BNE regret


def test_bne_regret_rejects_a_strategy_that_bids_nan():
    bayes = bayes_scenario_from_json(DATA / "bayes_3x3.json")

    def broken(values):
        # advertiser "b" bids nan on keyword "s2"
        bids = np.zeros(values.shape[:2] + (len(bayes.graph.keywords),))
        bids[:, bayes.advertisers.index("b"), bayes.graph.keywords.index("s2")] = math.nan
        return bids

    with pytest.raises(ValidationError, match=r"bid of 'b' must be finite, got nan"):
        estimate_bne_regret(bayes, broken, 2, 0.5, np.random.default_rng(0),
                            n_opponent_draws=2)


def below_and_at_zero(bayes):
    """A strategy that bids truthful values shaded down past zero, and
    exact zeros, -0.0 and negative bids on the other keywords: none of
    them may outrank a positive bid or set its price."""
    truthful = truthful_keyword_strategy(bayes)
    rest = np.array([(0.0, -0.0, -1.5)[k % 3] for k in range(len(bayes.graph.keywords))])

    def strategy(values):
        bids = truthful(values)
        return np.where(bids > 0.0, 0.6 * bids - 0.4, rest)
    return strategy


def overbid(bayes):
    """Every keyword at 1.25 times its value plus 0.5, ignoring kappa: a
    played bid above the value, on zero-value keywords too."""
    return lambda values: 1.25 * keyword_value_tensor(bayes, values) + 0.5


def grid_point_bayes() -> BayesScenario:
    """Values on the grid points of delta 0.25 and 0.5 (point masses tied
    between advertisers, an empirical draw), so the truthful bid repeats a
    grid point, and a keyword advertiser c values at 0 (menu {0})."""
    graph = BipartiteGraph(["q1", "q2", "q3"], ["s1", "s2"],
                           [("q1", "s1"), ("q2", "s2"), ("q3", "s2")])
    dists = {"a": {"q1": PointMass(1.0), "q2": Empirical([0.5, 1.5]), "q3": PointMass(1.5)},
             "b": {"q1": PointMass(1.0), "q2": Uniform(0.0, 2.0), "q3": PointMass(0.5)},
             "c": {"q1": Empirical([0.0, 0.5, 2.0])}}
    return BayesScenario(graph, QueryDistribution({"q1": 0.5, "q2": 0.25, "q3": 0.25}),
                         MatchingPolicy({"q1": {"s1": 1.0}, "q2": {"s2": 1.0},
                                         "q3": {"s2": 1.0}}),
                         SlotWeights([1.0, 0.5]), 1, dists)


def grid_float_bayes() -> BayesScenario:
    """Opponent bids next to y's best deviation on the grid of 0.1.  On s1
    the grid float 3 * 0.1, whose ceil(bid / 0.1) is 4: y's best is a tie
    with it (x, ranked above y on a tie, bids it in some draws, z, ranked
    below, in others).  On s2 the float after 9 * 0.1, whose ceil is 9, and
    on s3 x's grid bid 5 * 0.1: y's best is the second slot, bid just
    above them, at 10 * 0.1 and 6 * 0.1."""
    tie, above = 3 * 0.1, math.nextafter(9 * 0.1, math.inf)
    graph = BipartiteGraph(["q1", "q2", "q3"], ["s1", "s2", "s3"],
                           [("q1", "s1"), ("q2", "s2"), ("q3", "s3")])
    dists = {"x": {"q1": Empirical([tie, 0.9]), "q2": PointMass(1.95), "q3": PointMass(5 * 0.1)},
             "y": {"q1": PointMass(1.0), "q2": PointMass(2.0), "q3": PointMass(2.0)},
             "z": {"q1": Empirical([0.0, tie]), "q2": PointMass(above), "q3": PointMass(1.95)}}
    return BayesScenario(graph, QueryDistribution({"q1": 0.4, "q2": 0.3, "q3": 0.3}),
                         MatchingPolicy({"q1": {"s1": 1.0}, "q2": {"s2": 1.0},
                                         "q3": {"s3": 1.0}}),
                         SlotWeights([1.0, 0.9]), 3, dists)


# _CELLS settings: one bid per pricing call; calls of four bids, so that
# menus are split across calls; and the default
CELLS = ("one bid", "four bids", "default")


def regret_cells(mp, cells, bayes, draws):
    """Set _CELLS on the monkeypatch mp for the CELLS setting."""
    per_bid = draws * max(1, len(bayes.advertisers) - 1)
    if cells != "default":
        mp.setattr(equilibrium, "_CELLS", per_bid * (1 if cells == "one bid" else 4))


def hex_estimates(estimates):
    return {i: (e.mean.hex(), e.stderr.hex(), e.n_types, [x.hex() for x in e.per_type])
            for i, e in estimates.items()}


def assert_regret_equals_the_loop(bayes, strategy, cells, n_types, delta, seed, draws):
    with pytest.MonkeyPatch.context() as mp:
        regret_cells(mp, cells, bayes, draws)
        got = estimate_bne_regret(bayes, strategy, n_types, delta,
                                  np.random.default_rng(seed), n_opponent_draws=draws)
    want = per_draw_bne_regret(bayes, strategy, n_types, delta,
                               np.random.default_rng(seed), n_opponent_draws=draws)
    assert hex_estimates(got) == hex_estimates(want)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_types=st.integers(1, 4),
       draws=st.integers(1, 4), delta=st.sampled_from([0.1, 0.25, 0.5, 1.0]),
       cells=st.sampled_from(CELLS))
def test_bne_regret_equals_the_per_draw_loop(seed, n_types, draws, delta, cells):
    bayes = random_bayes(np.random.default_rng(seed))
    for strategy in (truthful_keyword_strategy(bayes), below_and_at_zero(bayes),
                     overbid(bayes)):
        assert_regret_equals_the_loop(bayes, strategy, cells, n_types, delta, seed + 1, draws)


@pytest.mark.parametrize("name", ["bayes_1x1.json", "bayes_3x3.json", "grid points"])
def test_bne_regret_equals_the_per_draw_loop_on_fixtures(name):
    bayes = grid_point_bayes() if name == "grid points" else bayes_scenario_from_json(DATA / name)
    rows = 3 * 8 * len(bayes.advertisers) * len(bayes.graph.keywords)  # strategy, type, keyword
    for cells in CELLS:
        calls = []

        def kernel(own, *args, **kwargs):
            calls.append(len(own))
            return gsp_outcome(own, *args, **kwargs)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(equilibrium, "gsp_outcome", kernel)
            for strategy in (truthful_keyword_strategy(bayes), below_and_at_zero(bayes),
                             overbid(bayes)):
                assert_regret_equals_the_loop(bayes, strategy, cells, 8, 0.25, 3, 16)
        if cells == "one bid":
            assert set(calls) == {1}
        elif cells == "four bids":
            assert max(calls) <= 4
        else:
            assert len(calls) < rows


def test_bne_regret_equals_the_per_draw_loop_without_opponents():
    # one advertiser, so the kernel sees no opponent column at all, and the
    # spike keyword's grid of about 8 000 bids cut to 0, delta and the value
    bayes, _ = counterexample_scenario(0.01, 1e-5, 11)
    for cells in CELLS:
        assert_regret_equals_the_loop(bayes, truthful_keyword_strategy(bayes), cells,
                                      2, 0.25, 0, 3)


@pytest.mark.parametrize("name, delta", [("bayes_3x3.json", 0.05), ("grid floats", 0.1)])
def test_bne_regret_equals_the_per_draw_loop_at_fine_deltas(name, delta):
    # bayes_3x3 has opponents: at delta 0.05 each menu is cut from its grid
    # of up to 41 bids to the grid bids next to the opponents' bids; on
    # grid_float_bayes, ceil(bid / delta) misses those grid bids
    bayes = grid_float_bayes() if name == "grid floats" else bayes_scenario_from_json(DATA / name)
    for cells in CELLS:
        for strategy in (truthful_keyword_strategy(bayes), below_and_at_zero(bayes),
                         overbid(bayes)):
            assert_regret_equals_the_loop(bayes, strategy, cells, 4, delta, 9, 4)


@pytest.mark.parametrize("delta", [1e-3, 7.0])
def test_bne_regret_equals_the_per_draw_loop_from_fine_to_coarse_grids(delta):
    # the whole grid of the loop holds thousands of bids a keyword at 1e-3,
    # and none but 0 below most values at 7
    for seed in (5, 6):
        bayes = random_bayes(np.random.default_rng(seed))
        for strategy in (truthful_keyword_strategy(bayes), below_and_at_zero(bayes),
                         overbid(bayes)):
            assert_regret_equals_the_loop(bayes, strategy, "default", 2, delta, seed + 1, 3)


def test_deviation_menus_keep_one_bid_per_opponent_bid():
    """On the grid of 1/16, where the opponent bids are grid points, often
    next to each other, a row keeps per opponent bid only the lowest grid
    bid that outranks it (the bid itself where the bidder wins the tie,
    the next one up where it loses), with delta, the value and the played
    bid: at most draws x opponents + 3 bids, against full grids of up to
    65.  The estimate still equals the per-draw loop over the whole grid,
    which it misses if the tie side is flipped, a tied bid never or
    always stepped past, or delta dropped."""
    graph = BipartiteGraph(["q"], ["s"], [("q", "s")])
    spread = {"q": Empirical([k / 16 for k in range(1, 65)])}
    bayes = BayesScenario(graph, QueryDistribution({"q": 1.0}), MatchingPolicy({"q": {"s": 1.0}}),
                          SlotWeights([1.0, 0.9, 0.8]), 1, dict.fromkeys("abc", spread))
    draws, sizes = 8, []
    menus = equilibrium._deviation_menus

    def spy(*args):
        bids, row = menus(*args)
        sizes.append(np.bincount(row))
        return bids, row

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(equilibrium, "_deviation_menus", spy)
        for strategy in (truthful_keyword_strategy(bayes), below_and_at_zero(bayes),
                         overbid(bayes)):
            assert_regret_equals_the_loop(bayes, strategy, "default", 6, 1 / 16, 13, draws)
    sizes = np.concatenate(sizes)
    assert sizes.max() <= draws * 2 + 3 and sizes.max() >= draws


def test_bne_regret_needs_an_opponent_draw():
    bayes = bayes_scenario_from_json(DATA / "bayes_1x1.json")
    with pytest.raises(ValidationError, match="n_opponent_draws"):
        estimate_bne_regret(bayes, truthful_keyword_strategy(bayes), 2, 0.5,
                            np.random.default_rng(0), n_opponent_draws=0)


# ------------------------------------------------------------ homogeneity


def as_scenario(bayes, values) -> Scenario:
    """One (|A|, |Q|) profile over every query as a Scenario."""
    return Scenario(bayes.graph, bayes.p, bayes.pi, bayes.weights,
                    ValuationProfile({i: dict(zip(bayes.graph.queries, row))
                                      for i, row in zip(bayes.advertisers, values.tolist())}),
                    bayes.kappa)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_homogeneity_batch_equals_the_scalar_loop(seed):
    rng = np.random.default_rng(seed)
    bayes = random_bayes(rng)
    # exact zeros, -0.0, a subnormal and a huge value (their ratio
    # overflows to inf), and whole profiles of zeros
    levels = [0.0, -0.0, 0.0, 5e-324, 1e308, 0.5, 1.0, 2.5, 7.25]
    values = rng.choice(levels, size=(30, len(bayes.advertisers), len(bayes.graph.queries)))
    values[rng.random(30) < 0.2] = 0.0
    values[rng.random(30) < 0.3] = rng.uniform(0.1, 3.0, size=values.shape[1:])
    got = homogeneity_batch(bayes, values)
    for t in range(len(values)):
        sc = as_scenario(bayes, values[t])
        assert got[t] == homogeneity(sc) == scalar_homogeneity(sc)


def test_homogeneity_without_advertisers_or_neighbors():
    graph = BipartiteGraph(["q1"], ["s1", "s2"], [("q1", "s1")], strict=False)
    sc = Scenario(graph, QueryDistribution({"q1": 1.0}), MatchingPolicy({"q1": {"s1": 1.0}}),
                  SlotWeights([1.0]), ValuationProfile({}), 1)
    assert homogeneity(sc) == scalar_homogeneity(sc) == 1.0
    assert homogeneity_batch(sc, np.zeros((3, 0, 1))).tolist() == [1.0] * 3
    lone = Scenario(graph, sc.p, sc.pi, sc.weights, ValuationProfile({"a": {"q1": 2.0}}), 1)
    assert homogeneity(lone) == scalar_homogeneity(lone) == 1.0


@pytest.mark.parametrize("name", ["bayes_1x1.json", "bayes_3x3.json", "counterexample"])
def test_realized_homogeneity_equals_the_per_draw_loop(name):
    bayes = (counterexample_scenario(0.01, 1e-5, 11)[0] if name == "counterexample"
             else bayes_scenario_from_json(DATA / name))
    rng, twin = np.random.default_rng(11), np.random.default_rng(11)
    got = _realized_homogeneity(bayes, rng)
    assert got == per_draw_realized_homogeneity(bayes, twin)
    assert math.isfinite(got) and rng.random() == twin.random()


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), draws=st.integers(0, 60))
def test_realized_homogeneity_equals_the_per_draw_loop_on_random_scenarios(seed, draws):
    bayes = random_bayes(np.random.default_rng(seed))
    rng, twin = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "_HOMOGENEITY_DRAWS", draws)
        got = _realized_homogeneity(bayes, rng)
    assert got == per_draw_realized_homogeneity(bayes, twin, draws)
    if math.isfinite(got):      # the loop stops drawing at its first inf
        assert rng.random() == twin.random()
