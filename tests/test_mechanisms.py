import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bmlab.errors import ValidationError
from bmlab.market import (
    keyword_mass,
    keyword_value,
    optimal_welfare,
    scenario_from_json,
)
from bmlab.mechanisms import (
    _UNIFORM_BLOCK,
    gsp_outcome,
    gsp_rank,
    load_bid_profile,
    padded_weights,
    pbm_expected_revenue,
    pbm_expected_revenue_batch,
    pbm_expected_welfare,
    pbm_run_round,
    pbm_simulate,
    validate_bid_profile,
)

from helpers import (
    pbm_keyword_utility,
    pbm_utility,
    per_round_simulate,
    random_bid_profile,
    random_scenario,
    simple_scenario,
    single_keyword_scenario,
    vcg_payment_oracle,
)

DATA = Path(__file__).parent / "data"


# ---------------------------------------------------------------- gsp_rank

def test_gsp_rank_textbook():
    r = gsp_rank({"A": 5, "B": 3, "C": 2})
    assert r.ranked == ("A", "B", "C")
    assert r.prices == (3, 2, 0)


def test_gsp_rank_reserve_excludes_and_prices():
    r = gsp_rank({"A": 5, "B": 3}, reserve=4.0)
    assert r.ranked == ("A",)
    assert r.prices == (4.0,)


def test_gsp_rank_empty_and_zero_bids():
    assert gsp_rank({}).ranked == ()
    assert gsp_rank({"A": 0.0}).ranked == ()


def test_gsp_rank_lex_tie_break():
    r = gsp_rank({"b": 3.0, "a": 3.0, "c": 4.0})
    assert r.ranked == ("c", "a", "b")


@given(st.dictionaries(st.sampled_from(list("abcdef")),
                       st.floats(0.0, 10.0), max_size=6),
       st.floats(0.0, 5.0))
@settings(max_examples=200, deadline=None)
def test_gsp_price_never_exceeds_own_bid(bids, reserve):
    """Individual rationality of the pricing rule at every position."""
    r = gsp_rank(bids, reserve=reserve)
    for k, adv in enumerate(r.ranked):
        assert r.prices[k] <= r.bids[k] + 1e-12
        assert r.bids[k] >= reserve
        assert bids[adv] == r.bids[k]
    assert tuple(sorted(r.bids, reverse=True)) == r.bids


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_gsp_rank_rejects_non_finite_bids(bad):
    with pytest.raises(ValidationError, match="finite"):
        gsp_rank({"A": 5.0, "B": bad})


def test_gsp_rank_rejects_nan_reserve():
    with pytest.raises(ValidationError, match="reserve"):
        gsp_rank({"A": 5.0}, reserve=math.nan)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("functional", [pbm_expected_revenue, pbm_expected_welfare])
def test_exact_functionals_reject_non_finite_library_bids(functional, bad):
    # library callers skip load_bid_profile: the bid must still reach
    # gsp_rank's check instead of being dropped as a non-positive bid
    sc = scenario_from_json(DATA / "scenario_2x2.json")
    with pytest.raises(ValidationError, match=r"bid of 'a' must be finite"):
        functional(sc, {"a": {"s1": bad}, "b": {"s1": 2.0}})


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_pbm_utility_rejects_non_finite_library_bids(bad):
    sc = scenario_from_json(DATA / "scenario_2x2.json")
    with pytest.raises(ValidationError, match="finite"):
        pbm_utility(sc, {"a": {"s2": 1.0}, "b": {"s2": bad}}, "a")


@pytest.mark.parametrize("functional", [pbm_expected_revenue, pbm_expected_welfare])
def test_exact_functionals_reject_an_unknown_advertiser(functional):
    # both forms once disagreed: welfare raised KeyError, revenue priced the stranger
    sc = scenario_from_json(DATA / "scenario_2x2.json")
    with pytest.raises(ValidationError, match="unknown advertiser 'zz'"):
        functional(sc, {"zz": {"s1": 9.0}, "a": {"s1": 2.0}})


@pytest.mark.parametrize("functional", [pbm_expected_revenue, pbm_expected_welfare])
def test_exact_functionals_ignore_bids_on_keywords_outside_the_graph(functional):
    sc = scenario_from_json(DATA / "scenario_2x2.json")
    bids = {"a": {"s1": 2.0}, "b": {"s1": 3.0, "s2": 1.0}}
    stray = {"a": {"s1": 2.0, "nowhere": 9.0}, "b": {"s1": 3.0, "s2": 1.0, "gone": math.nan}}
    assert functional(sc, stray) == functional(sc, bids) > 0.0


def test_keyword_bids_keep_zero_and_negative_bids_out_of_the_ranking():
    sc = scenario_from_json(DATA / "scenario_2x2.json")
    bids = {"a": {"s1": 2.0, "s2": 0.0}, "b": {"s1": -1.0}}
    assert pbm_expected_revenue(sc, bids) == 0.0
    assert pbm_expected_welfare(sc, bids) == pytest.approx(0.6 * 0.5 * 5.0)


# --------------------------------------------------------------- bid files

def test_validate_bid_profile_budget():
    sc = simple_scenario({"a1": {"q1": 4.0, "q2": 2.0}}, kappa=1)
    validate_bid_profile(sc, {"a1": {"s1": 1.0, "s2": 0.0}})
    with pytest.raises(ValidationError, match="kappa"):
        validate_bid_profile(sc, {"a1": {"s1": 1.0, "s2": 0.5}})
    with pytest.raises(ValidationError, match="unknown keyword"):
        validate_bid_profile(sc, {"a1": {"zz": 1.0}})
    with pytest.raises(ValidationError, match="unknown advertiser"):
        validate_bid_profile(sc, {"nobody": {}})
    with pytest.raises(ValidationError, match=">= 0"):
        validate_bid_profile(sc, {"a1": {"s1": -2.0}})


def test_load_bid_profile_roundtrip(tmp_path):
    sc = simple_scenario({"a1": {"q1": 4.0, "q2": 2.0}})
    path = tmp_path / "bids.json"
    path.write_text(json.dumps({"a1": {"s1": 3.5}}), encoding="utf-8")
    assert load_bid_profile(path, sc) == {"a1": {"s1": 3.5}}
    path.write_text("{nope", encoding="utf-8")
    with pytest.raises(ValidationError, match="malformed"):
        load_bid_profile(path, sc)


# ------------------------------------------------------------------ rounds

def test_run_round_degenerate_matching_equals_gsp():
    sc = single_keyword_scenario({"a1": 5.0, "a2": 3.0})
    out = pbm_run_round(sc, {"a1": {"s": 5.0}, "a2": {"s": 3.0}}, "q",
                        np.random.default_rng(0))
    assert out.sampled_keyword == "s"
    assert out.ranking.ranked == ("a1",) or out.ranking.ranked == ("a1", "a2")
    assert out.assignments[0] == (1, "a1", 3.0, 1.0)
    assert out.welfare == 5.0
    assert out.revenue == 3.0


def test_run_round_keyword_frequencies():
    sc = simple_scenario({"a1": {"q1": 5.0}}, queries=["q1"],
                         keywords=["s1", "s2"],
                         edges=[("q1", "s1"), ("q1", "s2")],
                         pi={"q1": {"s1": 0.5, "s2": 0.5}}, kappa=2)
    rng = np.random.default_rng(42)
    n = 100_000
    hits = sum(pbm_run_round(sc, {"a1": {"s1": 1.0, "s2": 1.0}}, "q1", rng)
               .sampled_keyword == "s1" for _ in range(n))
    sigma = math.sqrt(n * 0.25)
    assert abs(hits - n / 2) <= 3 * sigma


def test_run_round_nonbidder_never_wins():
    sc = simple_scenario({"a1": {"q1": 5.0}, "a2": {"q1": 7.0}},
                         queries=["q1"], keywords=["s1", "s2"],
                         edges=[("q1", "s1"), ("q1", "s2")],
                         pi={"q1": {"s1": 0.5, "s2": 0.5}}, kappa=2)
    rng = np.random.default_rng(3)
    bids = {"a1": {"s1": 1.0}, "a2": {"s2": 1.0}}
    for _ in range(200):
        out = pbm_run_round(sc, bids, "q1", rng)
        winner = out.assignments[0][1]
        assert winner == ("a1" if out.sampled_keyword == "s1" else "a2")


@st.composite
def simulated_markets(draw):
    """(scenario, bids): a single query, only one-keyword queries, or
    queries with one or several keywords, with ties among the bids."""
    shape = draw(st.sampled_from(["single query", "one keyword each", "mixed"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n_q = 1 if shape == "single query" else int(rng.integers(2, 5))
    n_s = int(rng.integers(1, (n_q if shape == "one keyword each" else 3) + 1))
    queries = [f"q{j}" for j in range(n_q)]
    keywords = [f"s{k}" for k in range(n_s)]
    if shape == "one keyword each":
        edges = {(q, keywords[j % n_s]) for j, q in enumerate(queries)}
    else:
        edges = {(q, keywords[k]) for q in queries
                 for k in rng.choice(n_s, int(rng.integers(1, n_s + 1)), replace=False)}
        edges |= {(queries[int(rng.integers(n_q))], s) for s in keywords
                  if not any(e[1] == s for e in edges)}
    p_raw = rng.uniform(0.1, 1.0, size=n_q)
    nbrs = {q: sorted(s for e, s in edges if e == q) for q in queries}
    pi = {}
    for q in queries:
        raw = rng.uniform(0.1, 1.0, size=len(nbrs[q]))
        pi[q] = dict(zip(nbrs[q], (raw / raw.sum()).tolist()))
    values = {f"a{j}": {q: float(rng.uniform(0.5, 5.0)) for q in queries}
              for j in range(int(rng.integers(1, 5)))}
    weights = draw(st.sampled_from([(1.0,), (1.0, 0.5), (1.0, 0.6, 0.0)]))
    sc = simple_scenario(values, weights=weights, queries=queries, keywords=keywords,
                         edges=sorted(edges), p=dict(zip(queries, (p_raw / p_raw.sum()).tolist())),
                         pi=pi)
    bids = random_bid_profile(rng, sc)
    if rng.random() < 0.5:      # bids on halves, so that some tie
        bids = {i: {s: b for s, b in ((s, round(b * 2) / 2) for s, b in row.items()) if b > 0.0}
                for i, row in bids.items()}
    return sc, bids


def _rounds_view(outcomes):
    return [(o.query, o.sampled_keyword, o.assignments, o.welfare.hex(), o.revenue.hex())
            for o in outcomes]


def _check_stream(market, rounds, seed):
    sc, bids = market
    fast_rng, loop_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    outcomes, welfare_sum, revenue_sum = pbm_simulate(sc, bids, rounds, fast_rng)
    want, want_welfare, want_revenue = per_round_simulate(sc, bids, rounds, loop_rng)
    assert _rounds_view(outcomes) == _rounds_view(want)
    assert welfare_sum.hex() == want_welfare.hex()
    assert revenue_sum.hex() == want_revenue.hex()
    assert fast_rng.bit_generator.state == loop_rng.bit_generator.state


@given(simulated_markets(), st.sampled_from([0, 1, 2, 3, 17, 64, 301]),
       st.integers(0, 2 ** 32 - 1))
@settings(max_examples=150, deadline=None)
def test_simulate_keeps_the_per_round_stream(market, rounds, seed):
    """pbm_simulate plays the rounds of the per-round loop (draw, then
    pbm_run_round) from the same uniforms: equal rounds, bit-equal welfare,
    revenue and sums, and the generator left in the same state."""
    _check_stream(market, rounds, seed)


@given(simulated_markets(), st.sampled_from([_UNIFORM_BLOCK + 1, 2 * _UNIFORM_BLOCK + 3]),
       st.integers(0, 2 ** 32 - 1))
@settings(max_examples=10, deadline=None)
def test_simulate_keeps_the_per_round_stream_across_blocks(market, rounds, seed):
    """The same past one and two full blocks of uniforms, so that the
    rounds refill the block mid-run."""
    _check_stream(market, rounds, seed)


class _CountingRng:
    """A generator that records the size of each block of uniforms, and
    counts the uniforms of its choice draws (one each)."""

    def __init__(self, seed):
        self.rng, self.sizes, self.uniforms = np.random.default_rng(seed), [], 0

    @property
    def blocks(self):
        return len(self.sizes)

    def random(self, size):
        self.sizes.append(size)
        return self.rng.random(size)

    def choice(self, n, p):
        self.uniforms += 1
        return self.rng.choice(n, p=p)


def test_simulate_refills_its_uniforms_and_matches_the_loop():
    """On queries of several keywords a round may draw two uniforms, so
    the first block of one per round runs out: the stream must survive
    several refills."""
    sc = simple_scenario({"a1": {"q1": 5.0, "q2": 2.0}, "a2": {"q1": 3.0, "q2": 4.0}},
                         weights=(1.0, 0.5), queries=["q1", "q2"], keywords=["s1", "s2"],
                         edges=[("q1", "s1"), ("q1", "s2"), ("q2", "s2")],
                         pi={"q1": {"s1": 0.3, "s2": 0.7}, "q2": {"s2": 1.0}})
    bids = {"a1": {"s1": 2.0, "s2": 1.0}, "a2": {"s1": 1.0, "s2": 1.0}}
    counting = _CountingRng(9)
    outcomes, welfare_sum, _ = pbm_simulate(sc, bids, 500, counting)
    loop_rng = np.random.default_rng(9)
    want, want_welfare, _ = per_round_simulate(sc, bids, 500, loop_rng)
    assert counting.blocks > 2
    assert _rounds_view(outcomes) == _rounds_view(want)
    assert welfare_sum.hex() == want_welfare.hex()
    assert counting.rng.bit_generator.state == loop_rng.bit_generator.state


def test_simulate_caps_its_uniform_blocks_and_keeps_the_stream():
    """Past the block cap the uniforms come in several capped blocks, and
    the rounds, sums and final generator state are still the loop's."""
    sc = simple_scenario({"a1": {"q1": 5.0, "q2": 2.0}, "a2": {"q1": 3.0, "q2": 4.0}},
                         weights=(1.0, 0.5), queries=["q1", "q2"], keywords=["s1", "s2"],
                         edges=[("q1", "s1"), ("q1", "s2"), ("q2", "s2")],
                         pi={"q1": {"s1": 0.3, "s2": 0.7}, "q2": {"s2": 1.0}})
    bids = {"a1": {"s1": 2.0, "s2": 1.0}, "a2": {"s1": 1.0, "s2": 1.0}}
    rounds = 3 * _UNIFORM_BLOCK + 17
    counting = _CountingRng(13)
    outcomes, welfare_sum, revenue_sum = pbm_simulate(sc, bids, rounds, counting)
    loop_rng = np.random.default_rng(13)
    want, want_welfare, want_revenue = per_round_simulate(sc, bids, rounds, loop_rng)
    assert max(counting.sizes) == _UNIFORM_BLOCK and counting.blocks > 3
    assert _rounds_view(outcomes) == _rounds_view(want)
    assert welfare_sum.hex() == want_welfare.hex()
    assert revenue_sum.hex() == want_revenue.hex()
    assert counting.rng.bit_generator.state == loop_rng.bit_generator.state


def test_simulate_draws_a_keyword_across_a_block_boundary():
    """A round whose query uniform is the last of a full block and whose
    keyword uniform the first of the next, found by replaying the
    per-round loop a round at a time through a counting generator: the
    rounds, sums and generator state are still the loop's."""
    sc = scenario_from_json(DATA / "scenario_2x2.json")
    bids = load_bid_profile(DATA / "bids_2x2.json", sc)
    rounds, seed = _UNIFORM_BLOCK + 100, 0
    counting = _CountingRng(seed)
    outcomes, welfare_sum, revenue_sum = pbm_simulate(sc, bids, rounds, counting)
    ends = set(itertools.accumulate(counting.sizes))    # uniforms drawn by each block's end
    replay, want, straddling = _CountingRng(seed), [], []
    for _ in range(rounds):
        before = replay.uniforms
        want += per_round_simulate(sc, bids, 1, replay)[0]
        if replay.uniforms == before + 2 and before + 1 in ends:
            straddling.append(before + 1)
    assert _UNIFORM_BLOCK in straddling
    assert _rounds_view(outcomes) == _rounds_view(want)
    want_welfare = want_revenue = 0.0
    for o in want:
        want_welfare += o.welfare
        want_revenue += o.revenue
    assert (welfare_sum.hex(), revenue_sum.hex()) == (want_welfare.hex(), want_revenue.hex())
    assert counting.rng.bit_generator.state == replay.rng.bit_generator.state


def test_simulate_single_pair_draws_nothing():
    """One query with one keyword: the loop draws no uniform, nor may the
    simulator."""
    sc = single_keyword_scenario({"a1": 5.0, "a2": 3.0}, weights=(1.0, 0.5))
    rng = np.random.default_rng(4)
    before = rng.bit_generator.state
    outcomes, welfare_sum, revenue_sum = pbm_simulate(
        sc, {"a1": {"s": 4.0}, "a2": {"s": 3.0}}, 5, rng)
    assert rng.bit_generator.state == before
    assert len(outcomes) == 5 and len({id(o) for o in outcomes}) == 1
    assert welfare_sum == 5 * (5.0 + 0.5 * 3.0)
    assert revenue_sum == 5 * (3.0 + 0.0)


# ----------------------------------------------------------------- welfare

def test_expected_welfare_sole_winner():
    sc = single_keyword_scenario({"a1": 7.0})
    assert pbm_expected_welfare(sc, {"a1": {"s": 5.0}}) == pytest.approx(7.0)


def test_expected_welfare_two_keyword_split():
    sc = simple_scenario({"a1": {"q1": 7.0}, "a2": {"q1": 3.0}},
                         queries=["q1"], keywords=["s1", "s2"],
                         edges=[("q1", "s1"), ("q1", "s2")],
                         pi={"q1": {"s1": 0.5, "s2": 0.5}}, kappa=1)
    bids = {"a1": {"s1": 5.0}, "a2": {"s2": 3.0}}
    assert pbm_expected_welfare(sc, bids) == pytest.approx(0.5 * 7 + 0.5 * 3)


def test_expected_welfare_empty_profile():
    sc = single_keyword_scenario({"a1": 7.0})
    assert pbm_expected_welfare(sc, {}) == 0.0


def test_welfare_never_exceeds_optimum():
    rng = np.random.default_rng(9)
    for _ in range(60):
        sc = random_scenario(rng, weights=(1.0, 0.4))
        bids = random_bid_profile(rng, sc, overbid=0.5)
        assert pbm_expected_welfare(sc, bids) <= optimal_welfare(sc) + 1e-9


def test_welfare_keyword_decomposition_matches_query_sum():
    """Keyword-side accounting (mass x keyword values along the ranking)
    equals the direct per-query evaluation."""
    rng = np.random.default_rng(17)
    for _ in range(40):
        sc = random_scenario(rng, weights=(1.0, 0.5))
        bids = random_bid_profile(rng, sc, overbid=0.3)
        by_kw = 0.0
        for s in sc.graph.keywords:
            col = {i: bids[i][s] for i in bids if bids[i].get(s, 0.0) > 0.0}
            ranking = gsp_rank(col, keyword=s)
            mass = keyword_mass(sc, s)
            by_kw += mass * sum(sc.weights.weight(k) * keyword_value(sc, adv, s)
                                for k, adv in enumerate(ranking.ranked)
                                if sc.weights.weight(k) > 0.0)
        assert by_kw == pytest.approx(pbm_expected_welfare(sc, bids), abs=1e-9)


def test_monte_carlo_welfare_converges():
    sc = simple_scenario({"a1": {"q1": 4.0, "q2": 1.0}, "a2": {"q1": 2.0, "q2": 3.0}},
                         kappa=2)
    bids = {"a1": {"s1": 3.0, "s2": 1.0}, "a2": {"s1": 2.0, "s2": 2.5}}
    exact = pbm_expected_welfare(sc, bids)
    rng = np.random.default_rng(123)
    n = 100_000
    queries = sc.graph.queries
    masses = np.array([sc.p.mass(q) for q in queries])
    draws = rng.choice(len(queries), size=n, p=masses)
    total = 0.0
    for ix in draws:
        total += pbm_run_round(sc, bids, queries[ix], rng).welfare
    maxv = 4.0
    assert abs(total / n - exact) <= 4 * maxv * math.sqrt(1 / n)


# ----------------------------------------------------------------- utility

def test_sole_bidder_utility_equals_welfare():
    sc = single_keyword_scenario({"a1": 7.0})
    bids = {"a1": {"s": 2.0}}
    assert pbm_utility(sc, bids, "a1") == pytest.approx(
        pbm_expected_welfare(sc, bids))


def test_two_bidder_price_enters_utility():
    sc = simple_scenario({"a1": {"q1": 6.0, "q2": 4.0},
                          "a2": {"q1": 3.0, "q2": 3.0}},
                         queries=["q1", "q2"], keywords=["s"],
                         edges=[("q1", "s"), ("q2", "s")], kappa=1)
    bids = {"a1": {"s": 5.0}, "a2": {"s": 3.0}}
    vs = keyword_value(sc, "a1", "s")  # traffic-weighted average value
    assert pbm_utility(sc, bids, "a1") == pytest.approx(
        keyword_mass(sc, "s") * (vs - 3.0))


def test_tie_loser_gets_zero():
    sc = single_keyword_scenario({"a1": 5.0, "a2": 5.0})
    bids = {"a1": {"s": 4.0}, "a2": {"s": 4.0}}
    assert pbm_utility(sc, bids, "a2") == 0.0  # a1 wins the lex tie
    assert pbm_utility(sc, bids, "a1") == pytest.approx(
        keyword_mass(sc, "s") * (5.0 - 4.0))


def test_utility_decomposes_over_keywords():
    rng = np.random.default_rng(31)
    for _ in range(40):
        sc = random_scenario(rng, weights=(1.0, 0.5))
        bids = random_bid_profile(rng, sc, overbid=0.4)
        for i in sc.advertisers:
            parts = sum(pbm_keyword_utility(sc, bids, i, s)
                        for s in sc.graph.keywords)
            assert parts == pytest.approx(pbm_utility(sc, bids, i), abs=1e-9)


def test_accounting_identity():
    """Sum of utilities plus zero-reserve revenue equals welfare."""
    rng = np.random.default_rng(77)
    for _ in range(60):
        sc = random_scenario(rng, weights=(1.0, 0.6, 0.2))
        bids = random_bid_profile(rng, sc, overbid=0.4)
        lhs = sum(pbm_utility(sc, bids, i) for i in sc.advertisers) \
            + pbm_expected_revenue(sc, bids)
        assert lhs == pytest.approx(pbm_expected_welfare(sc, bids), abs=1e-9)


# ----------------------------------------------------------------- revenue

def test_revenue_examples():
    sc = single_keyword_scenario({"a1": 9.0, "a2": 9.0})
    bids = {"a1": {"s": 5.0}, "a2": {"s": 3.0}}
    mass = keyword_mass(sc, "s")
    assert pbm_expected_revenue(sc, bids) == pytest.approx(3.0 * mass)
    assert pbm_expected_revenue(sc, bids, {"s": 4.0}) == pytest.approx(4.0 * mass)
    assert pbm_expected_revenue(sc, bids, {"s": 6.0}) == 0.0


def test_revenue_below_welfare_single_slot_conservative():
    rng = np.random.default_rng(13)
    for _ in range(40):
        sc = random_scenario(rng)          # single slot by default
        bids = random_bid_profile(rng, sc)  # conservative: b <= value
        assert pbm_expected_revenue(sc, bids) <= \
            pbm_expected_welfare(sc, bids) + 1e-9


# ------------------------------------------------------- reserve kernel

def _kernel_utility(sc, bids, advertiser, s, reserve):
    """The advertiser's utility on keyword s priced by gsp_outcome under
    the reserve: mass * slot weight * (value - price) when active."""
    advs = sc.advertisers
    a = advs.index(advertiser)
    ids = np.array([j for j in range(len(advs)) if j != a], dtype=np.intp)
    opp = np.array([bids.get(advs[j], {}).get(s, 0.0) for j in ids])
    slot_w, active, price, _ = gsp_outcome(np.array(bids.get(advertiser, {}).get(s, 0.0)),
                                           a, opp, ids, padded_weights(sc), reserve)
    return float(np.where(active, sc.kw_masses[s] * slot_w
                          * (sc.kw_values[advertiser][s] - price), 0.0))


@given(simulated_markets(), st.sampled_from(["zero", "random", "above every bid", "a bid"]),
       st.integers(0, 2 ** 32 - 1))
@settings(max_examples=150, deadline=None)
def test_kernel_utility_under_a_reserve_equals_the_keyword_utility(market, kind, seed):
    """gsp_outcome with a reserve prices every (advertiser, keyword) as
    gsp_rank does: its utility equals pbm_keyword_utility bit for bit,
    ties and a reserve equal to a bid included."""
    sc, bids = market
    rng = np.random.default_rng(seed)
    for s in sc.graph.keywords:
        col = sorted(row[s] for row in bids.values() if row.get(s, 0.0) > 0.0)
        reserve = {"zero": 0.0, "random": float(rng.uniform(0.0, 5.0)),
                   "above every bid": max(col, default=0.0) + 1.0,
                   "a bid": col[int(rng.integers(len(col)))] if col else 0.0}[kind]
        for i in sc.advertisers:
            assert _kernel_utility(sc, bids, i, s, reserve) == \
                pbm_keyword_utility(sc, bids, i, s, {s: reserve})


def _truthful_tensor(sc):
    """One profile in which every advertiser bids its keyword value on
    every keyword, as an (1, |A|, |S|) tensor."""
    return np.array([[[sc.kw_values[i][s] for s in sc.graph.keywords]
                      for i in sc.advertisers]])


def test_single_slot_truthful_revenue_under_reserves_is_vcg():
    """With one slot, truthful GSP with a reserve is VCG with that
    reserve: the batched revenue equals the mass-weighted VCG payments
    of the entrants (values > 0 and >= the reserve)."""
    rng = np.random.default_rng(21)
    for _ in range(200):
        sc = random_scenario(rng, max_adv=4, weights=(float(rng.choice([1.0, 0.7])),))
        values = {s: [sc.kw_values[i][s] for i in sc.advertisers] for s in sc.graph.keywords}
        reserves = {}
        for s, vals in values.items():
            kind = rng.integers(3)
            reserves[s] = (float(rng.uniform(0.0, 3.0)) if kind == 0
                           else max(vals) + 1.0 if kind == 1
                           else vals[int(rng.integers(len(vals)))])
        want = 0.0
        for s in sc.graph.keywords:
            entrants = [v for v in values[s] if v > 0.0 and v >= reserves[s]]
            want += sc.kw_masses[s] * sum(vcg_payment_oracle(entrants, sc.weights.as_tuple(),
                                                             reserves[s]))
        got = pbm_expected_revenue_batch(sc, _truthful_tensor(sc), reserves)
        assert got.tolist() == [want]


def test_bids_below_the_reserve_do_not_enter():
    sc = single_keyword_scenario({"a1": 5.0, "a2": 3.0}, weights=(1.0, 0.5))
    bids = _truthful_tensor(sc)
    mass = keyword_mass(sc, "s")
    assert pbm_expected_revenue_batch(sc, bids).tolist() == [mass * (3.0 + 0.5 * 0.0)]
    # a2 (3) is below the reserve 4: a1 pays the reserve, a2 takes no slot
    assert pbm_expected_revenue_batch(sc, bids, {"s": 4.0}).tolist() == [mass * 4.0]
    _, active, price, rank = gsp_outcome(np.array([5.0, 3.0]), np.array([[0], [1]]),
                                         np.array([[3.0], [5.0]]), np.array([[1], [0]]),
                                         np.array([1.0, 0.5, 0.0]), 4.0)
    assert active.tolist() == [True, False]
    assert price[0] == 4.0 and rank.tolist() == [0, 1]
    assert pbm_expected_revenue_batch(sc, bids, {"s": 10.0}).tolist() == [0.0]
