import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from bmlab import equilibrium
from bmlab.equilibrium import (
    BidGrid,
    best_response,
    best_response_dynamics,
    bid_menu,
    default_epsilon,
    enumerate_pure_nash,
    estimate_bne_regret,
    estimate_joint_size,
    make_grid,
    single_slot_dominant_profile,
    truthful_keyword_strategy,
    verify_epsilon_nash,
)
from bmlab.errors import NotSingleSlot, TooLarge, ValidationError
from bmlab.market import (
    BayesScenario,
    BipartiteGraph,
    MatchingPolicy,
    QueryDistribution,
    SlotWeights,
    ValuationProfile,
    build_scenario,
    positive_keywords,
)
from bmlab.mechanisms import pbm_utility
from bmlab.reserves import PointMass, Uniform

from helpers import (
    canonical_profiles,
    joint_best_response_oracle,
    per_call_dynamics,
    random_bid_profile,
    random_scenario,
    scalar_best_response,
    simple_scenario,
    single_keyword_scenario,
    slow_pure_nash_oracle,
)


def five_three():
    return single_keyword_scenario({"a": 5.0, "b": 3.0})


# -------------------------------------------------------------------- grid

def test_make_grid_default_caps():
    sc = simple_scenario({"a1": {"q1": 4.0, "q2": 2.0},
                          "a2": {"q1": 1.0, "q2": 3.0}}, kappa=2)
    grid = make_grid(sc, delta=1.0)
    assert grid.caps == {"s1": 4.0, "s2": 3.0}
    assert grid.points("s1") == (0.0, 1.0, 2.0, 3.0, 4.0)
    with pytest.raises(ValidationError):
        BidGrid(delta=0.0, caps={})


def test_bid_menu_conservative_and_truthful():
    sc = simple_scenario({"a1": {"q1": 4.0}, "a2": {"q1": 2.5}},
                         queries=["q1"], keywords=["s1"], kappa=1)
    grid = make_grid(sc, delta=1.0)          # cap = 4.0
    menu = bid_menu(sc, grid, "a2", "s1", conservative=True)
    assert menu == (0.0, 1.0, 2.0, 2.5)      # truthful 2.5 spliced in
    menu = bid_menu(sc, grid, "a2", "s1", conservative=False)
    assert menu == (0.0, 1.0, 2.0, 2.5, 3.0, 4.0)


# ----------------------------------------------------------- best response

def test_best_response_smallest_winning_bid():
    # responder "b" loses ties to "a", so the smallest winning bid is 4
    sc = single_keyword_scenario({"a": 3.0, "b": 5.0})
    grid = make_grid(sc, delta=1.0)
    row, u = best_response(sc, {"a": {"s": 3.0}}, "b", grid)
    assert row == {"s": 4.0}
    assert u == pytest.approx(5.0 - 3.0)


def test_best_response_wins_tie_when_lex_smaller():
    sc = five_three()
    grid = make_grid(sc, delta=1.0)
    row, u = best_response(sc, {"b": {"s": 3.0}}, "a", grid)
    assert row == {"s": 3.0}      # "a" wins the tie, same price
    assert u == pytest.approx(5.0 - 3.0)


def test_best_response_losing_is_best():
    sc = single_keyword_scenario({"a": 2.0, "b": 9.0})
    grid = make_grid(sc, delta=1.0)
    row, u = best_response(sc, {"b": {"s": 3.0}}, "a", grid,
                           conservative=True)
    assert row == {} and u == 0.0


def test_best_response_top_kappa_selection():
    sc = simple_scenario({"a1": {"q1": 4.0, "q2": 7.0}}, kappa=1)
    grid = make_grid(sc, delta=1.0)
    row, u = best_response(sc, {}, "a1", grid)
    assert row == {"s2": 1.0}     # the 7-value keyword, cheapest winning bid
    assert u == pytest.approx(7.0 * 0.5)  # uniform P over two queries


def test_best_response_guards():
    def respond(n_keywords, kappa):
        sc = simple_scenario({"a1": {f"q{k:02d}": 1.0 + k for k in range(n_keywords)}},
                             kappa=kappa)
        return best_response(sc, {}, "a1", make_grid(sc, delta=1.0))

    with pytest.raises(TooLarge, match="21 candidate keywords exceeds the best-response cap 20"):
        respond(21, kappa=2)
    with pytest.raises(TooLarge, match="kappa = 5 exceeds the best-response cap 4"):
        respond(5, kappa=5)
    for n_keywords in (4, 20):      # at both caps: the top four keywords, bid 1 each
        row, u = respond(n_keywords, kappa=4)
        assert list(row.values()) == [1.0] * 4 and u > 0.0


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_best_response_rejects_non_finite_opponent_bid(bad):
    sc = five_three()
    grid = make_grid(sc, delta=1.0)
    with pytest.raises(ValidationError, match=r"bid of 'b' must be finite"):
        best_response(sc, {"a": {}, "b": {"s": bad}}, "a", grid)


def test_verify_rejects_non_finite_own_bid():
    sc = single_keyword_scenario({"a": 5.0})
    with pytest.raises(ValidationError, match=r"bid of 'a' must be finite"):
        verify_epsilon_nash(sc, {"a": {"s": float("nan")}}, make_grid(sc, delta=1.0))


def test_best_response_matches_joint_oracle():
    """Separable search equals full joint enumeration (acceptance-grade
    oracle equivalence at small scale)."""
    rng = np.random.default_rng(101)
    checked = 0
    for _ in range(25):
        sc = random_scenario(rng, max_adv=2, max_kw=3, max_q=3,
                             weights=(1.0, 0.5), kappa=2)
        grid = make_grid(sc, delta=max(grid_cap for grid_cap in
                                       make_grid(sc, 1.0).caps.values()) / 5)
        bids = random_bid_profile(rng, sc)
        for i in sc.advertisers:
            menus = {s: bid_menu(sc, grid, i, s)
                     for s in sorted(positive_keywords(sc, i))}
            row, u = best_response(sc, bids, i, grid)
            _, u_oracle = joint_best_response_oracle(sc, bids, i, menus)
            assert u == pytest.approx(u_oracle, abs=1e-9)
            trial = dict(bids)
            trial[i] = row
            assert pbm_utility(sc, trial, i) == pytest.approx(u, abs=1e-9)
            checked += 1
    assert checked >= 25


@pytest.mark.parametrize("weights", [(1.0,), (1.0, 0.6), (1.0, 0.6, 0.0), (0.0,)])
def test_best_response_and_regrets_bit_identical_to_scalar_oracle(weights):
    """best_response rows and utilities and verify_epsilon_nash regrets
    equal the scalar slot_utility oracle's floats bit for bit, with
    overbids, ties with grid bids and current rows bidding on a
    zero-value keyword."""
    rng = np.random.default_rng([606, len(weights), int(weights[0])])
    zero_value_rows = 0
    for t in range(60):
        sc = random_scenario(rng, max_adv=4, max_kw=3, max_q=4, weights=weights)
        grid = make_grid(sc, delta=max(make_grid(sc, 1.0).caps.values()) / 4)
        bids = random_bid_profile(rng, sc, overbid=0.5 if t % 2 else 0.0)
        if t % 3 == 0:      # bids on grid points, which menu bids tie with
            bids = {i: {s: k * grid.delta for s, b in row.items() if (k := round(b / grid.delta))}
                    for i, row in bids.items()}
        for i in sc.advertisers:
            zero = sorted(set(sc.graph.keywords) - sc.kw_positive[i])
            if zero:    # keep kappa - 1 of its bids and add one on a zero-value keyword
                bids[i] = dict(list(bids[i].items())[:sc.kappa - 1]) | {zero[0]: 1.25}
                zero_value_rows += 1
                break
        for conservative in (False, True):
            oracle_regrets = {}
            for i in sc.advertisers:
                row, u = best_response(sc, bids, i, grid, conservative)
                o_row, o_best, o_current = scalar_best_response(sc, bids, i, grid, conservative)
                assert {s: b.hex() for s, b in row.items()} == \
                    {s: b.hex() for s, b in o_row.items()}
                assert float(u).hex() == float(o_best).hex()
                oracle_regrets[i] = max(0.0, o_best - o_current).hex()
            regrets = verify_epsilon_nash(sc, bids, grid, conservative)
            assert {i: r.hex() for i, r in regrets.items()} == oracle_regrets
    assert zero_value_rows >= 10


# ---------------------------------------------------------------- dynamics

def test_dynamics_truthful_single_slot_converges_immediately():
    sc = five_three()
    grid = make_grid(sc, delta=1.0)
    initial = single_slot_dominant_profile(sc)
    rep = best_response_dynamics(sc, initial, grid, max_iters=10)
    assert rep.converged
    assert rep.iterations == 1
    assert rep.profile == initial
    assert max(rep.regrets.values()) <= rep.epsilon
    assert rep.welfare == pytest.approx(5.0)


@pytest.mark.parametrize("epsilon", [float("nan"), float("inf"), -1e-9])
def test_bad_epsilon_rejected(epsilon):
    sc = five_three()
    grid = make_grid(sc, delta=1.0)
    with pytest.raises(ValidationError, match="epsilon must be finite and >= 0"):
        enumerate_pure_nash(sc, grid, epsilon=epsilon)
    with pytest.raises(ValidationError, match="epsilon must be finite and >= 0"):
        best_response_dynamics(sc, {}, grid, epsilon=epsilon)


def test_dynamics_negative_max_iters_rejected():
    sc = five_three()
    with pytest.raises(ValidationError, match="max_iters must be >= 0, got -5"):
        best_response_dynamics(sc, {}, make_grid(sc, delta=1.0), max_iters=-5)


def test_dynamics_zero_iters_not_converged():
    sc = five_three()
    grid = make_grid(sc, delta=1.0)
    rep = best_response_dynamics(sc, {}, grid, max_iters=0)
    assert not rep.converged
    assert rep.iterations == 0
    assert rep.profile == {"a": {}, "b": {}}


def test_dynamics_converged_reports_verify():
    rng = np.random.default_rng(8)
    for _ in range(10):
        sc = random_scenario(rng, max_adv=2, max_kw=2, max_q=3)
        grid = make_grid(sc, delta=0.25)
        rep = best_response_dynamics(sc, {}, grid, max_iters=30,
                                     conservative=True)
        if rep.converged:
            regrets = verify_epsilon_nash(sc, rep.profile, grid,
                                          conservative=True)
            assert max(regrets.values()) <= rep.epsilon


def _hex_rows(profile):
    return {i: [(s, b.hex()) for s, b in row.items()] for i, row in profile.items()}


@pytest.mark.parametrize("weights", [(1.0,), (1.0, 0.6), (1.0, 0.6, 0.0)])
def test_dynamics_bit_identical_to_per_call_oracle(weights):
    """best_response_dynamics, with its menus built once, reports the
    profile, regrets, iterations and convergence of the round-robin loop
    of one scalar best response per advertiser, bit for bit."""
    rng = np.random.default_rng([707, len(weights)])
    for t in range(25):
        sc = random_scenario(rng, max_adv=4, max_kw=3, max_q=4, weights=weights)
        grid = make_grid(sc, delta=max(make_grid(sc, 1.0).caps.values()) / 4)
        initial = random_bid_profile(rng, sc, overbid=0.5) if t % 2 else {}
        conservative, max_iters = bool(t % 3), int(rng.integers(0, 8))
        eps = default_epsilon(sc)
        rep = best_response_dynamics(sc, initial, grid, max_iters=max_iters,
                                     conservative=conservative)
        profile, regrets, converged, iterations = per_call_dynamics(
            sc, initial, grid, eps, max_iters, conservative)
        assert _hex_rows(rep.profile) == _hex_rows(profile)
        assert {i: r.hex() for i, r in rep.regrets.items()} == \
            {i: r.hex() for i, r in regrets.items()}
        assert (rep.iterations, rep.converged) == (iterations, converged)


def _grouped_market(rng):
    """A random market of up to 10 advertisers and 5 keywords with kappa
    below most advertisers' pools, one advertiser valuing no query, and
    an initial profile on grid points with exact ties between
    advertisers and bids on zero-value keywords (the valueless
    advertiser's included)."""
    while True:
        sc = random_scenario(rng, max_adv=9, max_kw=5, max_q=5, weights=(1.0, 0.7, 0.4),
                             kappa=int(rng.integers(1, 3)))
        if (len(sc.advertisers) >= 4 and
                sum(len(sc.kw_positive[i]) > sc.kappa for i in sc.advertisers) >= 3):
            break
    values = {i: sc.valuations.row(i) for i in sc.advertisers} | {"a3z": {}}
    sc = build_scenario(sc.graph, sc.p, sc.pi, sc.weights, ValuationProfile(values), sc.kappa)
    grid = make_grid(sc, delta=max(make_grid(sc, 1.0).caps.values()) / 4)
    bids = {i: {s: k * grid.delta for s, b in row.items() if (k := round(b / grid.delta))}
            for i, row in random_bid_profile(rng, sc, overbid=0.5).items()}
    # the two first advertisers valuing the most valued keyword bid on it
    s0 = max(sc.graph.keywords, key=lambda s: sum(s in sc.kw_positive[i] for i in bids))
    for i in [i for i in sc.advertisers if s0 in sc.kw_positive[i]][:2]:
        bids[i] = dict(list(bids[i].items())[:sc.kappa - 1]) | {s0: 2 * grid.delta}
    tied = {}       # every bidder on a keyword bids the first one's bid
    for row in bids.values():
        for s in row:
            row[s] = tied.setdefault(s, row[s])
    for i in sc.advertisers:
        zero = sorted(set(sc.graph.keywords) - sc.kw_positive[i])
        if zero and (i == "a3z" or rng.random() < 0.5):
            bids[i] = dict(list(bids[i].items())[:sc.kappa - 1]) | {zero[0]: 1.25}
    return sc, grid, bids


@pytest.mark.parametrize("bound", ["one advertiser", "half", "default"])
def test_grouped_regret_pass_bit_identical_to_oracles(monkeypatch, bound):
    """With the regret pass priced one advertiser per call, split mid-way,
    or in one call, best_response_dynamics equals the per-call loop and
    verify_epsilon_nash the scalar oracle bit for bit, on markets of up to
    10 advertisers with ties, zero-value bids and a valueless advertiser."""
    rng = np.random.default_rng([808, len(bound)])
    groups = []
    respond = equilibrium._respond

    def spy(layout, bids, dense, group):
        groups.append(len(group))
        return respond(layout, bids, dense, group)

    monkeypatch.setattr(equilibrium, "_respond", spy)
    ties = zero_rows = 0
    for t in range(12):
        sc, grid, bids = _grouped_market(rng)
        n, conservative = len(sc.advertisers), bool(t % 2)
        cells = [n * (sum(len(bid_menu(sc, grid, i, s, conservative)) for s in sc.kw_positive[i])
                      + sum(b > 0.0 for b in bids.get(i, {}).values()))
                 for i in sc.advertisers]
        # the first group ends before the first advertiser from n // 2 on
        # that has an entry to price
        half = next(k for k in range(n // 2, n) if cells[k])
        if bound != "default":
            monkeypatch.setattr(equilibrium, "_GROUP_CELLS",
                                1 if bound == "one advertiser" else sum(cells[:half]))
        ties += max(Counter((s, b) for row in bids.values() for s, b in row.items()).values()) > 1
        zero_rows += sum(s not in sc.kw_positive[i] for i, row in bids.items() for s in row)

        groups.clear()
        regrets = verify_epsilon_nash(sc, bids, grid, conservative)
        assert groups == {"one advertiser": [1] * n, "default": [n]}.get(bound, groups)
        assert sum(groups) == n and (bound != "half" or groups[0] == half < n)
        oracle = {i: max(0.0, best - current)
                  for i in sc.advertisers
                  for _, best, current in [scalar_best_response(sc, bids, i, grid, conservative)]}
        assert {i: r.hex() for i, r in regrets.items()} == {i: r.hex() for i, r in oracle.items()}

        max_iters = int(rng.integers(1, 6))
        rep = best_response_dynamics(sc, bids, grid, max_iters=max_iters,
                                     conservative=conservative)
        profile, regrets, converged, iterations = per_call_dynamics(
            sc, bids, grid, default_epsilon(sc), max_iters, conservative)
        assert _hex_rows(rep.profile) == _hex_rows(profile)
        assert {i: r.hex() for i, r in rep.regrets.items()} == \
            {i: r.hex() for i, r in regrets.items()}
        assert (rep.iterations, rep.converged) == (iterations, converged)
    assert ties >= 10 and zero_rows >= 12


def test_dynamics_rejects_nan_initial_bid():
    sc = five_three()
    with pytest.raises(ValidationError, match=r"bid of 'b' must be finite"):
        best_response_dynamics(sc, {"a": {"s": 2.0}, "b": {"s": float("nan")}},
                               make_grid(sc, delta=1.0))


def test_dynamics_keyword_cap_precedes_nan_check():
    """A market over the best-response keyword cap raises TooLarge before
    a NaN initial bid is looked at."""
    n = 21
    queries = [f"q{j}" for j in range(n)]
    sc = simple_scenario({"a": {q: 1.0 for q in queries}}, kappa=1, queries=queries)
    with pytest.raises(TooLarge, match="21 candidate keywords exceeds"):
        best_response_dynamics(sc, {"a": {"s1": float("nan")}}, make_grid(sc, delta=1.0))


# -------------------------------------------------------------- enumerate

def test_enumerate_hand_check_conservative():
    """Values (5, 3), single keyword/slot, unit grid: the conservative
    equilibria are exactly a in {3,4,5} x b in {0,1,2,3}."""
    sc = five_three()
    grid = make_grid(sc, delta=1.0)
    reports = enumerate_pure_nash(sc, grid, conservative=True)
    got = canonical_profiles([r.profile for r in reports])
    want = canonical_profiles([
        {"a": {"s": float(a)}, "b": ({"s": float(b)} if b else {})}
        for a in (3, 4, 5) for b in (0, 1, 2, 3)
    ])
    assert got == want
    assert all(r.welfare == pytest.approx(5.0) for r in reports)
    assert all(max(r.regrets.values()) <= r.epsilon for r in reports)


def test_enumerate_winner_truthful_filter():
    sc = five_three()
    grid = make_grid(sc, delta=1.0)
    reports = enumerate_pure_nash(sc, grid, conservative=True,
                                  winner_truthful=True)
    got = canonical_profiles([r.profile for r in reports])
    want = canonical_profiles([
        {"a": {"s": 5.0}, "b": ({"s": float(b)} if b else {})}
        for b in (0, 1, 2, 3)
    ])
    assert got == want


def test_enumerate_nonconservative_overbid_equilibria():
    """Without the conservative cap the low-value bidder can win by
    overbidding to the rival's value."""
    sc = five_three()
    grid = make_grid(sc, delta=1.0)
    reports = enumerate_pure_nash(sc, grid)
    got = canonical_profiles([r.profile for r in reports])
    overbid = canonical_profiles([
        {"a": ({"s": float(a)} if a else {}), "b": {"s": 5.0}}
        for a in (0, 1, 2, 3)
    ])
    assert overbid <= got
    # a-wins profiles: b_a in {3,4,5} with any weakly lower rival bid
    # (4+5+6 = 15); b-wins profiles: the four overbids above.
    assert len(got) == 19


def test_enumerate_single_advertiser_indifference():
    sc = single_keyword_scenario({"a": 4.0})
    grid = make_grid(sc, delta=1.0)
    reports = enumerate_pure_nash(sc, grid, conservative=True)
    bids = sorted(r.profile["a"].get("s", 0.0) for r in reports)
    # Unopposed, any positive bid wins at price zero; staying out forfeits
    # the whole surplus, so bid 0 has regret 4 and is not an equilibrium.
    assert bids == [1.0, 2.0, 3.0, 4.0]
    assert all(r.welfare == pytest.approx(4.0) for r in reports)


def slow_oracle_markets():
    """Six small random markets, with their grids, epsilons and menus,
    whose joint grids the definitional oracle can walk."""
    rng = np.random.default_rng(55)
    markets = []
    for _ in range(200):
        if len(markets) >= 6:
            break
        sc = random_scenario(rng, max_adv=2, max_kw=2, max_q=3,
                             weights=(1.0, 0.5), kappa=1)
        grid = make_grid(sc, delta=max(grid_c for grid_c in
                                       make_grid(sc, 1.0).caps.values()) / 3)
        eps = default_epsilon(sc)
        menus_by_adv = {}
        for i in sc.advertisers:
            menus_by_adv[i] = {s: bid_menu(sc, grid, i, s)
                               for s in sorted(positive_keywords(sc, i))}
        joint = 1
        for i in sc.advertisers:
            rows = 1
            for m in menus_by_adv[i].values():
                rows *= len(m)
            joint *= rows
        if joint > 800:
            continue
        markets.append((sc, grid, eps, menus_by_adv))
    assert len(markets) >= 6
    return markets


def test_enumerate_matches_slow_oracle():
    """Vectorized enumeration equals the definitional oracle."""
    for sc, grid, eps, menus_by_adv in slow_oracle_markets():
        fast = canonical_profiles(
            [r.profile for r in enumerate_pure_nash(sc, grid, epsilon=eps)])
        slow = canonical_profiles(slow_pure_nash_oracle(sc, menus_by_adv, eps))
        assert fast == slow


def test_enumerate_too_large():
    values = {f"a{j}": {f"q{k}": 1.0 for k in range(10)} for j in range(10)}
    sc = simple_scenario(values, kappa=10)
    grid = make_grid(sc, delta=0.25)
    with pytest.raises(TooLarge):
        enumerate_pure_nash(sc, grid)


def report_fingerprint(reports):
    """Reports in order, with regrets and welfare as exact float bits."""
    return [(r.profile, {i: x.hex() for i, x in r.regrets.items()}, r.welfare.hex())
            for r in reports]


def test_enumerate_deterministic():
    sc = five_three()
    grid = make_grid(sc, delta=0.5)
    a = enumerate_pure_nash(sc, grid, conservative=True)
    b = enumerate_pure_nash(sc, grid, conservative=True)
    assert [r.profile for r in a] == [r.profile for r in b]
    assert [r.regrets for r in a] == [r.regrets for r in b]
    assert [r.welfare for r in a] == [r.welfare for r in b]
    assert report_fingerprint(a) == report_fingerprint(b)
    rng = np.random.default_rng(3)
    for _ in range(5):
        sc = random_scenario(rng, max_adv=3, max_kw=2, max_q=3,
                             weights=(1.0, 0.5), kappa=2)
        grid = make_grid(sc, delta=max(make_grid(sc, 1.0).caps.values()) / 3)
        first = report_fingerprint(enumerate_pure_nash(sc, grid))
        assert first and first == report_fingerprint(enumerate_pure_nash(sc, grid))


# ----------------------------------------------------------- chunked scan

def row_counts(sc, grid, conservative=False):
    return [equilibrium._count_rows(equilibrium._menus(sc, grid, i, conservative), sc.kappa)
            for i in sc.advertisers]


def enumerate_in_chunks(monkeypatch, sc, grid, rows_per_chunk, **kwargs):
    """enumerate_pure_nash with chunks of rows_per_chunk rows of axis 0."""
    counts = row_counts(sc, grid, kwargs.get("conservative", False))
    monkeypatch.setattr(equilibrium, "_CHUNK_PROFILES",
                        rows_per_chunk * math.prod(counts[1:]))
    return enumerate_pure_nash(sc, grid, **kwargs)


def assert_chunking_invisible(monkeypatch, sc, grid, **kwargs):
    """One chunk, one profile's budget (a row per chunk) and a split of
    axis 0 into unequal chunks all give the same reports, bit for bit."""
    rows0 = row_counts(sc, grid, kwargs.get("conservative", False))[0]
    whole = report_fingerprint(enumerate_in_chunks(monkeypatch, sc, grid, rows0, **kwargs))
    monkeypatch.setattr(equilibrium, "_CHUNK_PROFILES", 1)
    assert report_fingerprint(enumerate_pure_nash(sc, grid, **kwargs)) == whole
    uneven = next((k for k in range(2, rows0) if rows0 % k), 1)
    assert report_fingerprint(
        enumerate_in_chunks(monkeypatch, sc, grid, uneven, **kwargs)) == whole
    return whole


@pytest.mark.parametrize("conservative", [True, False])
def test_chunking_invisible_on_random_markets(monkeypatch, conservative):
    rng = np.random.default_rng(77)
    found = 0
    for _ in range(12):
        sc = random_scenario(rng, max_adv=3, max_kw=3, max_q=3,
                             weights=(1.0, 0.5), kappa=2)
        grid = make_grid(sc, delta=max(make_grid(sc, 1.0).caps.values()) / 3)
        if estimate_joint_size(sc, grid, conservative) > 20_000:
            continue
        found += len(assert_chunking_invisible(monkeypatch, sc, grid,
                                               conservative=conservative))
    assert found > 0


def test_chunking_invisible_winner_truthful(monkeypatch):
    sc = five_three()
    whole = assert_chunking_invisible(monkeypatch, sc, make_grid(sc, delta=0.5),
                                      conservative=True, winner_truthful=True)
    assert len(whole) == 7                   # a bids 5, b any of 0, 0.5, ..., 3
    sc = simple_scenario({"a1": {"q1": 4.0, "q2": 2.0}, "a2": {"q1": 3.0, "q2": 2.5},
                          "a3": {"q1": 1.5, "q2": 3.5}}, weights=(1.0, 0.5), kappa=1)
    assert_chunking_invisible(monkeypatch, sc, make_grid(sc, delta=0.5),
                              winner_truthful=True)


def test_chunking_invisible_single_advertiser(monkeypatch):
    sc = single_keyword_scenario({"a": 4.0})
    assert len(assert_chunking_invisible(monkeypatch, sc, make_grid(sc, delta=1.0),
                                         conservative=True)) == 4
    sc = simple_scenario({"a1": {"q1": 4.0, "q2": 2.5, "q3": 1.0}}, kappa=2)
    assert assert_chunking_invisible(monkeypatch, sc, make_grid(sc, delta=0.5))


@pytest.mark.parametrize("idle", ["a0", "a2"])
def test_chunking_invisible_advertiser_without_keywords(monkeypatch, idle):
    """An advertiser with no positive keyword has the one all-zero row;
    as advertiser 0 it makes axis 0 a single row."""
    values = {"a0": {"q1": 4.0, "q2": 2.0}, "a1": {"q1": 3.0, "q2": 2.5},
              "a2": {"q1": 1.5, "q2": 3.5}}
    values[idle] = {}
    sc = simple_scenario(values, weights=(1.0, 0.5), kappa=1)
    grid = make_grid(sc, delta=0.5)
    assert row_counts(sc, grid)[sc.advertisers.index(idle)] == 1
    whole = assert_chunking_invisible(monkeypatch, sc, grid)
    assert whole and all(profile[idle] == {} for profile, _, _ in whole)


def test_enumerate_matches_slow_oracle_in_one_row_chunks(monkeypatch):
    monkeypatch.setattr(equilibrium, "_CHUNK_PROFILES", 1)
    for sc, grid, eps, menus_by_adv in slow_oracle_markets():
        fast = enumerate_pure_nash(sc, grid, epsilon=eps)
        slow = canonical_profiles(slow_pure_nash_oracle(sc, menus_by_adv, eps))
        assert canonical_profiles([r.profile for r in fast]) == slow
        assert report_fingerprint(fast) == assert_chunking_invisible(
            monkeypatch, sc, grid, epsilon=eps)


def million_market():
    """Three advertisers, three keywords, kappa 3, unit grid: 1.25 M
    conservative joint profiles and 8 pure-Nash equilibria."""
    sc = simple_scenario({"a0": {"q1": 4.0, "q2": 3.7, "q3": 3.4},
                          "a1": {"q1": 3.6, "q2": 4.0, "q3": 3.2},
                          "a2": {"q1": 2.9, "q2": 2.5, "q3": 3.9}}, weights=(1.0, 0.6))
    return sc, make_grid(sc, delta=1.0)


def chunk_profiles(counts):
    """Profiles in one chunk of the scan: the rows of axis 0 that fit
    the budget (one at least) times the opponent profiles."""
    table = math.prod(counts[1:])
    return min(counts[0], max(1, equilibrium._CHUNK_PROFILES // table)) * table


def test_enumerate_too_large_reports_bytes():
    sc = five_three()
    grid = make_grid(sc, delta=1.0)
    counts = row_counts(sc, grid, conservative=True)
    assert counts == [6, 4]
    with pytest.raises(TooLarge) as exc:
        enumerate_pure_nash(sc, grid, conservative=True, max_joint=23)
    peak = equilibrium._peak_bytes(counts)
    assert str(exc.value) == (f"joint strategy space has 24 profiles, about {peak} "
                              f"bytes at peak (cap 23)")
    # the whole grid is one chunk: at least its two utility tensors and the table
    assert peak >= 8 * (2 * 24 + 4)

    sc, grid = million_market()
    counts = row_counts(sc, grid, conservative=True)
    peak = equilibrium._peak_bytes(counts)
    with pytest.raises(TooLarge, match=rf"^joint strategy space has 1250000 profiles, "
                                       rf"about {peak} bytes at peak \(cap 1000000\)$"):
        enumerate_pure_nash(sc, grid, conservative=True, max_joint=1_000_000)
    # the estimate follows the chunk and the table, not the whole grid
    table = math.prod(counts[1:])
    assert 8 * 3 * chunk_profiles(counts) + 8 * table <= peak <= 10 * 1_250_000


def test_enumerate_memory_bounded_by_the_chunk():
    """Peak traced allocation on a 1.25 M-profile grid stays within one
    chunk at 128 B a profile, the best-response table and 1 MB for the
    strategy rows and reports, and within the TooLarge estimate plus
    that 1 MB.  Whole-grid tensors took about 80 B per profile, 100 MB
    here."""
    sc, grid = million_market()
    counts = row_counts(sc, grid, conservative=True)
    table = math.prod(counts[1:])
    bound = 128 * chunk_profiles(counts) + 8 * table + (1 << 20)
    assert bound < 10 * 1_250_000
    tracemalloc.start()
    try:
        reports = enumerate_pure_nash(sc, grid, conservative=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(reports) == 8
    assert peak <= bound
    assert peak <= equilibrium._peak_bytes(counts) + (1 << 20)


# ------------------------------------------------------ dominant strategies

def test_single_slot_dominant_profile_truthful():
    sc = simple_scenario({"a1": {"q1": 4.0, "q2": 2.0},
                          "a2": {"q1": 1.0, "q2": 3.0}}, kappa=1)
    prof = single_slot_dominant_profile(sc)
    assert prof == {"a1": {"s1": 4.0}, "a2": {"s2": 3.0}}
    sc2 = simple_scenario({"a1": {"q1": 4.0}}, weights=(1.0, 0.5))
    with pytest.raises(NotSingleSlot):
        single_slot_dominant_profile(sc2)


def test_dominant_profile_has_no_profitable_deviation():
    """Truthful keyword bids are dominant per keyword under a single
    slot, so with kappa slack enough to play every positive keyword the
    profile is an exact equilibrium.  (With binding kappa only the bid
    levels are dominant, not the keyword selection.)"""
    rng = np.random.default_rng(23)
    for _ in range(20):
        sc = random_scenario(rng, max_adv=3, max_kw=3, max_q=3, kappa="max")
        grid = make_grid(sc, delta=0.3)
        prof = single_slot_dominant_profile(sc)
        regrets = verify_epsilon_nash(sc, prof, grid)
        assert max(regrets.values()) <= default_epsilon(sc)


# ------------------------------------------------------------- Bayes side

def one_query_bayes(n_adv=2):
    g = BipartiteGraph(["q"], ["s"], [("q", "s")])
    dists = {f"a{j}": {"q": Uniform(0.0, 1.0)} for j in range(n_adv)}
    return BayesScenario(g, QueryDistribution({"q": 1.0}),
                         MatchingPolicy({"q": {"s": 1.0}}),
                         SlotWeights([1.0]), 1, dists)


def test_truthful_bne_regret_is_noise():
    bayes = one_query_bayes()
    rng = np.random.default_rng(2)
    regs = estimate_bne_regret(bayes, truthful_keyword_strategy(bayes),
                               n_types=24, deviation_delta=0.1, rng=rng,
                               n_opponent_draws=16)
    for est in regs.values():
        assert est.mean <= 2 * est.stderr + 1e-9


def test_silent_strategy_has_regret():
    bayes = one_query_bayes()
    rng = np.random.default_rng(4)

    def silent(values):
        return np.zeros(values.shape[:2] + (len(bayes.graph.keywords),))

    regs = estimate_bne_regret(bayes, silent, n_types=24,
                               deviation_delta=0.1, rng=rng,
                               n_opponent_draws=16)
    assert any(est.mean > 3 * est.stderr and est.mean > 0.01
               for est in regs.values())


def test_bne_regret_validates_inputs():
    bayes = one_query_bayes()
    with pytest.raises(ValidationError):
        estimate_bne_regret(bayes, truthful_keyword_strategy(bayes), 0, 0.1,
                            np.random.default_rng(0))
    with pytest.raises(ValidationError):
        estimate_bne_regret(bayes, truthful_keyword_strategy(bayes), 5, 0.0,
                            np.random.default_rng(0))


@pytest.mark.parametrize("delta", [math.inf, math.nan])
def test_grid_delta_must_be_finite_and_positive(delta):
    bayes = one_query_bayes()
    with pytest.raises(ValidationError, match="grid delta must be finite and positive"):
        BidGrid(delta, {"s": 1.0})
    with pytest.raises(ValidationError, match="deviation_delta must be finite and positive"):
        estimate_bne_regret(bayes, truthful_keyword_strategy(bayes), 2, delta,
                            np.random.default_rng(0))


def test_bne_regret_menu_cap_raises_before_any_menu_is_built(monkeypatch):
    bayes = one_query_bayes()
    tracemalloc.start()
    with pytest.raises(TooLarge, match=r"deviation menu of \d+ bids on keyword 's' "
                                       r"at delta 1e-08 \(cap 1048576\)"):
        estimate_bne_regret(bayes, truthful_keyword_strategy(bayes), 4, 1e-8,
                            np.random.default_rng(0), n_opponent_draws=4)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert peak < 1 << 20       # one menu of those would hold about 1e8 bids
    # a value of 1.0 on the grid of 0.25: five grid points, 0, the value and
    # the played bid make 8 bids, which the cap admits at 8
    g = BipartiteGraph(["q"], ["s"], [("q", "s")])
    point = BayesScenario(g, QueryDistribution({"q": 1.0}), MatchingPolicy({"q": {"s": 1.0}}),
                          SlotWeights([1.0]), 1, {"a": {"q": PointMass(1.0)}})
    monkeypatch.setattr(equilibrium, "_MAX_MENU", 8)
    estimate_bne_regret(point, truthful_keyword_strategy(point), 2, 0.25,
                        np.random.default_rng(0), n_opponent_draws=2)
    monkeypatch.setattr(equilibrium, "_MAX_MENU", 7)
    with pytest.raises(TooLarge, match=r"deviation menu of 8 bids .* \(cap 7\)"):
        estimate_bne_regret(point, truthful_keyword_strategy(point), 2, 0.25,
                            np.random.default_rng(0), n_opponent_draws=2)


def test_bne_regret_deterministic():
    bayes = one_query_bayes()
    a = estimate_bne_regret(bayes, truthful_keyword_strategy(bayes), 6, 0.2,
                            np.random.default_rng(11), n_opponent_draws=8)
    b = estimate_bne_regret(bayes, truthful_keyword_strategy(bayes), 6, 0.2,
                            np.random.default_rng(11), n_opponent_draws=8)
    assert a == b
