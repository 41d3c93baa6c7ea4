import numpy as np
import pytest

from bmlab.equilibrium import (
    BidGrid,
    best_response,
    best_response_dynamics,
    bid_menu,
    default_epsilon,
    enumerate_pure_nash,
    estimate_bne_regret,
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
    positive_keywords,
)
from bmlab.mechanisms import pbm_utility
from bmlab.reserves import Uniform

from helpers import (
    canonical_profiles,
    joint_best_response_oracle,
    random_bid_profile,
    random_scenario,
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
    menu = bid_menu(sc, grid, "a2", "s1", conservative=True,
                    include_truthful=False)
    assert menu == (0.0, 1.0, 2.0)


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
    sc = simple_scenario({"a1": {"q1": 4.0, "q2": 7.0}}, kappa=2)
    grid = make_grid(sc, delta=1.0)
    with pytest.raises(TooLarge):
        best_response(sc, {}, "a1", grid, max_keywords=1)
    with pytest.raises(TooLarge):
        best_response(sc, {}, "a1", grid, max_kappa=1)


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


def test_enumerate_matches_slow_oracle():
    """Vectorized enumeration equals the definitional oracle."""
    rng = np.random.default_rng(55)
    done = 0
    for _ in range(200):
        if done >= 6:
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
        fast = canonical_profiles(
            [r.profile for r in enumerate_pure_nash(sc, grid, epsilon=eps)])
        slow = canonical_profiles(slow_pure_nash_oracle(sc, menus_by_adv, eps))
        assert fast == slow
        done += 1
    assert done >= 6


def test_enumerate_too_large():
    values = {f"a{j}": {f"q{k}": 1.0 for k in range(10)} for j in range(10)}
    sc = simple_scenario(values, kappa=10)
    grid = make_grid(sc, delta=0.25)
    with pytest.raises(TooLarge):
        enumerate_pure_nash(sc, grid)


def test_enumerate_deterministic():
    sc = five_three()
    grid = make_grid(sc, delta=0.5)
    a = enumerate_pure_nash(sc, grid, conservative=True)
    b = enumerate_pure_nash(sc, grid, conservative=True)
    assert [r.profile for r in a] == [r.profile for r in b]
    assert [r.regrets for r in a] == [r.regrets for r in b]


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

    def silent(advertiser, values_row):
        return {}

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


def test_bne_regret_deterministic():
    bayes = one_query_bayes()
    a = estimate_bne_regret(bayes, truthful_keyword_strategy(bayes), 6, 0.2,
                            np.random.default_rng(11), n_opponent_draws=8)
    b = estimate_bne_regret(bayes, truthful_keyword_strategy(bayes), 6, 0.2,
                            np.random.default_rng(11), n_opponent_draws=8)
    assert a == b
