import bisect
import dataclasses
import itertools
import math
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bmlab import cli, equilibrium
from bmlab.analysis import empirical_poa
from bmlab.equilibrium import (
    BidGrid,
    Equilibria,
    EquilibriumReport,
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
from bmlab.errors import NotSingleSlot, ParameterRange, TooLarge, ValidationError
from bmlab.market import (
    BayesScenario,
    BipartiteGraph,
    MatchingPolicy,
    QueryDistribution,
    SlotWeights,
    ValuationProfile,
    build_scenario,
    scenario_from_json,
)
from bmlab.mechanisms import pbm_expected_welfare
from bmlab.reserves import PointMass, Uniform, bayes_scenario_from_json

import helpers
from helpers import (
    best_response_table_oracle,
    canonical_profiles,
    dict_expected_welfare,
    joint_best_response_oracle,
    joint_profile_count,
    joint_scan_pure_nash,
    joint_utility,
    keyword_grid_cells_oracle,
    off_menu_bids,
    pbm_utility,
    per_call_dynamics,
    per_keyword_nash_count,
    random_bid_profile,
    random_scenario,
    row_count_oracle,
    scalar_best_response,
    simple_scenario,
    single_keyword_scenario,
    slow_pure_nash_oracle,
    whole_grid_menu,
)


DATA = Path(__file__).parent / "data"


def five_three():
    return single_keyword_scenario({"a": 5.0, "b": 3.0})


# -------------------------------------------------------------------- grid

def test_make_grid_default_caps():
    sc = simple_scenario({"a1": {"q1": 4.0, "q2": 2.0},
                          "a2": {"q1": 1.0, "q2": 3.0}}, kappa=2)
    grid = make_grid(sc, delta=1.0)
    assert grid.caps == {"s1": 4.0, "s2": 3.0}
    assert bid_menu(sc, grid, "a1", "s1") == (0.0, 1.0, 2.0, 3.0, 4.0)
    assert grid.size("s1") == 5 and grid.size("s2") == 4
    with pytest.raises(ValidationError):
        BidGrid(delta=0.0, caps={})


def test_grid_past_the_float_range_is_parameter_range():
    """A cap over delta past the float range has no grid index."""
    with pytest.raises(ParameterRange, match=r"^grid cap 5 of keyword 's1' over grid delta "
                                             r"\S+ overflows$"):
        BidGrid(1e-320, {"s0": 0.0, "s1": 5.0})
    assert BidGrid(1e-300, {"s1": 5.0}).size("s1") > 10 ** 300     # finite: a size


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


def _many_keywords(rng, n_keywords, kappa):
    """Three advertisers over n_keywords one-query keywords, values on a
    quarter grid (ties), b's and c's with some zeros, two slots."""
    queries = [f"q{k:02d}" for k in range(n_keywords)]
    values = {i: {q: float(rng.integers(1, 13)) / 4.0 * (i == "a" or rng.random() < 0.8)
                  for q in queries} for i in ("a", "b", "c")}
    return simple_scenario(values, weights=(1.0, 0.6), kappa=kappa, queries=queries)


def test_best_response_guards():
    """Best response prices each keyword on its own and ranks them with
    one argsort, so neither the keyword count nor kappa is capped: past 20
    keywords and kappa 4 it equals the scalar oracle hex for hex."""
    rng, widest = np.random.default_rng(22), 0
    for n_keywords, kappa in [(21, 2), (5, 5), (40, 6), (60, 12)]:
        sc = _many_keywords(rng, n_keywords, kappa)
        grid = make_grid(sc, delta=0.5)
        bids = random_bid_profile(rng, sc)
        for i in sc.advertisers:
            row, u = best_response(sc, bids, i, grid)
            want, want_u, _ = scalar_best_response(sc, bids, i, grid)
            assert _hex_rows({i: row}) == _hex_rows({i: want}) and u.hex() == want_u.hex()
            widest = max(widest, len(row))
    assert widest > 4       # best rows over the former kappa cap


def no_menus(*args):
    raise AssertionError("a menu was built")


def test_best_response_builds_only_its_advertisers_menus(monkeypatch):
    """best_response lays out the rows of the advertiser it answers for,
    and builds no menu: one _menu_rule call per positive keyword of that
    advertiser, in name order, with its keyword value."""
    sc = scenario_from_json(DATA / "scenario_wide.json")
    grid = make_grid(sc, delta=0.25)
    calls, rule = [], equilibrium._menu_rule

    def spy(grid, keyword, value, conservative):
        calls.append((keyword, value))
        return rule(grid, keyword, value, conservative)

    monkeypatch.setattr(equilibrium, "_menu_rule", spy)
    monkeypatch.setattr(equilibrium, "_menus", no_menus)
    monkeypatch.setattr(equilibrium, "bid_menu", no_menus)
    for i in sc.advertisers:
        calls.clear()
        best_response(sc, {}, i, grid)
        assert calls == [(s, sc.kw_values[i][s]) for s in sorted(sc.kw_positive[i])]


def test_best_response_rejects_unknown_advertiser():
    sc = scenario_from_json(DATA / "scenario_2x2.json")
    with pytest.raises(ValidationError, match="^best response of unknown advertiser 'zz'$"):
        best_response(sc, {}, "zz", make_grid(sc, delta=1.0))


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


# the solvers read a profile through bid_matrix, which leaves bids on
# keywords outside the graph out, finite or not
CLEAN = {"a": {"s1": 2.0}, "b": {"s2": 1.0}}
STRAY = {"finite": {"a": {"s1": 2.0, "nowhere": 1.0}, "b": {"s2": 1.0}},
         "nan": {"a": {"s1": 2.0}, "b": {"s2": 1.0, "gone": math.nan}}}


def scenario_2x2():
    return scenario_from_json(DATA / "scenario_2x2.json")


@pytest.mark.parametrize("stray", STRAY)
def test_best_response_ignores_bids_on_keywords_outside_the_graph(stray):
    sc = scenario_2x2()
    grid = make_grid(sc, 1.0)
    for i in sc.advertisers:
        assert best_response(sc, STRAY[stray], i, grid) == best_response(sc, CLEAN, i, grid)


@pytest.mark.parametrize("stray", STRAY)
def test_verify_ignores_bids_on_keywords_outside_the_graph(stray):
    sc = scenario_2x2()
    regrets = verify_epsilon_nash(sc, STRAY[stray], make_grid(sc, 1.0))
    assert regrets == verify_epsilon_nash(sc, CLEAN, make_grid(sc, 1.0))
    assert max(regrets.values()) > 0.0


@pytest.mark.parametrize("stray", STRAY)
def test_dynamics_ignore_bids_on_keywords_outside_the_graph(stray):
    sc = scenario_2x2()
    rep = best_response_dynamics(sc, STRAY[stray], make_grid(sc, 1.0))
    assert rep.iterations > 1       # every row was rewritten, the stray bids with it
    assert rep == best_response_dynamics(sc, CLEAN, make_grid(sc, 1.0))


# infeasible profiles on scenario_3x3 (kappa 2): a row over the budget, a
# negative bid; validate_bid_profile's messages
OVER_BUDGET = {i: {"s1": 1.0, "s2": 1.0, "s3": 1.0} for i in ("a", "b", "c")}
INFEASIBLE = pytest.mark.parametrize("bids, message", [
    (OVER_BUDGET, "^advertiser 'a' has 3 positive bids; budget is kappa = 2$"),
    ({"a": {"s1": -3.0}}, r"^bid of 'a' on 's1' must be finite and >= 0, got -3\.0$"),
], ids=["over budget", "negative bid"])


@INFEASIBLE
def test_best_response_rejects_an_infeasible_profile(bids, message):
    sc = scenario_from_json(DATA / "scenario_3x3.json")
    with pytest.raises(ValidationError, match=message):
        best_response(sc, bids, "b", make_grid(sc, delta=1.0))


@INFEASIBLE
def test_verify_rejects_an_infeasible_profile(bids, message):
    sc = scenario_from_json(DATA / "scenario_3x3.json")
    with pytest.raises(ValidationError, match=message):
        verify_epsilon_nash(sc, bids, make_grid(sc, delta=1.0))


@INFEASIBLE
def test_dynamics_reject_an_infeasible_initial_profile(bids, message):
    sc = scenario_from_json(DATA / "scenario_3x3.json")
    with pytest.raises(ValidationError, match=message):
        best_response_dynamics(sc, bids, make_grid(sc, delta=1.0))


def test_solvers_reject_an_unknown_advertiser_in_the_profile():
    """The dynamics read the caller's profile as best response and the
    regret check do: an advertiser the scenario does not have raises."""
    sc = scenario_2x2()
    grid, bids = make_grid(sc, 1.0), {"a": {"s1": 1.0}, "zz": {"s1": 1.0}}
    for solve in (lambda: best_response(sc, bids, "a", grid),
                  lambda: verify_epsilon_nash(sc, bids, grid),
                  lambda: best_response_dynamics(sc, bids, grid)):
        with pytest.raises(ValidationError, match="^bid profile names unknown advertiser 'zz'$"):
            solve()


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
                     for s in sorted(sc.kw_positive[i])}
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
            _oracle_check(sc, bids, grid, conservative)
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


def test_regret_counts_a_played_bid_off_the_grid():
    """On equal slot weights b's played s1 bid of 0.5 takes the second
    slot at price 0 and pays more than any grid bid of delta 1 there;
    keeping it and moving s2 alone from 1.75 to 1.0 gains 0.3 * (2 - 0) -
    0.3 * (2 - 1.5) = 0.45.  The regret counts that deviation, as the
    Bayes estimate on the point-mass twin of the market does, and the
    dynamics do not stop at the profile."""
    sc = simple_scenario({"a": {"q1": 2, "q2": 2}, "b": {"q1": 2, "q2": 2}},
                         weights=(1.0, 1.0), kappa=2, p={"q1": 0.7, "q2": 0.3})
    grid = make_grid(sc, 1.0)
    profile = {"a": {"s1": 0.9, "s2": 1.5}, "b": {"s1": 0.5, "s2": 1.75}}
    regrets = verify_epsilon_nash(sc, profile, grid, conservative=True)
    assert regrets["a"] == 0.0 and regrets["b"] == pytest.approx(0.45)
    bayes = BayesScenario(sc.graph, sc.p, sc.pi, sc.weights, sc.kappa,
                          {i: {q: PointMass(v) for q, v in sc.valuations.row(i).items()}
                           for i in sc.advertisers})
    bids = np.array([[profile[i][s] for s in sc.graph.keywords] for i in sc.advertisers])
    estimate = estimate_bne_regret(bayes, lambda values: np.broadcast_to(bids, values.shape[:1]
                                                                         + bids.shape),
                                   1, grid.delta, np.random.default_rng(0), n_opponent_draws=1)
    assert {i: e.mean.hex() for i, e in estimate.items()} == {i: r.hex() for i, r in regrets.items()}
    rep = best_response_dynamics(sc, profile, grid, conservative=True)
    assert rep.converged and rep.iterations == 2 and rep.profile != profile


_HALVES = st.sampled_from([0.0, 0.5, 1.0, 1.5])


@given(st.integers(0, 2 ** 32 - 1),
       st.lists(st.tuples(st.integers(0, 4), st.none() | st.lists(_HALVES, min_size=4, max_size=4)),
                max_size=25))
@settings(max_examples=150, deadline=None)
def test_ladder_writes_keep_each_ladder_as_rebuilt(seed, writes):
    """_Ladders.write moves keys in place: after every write, each
    keyword's column holds the written bids and its ladder equals _ladder
    rebuilt from that column.  The writes set bids to 0 and back, tie
    other bids (all bids lie on halves) or, for None, write the row as it
    stands."""
    rng = np.random.default_rng(seed)
    sc = random_scenario(rng, max_adv=5, max_kw=4, weights=(1.0, 0.5))
    bids = {i: {s: h for s, b in row.items() if (h := round(b * 2) / 2) > 0.0}
            for i, row in random_bid_profile(rng, sc).items()}
    ladders = equilibrium._Ladders(sc, make_grid(sc, 0.5), False, bids)
    want = {s: [bids[i].get(s, 0.0) for i in sc.advertisers] for s in sc.graph.keywords}
    for a, halves in writes:
        a %= len(sc.advertisers)
        if halves is None:
            row = {s: col[a] for s, col in want.items() if col[a] > 0.0}
        else:
            row = dict(zip(sc.graph.keywords, halves))
        ladders.write(a, row)
        for s, col in want.items():
            col[a] = row.get(s, 0.0)
        assert ladders.bids == want
        assert ladders.ladders == {s: equilibrium._ladder(col) for s, col in want.items()}


def _hex_rows(profile):
    return {i: [(s, b.hex()) for s, b in row.items()] for i, row in profile.items()}


def _oracle_check(sc, bids, grid, conservative):
    """best_response and verify_epsilon_nash on the profile bids equal
    the scalar oracle hex for hex, for every advertiser; the regret's
    deviations also hold the played bids."""
    oracle_regrets = {}
    for i in sc.advertisers:
        row, u = best_response(sc, bids, i, grid, conservative)
        o_row, o_best, _ = scalar_best_response(sc, bids, i, grid, conservative)
        assert _hex_rows({i: row}) == _hex_rows({i: o_row})
        assert float(u).hex() == float(o_best).hex()
        _, o_best, o_current = scalar_best_response(sc, bids, i, grid, conservative,
                                                    keep_played=True)
        oracle_regrets[i] = max(0.0, o_best - o_current).hex()
    regrets = verify_epsilon_nash(sc, bids, grid, conservative)
    assert {i: r.hex() for i, r in regrets.items()} == oracle_regrets


def _oracle_stopping_tests(sc, bids, grid, conservative, max_iters):
    """per_call_dynamics from bids, and the regret vectors its loop tests
    against epsilon, one per iteration it counts, read off its
    keep_played scalar_best_response calls (one per advertiser)."""
    priced = []

    def spy(*args, keep_played=False):
        row, best, current = scalar_best_response(*args, keep_played=keep_played)
        if keep_played:
            priced.append(max(0.0, best - current))
        return row, best, current

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(helpers, "scalar_best_response", spy)
        result = per_call_dynamics(sc, bids, grid, default_epsilon(sc), max_iters, conservative)
    n = len(sc.advertisers)
    return result, [priced[k:k + n] for k in range(0, n * result[3], n)]


def _dynamics_check(sc, bids, grid, conservative, max_iters):
    """best_response_dynamics from bids equals the per-call loop hex for
    hex.  Its regret pricing, the played=True responses, is one per
    advertiser that each of the oracle's stopping tests reaches in index
    order, up to the first regret above epsilon, and one per advertiser
    for the report.  Returns (the played=True responses, the number of
    tests whose first regret above epsilon is not advertiser index 0's)."""
    (profile, regrets, converged, iterations), tests = _oracle_stopping_tests(
        sc, bids, grid, conservative, max_iters)
    calls, respond = [], equilibrium._Ladders.respond

    def spy(self, a, played=False):
        calls.append(played)
        return respond(self, a, played)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(equilibrium._Ladders, "respond", spy)
        rep = best_response_dynamics(sc, bids, grid, max_iters=max_iters, conservative=conservative)
    assert _hex_rows(rep.profile) == _hex_rows(profile)
    assert {i: r.hex() for i, r in rep.regrets.items()} == {i: r.hex() for i, r in regrets.items()}
    assert (rep.iterations, rep.converged) == (iterations, converged)
    eps, n = default_epsilon(sc), len(sc.advertisers)
    first = [next((k for k, r in enumerate(v) if r > eps), None) for v in tests]
    assert calls.count(True) == sum(n if k is None else k + 1 for k in first) + n
    return calls.count(True), sum(k is not None and k > 0 for k in first)


@pytest.mark.parametrize("weights", [(1.0,), (1.0, 0.6), (1.0, 0.6, 0.0)])
def test_dynamics_bit_identical_to_per_call_oracle(weights):
    """best_response_dynamics, with its rows built once, reports the
    profile, regrets, iterations and convergence of the round-robin loop
    of one scalar best response per advertiser, bit for bit.  Some
    stopping tests find their first regret above epsilon past a stable
    advertiser index 0."""
    rng, passed_stable = np.random.default_rng([707, len(weights)]), 0
    for t in range(25):
        sc = random_scenario(rng, max_adv=4, max_kw=3, max_q=4, weights=weights)
        grid = make_grid(sc, delta=max(make_grid(sc, 1.0).caps.values()) / 4)
        initial = random_bid_profile(rng, sc, overbid=0.5) if t % 2 else {}
        conservative, max_iters = bool(t % 3), int(rng.integers(0, 8))
        passed_stable += _dynamics_check(sc, initial, grid, conservative, max_iters)[1]
    assert passed_stable >= 3


@pytest.mark.parametrize("conservative", [False, True])
def test_dynamics_stopping_test_stops_at_the_first_regret_above_epsilon(conservative):
    """The 30 sweeps of the wide dynamics golden (scenario_wide at delta
    0.25, with either menus: the CI runs both) price 47 regrets where
    pricing all 12 before every sweep and after the last takes 31 * 12 =
    372: one per stopping test up to its first regret above epsilon,
    advertiser index 0's in 25 of the 30 and index 1's in 5, and 12 for
    the report."""
    sc = scenario_from_json(DATA / "scenario_wide.json")
    assert _dynamics_check(sc, {}, make_grid(sc, delta=0.25), conservative, 30) == (47, 5)


def test_conservative_menus_change_no_solver_result():
    """A bid above the keyword value never strictly gains against fixed
    opponent bids: bidding the value wins the same slot at the same price
    whenever that pays.  So best_response, verify_epsilon_nash and the
    dynamics give the same floats with and without the conservative menus,
    on random markets whose profiles overbid, on and off the grid."""
    rng = np.random.default_rng(909)
    overbids = 0
    for t in range(40):
        sc = random_scenario(rng, max_adv=4, max_kw=3, max_q=4, weights=(1.0, 0.6, 0.3))
        grid = make_grid(sc, delta=max(make_grid(sc, 1.0).caps.values()) / 4)
        bids = random_bid_profile(rng, sc, overbid=1.0)
        if t % 2:       # bids on grid points, which menu bids tie with
            bids = {i: {s: k * grid.delta for s, b in row.items() if (k := round(b / grid.delta))}
                    for i, row in bids.items()}
        overbids += sum(b > sc.kw_values[i][s] for i, row in bids.items() for s, b in row.items())
        max_iters, results = int(rng.integers(1, 6)), []
        for conservative in (False, True):
            rows = [best_response(sc, bids, i, grid, conservative) for i in sc.advertisers]
            rep = best_response_dynamics(sc, bids, grid, max_iters=max_iters,
                                         conservative=conservative)
            results.append(([({s: b.hex() for s, b in row.items()}, float(u).hex())
                              for row, u in rows],
                             {i: r.hex() for i, r in
                              verify_epsilon_nash(sc, bids, grid, conservative).items()},
                             _hex_rows(rep.profile), {i: r.hex() for i, r in rep.regrets.items()},
                             rep.iterations, rep.converged))
        assert results[0] == results[1]
    assert overbids >= 20


def _tied_market(rng):
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


@pytest.mark.parametrize("cells", ["one bid", "one row", "default"])
def test_sliced_regret_pass_bit_identical_to_oracles(monkeypatch, cells):
    """With _CELLS, the kernel-call size that only the regret estimate
    reads, cut to one bid, to the widest menu's bids or left at the
    default, the full-information solvers never call gsp_outcome,
    best_response_dynamics equals the per-call loop, and best_response
    and verify_epsilon_nash the scalar oracle, bit for bit, on markets of
    up to 10 advertisers with ties, zero-value bids and a valueless
    advertiser.  Each setting runs its own markets."""
    rng = np.random.default_rng([808, {"default": 7, "one bid": 8, "one row": 9}[cells]])
    calls = []
    kernel = equilibrium.gsp_outcome
    monkeypatch.setattr(equilibrium, "gsp_outcome",
                        lambda *args: calls.append("gsp_outcome") or kernel(*args))
    ties = zero_rows = 0
    for t in range(12):
        sc, grid, bids = _tied_market(rng)
        conservative = bool(t % 2)
        step = {"one bid": 1,
                "one row": max(len(bid_menu(sc, grid, i, s, conservative))
                               for i in sc.advertisers for s in sc.kw_positive[i])}.get(cells)
        if step:
            monkeypatch.setattr(equilibrium, "_CELLS", len(sc.advertisers) * step)
        ties += max(Counter((s, b) for row in bids.values() for s, b in row.items()).values()) > 1
        zero_rows += sum(s not in sc.kw_positive[i] for i, row in bids.items() for s in row)

        _oracle_check(sc, bids, grid, conservative)
        _dynamics_check(sc, bids, grid, conservative, max_iters=int(rng.integers(1, 6)))
        assert calls == []
    assert ties >= 10 and zero_rows >= 12


@pytest.mark.parametrize("delta", [1e-3, 0.013, 0.3, 7.0])
def test_solvers_bit_identical_to_oracles_from_fine_to_coarse_grids(delta):
    """Candidates found by grid arithmetic at any delta: best_response
    and verify_epsilon_nash equal the scalar oracle, which bisects whole
    menus, and best_response_dynamics the per-call loop, hex for hex, on
    random markets with overbids, ties and bids on grid points, at grids
    of thousands of points a keyword down to grids with no positive
    point below the values."""
    rng = np.random.default_rng([909, round(delta * 1000)])
    for t in range(4 if delta < 0.01 else 10):
        sc = random_scenario(rng, max_adv=4, max_kw=3, max_q=4, weights=(1.0, 0.6))
        grid = make_grid(sc, delta)
        bids = random_bid_profile(rng, sc, overbid=0.5 if t % 2 else 0.0)
        if t % 3 == 0:      # bids on grid points; shared ones tie
            bids = {i: {s: k * delta for s, b in row.items() if (k := round(b / delta))}
                    for i, row in bids.items()}
        conservative = bool(t % 2)
        _oracle_check(sc, bids, grid, conservative)
        _dynamics_check(sc, bids, grid, conservative, max_iters=2 if delta < 0.01 else 4)


def test_dynamics_rejects_nan_initial_bid():
    sc = five_three()
    with pytest.raises(ValidationError, match=r"bid of 'b' must be finite"):
        best_response_dynamics(sc, {"a": {"s": 2.0}, "b": {"s": float("nan")}},
                               make_grid(sc, delta=1.0))


def test_dynamics_on_21_keywords_equal_the_oracle_and_reject_nan():
    """A market past the former best-response cap of 20 keywords: ten
    sweeps of the dynamics equal the per-call loop hex for hex, and a NaN
    initial bid raises ValidationError."""
    rng = np.random.default_rng(21)
    sc = _many_keywords(rng, 21, 2)
    grid = make_grid(sc, delta=0.5)
    bids = random_bid_profile(rng, sc)
    _dynamics_check(sc, bids, grid, False, max_iters=10)
    with pytest.raises(ValidationError, match=r"bid of 'a' must be finite"):
        best_response_dynamics(sc, {"a": {"s1": float("nan")}}, grid)


@pytest.mark.parametrize("weights", [(1.0, 1.0), (1.0, 0.5, 0.0)])
def test_best_response_breakpoints_bit_identical_to_scalar_oracle(weights):
    """A response prices only the menu bids where the own bid passes an
    opponent's.  On one keyword valued 4.0, 3.0 and 2.5 by "a", "m" and
    "z" and by nobody else ("n" values no query), on the grid {0, 1, ...,
    4}: opponent bids on grid points, at the responders' values (3.0 on
    the grid, 2.5 off it) and above them, with the responder on either
    side of the tie rule ("m" loses ties to "a" and wins them against
    "z"), zero bids written out, overbid menus whose top bids lose money,
    best rows and regrets equal the scalar oracle hex for hex, and so do
    the dynamics from every fifth profile."""
    sc = simple_scenario({"a": {"q": 4.0}, "m": {"q": 3.0}, "n": {}, "z": {"q": 2.5}},
                         weights=weights, kappa=1, queries=["q"], keywords=["s"])
    grid = make_grid(sc, delta=1.0)
    levels = [0.0, 1.0, 2.0, 2.5, 3.0, 3.5, 4.0]
    for t, (a, m, n, z) in enumerate(itertools.product(levels, levels, [0.0, 2.0, 3.5], levels)):
        bids = {"a": {"s": a}, "m": {"s": m}, "n": {"s": n}, "z": {"s": z}}
        for conservative in (False, True):
            _oracle_check(sc, bids, grid, conservative)
            if t % 5 == 0:
                _dynamics_check(sc, bids, grid, conservative, max_iters=3)


@pytest.mark.parametrize("delta", [1.0, 0.7])
def test_best_response_of_a_lone_advertiser_bit_identical_to_scalar_oracle(delta):
    """A one-advertiser market has empty ladders: the best bid is the
    menu's lowest positive one, at price 0.  Zero, grid and overbid
    current bids, two slot-weight vectors, both menus."""
    for weights in [(1.0, 1.0), (1.0, 0.5, 0.0)]:
        sc = single_keyword_scenario({"a": 3.0}, weights=weights)
        grid = BidGrid(delta, {"s": 4.0})
        for b in [0.0, 0.7, 1.0, 3.0, 4.0]:
            for conservative in (False, True):
                _oracle_check(sc, {"a": {"s": b}}, grid, conservative)
                _dynamics_check(sc, {"a": {"s": b}}, grid, conservative, max_iters=2)
        assert best_response(sc, {}, "a", grid) == ({"s": delta}, 3.0)


def _benchmark_shaped_market(rng):
    """A market shaped like the benchmark's dynamics input: 20 advertisers,
    each valuing 4 of 10 queries in [1, 10], 8 keywords with extra edges,
    slot weights (1.0, 0.7, 0.4) and kappa 2."""
    queries, keywords = [f"q{j}" for j in range(10)], [f"s{j}" for j in range(8)]
    edges = ({(queries[j], keywords[j % 8]) for j in range(10)}
             | {(q, s) for q in queries for s in keywords if rng.random() < 0.2})
    raw = rng.uniform(1.0, 3.0, 10)
    values = {f"a{i:02d}": {queries[j]: round(float(rng.uniform(1.0, 10.0)), 3)
                            for j in sorted(rng.choice(10, size=4, replace=False))}
              for i in range(20)}
    for q in queries:       # every query needs a positive advertiser
        if not any(q in row for row in values.values()):
            values["a00"][q] = 5.0
    return simple_scenario(values, weights=(1.0, 0.7, 0.4), kappa=2,
                           p={q: float(x / raw.sum()) for q, x in zip(queries, raw)},
                           queries=queries, keywords=keywords, edges=sorted(edges))


@pytest.mark.parametrize("conservative", [False, True])
def test_dynamics_on_a_benchmark_shaped_market_equal_the_oracle(conservative):
    """Ten sweeps of the dynamics on a 20-advertiser, 8-keyword, 3-slot
    market at delta 0.25 equal the per-call loop hex for hex."""
    sc = _benchmark_shaped_market(np.random.default_rng(31))
    _dynamics_check(sc, {}, make_grid(sc, delta=0.25), conservative, max_iters=10)


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


def test_enumerated_welfare_is_the_exact_functional():
    """Every enumerated equilibrium reports pbm_expected_welfare of its
    profile bit for bit, and so the dict oracle's: enumeration once summed
    welfare keyword by keyword, which differs in the last bits."""
    rng = np.random.default_rng(5)
    markets = equilibria = 0
    for _ in range(60):
        sc = random_scenario(rng, weights=(1.0, 0.6))
        grid = make_grid(sc, 0.5)
        if math.prod(row_count_oracle(sc, grid, True)) > 20_000:
            continue
        markets += 1
        for r in enumerate_pure_nash(sc, grid, conservative=True):
            assert r.welfare.hex() == pbm_expected_welfare(sc, r.profile).hex() \
                == dict_expected_welfare(sc, r.profile).hex()
            equilibria += 1
    assert markets >= 40 and equilibria >= 1000


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
                               for s in sorted(sc.kw_positive[i])}
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


# ------------------------------------------------- the result's contract

def _contract_markets():
    """(scenario, grid, epsilon, conservative): the hand market, one of
    seed 92 without an equilibrium, and small random markets."""
    yield five_three(), make_grid(five_three(), 0.5), None, True
    sc = random_scenario(np.random.default_rng(92), max_adv=3, max_kw=2, max_q=3,
                         weights=(1.0, 0.5))
    yield sc, make_grid(sc, 1.0), 0.0, False
    rng = np.random.default_rng(41)
    for _ in range(6):
        sc = random_scenario(rng, max_adv=3, max_kw=2, max_q=3, weights=(1.0, 0.5))
        yield sc, make_grid(sc, max(make_grid(sc, 1.0).caps.values()) / 3), None, False


def test_equilibria_is_a_lazy_sequence_of_the_joint_scans_reports():
    """enumerate_pure_nash's Equilibria: its len, truthiness, iteration
    and indexing, negative too, give joint_scan_pure_nash's reports hex
    for hex; out of range raises IndexError; its arrays are read-only
    and shaped (E, |A|, |S|), (|A|, E) and (E,)."""
    empty = full = 0
    for sc, grid, eps, conservative in _contract_markets():
        got = enumerate_pure_nash(sc, grid, epsilon=eps, conservative=conservative)
        want = report_fingerprint(joint_scan_pure_nash(sc, grid, epsilon=eps,
                                                       conservative=conservative))
        E, n, K = len(want), len(sc.advertisers), len(sc.graph.keywords)
        assert isinstance(got, Equilibria)
        assert len(got) == E and bool(got) == bool(want)
        assert report_fingerprint(got) == want
        assert report_fingerprint([got[h] for h in range(E)]) == want
        assert report_fingerprint([got[h - E] for h in range(E)]) == want
        for h in (E, -E - 1):
            with pytest.raises(IndexError):
                got[h]
        assert (got.bids.shape, got.regrets.shape, got.welfare.shape) == ((E, n, K), (n, E), (E,))
        for arr in (got.bids, got.regrets, got.welfare):
            with pytest.raises(ValueError):
                arr[...] = 1.0
        empty, full = empty + (E == 0), full + (E > 0)
    assert empty == 1 and full == 7


def test_equilibria_of_no_advertiser_is_the_empty_profile():
    """Without advertisers the empty profile is the one equilibrium, in
    the same result type."""
    sc = dataclasses.replace(five_three(), valuations=ValuationProfile({}))
    got = enumerate_pure_nash(sc, make_grid(five_three(), 1.0))
    assert isinstance(got, Equilibria) and len(got) == 1
    assert got[0] == got[-1] == EquilibriumReport(
        profile={}, regrets={}, converged=True, iterations=0,
        epsilon=default_epsilon(sc), welfare=0.0)
    assert (got.bids.shape, got.regrets.shape, got.welfare.shape) == ((1, 0, 1), (0, 1), (1,))


def test_enumerate_and_poa_hold_few_bytes_per_equilibrium():
    """scenario_2x2, conservative, delta 0.125: 78 200 equilibria.  The
    arrays and empirical_poa's reading of them peak at most 400 traced
    bytes per equilibrium; a report per equilibrium cost about 1 320."""
    sc = scenario_from_json(DATA / "scenario_2x2.json")
    grid = make_grid(sc, 0.125)
    tracemalloc.start()
    try:
        got = enumerate_pure_nash(sc, grid, conservative=True)
        empirical_poa(sc, got, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(got) == 78_200
    assert peak <= 400 * len(got), peak / len(got)


# ----------------------------------------- keyword filter vs the joint scan

DEFAULT_CHUNK = equilibrium._CHUNK_PROFILES
# a chunk that splits the test markets' keyword grids, best-utility
# tables and candidate products unevenly
UNEVEN_CHUNK = 23


def assert_matches_the_joint_scan(monkeypatch, sc, grid, **kwargs):
    """enumerate_pure_nash with _CHUNK_PROFILES at its default, at 1 (a
    participant's bids, one grid cell or one stable vector per piece) and
    at an uneven split gives the reports of joint_scan_pure_nash, the
    whole-grid scan, hex for hex: profiles in order, regrets, welfare."""
    want = report_fingerprint(joint_scan_pure_nash(sc, grid, **kwargs))
    for chunk in (1, UNEVEN_CHUNK, DEFAULT_CHUNK):
        monkeypatch.setattr(equilibrium, "_CHUNK_PROFILES", chunk)
        assert report_fingerprint(enumerate_pure_nash(sc, grid, **kwargs)) == want
    return want


def boundary_epsilon(sc, grid, conservative=False):
    """An epsilon that is an exact regret of some profile of the market:
    the largest regret among the equilibria at a coarse epsilon, so
    that profile is stable exactly on the boundary."""
    regrets = [max(r.regrets.values()) for r in
               joint_scan_pure_nash(sc, grid, epsilon=0.05 * max(grid.caps.values()),
                                    conservative=conservative)]
    return max(regrets, default=0.0)


@pytest.mark.parametrize("conservative", [True, False])
def test_chunking_invisible_on_random_markets(monkeypatch, conservative):
    """Random markets, kappa binding on some and not on others, at the
    default epsilon and at an epsilon that is an exact regret."""
    rng = np.random.default_rng(77)
    found, binding, boundary = 0, Counter(), 0
    for _ in range(40):
        sc = random_scenario(rng, max_adv=3, max_kw=3, max_q=4, weights=(1.0, 0.5))
        grid = make_grid(sc, delta=max(make_grid(sc, 1.0).caps.values()) / 3)
        if math.prod(row_count_oracle(sc, grid, conservative)) > 20_000:
            continue
        found += len(assert_matches_the_joint_scan(monkeypatch, sc, grid,
                                                   conservative=conservative))
        binding[any(sc.kappa < len(sc.kw_positive[i]) for i in sc.advertisers)] += 1
        eps = boundary_epsilon(sc, grid, conservative)
        if eps > 0.0:
            reports = assert_matches_the_joint_scan(monkeypatch, sc, grid, epsilon=eps,
                                                    conservative=conservative)
            boundary += any(max(r.values(), key=float.fromhex) == eps.hex()
                            for _, r, _ in reports)
    assert found > 0 and binding[True] >= 3 and binding[False] >= 3 and boundary >= 3


def test_chunking_invisible_winner_truthful(monkeypatch):
    sc = five_three()
    whole = assert_matches_the_joint_scan(monkeypatch, sc, make_grid(sc, delta=0.5),
                                          conservative=True, winner_truthful=True)
    assert len(whole) == 7                   # a bids 5, b any of 0, 0.5, ..., 3
    sc = simple_scenario({"a1": {"q1": 4.0, "q2": 2.0}, "a2": {"q1": 3.0, "q2": 2.5},
                          "a3": {"q1": 1.5, "q2": 3.5}}, weights=(1.0, 0.5), kappa=1)
    assert_matches_the_joint_scan(monkeypatch, sc, make_grid(sc, delta=0.5),
                                  winner_truthful=True)


def test_chunking_invisible_single_advertiser(monkeypatch):
    sc = single_keyword_scenario({"a": 4.0})
    assert len(assert_matches_the_joint_scan(monkeypatch, sc, make_grid(sc, delta=1.0),
                                             conservative=True)) == 4
    sc = simple_scenario({"a1": {"q1": 4.0, "q2": 2.5, "q3": 1.0}}, kappa=2)
    assert assert_matches_the_joint_scan(monkeypatch, sc, make_grid(sc, delta=0.5))


@pytest.mark.parametrize("idle", ["a0", "a2"])
def test_chunking_invisible_advertiser_without_keywords(monkeypatch, idle):
    """An advertiser with no positive keyword has the one all-zero row
    and is on no keyword's grid."""
    values = {"a0": {"q1": 4.0, "q2": 2.0}, "a1": {"q1": 3.0, "q2": 2.5},
              "a2": {"q1": 1.5, "q2": 3.5}}
    values[idle] = {}
    sc = simple_scenario(values, weights=(1.0, 0.5), kappa=1)
    grid = make_grid(sc, delta=0.5)
    assert row_count_oracle(sc, grid)[sc.advertisers.index(idle)] == 1
    whole = assert_matches_the_joint_scan(monkeypatch, sc, grid)
    assert whole and all(profile[idle] == {} for profile, _, _ in whole)


def test_chunking_invisible_on_ties_and_overbids(monkeypatch):
    """Equal values put tied bids on every grid point, and overbids
    that win pay more than they are worth; kappa 2 of 3 keywords binds,
    and the 3x3 golden's epsilon 0.05 with it."""
    values = {"a0": {"q1": 2.0, "q2": 1.5, "q3": 1.0}, "a1": {"q1": 2.0, "q2": 2.5, "q3": 1.0},
              "a2": {"q1": 1.0, "q2": 2.5, "q3": 2.0}}
    sc = simple_scenario(values, weights=(1.0, 0.5), kappa=2)
    grid = make_grid(sc, delta=1.0)
    assert (joint_utility(sc, grid) < 0.0).any()
    for eps in (None, 0.05, boundary_epsilon(sc, grid)):
        assert assert_matches_the_joint_scan(monkeypatch, sc, grid, epsilon=eps)
    sc = scenario_from_json(DATA / "scenario_3x3.json")
    assert len(assert_matches_the_joint_scan(monkeypatch, sc, make_grid(sc, delta=2.0),
                                             epsilon=0.05)) == 45


def test_enumerate_builds_no_strategy_rows(monkeypatch, tmp_path):
    """The enumerator reads its menus only: with strategy_rows raising, the
    3x3 market gives the whole-grid scan's reports hex for hex and its
    goldens byte for byte, on the unit grid (the PoA golden) and at grid
    2.0 and epsilon 0.05, where kappa binds."""
    sc = scenario_from_json(DATA / "scenario_3x3.json")
    cases = [(1.0, None), (2.0, 0.05)]
    want = [report_fingerprint(joint_scan_pure_nash(sc, make_grid(sc, delta), epsilon=eps))
            for delta, eps in cases]

    def no_rows(menus, kappa):
        raise AssertionError("the enumerator built strategy rows")

    monkeypatch.setattr(equilibrium, "strategy_rows", no_rows)
    for (delta, eps), rows in zip(cases, want):
        assert report_fingerprint(enumerate_pure_nash(sc, make_grid(sc, delta),
                                                      epsilon=eps)) == rows
    scenario = str(DATA / "scenario_3x3.json")
    assert cli.main(["poa", "--scenario", scenario, "--grid-delta", "1.0",
                     "--out", str(tmp_path / "poa")]) == 0
    assert ((tmp_path / "poa" / "poa.csv").read_bytes()
            == (DATA / "golden" / "poa_3x3.csv").read_bytes())
    assert cli.main(["equilibrium", "--scenario", scenario, "--mode", "enumerate",
                     "--epsilon", "0.05", "--grid-delta", "2.0",
                     "--out", str(tmp_path / "eq")]) == 0
    assert ((tmp_path / "eq" / "equilibrium.json").read_bytes()
            == (DATA / "golden" / "equilibrium_enumerate_3x3_eps.json").read_bytes())


def test_enumerate_matches_slow_oracle_in_one_row_chunks(monkeypatch):
    monkeypatch.setattr(equilibrium, "_CHUNK_PROFILES", 1)
    for sc, grid, eps, menus_by_adv in slow_oracle_markets():
        fast = enumerate_pure_nash(sc, grid, epsilon=eps)
        slow = canonical_profiles(slow_pure_nash_oracle(sc, menus_by_adv, eps))
        assert canonical_profiles([r.profile for r in fast]) == slow
        assert report_fingerprint(fast) == assert_matches_the_joint_scan(
            monkeypatch, sc, grid, epsilon=eps)


# -------------------------------------------------- best-response utility

def enumerator_best(sc, grid, conservative=False):
    """Each advertiser's best-response utility B_a as the enumerator
    computes it, on every joint profile: the keywords scanned with every
    vector kept (infinite epsilon, so a keyword's vectors are its whole
    grid in row-major order), each keyword's best utilities gathered onto
    the joint grid and added up by _best_sum."""
    advs, n = sc.advertisers, len(sc.advertisers)
    menus = [equilibrium._menus(sc, grid, i, conservative) for i in advs]
    pools, arrays = zip(*(equilibrium.strategy_rows(m, sc.kappa) for m in menus))
    keywords, mine = equilibrium._scan(sc, menus, math.inf)
    shape = [len(rows) for rows in arrays]
    out = []
    for m in mine:
        tops = []
        for j, p in m:
            kw = keywords[j]
            assert len(kw.digits) == math.prod(kw.sizes)
            vector = np.zeros(shape, dtype=np.intp)
            for q, a in enumerate(kw.ids):
                index = np.searchsorted(kw.levels[q], arrays[a][:, pools[a].index(kw.s)])
                vector = vector * kw.sizes[q] + index.reshape(
                    [-1 if b == a else 1 for b in range(n)])
            tops.append(kw.best[vector.ravel(), p])
        out.append(equilibrium._best_sum(tops, min(sc.kappa, len(m)),
                                         math.prod(shape)).reshape(shape))
    return out


def assert_best_is_the_oracle(sc, grid, conservative=False):
    """Every advertiser's B_a, built from per-keyword best utilities, is
    the brute-force maximum over its rows, hex for hex, on every profile."""
    tables = enumerator_best(sc, grid, conservative)
    for a, table in enumerate(tables):
        want = np.broadcast_to(best_response_table_oracle(sc, grid, a, conservative),
                               table.shape)
        # equal bit patterns, so equal hex forms
        assert (table.view(np.uint64) == np.ascontiguousarray(want).view(np.uint64)).all()
    return tables


@pytest.mark.parametrize("chunk", [None, 1])
@pytest.mark.parametrize("conservative", [True, False])
def test_best_table_is_the_maximum_over_rows_on_random_markets(monkeypatch, chunk,
                                                               conservative):
    """kappa random, so it binds on some markets and not on others; a
    chunk of 1 prices each participant's bids against one combination of
    the others' at a time."""
    if chunk is not None:
        monkeypatch.setattr(equilibrium, "_CHUNK_PROFILES", chunk)
    rng = np.random.default_rng(19)
    binding = Counter()
    for _ in range(40):
        sc = random_scenario(rng, max_adv=3, max_kw=3, max_q=4, weights=(1.0, 0.5))
        grid = make_grid(sc, delta=max(make_grid(sc, 1.0).caps.values()) / 3)
        if math.prod(row_count_oracle(sc, grid, conservative)) > 20_000:
            continue
        assert_best_is_the_oracle(sc, grid, conservative)
        binding[any(sc.kappa < len(sc.kw_positive[i]) for i in sc.advertisers)] += 1
    assert binding[True] >= 3 and binding[False] >= 3


@pytest.mark.parametrize("chunk", [None, 1])
def test_best_table_is_the_maximum_over_rows_on_edge_markets(monkeypatch, chunk):
    if chunk is not None:
        monkeypatch.setattr(equilibrium, "_CHUNK_PROFILES", chunk)
    values = {"a0": {"q1": 2.0, "q2": 1.5, "q3": 1.0}, "a1": {"q1": 3.0, "q2": 2.5, "q3": 1.0},
              "a2": {"q1": 1.0, "q2": 3.5, "q3": 2.0}}
    # advertiser 0 values every keyword below someone, so its menus reach
    # past its values: overbids that win pay more than they are worth
    sc = simple_scenario(values, weights=(1.0, 0.5), kappa=2)
    grid = make_grid(sc, delta=0.5)
    assert (joint_utility(sc, grid) < 0.0).any()
    assert_best_is_the_oracle(sc, grid)
    # advertiser 0 without a positive keyword: its one row, utility 0
    sc = simple_scenario({**values, "a0": {}}, weights=(1.0, 0.5), kappa=1)
    tables = assert_best_is_the_oracle(sc, make_grid(sc, delta=0.5))
    assert tables[0].size > 1 and not tables[0].any()
    # a single advertiser, kappa binding: its one best total on every row
    sc = simple_scenario({"a1": {"q1": 4.0, "q2": 2.5, "q3": 1.0}}, kappa=2)
    [table] = assert_best_is_the_oracle(sc, make_grid(sc, delta=0.5))
    assert table.ndim == 1 and table == pytest.approx((4.0 + 2.5) / 3)


CANDIDATES_ON_THE_MILLION_MARKET = 8


def million_market():
    """Three advertisers, three keywords, kappa 3, unit grid: 1.25 M
    conservative joint profiles and 8 pure-Nash equilibria."""
    sc = simple_scenario({"a0": {"q1": 4.0, "q2": 3.7, "q3": 3.4},
                          "a1": {"q1": 3.6, "q2": 4.0, "q3": 3.2},
                          "a2": {"q1": 2.9, "q2": 2.5, "q3": 3.9}}, weights=(1.0, 0.6))
    return sc, make_grid(sc, delta=1.0)


def chunk_profiles(counts):
    """Profiles in one chunk of the joint scan the enumerator replaced:
    the rows of axis 0 that fit the budget (one at least) times the
    opponent profiles, the unit of the memory bound below."""
    table = math.prod(counts[1:])
    return min(counts[0], max(1, equilibrium._CHUNK_PROFILES // table)) * table


def test_enumerate_prices_keyword_grids_not_the_joint_grid(monkeypatch):
    """On the million market the enumerator prices each keyword's grid of
    distinct bids once per participant for the best utilities and at
    most once more in the filter, and checks a fixed number of candidate
    profiles, none of it in proportion to the 1.25 M joint grid."""
    sc, grid = million_market()
    cells, candidates = [], []
    price, expand = equilibrium.gsp_outcome, equilibrium._candidates

    def counted_price(own, a, opp, ids, w_padded):
        cells.append(math.prod(np.broadcast_shapes(np.shape(own), opp.shape[:-1])))
        return price(own, a, opp, ids, w_padded)

    def counted_expand(keywords, kappa, part, count):
        for chunk in expand(keywords, kappa, part, count):
            if part.shape[1] == 0:      # the outermost call sees every chunk once
                candidates.append(len(chunk))
            yield chunk

    monkeypatch.setattr(equilibrium, "gsp_outcome", counted_price)
    monkeypatch.setattr(equilibrium, "_candidates", counted_expand)
    reports = enumerate_pure_nash(sc, grid, conservative=True)
    assert len(reports) == 8
    grids = 0
    for s in sc.graph.keywords:
        menus = [len(bid_menu(sc, grid, i, s, conservative=True)) for i in sc.advertisers]
        grids += len(menus) * math.prod(menus)
    assert grids == 3 * (5 * 5 * 4 + 5 * 5 * 4 + 5 * 5 * 5)
    assert grids <= sum(cells) <= 2 * grids
    assert sum(candidates) == CANDIDATES_ON_THE_MILLION_MARKET


def test_enumerate_too_large_names_the_cells(monkeypatch):
    """The cap counts keyword-grid cells, not joint profiles: 24 cells
    and 24 profiles on one keyword, 325 cells for the million market's
    1.25 M profiles.  At the cell count the market runs."""
    sc = five_three()
    grid = make_grid(sc, delta=1.0)
    assert keyword_grid_cells_oracle(sc, grid, conservative=True) == 24
    monkeypatch.setattr(equilibrium, "_MAX_BUILT", 23)
    with pytest.raises(TooLarge) as exc:
        enumerate_pure_nash(sc, grid, conservative=True)
    assert str(exc.value) == "keyword grids hold 24 cells (cap 23)"
    monkeypatch.setattr(equilibrium, "_MAX_BUILT", 24)
    assert len(enumerate_pure_nash(sc, grid, conservative=True)) == 12

    sc, grid = million_market()
    assert keyword_grid_cells_oracle(sc, grid, conservative=True) == 325
    monkeypatch.setattr(equilibrium, "_MAX_BUILT", 324)
    with pytest.raises(TooLarge, match=r"^keyword grids hold 325 cells \(cap 324\)$"):
        enumerate_pure_nash(sc, grid, conservative=True)
    monkeypatch.setattr(equilibrium, "_MAX_BUILT", 325)
    assert len(enumerate_pure_nash(sc, grid, conservative=True)) == 8


def too_large_message(sc, grid, conservative):
    """The TooLarge message of enumerate_pure_nash, with the oracle's cell
    count."""
    return (f"keyword grids hold {keyword_grid_cells_oracle(sc, grid, conservative)} cells "
            f"(cap {equilibrium._MAX_BUILT})")


def test_enumerate_too_large_before_any_menu(monkeypatch):
    """A grid past the cap raises with its exact cell count before a menu
    is built: at delta 2e-6 a 2x2 menu would hold about 2.5 M bids, and
    at delta 1e-6 one advertiser with two keywords of value 3 has two
    keyword grids of 3 M cells."""
    markets = [(scenario_from_json(DATA / "scenario_2x2.json"), 2e-6),
               (simple_scenario({"a": {"q1": 3.0, "q2": 3.0}}, kappa=2), 1e-6)]
    expected = {(id(sc), conservative): too_large_message(sc, make_grid(sc, delta), conservative)
                for sc, delta in markets for conservative in (False, True)}

    monkeypatch.setattr(equilibrium, "_menus", no_menus)
    monkeypatch.setattr(equilibrium, "bid_menu", no_menus)
    for sc, delta in markets:
        for conservative in (False, True):
            with pytest.raises(TooLarge) as exc:
                enumerate_pure_nash(sc, make_grid(sc, delta), conservative=conservative)
            assert str(exc.value) == expected[id(sc), conservative]


def test_enumerate_grid_past_sys_maxsize_exits_before_any_menu(monkeypatch):
    """At delta 1e-30 a keyword holds about 5e30 grid points, past
    sys.maxsize: the menu rule still finds the last kept point in a few
    steps, and the guard raises before any menu is built."""
    sc = scenario_from_json(DATA / "scenario_2x2.json")
    grid = make_grid(sc, 1e-30)
    n = grid.size("s1")
    assert n > sys.maxsize
    for v in (3.0, 2e-29):
        kept, size = equilibrium._menu_rule(grid, "s1", v, conservative=True)
        assert (kept - 1) * 1e-30 <= v + 1e-12 < kept * 1e-30 and kept < n
        assert size in (kept, kept + 1)
        assert equilibrium._menu_rule(grid, "s1", v, conservative=False)[0] == n

    monkeypatch.setattr(equilibrium, "_menus", no_menus)
    monkeypatch.setattr(equilibrium, "bid_menu", no_menus)
    for conservative in (False, True):
        with pytest.raises(TooLarge, match=r"^keyword grids hold [0-9]+ cells \(cap "):
            enumerate_pure_nash(sc, grid, conservative=conservative)


def one_advertiser_market():
    """One advertiser on three keywords, kappa 3: alone on each, it gains
    the same from every positive bid, so every positive bid is stable and
    every candidate, a positive bid per keyword, is an equilibrium."""
    return simple_scenario({"a": {"q1": 3.0, "q2": 3.0, "q3": 3.005}}, kappa=3)


@pytest.mark.parametrize("chunk", [UNEVEN_CHUNK, DEFAULT_CHUNK])
def test_enumerate_candidate_guard_at_the_exact_count(monkeypatch, chunk):
    """The candidates, counted as _candidates makes them, run at a cap of
    their exact count and raise one below it, naming the count reached;
    the 22 keyword-grid cells stay under both caps."""
    monkeypatch.setattr(equilibrium, "_CHUNK_PROFILES", chunk)
    sc = one_advertiser_market()
    grid = make_grid(sc, delta=0.5)
    count = math.prod(len(whole_grid_menu(sc, grid, "a", s)) - 1 for s in sc.graph.keywords)
    assert (keyword_grid_cells_oracle(sc, grid), count) == (22, 6 * 6 * 7)
    monkeypatch.setattr(equilibrium, "_MAX_BUILT", count)
    assert len(enumerate_pure_nash(sc, grid)) == count
    monkeypatch.setattr(equilibrium, "_MAX_BUILT", count - 1)
    with pytest.raises(TooLarge, match=rf"^stable keyword vectors make at least {count} "
                                       rf"candidate profiles \(cap {count - 1}\)$"):
        enumerate_pure_nash(sc, grid)


def test_enumerate_candidate_guard_on_a_small_grid_of_many_candidates():
    """At delta 0.01 the market's keyword grids hold 904 cells and its
    candidates number 27 090 000, each an equilibrium: the candidate
    guard raises once they pass the cap, before the equilibria are
    built."""
    sc = one_advertiser_market()
    grid = make_grid(sc, delta=0.01)
    assert keyword_grid_cells_oracle(sc, grid) == 904
    assert math.prod(len(whole_grid_menu(sc, grid, "a", s)) - 1
                     for s in sc.graph.keywords) == 27_090_000
    with pytest.raises(TooLarge, match=r"^stable keyword vectors make at least [0-9]+ candidate "
                                       rf"profiles \(cap {equilibrium._MAX_BUILT}\)$"):
        enumerate_pure_nash(sc, grid)


def test_enumerate_benchmark_market_at_a_quarter_grid():
    """The benchmark's seed-7 enumeration market (its equilibria workload's
    enum.json) at delta 0.25, conservative: 7.2e10 joint profiles but
    12 591 keyword-grid cells.  With kappa at its 3 keywords the game
    splits per keyword, and its 105 728 equilibria are the per-keyword
    brute force's count; in a sample of them every regret of
    verify_epsilon_nash is within epsilon."""
    sc = scenario_from_json(DATA / "scenario_enum_bench.json")
    grid = make_grid(sc, delta=0.25)
    assert joint_profile_count(sc, grid, conservative=True) == 71_833_132_800
    assert keyword_grid_cells_oracle(sc, grid, conservative=True) == 12_591
    got = enumerate_pure_nash(sc, grid, conservative=True)
    assert len(got) == 105_728 == per_keyword_nash_count(sc, grid, got.epsilon,
                                                         conservative=True)
    for h in np.random.default_rng(3).choice(len(got), size=40, replace=False):
        regrets = verify_epsilon_nash(sc, got[int(h)].profile, grid, conservative=True)
        assert max(regrets.values()) <= got.epsilon


def test_full_information_solvers_build_no_menu(monkeypatch):
    """best_response, verify_epsilon_nash and best_response_dynamics find
    their candidates by grid arithmetic and build no menu, so no grid
    delta bounds them: at delta 1e-7 the 2x2 market's menus would hold
    about 171 M bids, at 1e-30 about 2e31.  Every bid they report is a
    kept grid point or the keyword value, and the dynamics' regrets are
    verify_epsilon_nash's of their final profile."""
    sc = scenario_from_json(DATA / "scenario_2x2.json")
    monkeypatch.setattr(equilibrium, "_menus", no_menus)
    monkeypatch.setattr(equilibrium, "bid_menu", no_menus)
    for delta in (1e-7, 1e-12, 1e-30):
        grid = make_grid(sc, delta)
        for conservative in (False, True):
            rows = {i: best_response(sc, {}, i, grid, conservative)[0] for i in sc.advertisers}
            report = best_response_dynamics(sc, {}, grid, conservative=conservative)
            assert all(rows.values()) and all(report.profile.values())
            for profile in (rows, report.profile):
                assert off_menu_bids(sc, grid, profile, conservative) == []
            assert report.regrets == verify_epsilon_nash(sc, report.profile, grid, conservative)
            assert set(verify_epsilon_nash(sc, rows, grid, conservative)) == set(sc.advertisers)


def test_enumerate_grid_below_the_values_without_overflow():
    """A hand-built grid whose caps lie far below the values, where value
    over delta overflows: every grid point is below each value, so both
    modes keep the whole grid plus the value and give the same reports."""
    sc = scenario_from_json(DATA / "scenario_2x2.json")
    grid = BidGrid(1e-308, {s: 1e-307 for s in sc.graph.keywords})
    plain = enumerate_pure_nash(sc, grid)
    assert len(plain) == 144
    assert report_fingerprint(enumerate_pure_nash(sc, grid, conservative=True)) == \
        report_fingerprint(plain)


@pytest.mark.parametrize("conservative", [True, False])
def test_bid_menu_is_the_whole_grid_filter(conservative):
    """bid_menu, built from the kept prefix of the grid, equals the
    whole-grid filter, and the size of _menu_rule, read from the grid
    alone, its length: on random markets at coarse and fine delta, on values a float
    step off the grid (0.3 and 1000.3 at delta 0.1) and on it (2.5 and 4.0
    at delta 0.5), and on a grid whose value over delta overflows."""
    rng = np.random.default_rng(41)
    cases = []
    for _ in range(60):
        sc = random_scenario(rng, max_adv=3, max_kw=3, max_q=4)
        cases.append((sc, make_grid(sc, float(rng.choice([1e-3, 0.013, 0.1, 0.3, 1.0,
                                                          2.0, 7.0])))))
    for values, delta in [((0.3, 1000.3), 0.1), ((2.5, 4.0), 0.5)]:
        sc = single_keyword_scenario(dict(zip("ab", values)))
        cases.append((sc, make_grid(sc, delta)))
    sc = single_keyword_scenario({"a": 2.0, "b": 0.5})
    cases.append((sc, BidGrid(1e-308, {"s": 1e-307})))
    off = on = 0
    for sc, grid in cases:
        for i in sc.advertisers:
            for s in sc.graph.keywords:
                menu = bid_menu(sc, grid, i, s, conservative)
                assert menu == tuple(whole_grid_menu(sc, grid, i, s, conservative).tolist())
                v = sc.kw_values[i][s]
                assert equilibrium._menu_rule(grid, s, v, conservative)[1] == len(menu)
                k = round(min(v / grid.delta, grid.size(s)))
                on += v > 0.0 and k * grid.delta == v
                off += k * grid.delta != v and abs(k * grid.delta - v) < 1e-9
    assert on and off


def _outranking_cases(rng, delta, n_cases):
    """Random (o, kept, value, a wins the tie, conservative, grid) cases
    at one delta: opponent bids o on grid points k * delta, below, near
    and above the value, on the value, and on their float neighbours."""
    cases = []
    while len(cases) < n_cases:
        value = float(rng.uniform(1.0, 10.0))
        grid = BidGrid(delta, {"s": value * float(rng.choice([0.5, 1.0, 1.2]))})
        conservative = bool(rng.integers(2))
        kept, _ = equilibrium._menu_rule(grid, "s", value, conservative)
        near = value if rng.integers(4) == 0 else value * float(rng.uniform(0.0, 1.3))
        o = near if rng.integers(4) == 0 else round(near / delta) * delta
        o = (o, math.nextafter(o, math.inf), math.nextafter(o, -math.inf))[rng.integers(3)]
        if o > 0.0:
            cases.append((o, kept, value, bool(rng.integers(2)), conservative, grid))
    return cases


def _lowest_menu_bid_above(x, delta, kept, value):
    """The definition: the lowest of the kept grid points k * delta,
    counted by _points_upto's bisection, and the value that is > x, or
    None."""
    k = equilibrium._points_upto(x, delta, kept)
    above = [b for b in (k * delta if k < kept else None, value) if b is not None and b > x]
    return min(above, default=None)


@pytest.mark.parametrize("delta", [7.0, 0.25, 1e-3, 1e-12, 1e-15, 1e-17, 1e-30])
def test_one_rule_for_the_lowest_grid_bid_that_outranks(delta):
    """_lowest_above, the candidates of _Ladders (a best response against
    one opponent bid o below the value, in one slot, is the lowest menu
    bid that outranks o), the rows of _deviation_menus and, where the
    menu is buildable, bisection on bid_menu all give the lowest menu bid
    above x (x = o where the bidder loses the tie, the float below o
    where it wins) that _points_upto defines.  Past about 2^53 grid
    steps neighbouring k give the same float, where a guess from o /
    delta alone misses."""
    rng = np.random.default_rng(round(-math.log10(delta) * 10) + 100)
    cases = _outranking_cases(rng, delta, 300)
    by_side = {True: [], False: []}
    for o, kept, value, wins, conservative, grid in cases:
        x = math.nextafter(o, -math.inf) if wins else o
        want = _lowest_menu_bid_above(x, delta, kept, value)
        k = equilibrium._lowest_above(x, delta, kept)
        assert k == equilibrium._points_upto(x, delta, kept)
        sc = single_keyword_scenario({"a": value, "b": value} if wins else {"a": 1.0, "b": value})
        bidder, opponent = ("a", "b") if wins else ("b", "a")
        if o < value:
            row, _ = best_response(sc, {opponent: {"s": o}}, bidder, grid, conservative)
            assert row == {"s": want}, (o, kept, value, wins)
        if kept < 1 << 16:
            menu = bid_menu(sc, grid, bidder, "s", conservative)
            k = bisect.bisect_right(menu, x)
            assert (menu[k] if k < len(menu) else None) == want
        by_side[wins].append((o, x, float(kept), value))
    for wins, side in by_side.items():
        o, x, grid_n, value = map(np.array, zip(*side))
        a, others = (0, np.array([1])) if wins else (1, np.array([0]))
        bids, row = equilibrium._deviation_menus(grid_n, value, np.zeros(len(o)),
                                                 o[None, :, None], delta, a, others)
        for r in range(len(o)):
            above = bids[(row == r) & (bids > x[r])]
            want = _lowest_menu_bid_above(x[r], delta, int(grid_n[r]), value[r])
            assert (above.min() if above.size else None) == want, (o[r], grid_n[r], value[r], wins)


def keyword_scan_bytes(sc, grid, conservative=False):
    """Bytes of the enumerator at peak before its stable vectors and
    candidates, in the keyword grids' own sizes: a piece of
    _CHUNK_PROFILES cells at 128 B a cell, and per keyword and
    participant a best table of 8 B per cell of the others' menus."""
    tables = 0
    for s in sc.graph.keywords:
        sizes = [len(whole_grid_menu(sc, grid, i, s, conservative))
                 for i in sc.advertisers if s in sc.kw_positive[i]]
        tables += sum(math.prod(sizes) // size for size in sizes)
    return 128 * equilibrium._CHUNK_PROFILES + 8 * tables


def test_enumerate_memory_bounded_by_the_chunk():
    """Peak traced allocation on a 1.25 M-profile grid stays within one
    chunk of the joint scan at 128 B a profile, its best-response table
    and 1 MB for the strategy rows and reports, and within the keyword
    scan's bytes plus that 1 MB.  Whole-grid tensors took about 80 B per
    profile, 100 MB here."""
    sc, grid = million_market()
    counts = row_count_oracle(sc, grid, conservative=True)
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
    assert peak <= keyword_scan_bytes(sc, grid, conservative=True) + (1 << 20)


def test_enumerate_memory_bounded_on_a_one_keyword_market():
    """On one keyword the grid of distinct bids is the whole joint grid
    (1.45 M profiles), so the keyword scan prices it in pieces: the
    traced peak stays within the keyword scan's bytes plus 1 MB.  Two
    slots of near-equal weight keep the equilibria, and the reports'
    memory, few."""
    sc = single_keyword_scenario({"a": 10.0, "b": 9.0, "c": 8.0}, weights=(1.0, 0.9))
    grid = make_grid(sc, delta=0.08)
    counts = row_count_oracle(sc, grid, conservative=True)
    assert math.prod(counts) == 1_450_764
    tracemalloc.start()
    try:
        reports = enumerate_pure_nash(sc, grid, conservative=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(reports) == 182
    assert peak <= keyword_scan_bytes(sc, grid, conservative=True) + (1 << 20)


# ------------------------------------------------------ dominant strategies

def test_single_slot_dominant_profile_truthful():
    sc = simple_scenario({"a1": {"q1": 4.0, "q2": 2.0},
                          "a2": {"q1": 1.0, "q2": 3.0}}, kappa=1)
    prof = single_slot_dominant_profile(sc)
    assert prof == {"a1": {"s1": 4.0}, "a2": {"s2": 3.0}}
    sc2 = simple_scenario({"a1": {"q1": 4.0}}, weights=(1.0, 0.5))
    with pytest.raises(NotSingleSlot):
        single_slot_dominant_profile(sc2)
    # each advertiser's keyword values on its top kappa positive keywords
    # by (value, name), in that order, hex for hex, on random single-slot
    # markets and on ties
    rng = np.random.default_rng(5)
    markets = [random_scenario(rng, max_adv=3, max_kw=4, max_q=4) for _ in range(100)]
    markets += [simple_scenario({"a1": {"q1": 2.0, "q2": 3.0, "q3": 2.0},
                                 "a2": {"q1": 1.0, "q2": 1.0, "q3": 1.0}}, kappa=k)
                for k in (1, 2, 3)]
    for sc in markets:
        want = {}
        for i, values in sc.kw_values.items():
            top = sorted(sc.kw_positive[i], key=lambda s: (-values[s], s))[:sc.kappa]
            want[i] = [(s, values[s].hex()) for s in top]
        got = single_slot_dominant_profile(sc)
        assert {i: [(s, b.hex()) for s, b in row.items()] for i, row in got.items()} == want


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


def test_bne_regret_memory_does_not_grow_with_the_grid():
    # the full grid at delta 1e-8 would hold about 1e8 bids per menu
    bayes = one_query_bayes()
    tracemalloc.start()
    regs = estimate_bne_regret(bayes, truthful_keyword_strategy(bayes), 4, 1e-8,
                               np.random.default_rng(0), n_opponent_draws=4)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert peak < 1 << 20
    assert all(math.isfinite(est.mean) for est in regs.values())


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_bne_regret_rejects_a_delta_past_the_float_range():
    bayes = bayes_scenario_from_json(DATA / "bayes_3x3.json")   # values of 0.25 and more
    with pytest.raises(ParameterRange, match=r"of advertiser 'a' over deviation_delta 4.94066e-324 overflows"):
        estimate_bne_regret(bayes, truthful_keyword_strategy(bayes), 2, 5e-324,
                            np.random.default_rng(0), n_opponent_draws=2)


def test_bne_regret_kernel_cells_do_not_grow_with_the_grid(monkeypatch):
    """The counterexample's one advertiser has no opponents, so each menu
    is cut to 0, delta, the value and the played bid: the kernel prices
    as many own bids at delta 1e-8 as at 0.01, where the full grids of 32
    types hold about 6.5 M bids."""
    bayes = bayes_scenario_from_json(DATA / "bayes_counterexample.json")
    kernel, cells = equilibrium.gsp_outcome, []

    def spy(own, *args, **kwargs):
        cells[-1] += np.size(own)
        return kernel(own, *args, **kwargs)

    monkeypatch.setattr(equilibrium, "gsp_outcome", spy)
    for delta in (0.01, 1e-5, 1e-8):
        cells.append(0)
        estimate_bne_regret(bayes, truthful_keyword_strategy(bayes), 32, delta,
                            np.random.default_rng(7), n_opponent_draws=16)
    assert cells[0] == cells[1] == cells[2] <= 4 * 32 * len(bayes.graph.keywords)


def test_bne_regret_of_point_masses_is_the_nash_regret():
    """On a market whose values are point masses, with one type, one
    opponent draw and kappa <= 2, the Bayes-Nash regret estimate of a
    strategy equals verify_epsilon_nash's regret of the profile it bids on
    the conservative grid, bit for bit: one computation on two paths.
    Both let each keyword keep its played bid, which an off-grid strategy
    needs when equal slot weights make a low bid pay more than any grid
    bid."""
    rng = np.random.default_rng(5)
    regrets = nonzero = 0
    for t in range(600):
        sc = random_scenario(rng, weights=((1.0, 0.6), (1.0, 1.0))[t % 2])
        if sc.kappa > 2:
            continue
        bayes = BayesScenario(sc.graph, sc.p, sc.pi, sc.weights, sc.kappa,
                              {i: {q: PointMass(v) for q, v in sc.valuations.row(i).items()}
                               for i in sc.advertisers})
        grid = make_grid(sc, 0.5)
        truthful = truthful_keyword_strategy(bayes)
        for strategy in (truthful, lambda values: 0.5 * truthful(values),
                         lambda values: 0.3 * truthful(values) + 0.1 * (truthful(values) > 0.0)):
            bids = strategy(sc.value_matrix[None])[0].tolist()
            profile = {i: {s: b for s, b in zip(sc.graph.keywords, row) if b > 0.0}
                       for i, row in zip(sc.advertisers, bids)}
            nash = verify_epsilon_nash(sc, profile, grid, conservative=True)
            estimate = estimate_bne_regret(bayes, strategy, 1, grid.delta,
                                           np.random.default_rng(0), n_opponent_draws=1)
            assert {i: e.mean.hex() for i, e in estimate.items()} == \
                {i: r.hex() for i, r in nash.items()}
            regrets += len(nash)
            nonzero += sum(r > 0.0 for r in nash.values())
    assert regrets >= 3000 and nonzero >= 900


def test_bne_regret_deterministic():
    bayes = one_query_bayes()
    a = estimate_bne_regret(bayes, truthful_keyword_strategy(bayes), 6, 0.2,
                            np.random.default_rng(11), n_opponent_draws=8)
    b = estimate_bne_regret(bayes, truthful_keyword_strategy(bayes), 6, 0.2,
                            np.random.default_rng(11), n_opponent_draws=8)
    assert a == b
