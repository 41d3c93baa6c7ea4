import math
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from bmlab import cli, equilibrium
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

from helpers import (
    best_response_table_oracle,
    canonical_profiles,
    dict_expected_welfare,
    joint_best_response_oracle,
    joint_scan_pure_nash,
    joint_utility,
    pbm_utility,
    per_call_dynamics,
    random_bid_profile,
    random_scenario,
    scalar_best_response,
    simple_scenario,
    single_keyword_scenario,
    slow_pure_nash_oracle,
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
    assert grid.points("s1") == (0.0, 1.0, 2.0, 3.0, 4.0)
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


def test_best_response_builds_only_its_advertisers_menus(monkeypatch):
    """best_response lays out the rows of the advertiser it answers for:
    one _menus call per call, on that advertiser."""
    sc = scenario_from_json(DATA / "scenario_wide.json")
    grid = make_grid(sc, delta=0.25)
    calls, menus = [], equilibrium._menus

    def spy(scenario, grid, advertiser, conservative):
        calls.append(advertiser)
        return menus(scenario, grid, advertiser, conservative)

    monkeypatch.setattr(equilibrium, "_menus", spy)
    for i in sc.advertisers:
        best_response(sc, {}, i, grid)
    assert calls == list(sc.advertisers)


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


def _entries(sc, grid, bids, conservative):
    """Own bids of the regret check's two pricings: every advertiser's
    menus of its positive keywords, then one per positive bid of the
    profile on a keyword of the graph."""
    return (sum(len(bid_menu(sc, grid, i, s, conservative))
                for i in sc.advertisers for s in sc.kw_positive[i]),
            sum(b > 0.0 and s in sc.graph.keywords for row in bids.values()
                for s, b in row.items()))


@pytest.mark.parametrize("cells", ["one bid", "one row", "default"])
def test_sliced_regret_pass_bit_identical_to_oracles(monkeypatch, cells):
    """With the menu pricer's calls cut to one bid, to the widest menu's
    bids (menus split across calls, calls across menus and advertisers)
    or left at the default (each of the regret check's pricings, the
    menus and the played bids, in one call),
    best_response_dynamics equals the per-call loop and
    verify_epsilon_nash the scalar oracle bit for bit, on markets of up to
    10 advertisers with ties, zero-value bids and a valueless advertiser."""
    rng = np.random.default_rng([808, len(cells)])
    calls = []
    kernel = equilibrium.gsp_outcome

    def spy(own, *args):
        calls.append(len(own))
        return kernel(own, *args)

    monkeypatch.setattr(equilibrium, "gsp_outcome", spy)
    ties = zero_rows = 0
    for t in range(12):
        sc, grid, bids = _tied_market(rng)
        n, conservative = len(sc.advertisers), bool(t % 2)
        entries = _entries(sc, grid, bids, conservative)
        step = {"one bid": 1,
                "one row": max(len(bid_menu(sc, grid, i, s, conservative))
                               for i in sc.advertisers for s in sc.kw_positive[i])}.get(cells)
        if step:
            monkeypatch.setattr(equilibrium, "_CELLS", n * step)
        ties += max(Counter((s, b) for row in bids.values() for s, b in row.items()).values()) > 1
        zero_rows += sum(s not in sc.kw_positive[i] for i, row in bids.items() for s in row)

        calls.clear()
        regrets = verify_epsilon_nash(sc, bids, grid, conservative)
        step = equilibrium._CELLS // n
        assert calls == [c for e in entries
                         for c in [step] * (e // step) + [e % step] * (e % step > 0)]
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


def test_dynamics_on_21_keywords_equal_the_oracle_and_reject_nan():
    """A market past the former best-response cap of 20 keywords: ten
    sweeps of the dynamics equal the per-call loop hex for hex, and a NaN
    initial bid raises ValidationError."""
    rng = np.random.default_rng(21)
    sc = _many_keywords(rng, 21, 2)
    grid = make_grid(sc, delta=0.5)
    bids = random_bid_profile(rng, sc)
    rep = best_response_dynamics(sc, bids, grid, max_iters=10)
    profile, regrets, converged, iterations = per_call_dynamics(
        sc, bids, grid, default_epsilon(sc), 10)
    assert _hex_rows(rep.profile) == _hex_rows(profile)
    assert {i: r.hex() for i, r in rep.regrets.items()} == \
        {i: r.hex() for i, r in regrets.items()}
    assert (rep.iterations, rep.converged) == (iterations, converged)
    with pytest.raises(ValidationError, match=r"bid of 'a' must be finite"):
        best_response_dynamics(sc, {"a": {"s1": float("nan")}}, grid)


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
        if math.prod(row_counts(sc, grid, True)) > 20_000:
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


# ----------------------------------------- keyword filter vs the joint scan

DEFAULT_CHUNK = equilibrium._CHUNK_PROFILES
# a chunk that splits the test markets' keyword grids, best-utility
# tables and candidate products unevenly
UNEVEN_CHUNK = 23


def row_counts(sc, grid, conservative=False):
    return [equilibrium._count_rows(equilibrium._menus(sc, grid, i, conservative), sc.kappa)
            for i in sc.advertisers]


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
        if math.prod(row_counts(sc, grid, conservative)) > 20_000:
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
    assert row_counts(sc, grid)[sc.advertisers.index(idle)] == 1
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
        if math.prod(row_counts(sc, grid, conservative)) > 20_000:
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


def test_enumerate_too_large_reports_bytes(monkeypatch):
    sc = five_three()
    grid = make_grid(sc, delta=1.0)
    counts = row_counts(sc, grid, conservative=True)
    assert counts == [6, 4]
    monkeypatch.setattr(equilibrium, "_MAX_JOINT", 23)
    with pytest.raises(TooLarge) as exc:
        enumerate_pure_nash(sc, grid, conservative=True)
    peak = equilibrium._peak_bytes(counts)
    assert str(exc.value) == (f"joint strategy space has 24 profiles, about {peak} "
                              f"bytes at peak before the stable sets and equilibria (cap 23)")
    # a keyword piece or candidate chunk of _CHUNK_PROFILES entries, and the
    # keyword's best-utility tables: one entry per profile of the other's rows
    assert peak >= 128 * equilibrium._CHUNK_PROFILES + 8 * (4 + 6)

    sc, grid = million_market()
    counts = row_counts(sc, grid, conservative=True)
    peak = equilibrium._peak_bytes(counts)
    monkeypatch.setattr(equilibrium, "_MAX_JOINT", 1_000_000)
    with pytest.raises(TooLarge, match=rf"^joint strategy space has 1250000 profiles, "
                                       rf"about {peak} bytes at peak before the stable sets "
                                       rf"and equilibria \(cap 1000000\)$"):
        enumerate_pure_nash(sc, grid, conservative=True)
    # the estimate follows the chunk and the tables, not the whole grid
    tables = sum(1_250_000 // c for c in counts)
    assert 128 * equilibrium._CHUNK_PROFILES + 8 * tables <= peak <= 10 * 1_250_000


def test_enumerate_too_large_before_any_menu(monkeypatch):
    """A grid whose rows of at most one positive bid already pass the cap
    raises before a menu is built: at delta 2e-6 a 2x2 menu would hold
    about 2.5 M bids."""
    sc = scenario_from_json(DATA / "scenario_2x2.json")

    def no_menus(*args):
        raise AssertionError("a menu was built")

    monkeypatch.setattr(equilibrium, "_menus", no_menus)
    monkeypatch.setattr(equilibrium, "bid_menu", no_menus)
    for conservative in (False, True):
        with pytest.raises(TooLarge, match=r"^joint strategy space has at least \d+ "
                                           r"profiles \(cap 10000000\)$"):
            enumerate_pure_nash(sc, make_grid(sc, 2e-6), conservative=conservative)


@pytest.mark.parametrize("conservative", [True, False])
def test_least_rows_bounds_the_row_count(conservative):
    """_least_rows, read from the grid alone, never exceeds the exact row
    count, on grids coarser and finer than the values."""
    rng = np.random.default_rng(41)
    for _ in range(60):
        sc = random_scenario(rng, max_adv=3, max_kw=3, max_q=4)
        delta = float(rng.choice([0.013, 0.1, 0.3, 1.0, 2.0, 7.0]))
        grid = make_grid(sc, delta)
        for i in sc.advertisers:
            exact = equilibrium._count_rows(equilibrium._menus(sc, grid, i, conservative),
                                            sc.kappa)
            assert 1 <= equilibrium._least_rows(sc, grid, i, conservative) <= exact


def test_enumerate_memory_bounded_by_the_chunk():
    """Peak traced allocation on a 1.25 M-profile grid stays within one
    chunk of the joint scan at 128 B a profile, its best-response table
    and 1 MB for the strategy rows and reports, and within the TooLarge
    estimate plus that 1 MB.  Whole-grid tensors took about 80 B per
    profile, 100 MB here."""
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


def test_enumerate_memory_bounded_on_a_one_keyword_market():
    """On one keyword the grid of distinct bids is the whole joint grid
    (1.45 M profiles), so the keyword scan prices it in pieces: the
    traced peak stays within the TooLarge estimate plus 1 MB.  Two slots of near-equal weight keep the equilibria, and
    the reports' memory, few."""
    sc = single_keyword_scenario({"a": 10.0, "b": 9.0, "c": 8.0}, weights=(1.0, 0.9))
    grid = make_grid(sc, delta=0.08)
    counts = row_counts(sc, grid, conservative=True)
    assert math.prod(counts) == 1_450_764
    tracemalloc.start()
    try:
        reports = enumerate_pure_nash(sc, grid, conservative=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(reports) == 182
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
    the conservative grid, bit for bit: one computation on two paths."""
    rng = np.random.default_rng(5)
    regrets = nonzero = 0
    for _ in range(300):
        sc = random_scenario(rng, weights=(1.0, 0.6))
        if sc.kappa > 2:
            continue
        bayes = BayesScenario(sc.graph, sc.p, sc.pi, sc.weights, sc.kappa,
                              {i: {q: PointMass(v) for q, v in sc.valuations.row(i).items()}
                               for i in sc.advertisers})
        grid = make_grid(sc, 0.5)
        truthful = truthful_keyword_strategy(bayes)
        for strategy in (truthful, lambda values: 0.5 * truthful(values)):
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
    assert regrets >= 1000 and nonzero >= 300


def test_bne_regret_deterministic():
    bayes = one_query_bayes()
    a = estimate_bne_regret(bayes, truthful_keyword_strategy(bayes), 6, 0.2,
                            np.random.default_rng(11), n_opponent_draws=8)
    b = estimate_bne_regret(bayes, truthful_keyword_strategy(bayes), 6, 0.2,
                            np.random.default_rng(11), n_opponent_draws=8)
    assert a == b
