import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bmlab.analysis import (BoundSet, CounterexampleReport, RatioReport,
                            bound_calculators, counterexample_scenario,
                            empirical_poa, empirical_revenue_ratio,
                            expected_homogeneity, homogeneity, ratio_csv,
                            revenue_welfare_stats)
from bmlab.equilibrium import (EquilibriumReport, enumerate_pure_nash,
                               make_grid, truthful_keyword_strategy)
from bmlab.errors import (DomainError, ParameterRange, UnboundedSupport,
                          ValidationError)
from bmlab.market import (BayesScenario, BipartiteGraph, MatchingPolicy,
                          QueryDistribution, SlotWeights, optimal_welfare)
from bmlab.reserves import Exponential, PointMass, Uniform
from helpers import random_scenario, simple_scenario, single_keyword_scenario

# ------------------------------------------------------------- homogeneity


def test_homogeneity_uniform_values():
    sc = simple_scenario({"a": {"q1": 2.0, "q2": 2.0}},
                         keywords=["s"], edges=[("q1", "s"), ("q2", "s")])
    assert homogeneity(sc) == 1.0


def test_homogeneity_direct_ratio():
    sc = simple_scenario({"a": {"q1": 1.0, "q2": 3.0}},
                         keywords=["s"], edges=[("q1", "s"), ("q2", "s")])
    assert homogeneity(sc) == pytest.approx(3.0)


def test_homogeneity_zero_vs_positive_is_infinite():
    sc = simple_scenario({"a": {"q1": 2.0}, "b": {"q1": 1.0, "q2": 1.0}},
                         keywords=["s"], edges=[("q1", "s"), ("q2", "s")])
    assert math.isinf(homogeneity(sc))


def test_homogeneity_at_least_one():
    rng = np.random.default_rng(5)
    for _ in range(30):
        sc = random_scenario(rng, all_positive=True)
        assert homogeneity(sc) >= 1.0


def shared_keyword_bayes(dists):
    queries = sorted(dists)
    g = BipartiteGraph(queries, ["s"], [(q, "s") for q in queries])
    return BayesScenario(g, QueryDistribution({q: 1 / len(queries) for q in queries}),
                         MatchingPolicy({q: {"s": 1.0} for q in queries}),
                         SlotWeights([1.0]), 1, {"a": dists})


def test_expected_homogeneity_uniform_pair():
    bayes = shared_keyword_bayes({"q1": Uniform(0, 2), "q2": Uniform(0, 2)})
    assert expected_homogeneity(bayes) == pytest.approx(2.0)


def test_expected_homogeneity_unbounded():
    bayes = shared_keyword_bayes({"q1": Exponential(1.0)})
    with pytest.raises(UnboundedSupport):
        expected_homogeneity(bayes)


def test_expected_homogeneity_point_mass_reduces():
    rng = np.random.default_rng(9)
    for _ in range(20):
        sc = random_scenario(rng, all_positive=True)
        dists = {i: {q: PointMass(sc.valuations.value(i, q))
                     for q in sc.graph.queries
                     if sc.valuations.value(i, q) > 0}
                 for i in sc.advertisers}
        bayes = BayesScenario(sc.graph, sc.p, sc.pi, sc.weights,
                              sc.kappa, dists)
        assert expected_homogeneity(bayes) == pytest.approx(homogeneity(sc))


# ------------------------------------------------------------------ bounds


def test_bound_examples():
    b = bound_calculators(c=2.0, beta=0.5)
    assert b.pure_poa_single == pytest.approx(4.0)
    assert b.pure_poa_multi == pytest.approx(6.0)
    b2 = bound_calculators(c=1.0, beta=1.0, eta=1.0)
    assert b2.revenue_fraction_multi == pytest.approx(1.0 / (4 * math.e**2))
    assert b2.revenue_fraction_single == pytest.approx(1.0 / (2 * math.e**2))


def test_bound_bayes_defaults():
    b = bound_calculators(c=2.0, beta=0.5)
    want = math.e / (math.e - 1.0) * (1.5 / 0.5) * 2.0
    assert b.bayes_poa_multi == pytest.approx(want)
    assert b.bayes_poa_single == pytest.approx(6.0)


@pytest.mark.parametrize("kwargs", [
    dict(c=0.5, beta=1.0),
    dict(c=math.inf, beta=1.0),
    dict(c=1.0, beta=0.0),
    dict(c=1.0, beta=1.5),
    dict(c=1.0, beta=1.0, eta=0.5),
])
def test_bound_domain_errors(kwargs):
    with pytest.raises(DomainError):
        bound_calculators(**kwargs)


bounded_c = st.floats(min_value=1.0, max_value=50.0)
bounded_beta = st.floats(min_value=1e-3, max_value=1.0)
bounded_eta = st.floats(min_value=1.0, max_value=50.0)
step = st.floats(min_value=1e-3, max_value=10.0)


@given(bounded_c, bounded_beta, bounded_eta, step)
def test_poa_bounds_monotone_in_c(c, beta, eta, d):
    lo = bound_calculators(c, beta, eta=eta)
    hi = bound_calculators(c + d, beta, eta=eta)
    assert hi.pure_poa_single >= lo.pure_poa_single
    assert hi.pure_poa_multi >= lo.pure_poa_multi
    assert hi.revenue_fraction_single <= lo.revenue_fraction_single
    assert hi.revenue_fraction_multi <= lo.revenue_fraction_multi


@given(bounded_c, bounded_beta, step)
def test_poa_bounds_antitone_in_beta(c, beta, d):
    shrunk = max(1e-4, beta - d)
    lo = bound_calculators(c, beta)
    hi = bound_calculators(c, shrunk)
    assert hi.pure_poa_single >= lo.pure_poa_single - 1e-12
    assert hi.pure_poa_multi >= lo.pure_poa_multi - 1e-12


@given(bounded_c, bounded_beta, bounded_eta, step)
def test_revenue_bounds_antitone_in_eta(c, beta, eta, d):
    lo = bound_calculators(c, beta, eta=eta)
    hi = bound_calculators(c, beta, eta=eta + d)
    assert hi.revenue_fraction_single <= lo.revenue_fraction_single
    assert hi.revenue_fraction_multi <= lo.revenue_fraction_multi


# ------------------------------------------------------------ ratio reports


def test_ratio_csv_shape():
    rep = RatioReport("demo", "pure_poa", 2.0, 1.0, 2.0, 4.0, True,
                      "exhaustive; c=2")
    text = ratio_csv([rep])
    lines = text.strip().split("\n")
    assert lines[0] == "scenario,metric,empirical,bound,satisfied,notes"
    assert lines[1] == 'demo,pure_poa,2,4,true,exhaustive; c=2'


def test_empirical_poa_single_advertiser_ratio_one():
    sc = single_keyword_scenario({"a": 4.0})
    grid = make_grid(sc, delta=1.0)
    reports = enumerate_pure_nash(sc, grid, conservative=True)
    rep = empirical_poa(sc, reports, grid=grid)
    assert rep.empirical == pytest.approx(1.0)
    assert rep.satisfied
    assert rep.metric == "pure_poa"


def test_empirical_poa_single_slot_bound_holds():
    rng = np.random.default_rng(31)
    done = 0
    for _ in range(60):
        if done >= 10:
            break
        sc = random_scenario(rng, max_adv=2, max_kw=2, max_q=3)
        grid = make_grid(sc, delta=max(grid_cap for grid_cap in
                                       make_grid(sc, 1.0).caps.values()) / 4)
        reports = enumerate_pure_nash(sc, grid, conservative=True)
        if not reports:
            continue
        rep = empirical_poa(sc, reports, grid=grid)
        if math.isfinite(rep.bound):
            assert rep.satisfied, rep
        done += 1
    assert done >= 10


def test_empirical_poa_error_paths():
    sc = single_keyword_scenario({"a": 4.0})
    with pytest.raises(ValidationError):
        empirical_poa(sc, [])
    fake = EquilibriumReport(profile={"a": {}}, regrets={"a": 0.0},
                             converged=True, iterations=0, epsilon=1e-9,
                             welfare=0.0)
    rep = empirical_poa(sc, [fake])
    assert math.isinf(rep.empirical) and not rep.satisfied
    assert "zero-welfare" in rep.notes


# ---------------------------------------------------------------- revenue


def uniform_single_bayes():
    g = BipartiteGraph(["q"], ["s"], [("q", "s")])
    return BayesScenario(g, QueryDistribution({"q": 1.0}),
                         MatchingPolicy({"q": {"s": 1.0}}),
                         SlotWeights([1.0]), 1, {"a": {"q": Uniform(0, 1)}})


def test_revenue_stats_match_closed_forms():
    bayes = uniform_single_bayes()
    rng = np.random.default_rng(12)
    stats = revenue_welfare_stats(bayes, truthful_keyword_strategy(bayes),
                                  {"s": 0.5}, n_samples=20_000, rng=rng)
    # lone truthful bidder: revenue r * P(v >= r) = 0.25, optimum E[v] = 0.5
    assert abs(stats.revenue - 0.25) <= 4 * stats.revenue_se
    assert abs(stats.optimal - 0.5) <= 4 * stats.optimal_se
    assert stats.zero_reserve_revenue == pytest.approx(0.0)


def test_empirical_revenue_ratio_beats_bound():
    bayes = uniform_single_bayes()
    rng = np.random.default_rng(13)
    rep = empirical_revenue_ratio(bayes, truthful_keyword_strategy(bayes),
                                  {"s": 0.5}, c=1.0, beta=1.0, eta=2.0,
                                  n_samples=20_000, rng=rng)
    assert rep.metric == "revenue_fraction"
    assert rep.empirical == pytest.approx(0.5, abs=0.02)
    assert rep.bound == pytest.approx(1.0 / (4 * math.e**2))
    assert rep.satisfied
    assert "zero_reserve_revenue" in rep.notes


def test_revenue_stats_input_validation():
    bayes = uniform_single_bayes()
    with pytest.raises(ValidationError):
        revenue_welfare_stats(bayes, truthful_keyword_strategy(bayes),
                              {}, n_samples=1, rng=np.random.default_rng(0))


# ------------------------------------------------------------ counterexample


def test_counterexample_parameter_ranges():
    with pytest.raises(ParameterRange):
        counterexample_scenario(0.2, 1e-5, 11)
    with pytest.raises(ParameterRange):
        counterexample_scenario(0.01, 0.005, 11)
    with pytest.raises(ParameterRange):
        counterexample_scenario(0.01, 1e-5, 10)


def test_counterexample_reference_point():
    bayes, rep = counterexample_scenario(0.01, 1e-5, 11)
    assert rep.checks_pass
    assert rep.c <= 2.0 + 1e-9
    assert rep.reserve_small < 0.01
    hi = 2.0**11
    assert hi - 1e-5 < rep.reserve_large < hi - 5e-6
    assert rep.ratio < 0.05
    assert bayes.kappa == 1
    assert bayes.weights.is_single_slot


def test_counterexample_checks_are_one_list():
    _, rep = counterexample_scenario(0.01, 1e-5, 11)
    assert [name for name, _, _ in rep.checks] == [
        "homogeneity c <= 2", "phi_small(eps1) > 0", "phi_large(2^m - eps2) < 0",
        "phi_large(2^m - eps2/2) > 0", "small reserve below eps1",
        "large reserve inside spike"]
    assert rep.checks_pass and all(ok for _, ok, _ in rep.checks)
    outside = dataclasses.replace(rep, reserve_large=2.0**11 - rep.eps2 / 4.0)
    assert [name for name, ok, _ in outside.checks if not ok] == ["large reserve inside spike"]
    assert not outside.checks_pass


def test_counterexample_ratio_shrinks_with_eps():
    ratios = []
    for eps1 in (0.05, 0.01, 0.002):
        _, rep = counterexample_scenario(eps1, eps1**2 / 10.0, 11)
        assert rep.checks_pass
        ratios.append(rep.ratio)
    assert ratios[0] > ratios[1] > ratios[2]
