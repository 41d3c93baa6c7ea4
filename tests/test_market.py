import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bmlab.errors import (
    EmptyNeighborhood,
    MassNotOne,
    NonMonotoneWeights,
    NoPositiveAdvertiser,
    SupportMismatch,
    ValidationError,
)
from bmlab.market import (
    BayesScenario,
    BipartiteGraph,
    MatchingPolicy,
    QueryDistribution,
    SlotWeights,
    ValuationProfile,
    build_scenario,
    keyword_mass,
    keyword_value,
    optimal_welfare,
    scenario_from_json,
)

from helpers import (brute_force_optimal_welfare, probing_neighbors, random_scenario,
                     simple_scenario)


def test_graph_neighborhoods_and_degree():
    g = BipartiteGraph(["q1", "q2"], ["s1", "s2"],
                       [("q1", "s1"), ("q1", "s2"), ("q2", "s2")])
    assert g.query_neighbors("q1") == ("s1", "s2")
    assert g.keyword_neighbors("s2") == ("q1", "q2")
    assert g.max_degree() == 2


def test_graph_rejects_isolated_vertex():
    with pytest.raises(EmptyNeighborhood):
        BipartiteGraph(["q1", "q2"], ["s1"], [("q1", "s1")])
    # non-strict mode tolerates it (corpus subgraphs)
    g = BipartiteGraph(["q1", "q2"], ["s1"], [("q1", "s1")], strict=False)
    assert g.query_neighbors("q2") == ()


def test_graph_rejects_unknown_edge_endpoint():
    with pytest.raises(ValidationError):
        BipartiteGraph(["q1"], ["s1"], [("q1", "sX")])


def test_graph_build_matches_probing_oracle():
    """Neighbor lists from the edges equal the all-pairs probe, in declared
    order, with duplicate edges, undeclared-order edge lists, isolated
    vertices and a string that is both a query and a keyword."""
    rng = np.random.default_rng(29)
    for _ in range(200):
        n = int(rng.integers(1, 9))
        queries = [f"t{j}" for j in rng.permutation(n)[:int(rng.integers(1, n + 1))]]
        keywords = [f"t{j}" for j in rng.permutation(n)[:int(rng.integers(1, n + 1))]]
        queries += queries[:int(rng.integers(0, 2))]  # a repeated declaration
        edges = [(queries[int(rng.integers(len(queries)))],
                  keywords[int(rng.integers(len(keywords)))])
                 for _ in range(int(rng.integers(0, 3 * n)))]
        edges += edges[:int(rng.integers(0, len(edges) + 1))]
        g = BipartiteGraph(queries, keywords, edges, strict=False)
        q_nbrs, s_nbrs = probing_neighbors(queries, keywords, edges)
        assert {q: g.query_neighbors(q) for q in g.queries} == q_nbrs
        assert {s: g.keyword_neighbors(s) for s in g.keywords} == s_nbrs
        assert g.edges == frozenset(edges)


def test_query_distribution_must_sum_to_one():
    with pytest.raises(MassNotOne):
        QueryDistribution({"q1": 0.5, "q2": 0.5 + 1e-9})
    QueryDistribution({"q1": 0.5, "q2": 0.5 + 1e-13})  # inside tolerance


def test_matching_policy_mass_and_support():
    pi = MatchingPolicy({"q1": {"s1": 0.25, "s2": 0.75}})
    assert pi.mass("q1", "s1") == 0.25
    assert pi.mass("q1", "sX") == 0.0
    with pytest.raises(MassNotOne):
        MatchingPolicy({"q1": {"s1": 0.5}})


def test_slot_weights_monotone_and_padded():
    w = SlotWeights([1.0, 0.4])
    assert w.weight(0) == 1.0
    assert w.weight(5) == 0.0
    assert not w.is_single_slot
    assert SlotWeights([1.0, 0.0]).is_single_slot
    with pytest.raises(NonMonotoneWeights):
        SlotWeights([0.5, 0.8])
    with pytest.raises(ValidationError):
        SlotWeights([1.2])


def test_build_scenario_cross_checks():
    g = BipartiteGraph(["q1"], ["s1"], [("q1", "s1")])
    p = QueryDistribution({"q1": 1.0})
    w = SlotWeights([1.0])
    good = ValuationProfile({"a1": {"q1": 2.0}})
    with pytest.raises(SupportMismatch):
        build_scenario(g, p, MatchingPolicy({"q1": {"sX": 1.0}}), w, good, 1)
    with pytest.raises(NoPositiveAdvertiser):
        build_scenario(g, p, MatchingPolicy({"q1": {"s1": 1.0}}), w,
                       ValuationProfile({"a1": {"q1": 0.0}}), 1)
    sc = build_scenario(g, p, MatchingPolicy({"q1": {"s1": 1.0}}), w, good, 1)
    assert sc.advertisers == ("a1",)


def test_keyword_value_weighted_average():
    # N(s2) = {q1, q2}, uniform P, pi masses 0.2 / 0.8, values 2 / 4
    sc = simple_scenario(
        {"a1": {"q1": 2.0, "q2": 4.0}},
        queries=["q1", "q2"], keywords=["s1", "s2"],
        edges=[("q1", "s1"), ("q1", "s2"), ("q2", "s2")],
        pi={"q1": {"s1": 0.8, "s2": 0.2}, "q2": {"s2": 1.0}},
    )
    # weights: q1 contributes 0.5*0.2, q2 contributes 0.5*1.0
    expected = (0.1 * 2.0 + 0.5 * 4.0) / 0.6
    assert keyword_value(sc, "a1", "s2") == pytest.approx(expected, rel=1e-12)


def test_keyword_value_stated_example():
    # equal-weight traffic, pi masses 0.2 and 0.8 on the shared keyword
    sc = simple_scenario(
        {"a1": {"q1": 2.0, "q2": 4.0}},
        queries=["q1", "q2"], keywords=["s1", "s2", "s3"],
        edges=[("q1", "s1"), ("q1", "s3"), ("q2", "s2"), ("q2", "s3")],
        pi={"q1": {"s1": 0.8, "s3": 0.2}, "q2": {"s2": 0.2, "s3": 0.8}},
    )
    assert keyword_value(sc, "a1", "s3") == pytest.approx(3.6, abs=1e-12)


def test_keyword_value_single_query_neighborhood_is_exact():
    sc = simple_scenario({"a1": {"q1": 3.25, "q2": 1.0}})
    assert keyword_value(sc, "a1", "s1") == pytest.approx(3.25, abs=0)


@given(scale=st.floats(min_value=0.1, max_value=10.0), seed=st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_keyword_value_linear_in_valuations(scale, seed):
    """Property: keyword_value scales linearly with the valuation profile."""
    rng = np.random.default_rng(seed)
    sc = random_scenario(rng, all_positive=True)
    i = sc.advertisers[0]
    scaled = {a: {q: v * scale for q, v in sc.valuations.row(a).items()}
              for a in sc.advertisers}
    sc2 = build_scenario(sc.graph, sc.p, sc.pi, sc.weights,
                         ValuationProfile(scaled), sc.kappa)
    for s in sc.graph.keywords:
        assert keyword_value(sc2, i, s) == pytest.approx(
            scale * keyword_value(sc, i, s), rel=1e-9)


@given(seed=st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_keyword_value_between_min_and_max_neighborhood_value(seed):
    """Property: a weighted average stays inside the value range."""
    rng = np.random.default_rng(seed)
    sc = random_scenario(rng)
    for i in sc.advertisers:
        for s in sc.graph.keywords:
            vals = [sc.valuations.value(i, q) for q in sc.graph.keyword_neighbors(s)]
            v = keyword_value(sc, i, s)
            assert min(vals) - 1e-12 <= v <= max(vals) + 1e-12


def test_keyword_mass_sums_to_one_over_keywords():
    rng = np.random.default_rng(7)
    sc = random_scenario(rng)
    total = sum(keyword_mass(sc, s) for s in sc.graph.keywords)
    assert total == pytest.approx(1.0, abs=1e-12)


def test_positive_keywords():
    sc = simple_scenario(
        {"a1": {"q1": 1.0}, "a2": {"q2": 2.0}},
        queries=["q1", "q2"], keywords=["s1", "s2"],
        edges=[("q1", "s1"), ("q2", "s2")],
    )
    assert sc.kw_positive["a1"] == frozenset({"s1"})
    assert sc.kw_positive["a2"] == frozenset({"s2"})


def test_optimal_welfare_two_slots():
    sc = simple_scenario({"a1": {"q1": 5.0}, "a2": {"q1": 3.0}}, weights=(1.0, 0.5))
    assert optimal_welfare(sc) == pytest.approx(6.5, abs=1e-12)


def test_optimal_welfare_single_slot_two_queries():
    sc = simple_scenario({"a1": {"q1": 4.0, "q2": 1.0}, "a2": {"q2": 2.0}})
    assert optimal_welfare(sc) == pytest.approx(3.0, abs=1e-12)


def test_optimal_welfare_matches_brute_force():
    rng = np.random.default_rng(42)
    for _ in range(60):
        weights = (1.0,) if rng.random() < 0.5 else (1.0, 0.5)
        sc = random_scenario(rng, max_adv=4, max_q=3, weights=weights)
        assert optimal_welfare(sc) == pytest.approx(
            brute_force_optimal_welfare(sc), rel=1e-12, abs=1e-12)


def _scenario_obj():
    return {
        "queries": ["q1", "q2"],
        "keywords": ["s1", "s2"],
        "edges": [["q1", "s1"], ["q1", "s2"], ["q2", "s2"]],
        "query_dist": {"q1": 0.6, "q2": 0.4},
        "matching": {"q1": {"s1": 0.5, "s2": 0.5}, "q2": {"s2": 1.0}},
        "slot_weights": [1.0],
        "valuations": {"a1": {"q1": 2.0}, "a2": {"q2": 3.0}},
        "kappa": 1,
    }


def test_scenario_from_json_roundtrip(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(_scenario_obj()))
    sc = scenario_from_json(str(path))
    assert sc.kappa == 1
    assert sc.p.mass("q1") == 0.6


def test_scenario_from_json_rejects_unknown_key():
    obj = _scenario_obj()
    obj["reserve"] = 1.0
    with pytest.raises(ValidationError, match="reserve"):
        scenario_from_json(obj)


def test_scenario_from_json_rejects_missing_key():
    obj = _scenario_obj()
    del obj["matching"]
    with pytest.raises(ValidationError, match="matching"):
        scenario_from_json(obj)


def test_scenario_from_json_malformed_file(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ValidationError, match="malformed"):
        scenario_from_json(str(path))


def test_bayes_scenario_sampling_shapes():
    from bmlab.reserves import Uniform

    g = BipartiteGraph(["q1"], ["s1"], [("q1", "s1")])
    bs = BayesScenario(g, QueryDistribution({"q1": 1.0}),
                       MatchingPolicy({"q1": {"s1": 1.0}}), SlotWeights([1.0]), 1,
                       {"a1": {"q1": Uniform(0.0, 1.0)}})
    rng = np.random.default_rng(0)
    draw = bs.sample_valuations(rng)
    assert 0.0 <= draw["a1"]["q1"] <= 1.0
    sc = bs.to_scenario(draw)
    assert sc.kappa == 1


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_valuation_profile_rejects_non_finite(bad):
    with pytest.raises(ValidationError, match="finite"):
        ValuationProfile({"a1": {"q1": 2.0, "q2": bad}})
