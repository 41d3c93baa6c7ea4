import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bmlab.errors import NoRoot, ValidationError, ZeroDensity
from bmlab.reserves import (
    Empirical,
    Exponential,
    Piece,
    PiecewiseDensity,
    PointMass,
    TruncatedExponential,
    Uniform,
    dist_from_json,
    induced_keyword_distribution,
    mhr_bounded_derivative_check,
    myerson_reserve,
    plateau_then_spike_density,
    ramp_then_plateau_density,
    virtual_value,
)

from helpers import (
    bisection_reserve,
    random_dist,
    random_piecewise,
    scalar_piecewise_cdf,
    scalar_piecewise_pdf,
)

ALL_ANALYTIC = [
    Uniform(0.0, 1.0),
    Uniform(2.0, 4.0),
    Exponential(1.0),
    Exponential(0.25),
    TruncatedExponential(1.0, 3.0),
    ramp_then_plateau_density(0.05),
]


def test_virtual_value_uniform_closed_form():
    d = Uniform(0.0, 1.0)
    for v in (0.1, 0.5, 0.9):
        assert virtual_value(d, v) == pytest.approx(2 * v - 1, abs=1e-12)
    d = Uniform(2.0, 4.0)
    assert virtual_value(d, 3.0) == pytest.approx(2.0, abs=1e-12)


def test_virtual_value_exponential_closed_form():
    d = Exponential(1.0)
    for v in (0.0, 0.7, 2.5):
        assert virtual_value(d, v) == pytest.approx(v - 1.0, abs=1e-12)


def test_virtual_value_outside_support_raises():
    with pytest.raises(ZeroDensity):
        virtual_value(Uniform(2.0, 4.0), 1.0)
    with pytest.raises(ValidationError):
        virtual_value(Empirical([1.0, 2.0]), 1.5)


def test_myerson_reserve_reference_values():
    assert myerson_reserve(Uniform(0.0, 1.0)) == pytest.approx(0.5, abs=1e-9)
    assert myerson_reserve(Exponential(1.0)) == pytest.approx(1.0, abs=1e-9)
    assert myerson_reserve(Uniform(2.0, 4.0)) == pytest.approx(2.0, abs=1e-9)


def test_myerson_reserve_no_root():
    # phi(3) = 2*3 - 4 = 2 > 0 already at the lower end
    with pytest.raises(NoRoot):
        myerson_reserve(Uniform(3.0, 4.0))


@pytest.mark.parametrize("dist", ALL_ANALYTIC, ids=lambda d: d.family + str(d.support))
def test_reserve_root_property(dist):
    """|phi(r)| <= 1e-9 for every density family."""
    r = myerson_reserve(dist)
    assert abs(virtual_value(dist, r)) <= 1e-9


def test_empirical_reserve_argmax():
    d = Empirical([1.0, 2.0, 3.0, 4.0])
    # candidate revenues: 1, 1.5, 1.5, 1 -> argmax at 2.0 (first max)
    assert myerson_reserve(d) == pytest.approx(2.0)
    rng = np.random.default_rng(3)
    d = Empirical(rng.uniform(0, 1, size=20_000))
    assert abs(myerson_reserve(d) - 0.5) < 0.05


def test_point_mass_reserve():
    assert myerson_reserve(PointMass(2.5)) == 2.5


@pytest.mark.parametrize("dist", ALL_ANALYTIC, ids=lambda d: d.family + str(d.support))
def test_cdf_quantile_roundtrip(dist):
    for u in np.linspace(0.01, 0.99, 17):
        x = dist.quantile(u)
        assert dist.cdf(x) == pytest.approx(u, abs=1e-7)


@pytest.mark.parametrize("dist", ALL_ANALYTIC, ids=lambda d: d.family + str(d.support))
def test_mean_matches_numeric_integral(dist):
    hi = dist.grid_hi()
    lo = dist.support[0]
    xs = np.linspace(lo, hi, 200_001)
    numeric = np.trapezoid(xs * dist.pdf(xs), xs)
    assert dist.mean() == pytest.approx(numeric, rel=1e-4)


@pytest.mark.parametrize("dist", ALL_ANALYTIC, ids=lambda d: d.family + str(d.support))
def test_density_integrates_to_one(dist):
    hi = dist.grid_hi()
    lo = dist.support[0]
    xs = np.linspace(lo, hi, 200_001)
    assert np.trapezoid(dist.pdf(xs), xs) == pytest.approx(1.0, abs=1e-4)


def test_mhr_check_uniform():
    rep = mhr_bounded_derivative_check(Uniform(0.0, 1.0), resolution=2001)
    assert rep.mhr_ok
    assert rep.eta == pytest.approx(2.0, rel=1e-6)
    assert rep.min_slope == pytest.approx(2.0, rel=1e-6)
    assert rep.eta <= Uniform(0.0, 1.0).exact_virtual_slope_cap() + 1e-6


def test_mhr_check_exponential():
    rep = mhr_bounded_derivative_check(Exponential(1.0), resolution=4001)
    assert rep.mhr_ok
    assert rep.eta == pytest.approx(1.0, abs=1e-3)


def test_mhr_check_truncated_exponential_exact_cap():
    d = TruncatedExponential(1.0, 2.0)
    rep = mhr_bounded_derivative_check(d, resolution=4001)
    assert rep.mhr_ok
    assert rep.eta <= d.exact_virtual_slope_cap() + 1e-3
    assert rep.eta == pytest.approx(2.0, abs=1e-2)


def test_piece_mass_and_moment_against_quadrature():
    p = Piece(1.0, 3.0, const=0.05, slope=0.1, ramp=0.3, power=4.0)
    xs = np.linspace(1.0, 3.0, 400_001)
    assert p.mass == pytest.approx(np.trapezoid(p.pdf(xs), xs), rel=1e-8)
    assert p.moment() == pytest.approx(np.trapezoid(xs * p.pdf(xs), xs), rel=1e-8)


def test_piecewise_requires_unit_mass_and_contiguity():
    with pytest.raises(ValidationError, match="integrates"):
        PiecewiseDensity([Piece(0.0, 1.0, const=0.5)])
    with pytest.raises(ValidationError, match="contiguous"):
        PiecewiseDensity([Piece(0.0, 0.5, const=1.0), Piece(0.6, 1.1, const=1.0)])


def test_ramp_then_plateau_properties():
    eps = 0.01
    d = ramp_then_plateau_density(eps)
    lo, hi = d.support
    assert lo == 0.0 and hi == pytest.approx(2 * eps - eps * eps)
    # plateau level and the mass split stated in the construction
    assert d.pdf(eps) == pytest.approx(1.0 / eps, rel=1e-12)
    assert d.pdf(1.5 * eps) == pytest.approx(1.0 / eps, rel=1e-12)
    assert d.cdf(eps) == pytest.approx(eps, abs=1e-12)
    # nondecreasing density
    xs = np.linspace(lo, hi, 2001)
    ts = d.pdf(xs)
    assert np.all(np.diff(ts) >= -1e-9)
    # phi at the plateau start: eps - (1 - eps) * eps = eps^2
    assert virtual_value(d, eps) == pytest.approx(eps * eps, rel=1e-9)


def test_ramp_then_plateau_parameter_range():
    with pytest.raises(ValidationError):
        ramp_then_plateau_density(0.75)


def test_plateau_then_spike_properties():
    eps, m = 1e-5, 11
    d = plateau_then_spike_density(eps, m)
    top = 2.0 ** m
    lo, hi = d.support
    assert (lo, hi) == (0.0, top)
    assert d.pdf(top - eps) == pytest.approx(2.0 ** -(m + 1), rel=1e-9)
    assert d.pdf(top - eps / 2) == pytest.approx(2.0 ** -m, rel=1e-9)
    # the final window holds mass 1 - eps
    assert 1.0 - d.cdf(top - eps) == pytest.approx(1.0 - eps, abs=1e-12)
    # nondecreasing
    xs = np.concatenate([np.linspace(0, top - eps, 1001),
                         np.linspace(top - eps, top, 1001)])
    ts = d.pdf(xs)
    assert np.all(np.diff(ts) >= -1e-12)
    # virtual value signs at the stated checkpoints
    assert virtual_value(d, top - eps) < 0.0
    assert virtual_value(d, top - eps / 2) > 0.0


def test_spike_reserve_between_checkpoints():
    eps, m = 1e-5, 11
    d = plateau_then_spike_density(eps, m)
    r = myerson_reserve(d)
    assert 2.0 ** m - eps < r < 2.0 ** m - eps / 2


def test_myerson_stops_at_adjacent_floats(monkeypatch):
    """Bisection that stops once the bracket is two adjacent floats finds
    the reserve the 200-step bisection finds, in fewer evaluations on the
    spike (whose float spacing near 2**m exceeds the 1e-13 width stop)."""
    import bmlab.reserves

    calls = 0

    def counted(dist, v):
        nonlocal calls
        calls += 1
        return virtual_value(dist, v)

    monkeypatch.setattr(bmlab.reserves, "virtual_value", counted)
    spikes = [plateau_then_spike_density(1e-5, m) for m in (11, 20, 32, 35)]
    for dist in ALL_ANALYTIC + [ramp_then_plateau_density(0.01)] + spikes:
        want, oracle_calls = bisection_reserve(dist)
        calls = 0
        assert myerson_reserve(dist) == want
        assert calls <= oracle_calls
    # the last spike's count: 2 ends plus one halving per float bit
    assert (calls, oracle_calls) == (55, 202)


def _points(dist):
    """Support ends, piece breaks and their float neighbours, points
    outside the support and random points inside it."""
    lo, hi = dist.support
    top = dist.grid_hi()
    pts = [lo, hi, top, lo - 1.0, top + 1.0]
    pts += list(getattr(dist, "_breaks", []))
    pts += list(getattr(dist, "samples", []))
    pts = np.array([p for p in pts if math.isfinite(p)])
    near = np.concatenate([np.nextafter(pts, -math.inf), np.nextafter(pts, math.inf)])
    inside = lo + (top - lo) * np.random.default_rng(0).random(50)
    return np.concatenate([pts, near, inside])


def _bits(x):
    return np.asarray(x, dtype=float).tobytes()


def _check_array_is_per_number(dist):
    xs = _points(dist)
    methods = [dist.cdf, dist.sf] + ([dist.pdf] if dist.has_density else [])
    for method in methods:
        each = [method(float(x)) for x in xs]
        assert all(type(y) is float for y in each)
        assert _bits(method(xs)) == _bits(each)
        assert _bits(method(xs.reshape(1, -1))) == _bits(each)
    if dist.has_density:
        xs = xs[dist.pdf(xs) > 0.0]
        each = [virtual_value(dist, float(x)) for x in xs]
        assert all(type(y) is float for y in each)
        assert _bits(virtual_value(dist, xs)) == _bits(each)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       family=st.sampled_from(["uniform", "exponential", "truncated_exponential",
                               "piecewise", "empirical", "point"]))
def test_array_evaluation_is_the_per_number_evaluation(seed, family):
    """pdf, cdf, sf and virtual_value on an array give, bit for bit, what
    each number gives on its own, and a number gives a Python float."""
    _check_array_is_per_number(random_dist(np.random.default_rng(seed), family))


@pytest.mark.parametrize("dist", [ramp_then_plateau_density(0.05),
                                  plateau_then_spike_density(2e-4, 11),
                                  plateau_then_spike_density(1e-5, 35),
                                  random_piecewise(np.random.default_rng(7))],
                         ids=["ramp", "spike-11", "spike-35", "random"])
def test_piecewise_evaluation_matches_numbers_and_the_per_element_oracles(dist):
    _check_array_is_per_number(dist)
    xs = _points(dist)
    assert _bits(dist.pdf(xs)) == _bits(scalar_piecewise_pdf(dist, xs))
    assert _bits(dist.cdf(xs)) == _bits(scalar_piecewise_cdf(dist, xs))


def test_virtual_value_on_an_array_names_a_zero_density_point():
    with pytest.raises(ZeroDensity, match="5.0"):
        virtual_value(Uniform(2.0, 4.0), np.array([3.0, 5.0, 1.0]))


@given(seed=st.integers(0, 100_000))
@settings(max_examples=30, deadline=None)
def test_quantile_sampling_matches_cdf(seed):
    """Property: empirical cdf of samples tracks the analytic cdf."""
    rng = np.random.default_rng(seed)
    d = Uniform(1.0, 2.0)
    xs = d.sample(rng, 4000)
    for q in (1.25, 1.5, 1.75):
        assert abs((xs <= q).mean() - d.cdf(q)) < 0.05


def test_induced_identity_keyword_distribution():
    """Singleton neighborhood: induced distribution reproduces the query
    distribution (KS distance < 0.02 at 1e4 samples)."""
    from bmlab.market import (BayesScenario, BipartiteGraph, MatchingPolicy,
                              QueryDistribution, SlotWeights)

    g = BipartiteGraph(["q1"], ["s1"], [("q1", "s1")])
    bs = BayesScenario(g, QueryDistribution({"q1": 1.0}),
                       MatchingPolicy({"q1": {"s1": 1.0}}), SlotWeights([1.0]), 1,
                       {"a1": {"q1": Uniform(0.0, 1.0)}})
    rng = np.random.default_rng(11)
    emp = induced_keyword_distribution(bs, "s1", 10_000, rng)
    grid = np.linspace(0.0, 1.0, 101)
    ks = np.max(np.abs(emp.cdf(grid) - grid))
    assert ks < 0.02


def test_induced_two_query_average():
    """Two equal-weight uniform queries: induced mean is 0.5 within 3 SE."""
    from bmlab.market import (BayesScenario, BipartiteGraph, MatchingPolicy,
                              QueryDistribution, SlotWeights)

    g = BipartiteGraph(["q1", "q2"], ["s1"], [("q1", "s1"), ("q2", "s1")])
    bs = BayesScenario(g, QueryDistribution({"q1": 0.5, "q2": 0.5}),
                       MatchingPolicy({"q1": {"s1": 1.0}, "q2": {"s1": 1.0}}),
                       SlotWeights([1.0]), 1,
                       {"a1": {"q1": Uniform(0.0, 1.0), "q2": Uniform(0.0, 1.0)}})
    rng = np.random.default_rng(5)
    n = 10_000
    emp = induced_keyword_distribution(bs, "s1", n, rng)
    se = math.sqrt(1.0 / 24.0 / n)  # variance of the average of two uniforms
    assert abs(emp.mean() - 0.5) < 3 * se


def test_induced_point_mass_reduction():
    from bmlab.market import (BayesScenario, BipartiteGraph, MatchingPolicy,
                              QueryDistribution, SlotWeights)

    g = BipartiteGraph(["q1"], ["s1"], [("q1", "s1")])
    bs = BayesScenario(g, QueryDistribution({"q1": 1.0}),
                       MatchingPolicy({"q1": {"s1": 1.0}}), SlotWeights([1.0]), 1,
                       {"a1": {"q1": PointMass(2.0)}})
    rng = np.random.default_rng(0)
    emp = induced_keyword_distribution(bs, "s1", 64, rng)
    assert emp.support == (2.0, 2.0)


def test_dist_json_roundtrip():
    for d in ALL_ANALYTIC + [plateau_then_spike_density(1e-5, 11),
                             Empirical([2.0, 1.0, 2.0]), PointMass(3.0)]:
        d2 = dist_from_json(d.to_json())
        assert d2.family == d.family
        assert d2.support == pytest.approx(d.support)
        assert d2.mean() == pytest.approx(d.mean(), rel=1e-12)
        assert d2.to_json() == d.to_json()


def test_dist_json_rejects_unknown():
    with pytest.raises(ValidationError, match="family"):
        dist_from_json({"family": "pareto", "params": {}})
    with pytest.raises(ValidationError, match="unknown"):
        dist_from_json({"family": "uniform", "params": {"lo": 0, "hi": 1}, "x": 1})


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_empirical_rejects_non_finite_samples(bad):
    with pytest.raises(ValidationError, match="finite"):
        Empirical([1.0, bad, 2.0])


def _two_keyword_bayes_obj():
    uniform = {"family": "uniform", "params": {"lo": 0.0, "hi": 1.0}}
    return {
        "queries": ["q1", "q2"], "keywords": ["s1", "s2"],
        "edges": [["q1", "s1"], ["q2", "s2"]],
        "query_dist": {"q1": 0.5, "q2": 0.5},
        "matching": {"q1": {"s1": 1.0}, "q2": {"s2": 1.0}},
        "slot_weights": [1.0], "kappa": 1,
        "value_dists": {"a": {"q1": uniform, "q2": uniform}},
    }


@pytest.mark.parametrize("key, value", [
    # traffic on a query the graph does not declare
    ("query_dist", {"q1": 0.5, "q2": 0.25, "q3": 0.25}),
    # q1 matched onto s2, which is not one of its neighbors
    ("matching", {"q1": {"s1": 0.5, "s2": 0.5}, "q2": {"s2": 1.0}}),
])
def test_bayes_scenario_gets_the_scenario_cross_checks(key, value):
    from bmlab.reserves import bayes_scenario_from_json

    obj = _two_keyword_bayes_obj()
    assert bayes_scenario_from_json(obj).kappa == 1
    obj[key] = value
    with pytest.raises(ValidationError):
        bayes_scenario_from_json(obj)
