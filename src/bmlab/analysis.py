"""Scenario metrics, worst-case bound calculators, and empirical checks.

Everything here compares simulation output against closed-form
guarantees: homogeneity and expressiveness feed the bound formulas, the
empirical price-of-anarchy and revenue ratios come from enumerated or
sampled play, and `counterexample_scenario` builds the two-keyword
instance whose revenue-to-welfare ratio can be driven arbitrarily close
to zero when the bidder can only afford one keyword.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DomainError,
    ParameterRange,
    UnboundedSupport,
    ValidationError,
)
from .expressiveness import kl_expressiveness
from .market import (
    BayesScenario,
    BipartiteGraph,
    MatchingPolicy,
    QueryDistribution,
    SlotWeights,
    optimal_welfare,
    optimal_welfare_batch,
)
from .mechanisms import pbm_expected_revenue_batch
from .reserves import (
    myerson_reserve,
    plateau_then_spike_density,
    ramp_then_plateau_density,
    virtual_value,
)

# ------------------------------------------------------------- homogeneity


def homogeneity(scenario) -> float:
    """Largest value ratio inside any keyword neighborhood.

    c = max over keywords s, advertisers i, ordered pairs (q1, q2) in
    N(s)^2 with v_i(q2) > 0 of v_i(q1) / v_i(q2).  A positive and a zero
    value inside one neighborhood makes this infinite; the non-finite
    value is reported as is.  The one-profile case of homogeneity_batch.
    """
    return float(homogeneity_batch(scenario, scenario.value_matrix[None])[0])


def homogeneity_batch(market, values) -> np.ndarray:
    """homogeneity of every profile in an (n, |A|, |Q|) value tensor."""
    col = {q: j for j, q in enumerate(market.graph.queries)}
    c = np.ones(len(values))
    for s in market.graph.keywords:
        nbr = values[:, :, [col[q] for q in market.graph.keyword_neighbors(s)]]
        pos = nbr > 0.0
        ratio = (nbr.max(axis=2, initial=0.0)
                 / np.where(pos, nbr, np.inf).min(axis=2, initial=np.inf))
        ratio = np.where(pos.any(axis=2), np.where(pos.all(axis=2), ratio, np.inf), 1.0)
        c = np.maximum(c, ratio.max(axis=1, initial=1.0))
    return c


def expected_homogeneity(bayes: BayesScenario) -> float:
    """Bayesian analogue: support supremum against mean, same pairs.

    c = max over keywords, advertisers, pairs (q1, q2) of
    sup(support of v_i(q1)) / E[v_i(q2)].  Point masses reduce this to
    plain homogeneity.  An infinite support supremum admits no finite c.
    """
    c = 1.0
    for s in bayes.graph.keywords:
        nbrs = bayes.graph.keyword_neighbors(s)
        for i in bayes.advertisers:
            sups, means = [], []
            for q in nbrs:
                dist = bayes.dist(i, q)
                if dist is None:
                    sups.append(0.0)
                    means.append(0.0)
                    continue
                hi = dist.support[1]
                if not math.isfinite(hi):
                    raise UnboundedSupport(f"{i!r} on {q!r}")
                sups.append(float(hi))
                means.append(float(dist.mean()))
            if not any(sups):
                continue
            if any(m == 0.0 for m in means):
                return math.inf
            c = max(c, max(sups) / min(means))
    return c


# ------------------------------------------------------------------ bounds

_GSP_LAMBDA = 1.0 - 1.0 / math.e
_GSP_MU = 1.0
_POA_TOL = 1e-9   # float slack when a PoA ratio is compared with its bound


@dataclass(frozen=True)
class BoundSet:
    """Inputs and the six worst-case guarantees they imply.

    PoA bounds cap optimal-to-equilibrium welfare; revenue fractions
    floor reserve revenue against optimal welfare.
    """
    c: float
    beta: float
    eta: float
    pure_poa_single: float
    pure_poa_multi: float
    bayes_poa_single: float
    bayes_poa_multi: float
    revenue_fraction_single: float
    revenue_fraction_multi: float


def bound_calculators(c, beta, eta=1.0) -> BoundSet:
    """Evaluate every bound formula after validating the inputs.

    The multi-slot Bayes bound uses the GSP semi-smoothness pair
    (1 - 1/e, 1); the single-slot Bayes bound uses (1, 1).
    """
    checks = [
        (math.isfinite(c) and c >= 1.0, f"homogeneity c must be finite and >= 1, got {c}"),
        (0.0 < beta <= 1.0, f"beta must lie in (0, 1], got {beta}"),
        (math.isfinite(eta) and eta >= 1.0, f"eta must be >= 1, got {eta}"),
    ]
    for ok, msg in checks:
        if not ok:
            raise DomainError(msg)
    ce_sq = (c * math.e) ** 2
    return BoundSet(
        c=c, beta=beta, eta=eta,
        pure_poa_single=c / beta,
        pure_poa_multi=(1.0 + beta) / beta * c,
        bayes_poa_single=(1.0 + beta) / beta * c,
        bayes_poa_multi=c * (beta * _GSP_MU + 1.0) / (beta * _GSP_LAMBDA),
        revenue_fraction_single=beta / (1.0 + beta) / (eta * ce_sq),
        revenue_fraction_multi=beta / (1.0 + beta) / (2.0 * eta * ce_sq),
    )


# ------------------------------------------------------------ ratio reports


@dataclass(frozen=True)
class RatioReport:
    """One empirical-versus-theoretical comparison row."""
    scenario: str
    metric: str
    optimal: float
    equilibrium: float
    empirical: float
    bound: float
    satisfied: bool
    notes: str = ""


RATIO_CSV_HEADER = ("scenario", "metric", "empirical", "bound",
                    "satisfied", "notes")


def ratio_csv(reports) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(RATIO_CSV_HEADER)
    for r in reports:
        writer.writerow([r.scenario, r.metric, f"{r.empirical:.9g}",
                         f"{r.bound:.9g}", str(r.satisfied).lower(), r.notes])
    return buf.getvalue()


def empirical_poa(scenario, equilibria, grid, label="scenario") -> RatioReport:
    """Worst-found equilibrium welfare against the applicable PoA bound.

    equilibria is enumerate_pure_nash's result; only its count and the
    minimum of its welfare array are read, so no report is built.  The
    bound slackens by one grid step of welfare, (max click weight) times
    delta, since grid equilibria can sit that far from continuous ones.
    A non-finite homogeneity makes the comparison vacuous and is called
    out in the notes instead of being clamped.
    """
    if not len(equilibria):
        raise ValidationError("empirical PoA needs at least one equilibrium")
    worst = float(equilibria.welfare.min())
    opt = optimal_welfare(scenario)
    c = homogeneity(scenario)
    beta = kl_expressiveness(scenario)
    single = scenario.weights.is_single_slot
    eps_cont = scenario.weights.weight(0) * grid.delta
    notes = ["exhaustive", f"n_equilibria={len(equilibria)}", f"beta={beta:.6g}",
             f"grid_slack={eps_cont:.6g}"]
    if not math.isfinite(c):
        bound = math.inf
        notes.append("homogeneity non-finite; bound vacuous")
    else:
        bounds = bound_calculators(c, beta)
        bound = bounds.pure_poa_single if single else bounds.pure_poa_multi
        notes.append(f"c={c:.6g}")
    if worst <= 0.0:
        return RatioReport(label, "pure_poa", opt, worst, math.inf, bound,
                           False, "; ".join(["zero-welfare equilibrium"] + notes))
    ratio = opt / worst
    satisfied = ratio <= bound + eps_cont + _POA_TOL
    return RatioReport(label, "pure_poa", opt, worst, ratio, bound,
                       satisfied, "; ".join(notes))


@dataclass(frozen=True)
class RevenueStats:
    """Monte-Carlo summary of one bidding policy under reserves."""
    revenue: float
    revenue_se: float
    optimal: float
    optimal_se: float
    zero_reserve_revenue: float
    n_samples: int


_MC_CHUNK = 1024   # profiles drawn, bid and priced at a time


def revenue_welfare_stats(bayes: BayesScenario, strategy, reserves,
                          n_samples, rng) -> RevenueStats:
    """Sample types, play `strategy`, and average revenue and OPT welfare.

    strategy maps an (n, |A|, |Q|) value tensor to an (n, |A|, |S|) bid
    tensor; the same draws price the zero-reserve baseline for
    comparison.  Profiles are drawn, bid and priced in chunks of tensors;
    every per-sample value, and so every mean and standard error, is the
    float a one-profile-at-a-time loop gives.
    """
    if n_samples < 2:
        raise ValidationError("need at least 2 samples for a standard error")
    revs = np.empty(n_samples)
    opts = np.empty(n_samples)
    revs0 = np.empty(n_samples)
    for start in range(0, n_samples, _MC_CHUNK):
        rows = slice(start, min(start + _MC_CHUNK, n_samples))
        values = bayes.sample_values(rng, rows.stop - start)
        bids = strategy(values)
        revs[rows] = pbm_expected_revenue_batch(bayes, bids, reserves)
        revs0[rows] = pbm_expected_revenue_batch(bayes, bids)
        opts[rows] = optimal_welfare_batch(bayes, values)
    return RevenueStats(
        revenue=float(revs.mean()),
        revenue_se=float(revs.std(ddof=1) / math.sqrt(n_samples)),
        optimal=float(opts.mean()),
        optimal_se=float(opts.std(ddof=1) / math.sqrt(n_samples)),
        zero_reserve_revenue=float(revs0.mean()),
        n_samples=n_samples,
    )


def empirical_revenue_ratio(bayes: BayesScenario, strategy, reserves,
                            c, beta, eta, n_samples, rng,
                            label="scenario") -> RatioReport:
    """Revenue fraction of optimal welfare against its theoretical floor.

    `satisfied` allows three standard errors of Monte-Carlo slack in the
    fraction.  The zero-reserve baseline revenue rides along in notes.
    """
    stats = revenue_welfare_stats(bayes, strategy, reserves, n_samples, rng)
    bounds = bound_calculators(c, beta, eta=eta)
    single = bayes.weights.is_single_slot
    bound = (bounds.revenue_fraction_single if single
             else bounds.revenue_fraction_multi)
    if stats.optimal <= 0.0:
        fraction = math.inf
        fraction_se = 0.0
    else:
        fraction = stats.revenue / stats.optimal
        # first-order error propagation for the ratio of two means
        fraction_se = math.hypot(stats.revenue_se / stats.optimal,
                                 stats.revenue * stats.optimal_se
                                 / stats.optimal**2)
    satisfied = fraction + 3.0 * fraction_se >= bound
    notes = (f"revenue={stats.revenue:.6g}±{stats.revenue_se:.2g}; "
             f"optimal={stats.optimal:.6g}±{stats.optimal_se:.2g}; "
             f"zero_reserve_revenue={stats.zero_reserve_revenue:.6g}; "
             f"n={stats.n_samples}")
    return RatioReport(label, "revenue_fraction", stats.optimal,
                       stats.revenue, fraction, bound, satisfied, notes)


# ------------------------------------------------- vanishing-revenue instance


@dataclass(frozen=True)
class CounterexampleReport:
    """Measured quantities of the vanishing-revenue instance."""
    eps1: float
    eps2: float
    m_exp: int
    c: float
    reserve_small: float
    reserve_large: float
    phi_small_at_eps: float
    phi_large_below: float
    phi_large_above: float
    revenue: float
    optimal: float
    ratio: float

    @property
    def checks(self) -> list:
        """The instance's defining inequalities as (name, ok, detail) rows."""
        hi = 2.0 ** self.m_exp
        return [
            ("homogeneity c <= 2", self.c <= 2.0 + 1e-9, f"c = {self.c:.6g}"),
            ("phi_small(eps1) > 0", self.phi_small_at_eps > 0.0,
             f"phi = {self.phi_small_at_eps:.6g}"),
            ("phi_large(2^m - eps2) < 0", self.phi_large_below < 0.0,
             f"phi = {self.phi_large_below:.6g}"),
            ("phi_large(2^m - eps2/2) > 0", self.phi_large_above > 0.0,
             f"phi = {self.phi_large_above:.6g}"),
            ("small reserve below eps1", self.reserve_small < self.eps1,
             f"r = {self.reserve_small:.6g}"),
            ("large reserve inside spike",
             hi - self.eps2 < self.reserve_large < hi - self.eps2 / 2.0,
             f"r = {self.reserve_large:.9g}"),
        ]

    @property
    def checks_pass(self) -> bool:
        return all(ok for _, ok, _ in self.checks)


def counterexample_scenario(eps1, eps2, m_exp):
    """Two queries, two keywords, one bidder who can afford only one.

    One query's values sit near zero (tiny reserve), the other's near
    2^m (huge reserve that usually goes unmet).  With kappa = 1 the
    dominant choice is the tiny keyword whenever its value clears
    eps1 + eps2, so revenue collapses while optimal welfare keeps the
    2^m query's full mass: the ratio tends to zero as eps1 shrinks.

    Returns (bayes scenario, report).  The report's `checks_pass`
    certifies the instance's defining inequalities numerically.
    """
    if not (0.0 < eps1 < 0.1):
        raise ParameterRange(f"eps1 must lie in (0, 0.1), got {eps1}")
    if not (0.0 < eps2 < eps1 / 10.0):
        raise ParameterRange(f"eps2 must lie in (0, eps1/10), got {eps2}")
    if int(m_exp) != m_exp or m_exp <= 10:
        raise ParameterRange(f"m_exp must be an integer > 10, got {m_exp}")
    m_exp = int(m_exp)

    t1 = ramp_then_plateau_density(eps1)
    t2 = plateau_then_spike_density(eps2, m_exp)
    graph = BipartiteGraph(["q1", "q2"], ["s1", "s2"],
                           [("q1", "s1"), ("q2", "s2")])
    bayes = BayesScenario(graph,
                          QueryDistribution({"q1": 0.5, "q2": 0.5}),
                          MatchingPolicy({"q1": {"s1": 1.0},
                                          "q2": {"s2": 1.0}}),
                          SlotWeights([1.0]), 1,
                          {"a": {"q1": t1, "q2": t2}})

    r1 = myerson_reserve(t1)
    r2 = myerson_reserve(t2)
    hi = 2.0 ** m_exp
    # dominant keyword choice: s1 pays at most eps1 for the low query's
    # mass, s2 can gain at most eps2, so s1 wins once v1 > eps1 + eps2
    threshold = eps1 + eps2
    sell_low = t1.sf(threshold)
    revenue = 0.5 * (sell_low * r1 + (1.0 - sell_low) * t2.sf(r2) * r2)
    optimal = 0.5 * (t1.mean() + t2.mean())
    report = CounterexampleReport(
        eps1=eps1, eps2=eps2, m_exp=m_exp,
        c=expected_homogeneity(bayes),
        reserve_small=r1, reserve_large=r2,
        phi_small_at_eps=virtual_value(t1, eps1),
        phi_large_below=virtual_value(t2, hi - eps2),
        phi_large_above=virtual_value(t2, hi - eps2 / 2.0),
        revenue=revenue, optimal=optimal, ratio=revenue / optimal,
    )
    return bayes, report
