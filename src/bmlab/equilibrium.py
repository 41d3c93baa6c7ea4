"""Equilibrium search and verification on discretized bid spaces.

The continuous strategy space is replaced by a grid: per-keyword menus
{0, delta, 2*delta, ..., cap} with the exact truthful keyword value
spliced in so truthful play is always representable.  Equilibria are
exact with respect to the grid (regret tolerance 1e-9 * max value by
default); off-grid deviations are covered by the continuity slack
(max slot weight) * delta that the analysis layer adds to its bounds.

Utilities are separable across keywords (u_i = sum_s u_i^s), which the
best-response search exploits: each keyword is optimized independently
and the top-kappa keywords by achieved utility are kept.  The pure-Nash
enumerator builds per-advertiser strategy arrays and evaluates all
joint profiles with broadcast numpy tensors, one axis per advertiser.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from .errors import NotSingleSlot, TooLarge, ValidationError
from .market import BayesScenario, Scenario, keyword_value_tensor
from .mechanisms import (
    outranks,
    pbm_expected_welfare,
    require_finite_bid_tensor,
    require_finite_profile,
)

_TRUTHFUL_TOL = 1e-9


# ------------------------------------------------------------------ grids

@dataclass(frozen=True)
class BidGrid:
    """Per-keyword bid menus: {0, delta, ..., cap_s}."""

    delta: float
    caps: Mapping[str, float]

    def __post_init__(self):
        if not self.delta > 0.0:
            raise ValidationError(f"grid delta must be positive, got {self.delta}")
        for s, cap in self.caps.items():
            if cap < 0.0:
                raise ValidationError(f"grid cap for {s!r} must be >= 0, got {cap}")

    def points(self, keyword):
        cap = self.caps[keyword]
        n = int(math.floor(cap / self.delta + 1e-9))
        return tuple(k * self.delta for k in range(n + 1))


def make_grid(scenario: Scenario, delta: float, caps=None) -> BidGrid:
    """Default grid: each keyword capped at the largest keyword value
    any advertiser has for it (bidding above is weakly dominated)."""
    if caps is None:
        caps = {s: max(scenario.kw_values[i][s] for i in scenario.advertisers)
                for s in scenario.graph.keywords}
    return BidGrid(delta=float(delta), caps=dict(caps))


def bid_menu(scenario: Scenario, grid: BidGrid, advertiser, keyword,
             conservative=False, include_truthful=True):
    """Sorted bid menu for one (advertiser, keyword) pair.

    conservative restricts to bids at most the keyword value; the exact
    truthful value is spliced in (deduplicated) unless disabled.
    """
    v = scenario.kw_values[advertiser][keyword]
    pts = [b for b in grid.points(keyword) if not conservative or b <= v + 1e-12]
    if include_truthful:
        pts.append(v)
    menu = sorted(set(pts))
    if not menu or menu[0] > 0.0:
        menu.insert(0, 0.0)
    return tuple(menu)


# ----------------------------------------------------- per-keyword utility

def _opponent_bids(bids, advertiser, keywords):
    """{keyword: [(j, bid), ...]}: the opponents' positive bids on each of
    the keywords, in profile order, from one pass over the profile.
    Callers check the profile for NaN and infinite bids first."""
    out = {s: [] for s in keywords}
    for j, row in bids.items():
        if j != advertiser:
            for s, b in row.items():
                if b > 0.0 and s in out:
                    out[s].append((j, b))
    return out


def _slot_utility(own_bid, advertiser, opponents, weights, mass, value):
    """u_i^s for one bid against fixed positive opponent bids."""
    if own_bid <= 0.0 or weights.weight(0) <= 0.0:
        return 0.0
    rank, price = 0, 0.0       # price: the highest bid ranked below own_bid
    for j, b in opponents:
        if outranks(b, j, own_bid, advertiser):
            rank += 1
            if weights.weight(rank) <= 0.0:      # weights never increase
                return 0.0
        elif b > price:
            price = b
    return mass * weights.weight(rank) * (value - price)


def _select_keywords(menus, utility, kappa):
    """Best-response selection: on each keyword's sorted menu the lowest
    bid of maximal utility(s, b) (bid 0 when nothing gains), keywords
    ranked by (-utility, keyword).  Returns the ranked (u, s, b) list
    and its top-kappa entries with positive utility."""
    ranked = []
    for s, menu in menus.items():
        best_u, best_b = 0.0, 0.0
        for b in menu:
            u = utility(s, b)
            if u > best_u:           # strict: keeps the lowest maximizing bid
                best_u, best_b = u, b
        ranked.append((best_u, s, best_b))
    ranked.sort(key=lambda usb: (-usb[0], usb[1]))
    return ranked, [usb for usb in ranked[:kappa] if usb[0] > 0.0]


# ------------------------------------------------------------ best response

def best_response(scenario: Scenario, bids, advertiser, grid: BidGrid,
                  conservative=False, include_truthful=True,
                  max_keywords=20, max_kappa=4):
    """Exact best response of one advertiser on the grid.

    Searches every keyword independently (utility separability), keeps
    the top-kappa keywords by achieved utility, and among equally good
    bids prefers the lowest, then the lexicographically first keyword.
    Returns (bid row, total utility).
    """
    pool = sorted(scenario.kw_positive[advertiser])
    if len(pool) > max_keywords:
        raise TooLarge(f"{len(pool)} candidate keywords exceeds the "
                       f"best-response cap {max_keywords}")
    if scenario.kappa > max_kappa:
        raise TooLarge(f"kappa = {scenario.kappa} exceeds the best-response "
                       f"cap {max_kappa}")
    require_finite_profile(bids)      # a NaN bid would silently never outrank
    values = scenario.kw_values[advertiser]
    opponents = _opponent_bids(bids, advertiser, pool)
    menus = {s: bid_menu(scenario, grid, advertiser, s, conservative, include_truthful)
             for s in pool}
    _, kept = _select_keywords(menus, lambda s, b: _slot_utility(
        b, advertiser, opponents[s], scenario.weights, scenario.kw_masses[s], values[s]),
        scenario.kappa)
    return {s: b for _, s, b in kept}, sum(u for u, _, _ in kept)


def _profile_utility(scenario, bids, advertiser):
    """Current utility via the same per-keyword evaluation used by the
    search (exact, but cheaper than the integral form).  The profile is
    the one best_response has just checked."""
    total = 0.0
    row = bids.get(advertiser, {})
    opponents = _opponent_bids(bids, advertiser, row)
    for s, b in row.items():
        if b <= 0.0:
            continue
        total += _slot_utility(b, advertiser, opponents[s],
                               scenario.weights, scenario.kw_masses[s],
                               scenario.kw_values[advertiser][s])
    return total


def default_epsilon(scenario: Scenario) -> float:
    """Float-tolerance regret threshold: 1e-9 times the largest value."""
    top = max((scenario.valuations.value(i, q)
               for i in scenario.advertisers for q in scenario.graph.queries),
              default=1.0)
    return 1e-9 * max(top, 1.0)


@dataclass(frozen=True)
class EquilibriumReport:
    profile: dict
    regrets: dict
    converged: bool
    iterations: int
    epsilon: float
    welfare: float | None = None


def verify_epsilon_nash(scenario: Scenario, bids, grid: BidGrid,
                        conservative=False, include_truthful=True) -> dict:
    """Per-advertiser regret of a profile against grid deviations."""
    regrets = {}
    for i in scenario.advertisers:
        _, best = best_response(scenario, bids, i, grid, conservative,
                                include_truthful)
        regrets[i] = max(0.0, best - _profile_utility(scenario, bids, i))
    return regrets


def best_response_dynamics(scenario: Scenario, initial, grid: BidGrid,
                           epsilon=None, max_iters=50, conservative=False,
                           include_truthful=True) -> EquilibriumReport:
    """Round-robin best responses until max regret <= epsilon or the
    iteration cap; non-convergence is a report state, not an error."""
    eps = default_epsilon(scenario) if epsilon is None else epsilon
    profile = {i: dict(initial.get(i, {})) for i in scenario.advertisers}
    regrets = verify_epsilon_nash(scenario, profile, grid, conservative,
                                  include_truthful)
    converged = False
    iterations = 0
    for it in range(1, max_iters + 1):
        iterations = it
        if max(regrets.values(), default=0.0) <= eps:
            converged = True
            break
        for i in scenario.advertisers:
            row, _ = best_response(scenario, profile, i, grid, conservative,
                                   include_truthful)
            profile[i] = row
        regrets = verify_epsilon_nash(scenario, profile, grid, conservative,
                                      include_truthful)
    else:
        converged = max_iters > 0 and max(regrets.values(), default=0.0) <= eps
    return EquilibriumReport(profile=profile, regrets=regrets,
                             converged=converged, iterations=iterations,
                             epsilon=eps,
                             welfare=pbm_expected_welfare(scenario, profile))


# --------------------------------------------------------- Nash enumeration

def _count_rows(sizes, kappa):
    """Number of bid rows with at most kappa positive entries, where
    keyword j offers sizes[j] positive bid levels: the truncated
    elementary-symmetric sum, computed exactly by DP."""
    coeffs = [1]
    for m in sizes:
        new = coeffs + [0] if len(coeffs) <= kappa else coeffs
        for k in range(len(new) - 1, 0, -1):
            new[k] = (coeffs[k] if k < len(coeffs) else 0) + m * coeffs[k - 1]
        coeffs = new
    return sum(coeffs)


def strategy_rows(scenario, grid, advertiser, conservative=False,
                  include_truthful=True, max_rows=200_000):
    """All feasible bid rows of one advertiser over their positive
    keywords (at most kappa positive bids), as (keyword list, array).

    Rows are generated by keyword subset then menu product, so only
    feasible rows are ever materialized.
    """
    pool = sorted(scenario.kw_positive[advertiser])
    menus = [bid_menu(scenario, grid, advertiser, s, conservative,
                      include_truthful) for s in pool]
    positive = [m[1:] for m in menus]      # menus always start at 0.0
    n_rows = _count_rows([len(p) for p in positive], scenario.kappa)
    if n_rows > max_rows:
        raise TooLarge(f"advertiser {advertiser!r} has {n_rows} grid rows "
                       f"(cap {max_rows})")
    K = len(pool)
    rows = np.zeros((n_rows, K))
    r = 0
    for size in range(0, min(scenario.kappa, K) + 1):
        for subset in itertools.combinations(range(K), size):
            for combo in itertools.product(*(positive[j] for j in subset)):
                for j, b in zip(subset, combo):
                    rows[r, j] = b
                r += 1
    assert r == n_rows
    return pool, rows


def estimate_joint_size(scenario, grid, conservative=False,
                        include_truthful=True) -> int:
    """Exact number of joint grid profiles the enumerator would scan."""
    joint = 1
    for i in scenario.advertisers:
        pool = sorted(scenario.kw_positive[i])
        sizes = [len(bid_menu(scenario, grid, i, s, conservative,
                              include_truthful)) - 1 for s in pool]
        joint *= _count_rows(sizes, scenario.kappa)
    return joint


def enumerate_pure_nash(scenario: Scenario, grid: BidGrid, epsilon=None,
                        conservative=False, winner_truthful=False,
                        include_truthful=True,
                        max_joint=10_000_000) -> list[EquilibriumReport]:
    """Exhaustive pure-Nash enumeration over the joint grid.

    Strategy spaces are restricted to each advertiser's positive
    keywords: by utility separability a deviation onto a zero-value
    keyword never strictly gains, so the Nash set over the restricted
    space certifies the Nash condition over the full space.

    winner_truthful keeps only equilibria in which every slot winner
    bids exactly their keyword value on the winning keyword.  Reports
    are ordered by joint row-major strategy index; each carries exact
    regret and expected welfare.
    """
    eps = default_epsilon(scenario) if epsilon is None else epsilon
    advs = scenario.advertisers
    n = len(advs)
    joint = estimate_joint_size(scenario, grid, conservative,
                                include_truthful)
    if joint > max_joint:
        raise TooLarge(f"joint strategy space has {joint} profiles "
                       f"(cap {max_joint})")
    pools, arrays = [], []
    for i in advs:
        pool, rows = strategy_rows(scenario, grid, i, conservative,
                                   include_truthful, max_rows=max_joint)
        pools.append(pool)
        arrays.append(rows)

    w_padded = np.zeros(n + 1)
    for k in range(n + 1):
        w_padded[k] = scenario.weights.weight(k)

    def axis_view(vec, axis):
        shape = [1] * n
        shape[axis] = vec.shape[0]
        return vec.reshape(shape)

    full_shape = tuple(rows.shape[0] for rows in arrays)
    utilities = [np.zeros(full_shape) for _ in advs]
    welfare = np.zeros(full_shape)
    truthful_violation = np.zeros(full_shape, dtype=bool)

    for s in scenario.graph.keywords:
        mass = scenario.kw_masses[s]
        participants = [a for a, pool in enumerate(pools) if s in pool]
        if not participants:
            continue
        cols = {a: axis_view(arrays[a][:, pools[a].index(s)], a)
                for a in participants}
        vals = {a: scenario.kw_values[advs[a]][s] for a in participants}
        for a in participants:
            c_a = cols[a]
            rank = np.zeros((1,) * n, dtype=np.int64)
            price = np.zeros((1,) * n)
            for b in participants:
                if b == a:
                    continue
                c_b = cols[b]
                above = outranks(c_b, b, c_a, a)
                rank = rank + above
                price = np.maximum(price, np.where(~above, c_b, 0.0))
            slot_w = w_padded[np.minimum(rank, n)]
            active = (c_a > 0.0) & (slot_w > 0.0)
            util = np.where(active, mass * slot_w * (vals[a] - price), 0.0)
            np.add(utilities[a], util, out=utilities[a])
            np.add(welfare, np.where(active, mass * slot_w * vals[a], 0.0),
                   out=welfare)
            if winner_truthful:
                bad = active & (np.abs(c_a - vals[a]) > _TRUTHFUL_TOL)
                truthful_violation |= bad

    mask = np.ones(full_shape, dtype=bool)
    best = []
    for a in range(n):
        m = utilities[a].max(axis=a, keepdims=True)
        best.append(m)
        mask &= utilities[a] >= m - eps
    if winner_truthful:
        mask &= ~truthful_violation

    reports = []
    for idx in np.argwhere(mask):
        profile = {}
        regrets = {}
        for a, i in enumerate(advs):
            row = arrays[a][idx[a]]
            profile[i] = {s: float(b) for s, b in zip(pools[a], row) if b > 0.0}
            regrets[i] = float(best[a][tuple(0 if k == a else idx[k]
                                             for k in range(n))]
                               - utilities[a][tuple(idx)])
        reports.append(EquilibriumReport(
            profile=profile, regrets=regrets, converged=True, iterations=0,
            epsilon=eps, welfare=float(welfare[tuple(idx)])))
    return reports


# ---------------------------------------------------- dominant strategies

def _top_by_value(values, keywords, kappa):
    """The top-kappa keywords by value, ties to the smaller keyword."""
    return sorted(keywords, key=lambda s: (-values[s], s))[:kappa]


def single_slot_dominant_profile(scenario: Scenario, chosen=None) -> dict:
    """Truthful keyword-value bids, the weakly dominant play when only
    one slot has positive weight.  chosen: optional {advertiser:
    keywords}; defaults to the top-kappa positive keywords by value."""
    if not scenario.weights.is_single_slot:
        raise NotSingleSlot()
    profile = {}
    for i in scenario.advertisers:
        if chosen is not None and i in chosen:
            picks = list(chosen[i])
        else:
            picks = _top_by_value(scenario.kw_values[i], scenario.kw_positive[i],
                                  scenario.kappa)
        if len(picks) > scenario.kappa:
            raise ValidationError(
                f"{len(picks)} chosen keywords for {i!r} exceeds kappa = "
                f"{scenario.kappa}")
        profile[i] = {s: scenario.kw_values[i][s] for s in picks}
    return profile


# ------------------------------------------------- Bayes-Nash verification

def truthful_keyword_strategy(bayes: BayesScenario) -> Callable:
    """Strategy mapping a realized type to truthful keyword-value bids
    on the top-kappa positive keywords (by value).  Its `bid_tensor`
    attribute is the same strategy on a whole value tensor."""

    def strategy(advertiser, values_row):
        row = bayes.to_scenario({advertiser: values_row}).kw_values[advertiser]
        picks = _top_by_value(row, [s for s, v in row.items() if v > 0.0], bayes.kappa)
        return {s: row[s] for s in picks}

    strategy.bid_tensor = functools.partial(truthful_bid_tensor, bayes)
    return strategy


def truthful_bid_tensor(bayes: BayesScenario, values) -> np.ndarray:
    """Truthful keyword bids for every profile of an (n, |A|, |Q|) value
    tensor, as an (n, |A|, |S|) bid tensor: each advertiser bids its
    keyword value on its top-kappa positive keywords and 0 elsewhere.  A
    keyword's rank counts the keywords that outrank it on (value, name),
    the order _top_by_value sorts by."""
    kv = keyword_value_tensor(bayes, values)
    by_name = {s: r for r, s in enumerate(sorted(bayes.graph.keywords))}
    names = [by_name[s] for s in bayes.graph.keywords]
    rank = np.stack([sum(outranks(kv[..., j], nj, kv[..., k], nk) for j, nj in enumerate(names))
                     for k, nk in enumerate(names)], axis=-1)
    return np.where((rank < bayes.kappa) & (kv > 0.0), kv, 0.0)


def strategy_bid_tensor(bayes: BayesScenario, strategy: Callable, values) -> np.ndarray:
    """The bids of `strategy` for every profile of an (n, |A|, |Q|) value
    tensor, as an (n, |A|, |S|) tensor: the strategy's own `bid_tensor`
    when it has one, else one call per profile and advertiser on the
    profile's valuations_at view.  Bids on keywords outside the graph are
    dropped, as the revenue functionals never read them."""
    kernel = getattr(strategy, "bid_tensor", None)
    if kernel is not None:
        return kernel(values)
    col = {s: k for k, s in enumerate(bayes.graph.keywords)}
    bids = np.zeros(values.shape[:2] + (len(col),))
    for t, profile in enumerate(values):
        for a, (i, row) in enumerate(bayes.valuations_at(profile).items()):
            for s, b in strategy(i, row).items():
                if s in col:
                    bids[t, a, col[s]] = b
    return bids


@dataclass(frozen=True)
class RegretEstimate:
    mean: float
    stderr: float
    n_types: int
    per_type: tuple = field(repr=False, default=())


def estimate_bne_regret(bayes: BayesScenario, strategy: Callable, n_types: int,
                        deviation_delta: float, rng,
                        n_opponent_draws: int = 32) -> dict:
    """Monte-Carlo interim regret of a type-measurable strategy.

    For each advertiser and each sampled own type, opponents' types are
    redrawn n_opponent_draws times (common random numbers across all
    candidate deviations); the deviation menu per keyword is the grid
    {0, delta, ...} capped at the realized keyword value plus the exact
    truthful point, and the reported regret is the estimated gain of
    the best deviation over the strategy's own play, averaged over
    types, with its standard error.  Each advertiser's profiles come from
    one sample_values call, a type's own profile followed by its
    opponent profiles, and are bid through strategy_bid_tensor.
    """
    if n_types < 1:
        raise ValidationError("n_types must be >= 1")
    if not deviation_delta > 0.0:
        raise ValidationError("deviation_delta must be positive")
    advertisers, keywords = bayes.advertisers, bayes.graph.keywords
    rows = 1 + n_opponent_draws      # a type's own profile, then its opponents'
    out = {}
    for a, i in enumerate(advertisers):
        draws = bayes.sample_values(rng, n_types * rows)
        bids = strategy_bid_tensor(bayes, strategy, draws)
        require_finite_bid_tensor(bayes, bids)
        own_values = keyword_value_tensor(bayes, draws[::rows, a]).tolist()
        gaps = []
        for t in range(n_types):
            own_bids, *opp_bids = bids[t * rows:(t + 1) * rows].tolist()
            values = dict(zip(keywords, own_values[t]))
            played = dict(zip(keywords, own_bids[a]))
            grid = BidGrid(deviation_delta, values)
            menus = {s: sorted({*grid.points(s), 0.0, v, played[s]})
                     for s, v in values.items()}
            opp_draws = [dict(zip(advertisers, (dict(zip(keywords, row)) for row in draw)))
                         for draw in opp_bids]
            by_draw = [_opponent_bids(opp, i, menus) for opp in opp_draws]
            opponents = {s: [opp[s] for opp in by_draw] for s in menus}
            seen = {}   # (keyword, bid) -> mean utility over the draws

            def utility(s, b):
                u = 0.0
                for opp in opponents[s]:
                    u += _slot_utility(b, i, opp, bayes.weights,
                                       bayes.kw_masses[s], values[s])
                u /= n_opponent_draws
                seen[s, b] = u
                return u

            ranked, kept = _select_keywords(menus, utility, bayes.kappa)
            best_total = sum(u for u, _, _ in kept)
            played_total = sum(seen[s, played[s]] for _, s, _ in ranked)
            gaps.append(max(0.0, best_total - played_total))
        arr = np.asarray(gaps)
        out[i] = RegretEstimate(mean=float(arr.mean()),
                                stderr=float(arr.std(ddof=1) / math.sqrt(n_types))
                                if n_types > 1 else 0.0,
                                n_types=n_types, per_type=tuple(arr.tolist()))
    return out
