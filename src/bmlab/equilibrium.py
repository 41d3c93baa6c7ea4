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
enumerator builds per-advertiser strategy arrays and scans the joint
grid (one axis per advertiser) in bounded chunks of advertiser 0's rows,
in two passes: the first finds advertiser 0's best responses, the second
every other advertiser's and the stable profiles.  No array spans the
whole grid, so its memory stays about one chunk's plus one entry per
opponent profile however large the grid grows.  Every solver here
prices its keyword auctions with mechanisms.gsp_outcome, the one GSP
kernel, at reserve 0.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from .errors import NotSingleSlot, TooLarge, ValidationError
from .market import BayesScenario, Scenario, keyword_value_tensor
from .mechanisms import (
    gsp_outcome,
    outranks,
    pbm_expected_welfare,
    require_finite_bid_tensor,
    require_finite_profile,
)

_TRUTHFUL_TOL = 1e-9
# best_response's search limits: positive keywords per advertiser, and kappa
_MAX_KEYWORDS = 20
_MAX_KAPPA = 4


# ------------------------------------------------------------------ grids

@dataclass(frozen=True)
class BidGrid:
    """Per-keyword bid menus: {0, delta, ..., cap_s}."""

    delta: float
    caps: Mapping[str, float]

    def __post_init__(self):
        if not (math.isfinite(self.delta) and self.delta > 0.0):
            raise ValidationError(f"grid delta must be finite and positive, "
                                  f"got {self.delta}")
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
             conservative=False):
    """Sorted bid menu for one (advertiser, keyword) pair.

    conservative restricts to bids at most the keyword value; 0 and the
    exact truthful value are spliced in (deduplicated).
    """
    v = scenario.kw_values[advertiser][keyword]
    pts = [b for b in grid.points(keyword) if not conservative or b <= v + 1e-12]
    return tuple(sorted({0.0, v, *pts}))


def _select_keywords(menus, utilities, kappa):
    """Best-response selection: on each keyword's sorted menu the lowest
    bid of maximal utility (bid 0 when nothing gains; utilities[s] holds
    the menu's utilities in order), keywords ranked by (-utility, keyword).
    Returns the ranked (u, s, b) list and its top-kappa positive entries."""
    ranked = []
    for s, menu in menus.items():
        best_u, best_b = 0.0, 0.0
        for b, u in zip(menu, utilities[s]):
            if u > best_u:           # strict: keeps the lowest maximizing bid
                best_u, best_b = u, b
        ranked.append((best_u, s, best_b))
    ranked.sort(key=lambda usb: (-usb[0], usb[1]))
    return ranked, [usb for usb in ranked[:kappa] if usb[0] > 0.0]


# ------------------------------------------------------------ best response

def _menus(scenario, grid, advertiser, conservative):
    """{keyword: bid_menu} over the advertiser's positive keywords in
    sorted order: the space its best response searches and its strategy
    rows span."""
    return {s: bid_menu(scenario, grid, advertiser, s, conservative)
            for s in sorted(scenario.kw_positive[advertiser])}


def _pool_menus(scenario, grid, advertiser, conservative):
    """_menus, the search space of the advertiser's best response; more
    than _MAX_KEYWORDS positive keywords or a kappa over _MAX_KAPPA
    raises TooLarge."""
    pool = scenario.kw_positive[advertiser]
    if len(pool) > _MAX_KEYWORDS:
        raise TooLarge(f"{len(pool)} candidate keywords exceeds the "
                       f"best-response cap {_MAX_KEYWORDS}")
    if scenario.kappa > _MAX_KAPPA:
        raise TooLarge(f"kappa = {scenario.kappa} exceeds the best-response "
                       f"cap {_MAX_KAPPA}")
    return _menus(scenario, grid, advertiser, conservative)


def _all_pool_menus(scenario, bids, grid, conservative):
    """{advertiser: _pool_menus}, the caps checked first, then the profile
    checked for a non-finite bid, which would silently never outrank."""
    menus = {i: _pool_menus(scenario, grid, i, conservative) for i in scenario.advertisers}
    require_finite_profile(bids)
    return menus


def _respond(scenario, bids, advertiser, menus):
    """(best row, its utility, utility of the advertiser's current row)
    against the opponents' bids of a finite profile, over the menus of
    _pool_menus.  Every menu and the current row's positive bids form one
    flat own-bid vector, priced in one gsp_outcome call against its
    keyword's opponent bids."""
    # (keyword, bids): each menu, then each positive bid of the current row
    entries = [*menus.items(), *((s, (b,)) for s, b in bids.get(advertiser, {}).items()
                                 if b > 0.0)]
    col = {s: k for k, s in enumerate(dict.fromkeys(s for s, _ in entries))}
    at = np.array([col[s] for s, menu in entries for _ in menu], dtype=np.intp)
    opp = np.zeros((len(scenario.advertisers), len(col)))     # (advertiser, keyword)
    for j, i in enumerate(scenario.advertisers):
        if i != advertiser:
            for s, b in bids.get(i, {}).items():
                if s in col:
                    opp[j, col[s]] = b
    ids = np.flatnonzero((opp > 0.0).any(axis=1))
    w_padded = np.array([scenario.weights.weight(k) for k in range(len(ids) + 1)])
    slot_w, active, price, _ = gsp_outcome(np.array([b for _, menu in entries for b in menu]),
                                           scenario.advertisers.index(advertiser),
                                           opp[ids][:, at].T, ids, w_padded)
    mass = np.array([scenario.kw_masses[s] for s in col])[at]
    value = np.array([scenario.kw_values[advertiser][s] for s in col])[at]
    util = np.where(active, mass * slot_w * (value - price), 0.0).tolist()
    utilities, lo = {}, 0
    for s, menu in menus.items():
        utilities[s], lo = util[lo:lo + len(menu)], lo + len(menu)
    _, kept = _select_keywords(menus, utilities, scenario.kappa)
    return {s: b for _, s, b in kept}, sum(u for u, _, _ in kept), sum(util[lo:], 0.0)


def best_response(scenario: Scenario, bids, advertiser, grid: BidGrid,
                  conservative=False):
    """Exact best response of one advertiser on the grid.

    Searches every keyword independently (utility separability), keeps
    the top-kappa keywords by achieved utility, and among equally good
    bids prefers the lowest, then the lexicographically first keyword.
    Returns (bid row, total utility).
    """
    menus = _pool_menus(scenario, grid, advertiser, conservative)
    require_finite_profile(bids)      # a NaN bid would silently never outrank
    row, best, _ = _respond(scenario, bids, advertiser, menus)
    return row, best


def default_epsilon(scenario: Scenario) -> float:
    """Float-tolerance regret threshold: 1e-9 times the largest value."""
    top = max((scenario.valuations.value(i, q)
               for i in scenario.advertisers for q in scenario.graph.queries),
              default=1.0)
    return 1e-9 * max(top, 1.0)


def _resolve_epsilon(scenario: Scenario, epsilon) -> float:
    """epsilon, or default_epsilon when None; NaN (no profile would be
    stable), infinite and negative thresholds are rejected."""
    eps = default_epsilon(scenario) if epsilon is None else epsilon
    if not (math.isfinite(eps) and eps >= 0.0):
        raise ValidationError(f"epsilon must be finite and >= 0, got {eps}")
    return eps


@dataclass(frozen=True)
class EquilibriumReport:
    profile: dict
    regrets: dict
    converged: bool
    iterations: int
    epsilon: float
    welfare: float | None = None


def verify_epsilon_nash(scenario: Scenario, bids, grid: BidGrid,
                        conservative=False) -> dict:
    """Per-advertiser regret of a profile against grid deviations."""
    return _regrets(scenario, bids, _all_pool_menus(scenario, bids, grid, conservative))


def _regrets(scenario, bids, menus):
    """verify_epsilon_nash over the menus of _all_pool_menus."""
    regrets = {}
    for i in scenario.advertisers:
        _, best, current = _respond(scenario, bids, i, menus[i])
        regrets[i] = max(0.0, best - current)
    return regrets


def best_response_dynamics(scenario: Scenario, initial, grid: BidGrid,
                           epsilon=None, max_iters=50,
                           conservative=False) -> EquilibriumReport:
    """Round-robin best responses until max regret <= epsilon or the
    iteration cap; non-convergence is a report state, not an error."""
    eps = _resolve_epsilon(scenario, epsilon)
    if max_iters < 0:
        raise ValidationError(f"max_iters must be >= 0, got {max_iters}")
    profile = {i: dict(initial.get(i, {})) for i in scenario.advertisers}
    # the menus depend only on (advertiser, keyword), so they are built once;
    # every row a best response writes is finite, so one check suffices
    menus = _all_pool_menus(scenario, profile, grid, conservative)
    regrets = _regrets(scenario, profile, menus)
    converged = False
    iterations = 0
    for it in range(1, max_iters + 1):
        iterations = it
        if max(regrets.values(), default=0.0) <= eps:
            converged = True
            break
        for i in scenario.advertisers:
            profile[i], _, _ = _respond(scenario, profile, i, menus[i])
        regrets = _regrets(scenario, profile, menus)
    else:
        converged = max_iters > 0 and max(regrets.values(), default=0.0) <= eps
    return EquilibriumReport(profile=profile, regrets=regrets,
                             converged=converged, iterations=iterations,
                             epsilon=eps,
                             welfare=pbm_expected_welfare(scenario, profile))


# --------------------------------------------------------- Nash enumeration

def _count_rows(menus, kappa):
    """Number of bid rows over the menus with at most kappa positive
    bids, where a keyword's menu offers all but its leading 0.0: the
    truncated elementary-symmetric sum, computed exactly by DP."""
    coeffs = [1]
    for menu in menus.values():
        m = len(menu) - 1
        new = coeffs + [0] if len(coeffs) <= kappa else coeffs
        for k in range(len(new) - 1, 0, -1):
            new[k] = (coeffs[k] if k < len(coeffs) else 0) + m * coeffs[k - 1]
        coeffs = new
    return sum(coeffs)


def strategy_rows(menus, kappa, advertiser, max_rows=200_000):
    """All feasible bid rows of one advertiser over its menus of _menus
    (at most kappa positive bids), as (keyword list, array).  More than
    max_rows rows raises TooLarge.

    Rows are generated by keyword subset then menu product, so only
    feasible rows are ever materialized.
    """
    pool = list(menus)
    positive = [m[1:] for m in menus.values()]      # menus always start at 0.0
    n_rows = _count_rows(menus, kappa)
    if n_rows > max_rows:
        raise TooLarge(f"advertiser {advertiser!r} has {n_rows} grid rows "
                       f"(cap {max_rows})")
    K = len(pool)
    rows = np.zeros((n_rows, K))
    r = 0
    for size in range(0, min(kappa, K) + 1):
        for subset in itertools.combinations(range(K), size):
            for combo in itertools.product(*(positive[j] for j in subset)):
                for j, b in zip(subset, combo):
                    rows[r, j] = b
                r += 1
    assert r == n_rows
    return pool, rows


def estimate_joint_size(scenario, grid, conservative=False) -> int:
    """Exact number of joint grid profiles the enumerator would scan."""
    return math.prod(_count_rows(_menus(scenario, grid, i, conservative), scenario.kappa)
                     for i in scenario.advertisers)


# Joint profiles per chunk of the enumerator's scan.  A chunk is a run of
# advertiser 0's rows (axis 0) crossed with every opponent row, so it
# holds one row at least, however many profiles that row has.
_CHUNK_PROFILES = 1 << 16
# Bytes per chunk profile beyond the n float64 utility accumulators: a
# keyword's utilities spread along the last axis and gathered onto the
# chunk, the Nash mask and its comparisons, and, when a keyword's grid of
# distinct bids is as large as the chunk (one keyword, rows = bids), its
# bid stack and the temporaries of the GSP outcome on it.  Measured with
# tracemalloc (peak less the accumulators and the best-response table):
# 34 B on a 3-keyword market, 100-125 B on one-keyword markets.
_CHUNK_BYTES_PER_PROFILE = 128


def _chunk_rows(counts) -> int:
    """Rows of axis 0 per chunk, for the per-advertiser row counts."""
    return max(1, _CHUNK_PROFILES // math.prod(counts[1:]))


def _peak_bytes(counts) -> int:
    """Estimated peak bytes of the enumerator's scan: one chunk's
    utilities and temporaries plus advertiser 0's best-response table."""
    table = math.prod(counts[1:])
    chunk = min(counts[0], _chunk_rows(counts)) * table
    return chunk * (8 * len(counts) + _CHUNK_BYTES_PER_PROFILE) + 8 * table


def enumerate_pure_nash(scenario: Scenario, grid: BidGrid, epsilon=None,
                        conservative=False, winner_truthful=False,
                        max_joint=10_000_000) -> list[EquilibriumReport]:
    """Exhaustive pure-Nash enumeration over the joint grid.

    Strategy spaces are restricted to each advertiser's positive
    keywords: by utility separability a deviation onto a zero-value
    keyword never strictly gains, so the Nash set over the restricted
    space certifies the Nash condition over the full space.

    The joint grid has one axis per advertiser and is scanned twice, in
    chunks of advertiser 0's rows (axis 0) crossed with every opponent
    row.  The first pass keeps advertiser 0's best utility against each
    opponent profile.  The second computes every advertiser's utility
    on the chunk, takes each other advertiser's best response within
    it, and keeps the profiles where no one gains more than epsilon.
    Within a chunk, a keyword's utilities are computed once per
    combination of the participants' distinct bids and gathered onto
    the chunk's profiles.  Peak memory is one chunk's arrays
    (_CHUNK_PROFILES profiles, or one row of axis 0 if that is more)
    plus advertiser 0's best-response table, one entry per opponent
    profile, plus the equilibria found.  A grid of more than max_joint
    profiles raises TooLarge, naming that estimate of the peak.

    winner_truthful keeps only equilibria in which every slot winner
    bids exactly their keyword value on the winning keyword.  Reports
    are ordered by joint row-major strategy index; each carries exact
    regret and expected welfare.
    """
    eps = _resolve_epsilon(scenario, epsilon)
    advs = scenario.advertisers
    n = len(advs)
    if n == 0:      # the empty profile is the one profile, and stable
        return [EquilibriumReport(profile={}, regrets={}, converged=True,
                                  iterations=0, epsilon=eps, welfare=0.0)]
    menus = [_menus(scenario, grid, i, conservative) for i in advs]
    counts = [_count_rows(m, scenario.kappa) for m in menus]
    joint = math.prod(counts)
    if joint > max_joint:
        raise TooLarge(f"joint strategy space has {joint} profiles, about "
                       f"{_peak_bytes(counts)} bytes at peak (cap {max_joint})")
    pools, arrays = zip(*(strategy_rows(m, scenario.kappa, i, max_rows=max_joint)
                          for m, i in zip(menus, advs)))

    w_padded = np.zeros(n + 1)
    for k in range(n + 1):
        w_padded[k] = scenario.weights.weight(k)
    # per keyword: {participant: column of the keyword in its rows}, in
    # advertiser order, their indices, and the distinct bids of each but
    # advertiser 0 with the index of every row's bid among them
    keywords = []
    for s in scenario.graph.keywords:
        parts = {a: pools[a].index(s) for a in range(n) if s in pools[a]}
        if parts:
            keywords.append((s, parts, np.array(list(parts)),
                             {a: np.unique(arrays[a][:, j], return_inverse=True)
                              for a, j in parts.items() if a != 0}))
    last = n - 1

    def chunk_utilities(rows0, who):
        """{a: a's utility on every profile of the chunk of advertiser 0's
        rows rows0}, for a in who.  Per keyword, a's utility is computed
        on the grid of the participants' distinct bids, spread along the
        last axis to that advertiser's rows, and then copied onto the
        chunk one last-axis line at a time: `line` indexes the grid
        row-major over the other participants."""
        shape = (rows0.stop - rows0.start,) + tuple(counts[1:])
        acc = {a: np.zeros(shape) for a in who}
        for s, parts, ids, distinct in keywords:
            if acc.keys().isdisjoint(parts):
                continue
            levels = [distinct[a] if a != 0 else np.unique(arrays[0][rows0, parts[0]],
                                                           return_inverse=True)
                      for a in parts]
            line = np.zeros((1,) * last, dtype=np.intp)
            stack = np.empty([len(lv) for lv, _ in levels] + [len(parts)])
            for p, (a, (lv, inv)) in enumerate(zip(parts, levels)):
                stack[..., p] = lv.reshape([-1 if q == p else 1 for q in range(len(parts))])
                if a == last:
                    spread = inv
                else:
                    view = [1] * last
                    view[a] = len(inv)
                    line = line * len(lv) + inv.reshape(view)
            mass = scenario.kw_masses[s]
            for p, a in enumerate(parts):
                if a not in acc:
                    continue
                slot_w, active, price, _ = gsp_outcome(stack[..., p], a, np.delete(stack, p, -1),
                                                       np.delete(ids, p), w_padded)
                value = scenario.kw_values[advs[a]][s]
                util = np.where(active, mass * slot_w * (value - price), 0.0)
                util = np.take(util, spread, axis=-1) if last in parts else util[..., None]
                acc[a] += np.take(util.reshape(-1, util.shape[-1]), line, axis=0)
        return acc

    step = _chunk_rows(counts)
    chunks = [slice(lo, min(lo + step, counts[0])) for lo in range(0, counts[0], step)]
    best0 = np.full((1,) + tuple(counts[1:]), -np.inf)
    for rows0 in chunks:
        np.maximum(best0, chunk_utilities(rows0, [0])[0].max(axis=0, keepdims=True),
                   out=best0)

    found, regrets = [], [[] for _ in advs]   # per chunk: stable profiles, regrets
    for rows0 in chunks:
        utilities = chunk_utilities(rows0, range(n))
        best = [best0] + [utilities[a].max(axis=a, keepdims=True) for a in range(1, n)]
        mask = utilities[0] >= best0 - eps
        for a in range(1, n):
            mask &= utilities[a] >= best[a] - eps
        hits = np.nonzero(mask)
        for a in range(n):
            regrets[a].append(best[a][hits[:a] + (0,) + hits[a + 1:]] - utilities[a][hits])
        found.append(np.stack((hits[0] + rows0.start,) + hits[1:], axis=1))
    hits = np.concatenate(found)
    regrets = [np.concatenate(r) for r in regrets]

    # welfare, and winner truthfulness, of the stable profiles only
    welfare = np.zeros(len(hits))
    keep = np.ones(len(hits), dtype=bool)
    for s, parts, ids, _ in keywords:
        stack = np.stack([arrays[a][hits[:, a], j] for a, j in parts.items()], axis=-1)
        for p, a in enumerate(parts):
            value = scenario.kw_values[advs[a]][s]
            slot_w, active, _, _ = gsp_outcome(stack[:, p], a, np.delete(stack, p, -1),
                                               np.delete(ids, p), w_padded)
            welfare += np.where(active, scenario.kw_masses[s] * slot_w * value, 0.0)
            if winner_truthful:
                keep &= ~(active & (np.abs(stack[:, p] - value) > _TRUTHFUL_TOL))

    reports = []
    for h in np.flatnonzero(keep):
        profile = {i: {s: float(b) for s, b in zip(pools[a], arrays[a][hits[h, a]]) if b > 0.0}
                   for a, i in enumerate(advs)}
        reports.append(EquilibriumReport(
            profile=profile, regrets={i: float(regrets[a][h]) for a, i in enumerate(advs)},
            converged=True, iterations=0, epsilon=eps, welfare=float(welfare[h])))
    return reports


# ---------------------------------------------------- dominant strategies

def single_slot_dominant_profile(scenario: Scenario) -> dict:
    """Truthful keyword-value bids on the top-kappa positive keywords by
    value, the weakly dominant play when only one slot has positive
    weight.  Ties in value go to the smaller keyword."""
    if not scenario.weights.is_single_slot:
        raise NotSingleSlot()
    profile = {}
    for i, values in scenario.kw_values.items():
        top = sorted(scenario.kw_positive[i], key=lambda s: (-values[s], s))
        profile[i] = {s: values[s] for s in top[:scenario.kappa]}
    return profile


# ------------------------------------------------- Bayes-Nash verification

def truthful_keyword_strategy(bayes: BayesScenario) -> Callable:
    """The truthful strategy: an (n, |A|, |Q|) value tensor in, an
    (n, |A|, |S|) bid tensor out (keywords in graph order).  Each
    advertiser bids its keyword value on its top-kappa positive keywords
    and 0 elsewhere.  A keyword's rank counts the keywords that outrank
    it on (value, name), the order single_slot_dominant_profile sorts by."""
    by_name = {s: r for r, s in enumerate(sorted(bayes.graph.keywords))}
    names = [by_name[s] for s in bayes.graph.keywords]

    def strategy(values):
        kv = keyword_value_tensor(bayes, values)
        rank = np.stack([sum(outranks(kv[..., j], nj, kv[..., k], nk)
                             for j, nj in enumerate(names))
                         for k, nk in enumerate(names)], axis=-1)
        return np.where((rank < bayes.kappa) & (kv > 0.0), kv, 0.0)
    return strategy


@dataclass(frozen=True)
class RegretEstimate:
    mean: float
    stderr: float
    n_types: int
    per_type: tuple = field(repr=False, default=())


def estimate_bne_regret(bayes: BayesScenario, strategy: Callable, n_types: int,
                        deviation_delta: float, rng,
                        n_opponent_draws: int = 32) -> dict:
    """Monte-Carlo interim regret of a type-measurable strategy, a map
    from an (n, |A|, |Q|) value tensor to an (n, |A|, |S|) bid tensor.

    For each advertiser and each sampled own type, opponents' types are
    redrawn n_opponent_draws times (common random numbers across all
    candidate deviations); the deviation menu per keyword is the grid
    {0, delta, ...} capped at the realized keyword value plus the exact
    truthful point, and the reported regret is the estimated gain of
    the best deviation over the strategy's own play, averaged over
    types, with its standard error.  Each advertiser's profiles come from
    one sample_values call, a type's own profile followed by its
    opponent profiles, and are bid in one strategy call.  A keyword's
    menu meets all the opponent draws in one gsp_outcome.
    """
    if n_types < 1:
        raise ValidationError("n_types must be >= 1")
    if not (math.isfinite(deviation_delta) and deviation_delta > 0.0):
        raise ValidationError(f"deviation_delta must be finite and positive, "
                              f"got {deviation_delta}")
    if n_opponent_draws < 1:
        raise ValidationError("n_opponent_draws must be >= 1")
    advertisers, keywords = bayes.advertisers, bayes.graph.keywords
    rows = 1 + n_opponent_draws      # a type's own profile, then its opponents'
    w_padded = np.array([bayes.weights.weight(k) for k in range(len(advertisers) + 1)])
    out = {}
    for a, i in enumerate(advertisers):
        others = np.delete(np.arange(len(advertisers)), a)
        priced = slice(None if len(others) else 1)     # no opponents: every draw alike
        draws = bayes.sample_values(rng, n_types * rows)
        bids = strategy(draws)
        require_finite_bid_tensor(bayes, bids)
        own_values = keyword_value_tensor(bayes, draws[::rows, a]).tolist()
        gaps = []
        for t in range(n_types):
            values = dict(zip(keywords, own_values[t]))
            played = dict(zip(keywords, bids[t * rows, a].tolist()))
            opp_bids = bids[t * rows + 1:(t + 1) * rows]
            grid = BidGrid(deviation_delta, values)
            menus = {s: sorted({*grid.points(s), 0.0, v, played[s]})
                     for s, v in values.items()}
            utilities = {}      # keyword -> mean utility of each menu bid over the draws
            for k, (s, menu) in enumerate(menus.items()):
                slot_w, active, price, _ = gsp_outcome(np.array(menu)[:, None], a,
                                                       opp_bids[priced, others, k], others,
                                                       w_padded)
                util = np.where(active, bayes.kw_masses[s] * slot_w * (values[s] - price), 0.0)
                # builtin sum: the draws' columns added in order (ndarray.sum pairs them)
                utilities[s] = (sum(np.broadcast_to(util, (len(menu), n_opponent_draws)).T)
                                / n_opponent_draws).tolist()
            ranked, kept = _select_keywords(menus, utilities, bayes.kappa)
            best_total = sum(u for u, _, _ in kept)
            played_total = sum(utilities[s][menus[s].index(played[s])] for _, s, _ in ranked)
            gaps.append(max(0.0, best_total - played_total))
        arr = np.asarray(gaps)
        out[i] = RegretEstimate(mean=float(arr.mean()),
                                stderr=float(arr.std(ddof=1) / math.sqrt(n_types))
                                if n_types > 1 else 0.0,
                                n_types=n_types, per_type=tuple(arr.tolist()))
    return out
