"""Equilibrium search and verification on discretized bid spaces.

The continuous strategy space is replaced by a grid: per-keyword menus
{0, delta, 2*delta, ..., cap} with the exact truthful keyword value
spliced in so truthful play is always representable.  Equilibria are
exact with respect to the grid (regret tolerance 1e-9 * max value by
default); off-grid deviations are covered by the continuity slack
(max slot weight) * delta that the analysis layer adds to its bounds.

Utilities are separable across keywords (u_i = sum_s u_i^s), which the
best-response search exploits: each keyword is optimized independently
and the top-kappa keywords by achieved utility are kept.  That keyword
selection works on padded menus (_best_bids, _rank_keywords) and is the
one that best response and the Bayes-Nash regret estimate share.  Best
response, the regret check and best-response dynamics share one pricing
function: a run lays out every advertiser's menus once, with the
starting profile's positive bids off those menus, and mirrors the
profile in a dense (advertiser, keyword) array, whose row is rewritten
whenever the dynamics write a row.  A group of advertisers' static
arrays (flat bids with each entry's keyword column, mass and value, and
the padded menus) are built on the group's first call and priced in one
kernel call against that array; a current row's utility is looked up by
(keyword, bid).  The sweep prices one advertiser at a time, the regret
check all of them, in groups whose opponent matrix stays within
_GROUP_CELLS cells.  The regret estimate prices every sampled type's
deviation menus at once, in calls of at most _REGRET_CELLS cells, and
refuses a menu of more than _MAX_MENU bids.  The pure-Nash
enumerator builds per-advertiser strategy arrays and scans the joint
grid (one axis per advertiser) in bounded chunks of advertiser 0's rows,
in two passes: the first finds advertiser 0's best responses, the second
every other advertiser's and the stable profiles.  No array spans the
whole grid, so its memory stays about one chunk's plus one entry per
opponent profile however large the grid grows.  Every solver here
prices its keyword auctions with mechanisms.gsp_outcome, the one GSP
kernel, at reserve 0, and reports the welfare of
mechanisms.pbm_expected_welfare_batch.
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
    bid_matrix,
    gsp_outcome,
    outranks,
    padded_weights,
    pbm_expected_welfare,
    pbm_expected_welfare_batch,
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


def make_grid(scenario: Scenario, delta: float) -> BidGrid:
    """The grid with each keyword capped at the largest keyword value
    any advertiser has for it (bidding above is weakly dominated)."""
    caps = {s: max(scenario.kw_values[i][s] for i in scenario.advertisers)
            for s in scenario.graph.keywords}
    return BidGrid(delta=float(delta), caps=caps)


def bid_menu(scenario: Scenario, grid: BidGrid, advertiser, keyword,
             conservative=False):
    """Sorted bid menu for one (advertiser, keyword) pair.

    conservative restricts to bids at most the keyword value; 0 and the
    exact truthful value are spliced in (deduplicated).
    """
    v = scenario.kw_values[advertiser][keyword]
    pts = [b for b in grid.points(keyword) if not conservative or b <= v + 1e-12]
    return tuple(sorted({0.0, v, *pts}))


def _best_bids(menus, utilities):
    """The best bid of each sorted menu on the last axis of menus, whose
    mean utilities are utilities: the first maximum if it is > 0,
    otherwise (0.0, bid 0).  Pads of bid 0 at utility 0 change nothing.
    Returns (utility, bid) arrays without the last axis."""
    shape, width = utilities.shape[:-1], utilities.shape[-1]
    utilities, menus = utilities.reshape(-1, width), menus.reshape(-1, width)
    at = np.arange(len(utilities)), utilities.argmax(axis=1)
    u = utilities[at]
    gain = u > 0.0
    return np.where(gain, u, 0.0).reshape(shape), np.where(gain, menus[at], 0.0).reshape(shape)


def _rank_keywords(u, kappa):
    """Per row of the best utilities u (rows, keywords in name order): the
    keywords ranked by (-utility, keyword) and how many of the ranking's
    head are kept, the top kappa of positive utility."""
    return (np.argsort(-u, axis=-1, kind="stable"),
            np.minimum((u > 0.0).sum(axis=-1), kappa))


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


# Opponent-matrix cells (menu entries x advertisers) of one pricing call.
# The regret pass prices the advertisers in groups under this bound; a
# group holds one advertiser at least.
_GROUP_CELLS = 1 << 16


class _Layout:
    """The pricing layout of one run over {advertiser: _pool_menus} for
    some of a scenario's advertisers and the run's starting profile bids:
    per advertiser index, its (keyword, bid) menu entries and the
    profile's positive bids off those menus, and the slot weights of
    positions 0..n, all built once.  The rows a run prices are the
    profile's or built from menus, so every positive bid of them is an
    entry.  A group of advertisers' static arrays (group) are built on
    first use; a profile is priced through its dense (advertiser,
    keyword) mirror."""

    def __init__(self, scenario, menus, bids):
        self.scenario = scenario
        advs, keywords = scenario.advertisers, scenario.graph.keywords
        self.col = {s: k for k, s in enumerate(keywords)}
        self.mass = np.array([scenario.kw_masses[s] for s in keywords])
        self.value = np.array([[scenario.kw_values[i][s] for s in keywords]
                               for i in advs]).reshape(len(advs), len(keywords))
        self.ids = np.arange(len(advs))
        self.w_padded = padded_weights(scenario)
        # padded menus: (keyword, entry) blocks, keywords in name order
        self.shape = (max(map(len, menus.values()), default=0),
                      max((len(menu) for m in menus.values() for menu in m.values()), default=1))
        self.entries = {}   # advertiser index -> (menu entries, off-menu bids, slots, keywords)
        for i, m in menus.items():
            self.entries[advs.index(i)] = (
                [(s, b) for s, menu in m.items() for b in menu],
                [(s, b) for s, b in bids.get(i, {}).items() if b > 0.0 and b not in m.get(s, ())],
                [k * self.shape[1] + j for k, menu in enumerate(m.values())
                 for j in range(len(menu))],
                list(m))
        self._groups = {}

    def group(self, group):
        """The static arrays of a group of advertiser indices: the flat
        own-bid vector (the group's menu entries, then its off-menu bids)
        with each entry's keyword column, mass, value and advertiser index,
        the menu entries' slots in the group's padded menus and those
        menus, and per advertiser {(keyword, bid): entry}."""
        key = tuple(group)
        if key not in self._groups:
            parts = [self.entries[a] for a in group]
            pairs = [(g, sb) for k in (0, 1) for g, part in enumerate(parts) for sb in part[k]]
            lookups = [{} for _ in group]
            for e, (g, sb) in enumerate(pairs):
                lookups[g][sb] = e
            who = np.array([group[g] for g, _ in pairs], dtype=np.intp)
            at = np.array([self.col[s] for _, (s, _) in pairs], dtype=np.intp)
            own = np.array([b for _, (_, b) in pairs])
            size = self.shape[0] * self.shape[1]
            slots = np.array([g * size + x for g, part in enumerate(parts) for x in part[2]],
                             dtype=np.intp)
            menus = np.zeros(len(group) * size)
            menus[slots] = own[:len(slots)]
            self._groups[key] = (own, at, self.mass[at], self.value[who, at], who, slots,
                                 menus.reshape(len(group), *self.shape), lookups)
        return self._groups[key]

    def write(self, dense, a, row):
        """Set advertiser index a's row of the mirror to the bid row."""
        dense[a] = 0.0
        for s, b in row.items():
            if s in self.col:
                dense[a, self.col[s]] = b


def _respond(layout, bids, dense, group):
    """[(best row, its utility, utility of the current row)] of each
    advertiser index in group, against the opponents' bids of a finite
    profile and its mirror dense.  The group's static own-bid vector is
    priced in one gsp_outcome call against each entry's keyword column of
    the mirror with the entry's own advertiser zeroed: a zero bid neither
    outranks a positive bid nor raises its price.  The menu utilities go
    into the padded menus for the keyword selection; a current row's
    utilities are looked up by (keyword, bid)."""
    own, at, mass, value, who, slots, menus, lookups = layout.group(group)
    opp = dense.T[at]                               # (entry, advertiser)
    opp[np.arange(len(at)), who] = 0.0
    slot_w, active, price, _ = gsp_outcome(own, who[:, None], opp, layout.ids,
                                           layout.w_padded)
    util = np.where(active, mass * slot_w * (value - price), 0.0)
    padded = np.zeros(menus.size)
    padded[slots] = util[:len(slots)]
    u, b = _best_bids(menus, padded.reshape(menus.shape))
    order, kept = _rank_keywords(u, layout.scenario.kappa)
    advs = layout.scenario.advertisers
    rows = [[lookups[g][sb] for sb in bids.get(advs[a], {}).items() if sb[1] > 0.0]
            for g, a in enumerate(group)]
    current = util[np.array([e for row in rows for e in row], dtype=np.intp)].tolist()
    u, b, order, kept = (x.tolist() for x in (u, b, order, kept))
    out, lo = [], 0
    for g, a in enumerate(group):
        names, top = layout.entries[a][3], order[g][:kept[g]]
        out.append(({names[k]: b[g][k] for k in top}, sum(u[g][k] for k in top),
                    sum(current[lo:lo + len(rows[g])], 0.0)))
        lo += len(rows[g])
    return out


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
    layout = _Layout(scenario, {advertiser: menus}, bids)
    [(row, best, _)] = _respond(layout, bids, bid_matrix(scenario, bids),
                                [scenario.advertisers.index(advertiser)])
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
    layout = _Layout(scenario, _all_pool_menus(scenario, bids, grid, conservative), bids)
    return _regrets(layout, bids, bid_matrix(scenario, bids))


def _regrets(layout, bids, dense):
    """verify_epsilon_nash over a layout of every advertiser, for the
    profile bids and its mirror dense: the advertisers are priced in
    groups of consecutive indices whose opponent matrix stays within
    _GROUP_CELLS cells."""
    advs = layout.scenario.advertisers
    groups, cells = [], 0
    for a, i in enumerate(advs):
        size = len(advs) * (len(layout.entries[a][0]) +
                            sum(b > 0.0 for b in bids.get(i, {}).values()))
        if not groups or cells + size > _GROUP_CELLS:
            groups.append([])
            cells = 0
        groups[-1].append(a)
        cells += size
    regrets = {}
    for group in groups:
        for a, (_, best, current) in zip(group, _respond(layout, bids, dense, group)):
            regrets[advs[a]] = max(0.0, best - current)
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
    # the menus depend only on (advertiser, keyword), so they and the layout
    # (with the initial profile's off-menu bids) are built once; every row a
    # best response writes is finite and on the menus, so one check suffices
    layout = _Layout(scenario, _all_pool_menus(scenario, profile, grid, conservative),
                     profile)
    dense = bid_matrix(scenario, profile)
    regrets = _regrets(layout, profile, dense)
    converged = False
    iterations = 0
    for it in range(1, max_iters + 1):
        iterations = it
        if max(regrets.values(), default=0.0) <= eps:
            converged = True
            break
        for a, i in enumerate(scenario.advertisers):
            [(profile[i], _, _)] = _respond(layout, profile, dense, [a])
            layout.write(dense, a, profile[i])
        regrets = _regrets(layout, profile, dense)
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


def strategy_rows(menus, kappa, advertiser, max_rows):
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

    w_padded = padded_weights(scenario)
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

    keep = np.ones(len(hits), dtype=bool)
    if winner_truthful:
        for s, parts, ids, _ in keywords:
            stack = np.stack([arrays[a][hits[:, a], j] for a, j in parts.items()], axis=-1)
            for p, a in enumerate(parts):
                _, active, _, _ = gsp_outcome(stack[:, p], a, np.delete(stack, p, -1),
                                              np.delete(ids, p), w_padded)
                keep &= ~(active & (np.abs(stack[:, p] - scenario.kw_values[advs[a]][s])
                                    > _TRUTHFUL_TOL))
    hits = hits[keep]
    regrets = [r[keep] for r in regrets]

    # the kept profiles as one bid tensor, priced by the one welfare path
    col = {s: k for k, s in enumerate(scenario.graph.keywords)}
    bids = np.zeros((len(hits), n, len(col)))
    for a in range(n):
        bids[:, a, [col[s] for s in pools[a]]] = arrays[a][hits[:, a]]
    values = np.broadcast_to(scenario.value_matrix, (len(hits),) + scenario.value_matrix.shape)
    welfare = pbm_expected_welfare_batch(scenario, values, bids).tolist()

    reports = []
    for h, row in enumerate(hits):
        profile = {i: {s: float(b) for s, b in zip(pools[a], arrays[a][row[a]]) if b > 0.0}
                   for a, i in enumerate(advs)}
        reports.append(EquilibriumReport(
            profile=profile, regrets={i: float(regrets[a][h]) for a, i in enumerate(advs)},
            converged=True, iterations=0, epsilon=eps, welfare=welfare[h]))
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


# Cells (draws x opponents x own bids) of one pricing call of the regret
# estimate; a deviation menu larger than one call is priced in slices.
# The kernel's masks and their copies, the price and utility arrays peak
# at about 25 bytes per cell with two opponents (tracemalloc), so a call
# stays near 0.4 MB.
_REGRET_CELLS = 1 << 14
# Deviation-menu length cap.  A menu too wide for one call is built and
# sorted whole, which sets the estimate's peak: 49 bytes per bid
# (tracemalloc, 49 MB at 2^20 bids).  Pricing it costs bids x draws x
# opponents cells, about 1.6 s per 2^20-bid menu at 16 draws and one
# opponent on a 2-core VM.
_MAX_MENU = 1 << 20


def _deviation_winners(grid, played, opp, mass, value, a, others, w_padded, delta):
    """Per (type, keyword) row: the best deviation's utility on the row's
    menu and the played bid's utility, each a mean over the draws.  A
    row has grid[r] grid points k * delta, its played bid, keyword mass
    and keyword value, and opp[r] (draw, opponent) holds the opponents'
    bids.  Its menu is the grid plus 0, the value and the played bid,
    sorted and padded with bid 0 to the widest menu of its call.  Rows
    are priced by width, several to one gsp_outcome call of at most
    _REGRET_CELLS cells, with the played bid as a last column; a row too
    wide for a call alone is priced in slices of its menu, whose best
    bids are then selected as a menu of their own."""
    rows, draws = len(grid), opp.shape[1]
    room = max(2, _REGRET_CELLS // (draws * max(1, len(others))))  # own bids per call
    best, u_played = np.empty(rows), np.empty(rows)

    def menus(idx):
        k = np.arange(grid[idx].max(initial=0))
        points = np.where(k < grid[idx, None], k * delta, 0.0)
        return np.sort(np.concatenate([points, np.zeros((len(idx), 1)), value[idx, None],
                                       played[idx, None]], axis=1), axis=1)

    def evaluate(idx, menu):
        own = np.concatenate([menu, played[idx, None]], axis=1)
        slot_w, active, price, _ = gsp_outcome(own, a, opp[idx].transpose(1, 0, 2)[:, :, None],
                                               others, w_padded)
        util = np.where(active, mass[idx, None] * slot_w * (value[idx, None] - price), 0.0)
        mean = sum(util) / draws      # builtin sum: the draws added in draw order
        return (*_best_bids(menu, mean[:, :-1]), mean[:, -1])

    by_width = np.argsort(grid, kind="stable")
    width = grid[by_width] + 4      # grid, 0, value, played, the played column
    lo = 0
    while lo < rows:
        fit = int(np.searchsorted(np.arange(1, rows - lo + 1) * width[lo:], room, "right"))
        idx = by_width[lo:lo + max(fit, 1)]
        if fit:
            best[idx], _, u_played[idx] = evaluate(idx, menus(idx))
        else:
            menu = menus(idx)
            u, b, played_u = zip(*(evaluate(idx, menu[:, j:j + room - 1])
                                   for j in range(0, menu.shape[1], room - 1)))
            best[idx] = _best_bids(np.stack(b, -1), np.stack(u, -1))[0]
            u_played[idx] = played_u[0]
        lo += len(idx)
    return best, u_played


def estimate_bne_regret(bayes: BayesScenario, strategy: Callable, n_types: int,
                        deviation_delta: float, rng,
                        n_opponent_draws: int = 32) -> dict:
    """Monte-Carlo interim regret of a type-measurable strategy, a map
    from an (n, |A|, |Q|) value tensor to an (n, |A|, |S|) bid tensor.

    For each advertiser and each sampled own type, opponents' types are
    redrawn n_opponent_draws times (common random numbers across all
    candidate deviations); the deviation menu per keyword is the grid
    {0, delta, ...} capped at the realized keyword value plus 0, the exact
    truthful point and the played bid, and the reported regret is the
    estimated gain of the best deviation over the strategy's own play,
    averaged over types, with its standard error.  Each advertiser's
    profiles come from one sample_values call, a type's own profile
    followed by its opponent profiles, and are bid in one strategy call.
    Every type's menus are priced at once (_deviation_winners): padded
    menu rows, several to one gsp_outcome call of at most _REGRET_CELLS
    cells, the draws' utilities added in draw order.  The keyword
    selection is best response's (_best_bids, _rank_keywords).  A menu of
    more than _MAX_MENU bids raises TooLarge before any menu is built.
    """
    if n_types < 1:
        raise ValidationError("n_types must be >= 1")
    if not (math.isfinite(deviation_delta) and deviation_delta > 0.0):
        raise ValidationError(f"deviation_delta must be finite and positive, "
                              f"got {deviation_delta}")
    if n_opponent_draws < 1:
        raise ValidationError("n_opponent_draws must be >= 1")
    advertisers, keywords = bayes.advertisers, bayes.graph.keywords
    n_adv, n_kw = len(advertisers), len(keywords)
    by_name = sorted(range(n_kw), key=keywords.__getitem__)     # keyword columns in name order
    rows = 1 + n_opponent_draws      # a type's own profile, then its opponents'
    mass = np.tile(np.array([bayes.kw_masses[keywords[k]] for k in by_name]), n_types)
    w_padded = padded_weights(bayes)
    out = {}
    for a, i in enumerate(advertisers):
        others = np.delete(np.arange(n_adv), a)
        draws = bayes.sample_values(rng, n_types * rows)
        bids = strategy(draws)
        require_finite_bid_tensor(bayes, bids)
        # one row per (type, keyword), keywords in name order
        value = keyword_value_tensor(bayes, draws[::rows, a])[:, by_name].ravel()
        grid = np.maximum(np.floor(value / deviation_delta + 1e-9) + 1.0, 0.0)
        if grid.max(initial=0.0) + 3 > _MAX_MENU:
            r = int(grid.argmax())
            raise TooLarge(f"advertiser {i!r} has a deviation menu of {grid[r] + 3:.0f} bids "
                           f"on keyword {keywords[by_name[r % n_kw]]!r} at delta "
                           f"{deviation_delta:g} (cap {_MAX_MENU})")
        bids = bids.reshape(n_types, rows, n_adv, n_kw)[..., by_name]
        opp = bids[:, 1:, others].transpose(0, 3, 1, 2).reshape(n_types * n_kw,
                                                                 n_opponent_draws, len(others))
        u, u_played = _deviation_winners(grid.astype(np.intp), bids[:, 0, a].ravel(), opp,
                                            mass, value, a, others, w_padded, deviation_delta)
        u, u_played = u.reshape(n_types, n_kw), u_played.reshape(n_types, n_kw)
        order, kept = _rank_keywords(u, bayes.kappa)
        # builtin sums in ranked order: the best kept utilities, the played ones
        gaps = [max(0.0, sum(best[:k]) - sum(own))
                for best, own, k in zip(np.take_along_axis(u, order, 1).tolist(),
                                        np.take_along_axis(u_played, order, 1).tolist(),
                                        kept.tolist())]
        arr = np.asarray(gaps)
        out[i] = RegretEstimate(mean=float(arr.mean()),
                                stderr=float(arr.std(ddof=1) / math.sqrt(n_types))
                                if n_types > 1 else 0.0,
                                n_types=n_types, per_type=tuple(arr.tolist()))
    return out
