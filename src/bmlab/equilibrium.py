"""Equilibrium search and verification on discretized bid spaces.

The continuous strategy space is replaced by a grid: per-keyword menus
{k * delta <= cap} with the exact truthful keyword value spliced in so
truthful play is always representable.  Equilibria are exact with
respect to the grid (regret tolerance 1e-9 * max value by default);
off-grid deviations are covered by the continuity slack (max slot
weight) * delta that the analysis layer adds to its bounds.

Utilities are separable across keywords (u_i = sum_s u_i^s), which the
best-response search exploits: each keyword is optimized independently
and the top-kappa keywords by achieved utility are kept.  Against fixed
opponent bids a GSP utility is a step function of the own bid, which
steps only where the bid passes an opponent's.  Best response, the
regret check and best-response dynamics price on bid ladders (_Ladders),
in plain Python: per keyword, the profile's positive bids sorted by
mechanisms.outranks, and per (advertiser, keyword) row only the menu
bids that pass one of the first S opponents (S the positions of positive
weight) and the lowest positive bid.  Each is found by grid arithmetic
(_lowest_above, the lowest grid bid above a given float), so no menu is
built and a fine grid costs no more than a coarse one.  A run builds the
ladders once from the profile, and the dynamics move a rewritten row's
changed keys in place.  The regret check also prices each keyword's
played bid.  The dynamics' stopping test prices the regrets in
advertiser order only up to the first one above epsilon, and the report
prices all of them once, on the final profile.  The Bayes-Nash regret
estimate uses the same breakpoint rule on one bidder's (type, keyword)
rows (_deviation_menus): per opponent bid of its draws, the lowest grid
bid that outranks it (_lowest_above's rule, on arrays), with delta, the
value and the played bid, so a row's size is bounded by the draws, not
by value / delta; it prices them with mechanisms.gsp_outcome, the one
GSP kernel, and ranks the keywords as best response does.  The
pure-Nash enumerator builds each participant's menu on a keyword once
(_levels) and no strategy row: it scans each keyword's grid of its
participants' menus with gsp_outcome, not the joint grid, for the bid
vectors a stable profile can hold there, checks only the profiles
built from those, and reads the survivors' bids off the menus.  Its
size guards count what it builds: the keyword-grid cells, read from the
grid before any menu, and the candidate profiles, as they are made.  It
returns the survivors as arrays (Equilibria): bids, regrets and
welfare, from which a report per equilibrium is built only when one is
read, so that the price of anarchy needs only the welfare's minimum and
a writer can format blocks of them.
Every solver here prices at reserve 0 with the tie rule of
mechanisms.outranks and reports the welfare of
mechanisms.pbm_expected_welfare_batch.  The full-information solvers read
a bid profile through mechanisms.bid_matrix, so bids on keywords outside
the graph are ignored, and reject a non-finite bid on one inside it, a
negative one, and a row of more than kappa positive bids.
"""
from __future__ import annotations

import itertools
import math
from bisect import bisect_left, insort
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from .errors import NotSingleSlot, ParameterRange, TooLarge, ValidationError
from .market import BayesScenario, Scenario, keyword_value_tensor
from .mechanisms import (
    bid_matrix,
    gsp_outcome,
    outranks,
    padded_weights,
    pbm_expected_welfare,
    pbm_expected_welfare_batch,
    require_finite_bid_tensor,
    validate_bid_profile,
)

_TRUTHFUL_TOL = 1e-9


# ------------------------------------------------------------------ grids

@dataclass(frozen=True)
class BidGrid:
    """Per-keyword bid menus: {k * delta <= cap_s}.  A cap over delta
    past the float range leaves no grid index and raises ParameterRange."""

    delta: float
    caps: Mapping[str, float]

    def __post_init__(self):
        if not (math.isfinite(self.delta) and self.delta > 0.0):
            raise ValidationError(f"grid delta must be finite and positive, "
                                  f"got {self.delta}")
        for s, cap in self.caps.items():
            if cap < 0.0:
                raise ValidationError(f"grid cap for {s!r} must be >= 0, got {cap}")
            if not math.isfinite(cap / self.delta):
                raise ParameterRange(f"grid cap {cap:g} of keyword {s!r} over grid delta "
                                     f"{self.delta:g} overflows")

    def size(self, keyword) -> int:
        """The number of grid points k * delta <= the keyword's cap."""
        cap = self.caps[keyword]
        return _lowest_above(cap, self.delta, math.floor(cap / self.delta) + 2)


def make_grid(scenario: Scenario, delta: float) -> BidGrid:
    """The grid with each keyword capped at the largest keyword value
    any advertiser has for it (bidding above is weakly dominated)."""
    caps = {s: max(scenario.kw_values[i][s] for i in scenario.advertisers)
            for s in scenario.graph.keywords}
    return BidGrid(delta=float(delta), caps=caps)


def _points_upto(x, delta, n):
    """How many grid points k * delta, k < n, are <= x: a bisection on the
    float products, which do not decrease in k.  (bisect cannot take a
    range past sys.maxsize, and a fine grid reaches 10^30 points.)"""
    lo, hi = 0, n
    while lo < hi:
        mid = (lo + hi) // 2
        lo, hi = (mid + 1, hi) if mid * delta <= x else (lo, mid)
    return lo


def _lowest_above(x, delta, n):
    """The lowest k < n with k * delta > x, or n: _points_upto(x, delta, n)
    by definition.  The guess floor(x / delta) + 1 stands only if (k - 1)
    * delta <= x < k * delta, as the products do not decrease in k; past
    about 2^53 grid steps neighbouring k give the same float and the
    guess may miss, so a failed check bisects.  An x at or above the
    last point skips the guess, so that no overflow reaches math.floor."""
    if x >= (n - 1) * delta:
        return n
    k = math.floor(x / delta) + 1
    return k if k > 0 and (k - 1) * delta <= x < k * delta else _points_upto(x, delta, n)


def _menu_rule(grid, keyword, value, conservative):
    """(kept, size) of a bid menu from the grid alone: its grid points k *
    delta are a prefix, all kept or under conservative those <= value +
    1e-12, and its size adds the value unless it is one of them."""
    n = grid.size(keyword)
    kept = _points_upto(value + 1e-12, grid.delta, n) if conservative else n
    return kept, kept + ((_points_upto(value, grid.delta, kept) - 1) * grid.delta != value)


def _levels(grid, keyword, value, conservative):
    """A sorted bid menu: _menu_rule's kept grid points k * delta (k < 2^53
    by the cells cap: scalar products) and the value unless among them."""
    kept, size = _menu_rule(grid, keyword, value, conservative)
    levels, at = np.arange(kept) * grid.delta, _points_upto(value, grid.delta, kept)
    return levels if size == kept else np.concatenate((levels[:at], [value], levels[at:]))


# ------------------------------------------------------------ best response

def _ladder(bids):
    """A keyword's bid ladder: the positive bids of bids (by advertiser
    index) as (-bid, advertiser index) keys in ascending order, which is
    mechanisms.outranks order: a key below another outranks it."""
    return sorted((-b, a) for a, b in enumerate(bids) if b > 0.0)


class _Ladders:
    """A bid profile as the full-information solvers price it.  The
    profile is read once through bid_matrix, checked by
    require_finite_bid_tensor and, on the keywords of the graph, by
    validate_bid_profile; per keyword it holds the bids by advertiser
    index and their _ladder, whose keys write moves in place.  The
    utility of an own bid against fixed opponent bids steps only where
    the bid passes one of them, so a response prices a few bids per
    keyword in plain Python, each found by grid arithmetic: no menu is
    built, and the grid's size does not bound the solvers.  rows[a]: per
    positive keyword of advertiser index a, in name order, (keyword,
    kept, mass, value), its menu's kept grid points k * delta, k < kept,
    read from _menu_rule; built for index `only` alone unless it is
    None."""

    def __init__(self, scenario, grid, conservative, bids, only=None):
        self.scenario, self.delta = scenario, grid.delta
        dense = bid_matrix(scenario, bids)
        require_finite_bid_tensor(scenario, dense[None])
        self.bids = dict(zip(scenario.graph.keywords, dense.T.tolist()))
        validate_bid_profile(scenario, {i: {s: b for s, b in row.items() if s in self.bids}
                                        for i, row in bids.items()})
        self.ladders = {s: _ladder(col) for s, col in self.bids.items()}
        # weights never increase, so the positive ones are positions 0..S-1
        self.w = [x for x in scenario.weights.as_tuple() if x > 0.0]
        values = scenario.kw_values
        self.rows = [[(s, _menu_rule(grid, s, values[i][s], conservative)[0],
                       scenario.kw_masses[s], values[i][s])
                      for s in sorted(scenario.kw_positive[i])]
                     if only in (None, a) else [] for a, i in enumerate(scenario.advertisers)]

    def utility(self, opp, a, b, mass, value):
        """gsp_outcome's utility of advertiser index a bidding b > 0 against
        opp, the first S keys other than a's on the keyword's ladder, the
        only ones that can outrank a paid bid or set its price: its rank
        counts the keys below (-b, a); in a position of positive weight it
        pays the next opponent bid down, or 0.0, and earns mass * weight *
        (value - price)."""
        r = bisect_left(opp, (-b, a))
        if r >= len(self.w):
            return 0.0
        price = -opp[r][0] if r < len(opp) else 0.0
        return mass * self.w[r] * (value - price)

    def respond(self, a, played=False):
        """(best row, its utility) of advertiser index a against the
        others' bids.  Per keyword the candidates are the menu's lowest
        positive bid, min(delta, value) or the value alone when
        kept <= 1, and, per opponent bid o, the lowest menu bid that
        outranks it: the lowest menu bid above x, with x = o where a
        loses their tie and the float below o where it wins.  That is
        the grid bid k * delta, k = _lowest_above(x, delta, kept) < kept,
        or the value where x < value < k * delta.  Every utility step
        starts at one of them; those past an x at or above the value are
        left out, as a bid that outranks o pays at least o and gains
        nothing.  Scanned in ascending bid order with a strict > from 0.0
        they give the menu's first maximum, or (0, 0.0).  With played,
        a's positive bid on the keyword is a last candidate, so that a
        row may keep a played bid off the grid.  The keywords are ranked
        by (-utility, keyword), the top kappa of positive utility kept and
        their utilities added in that order from 0.0."""
        w, bids, ladders, utility = self.w, self.bids, self.ladders, self.utility
        delta = self.delta
        S, ranked = len(w), []
        for s, kept, mass, value in self.rows[a]:
            opp = [key for key in ladders[s][:S + 1] if key[1] != a][:S]
            cands = [delta if kept > 1 and delta < value else value]
            # per opponent, lowest first, the lowest bid outranking it
            for nb, j in reversed(opp):
                x = -nb if j < a else math.nextafter(-nb, -math.inf)
                if x >= value:  # outranking it pays at least the value
                    break
                k = _lowest_above(x, delta, kept)
                cands.append(k * delta if k < kept and k * delta < value else value)
            if played and (p := bids[s][a]) > 0.0:
                cands.append(p)
            best_u, best_b = 0.0, 0.0
            for b in cands:
                u = utility(opp, a, b, mass, value)
                if u > best_u:
                    best_u, best_b = u, b
            if best_u > 0.0:
                ranked.append((-best_u, s, best_b))
        kept = sorted(ranked)[:self.scenario.kappa]
        return {s: b for _, s, b in kept}, sum((-u for u, _, _ in kept), 0.0)

    def played(self, a, row):
        """The utility of advertiser index a's bid row: its positive bids
        on keywords of the graph priced on their ladders, added in row
        order from 0.0."""
        sc, S, total = self.scenario, len(self.w), 0.0
        for s in row:
            if s in self.bids and (b := self.bids[s][a]) > 0.0:
                opp = [key for key in self.ladders[s][:S + 1] if key[1] != a][:S]
                total += self.utility(opp, a, b, sc.kw_masses[s], sc.kw_values[sc.advertisers[a]][s])
        return total

    def write(self, a, row):
        """Set advertiser index a's bids to the bid row, moving its key in
        the ladder of each keyword whose bid changes: the old key out,
        found by bisection, and the new one in, if positive."""
        for s, col in self.bids.items():
            if (old := col[a]) != (b := row.get(s, 0.0)):
                col[a], ladder = b, self.ladders[s]
                if old > 0.0:
                    del ladder[bisect_left(ladder, (-old, a))]
                if b > 0.0:
                    insort(ladder, (-b, a))


def best_response(scenario: Scenario, bids, advertiser, grid: BidGrid,
                  conservative=False):
    """Exact best response of one advertiser on the grid.

    Searches every keyword independently (utility separability), keeps
    the top-kappa keywords by achieved utility, and among equally good
    bids prefers the lowest, then the lexicographically first keyword.
    Bids on keywords outside the graph are ignored; an advertiser the
    scenario does not have raises ValidationError.  Returns (bid row,
    total utility).
    """
    if advertiser not in scenario.advertisers:
        raise ValidationError(f"best response of unknown advertiser {advertiser!r}")
    a = scenario.advertisers.index(advertiser)
    return _Ladders(scenario, grid, conservative, bids, a).respond(a)


def default_epsilon(scenario: Scenario) -> float:
    """Float-tolerance regret threshold: 1e-9 times the largest value."""
    return 1e-9 * max(float(scenario.value_matrix.max(initial=0.0)), 1.0)


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
    """Per-advertiser regret of a profile: its best utility over grid
    deviations, in which each keyword may also keep its played bid, less
    its utility.  So an off-grid bid that pays more than every grid bid
    on its keyword still counts against a deviation elsewhere."""
    return _regrets(_Ladders(scenario, grid, conservative, bids), bids)


def _regret(ladders, a, row):
    """The regret of advertiser index a, playing row, on the ladders: its
    best utility, its played bids among the candidates, less its current."""
    return max(0.0, ladders.respond(a, played=True)[1] - ladders.played(a, row))


def _regrets(ladders, bids):
    """_regret of every advertiser of the profile bids."""
    return {i: _regret(ladders, a, bids.get(i, {}))
            for a, i in enumerate(ladders.scenario.advertisers)}


def best_response_dynamics(scenario: Scenario, initial, grid: BidGrid,
                           epsilon=None, max_iters=50,
                           conservative=False) -> EquilibriumReport:
    """Round-robin best responses until every regret is <= epsilon or the
    iteration cap; non-convergence is a report state, not an error.  The
    stopping test before each sweep stops at the first regret above
    epsilon; the report prices every regret on the final profile."""
    eps = _resolve_epsilon(scenario, epsilon)
    if max_iters < 0:
        raise ValidationError(f"max_iters must be >= 0, got {max_iters}")
    profile = {i: dict(initial.get(i, {})) for i in scenario.advertisers}
    # the rows depend only on (advertiser, keyword), so they are built once;
    # every row a best response writes is feasible, so one check suffices
    ladders = _Ladders(scenario, grid, conservative, initial)
    iterations = 0
    for iterations in range(1, max_iters + 1):
        if all(_regret(ladders, a, profile[i]) <= eps for a, i in enumerate(scenario.advertisers)):
            break
        for a, i in enumerate(scenario.advertisers):
            profile[i], _ = ladders.respond(a)
            ladders.write(a, profile[i])
    regrets = _regrets(ladders, profile)
    converged = max_iters > 0 and max(regrets.values(), default=0.0) <= eps
    return EquilibriumReport(profile=profile, regrets=regrets,
                             converged=converged, iterations=iterations,
                             epsilon=eps,
                             welfare=pbm_expected_welfare(scenario, profile))


# --------------------------------------------------------- Nash enumeration

def strategy_rows(menus, kappa):
    """All feasible bid rows of one advertiser over its menus, sorted from
    0.0 per positive keyword in name order (at most kappa positive bids),
    as (keyword list, array).

    Rows are generated by keyword subset then menu product, so only
    feasible rows are ever materialized.  The enumerator never builds
    them; this order is the one its reports sort into, the whole-grid
    scan that is its test oracle (joint_scan_pure_nash) scans these rows,
    and the benchmark's tracer wraps this function by name.
    """
    pool = list(menus)
    positive = [m[1:] for m in menus.values()]      # menus always start at 0.0
    K = len(pool)
    rows = []
    for size in range(0, min(kappa, K) + 1):
        for subset in itertools.combinations(range(K), size):
            for combo in itertools.product(*(positive[j] for j in subset)):
                row = [0.0] * K
                for j, b in zip(subset, combo):
                    row[j] = b
                rows.append(row)
    return pool, np.array(rows)


# Entries over width (a keyword's participants, or the keywords) per piece
# or chunk of the enumerator.
_CHUNK_PROFILES = 1 << 16
# Keyword-grid cells, and candidate profiles, enumerate_pure_nash builds
# at most.
_MAX_BUILT = 1 << 22


class _Keyword:
    """A keyword some advertiser values: its participants' advertiser
    indices in order and each one's _levels on it as its bids; once
    scanned, its locally stable vectors, per vector each participant's
    bid index (digits), utility and best utility."""

    def __init__(self, scenario, s, ids, grid, conservative, w_padded):
        self.scenario, self.s, self.w_padded = scenario, s, w_padded
        self.ids = np.array(ids)
        self.levels = [_levels(grid, s, scenario.kw_values[scenario.advertisers[a]][s],
                               conservative) for a in ids]
        self.sizes = [len(lv) for lv in self.levels]

    def outcome(self, p, own, digits):
        """(active, utility) of participant p bidding own against the
        others' bids at rows of digits (p's column unread), by gsp_outcome."""
        others = [q for q in range(len(self.ids)) if q != p]
        opp = np.empty(digits.shape[:-1] + (len(others),))
        for c, q in enumerate(others):
            opp[..., c] = self.levels[q][digits[..., q]]
        sc, a = self.scenario, self.ids[p]
        slot_w, active, price, _ = gsp_outcome(own, a, opp, self.ids[others], self.w_padded)
        value = sc.kw_values[sc.advertisers[a]][self.s]
        return active, np.where(active, sc.kw_masses[self.s] * slot_w * (value - price), 0.0)

    def scan(self, tol, checked):
        """Keep the vectors where each participant p's utility is at least
        its best less tol[p], tested where p bids > 0 or, if checked[p],
        everywhere.  p's bests: a row-major table over the grid with p's
        axis cut to 1 (index: digits dotted with strides[p]), priced in
        pieces of p's bids by others' combinations.  Then the grid, in
        row-major pieces, p by p on the cells still kept.  A piece holds
        _CHUNK_PROFILES // k cells, or p's bids at least."""
        k = len(self.ids)
        cells = max(1, _CHUNK_PROFILES // k)
        other = [self.sizes[:p] + [1] + self.sizes[p + 1:] for p in range(k)]
        strides = [np.cumprod([1] + shape[:0:-1])[::-1] * (np.arange(k) != p)
                   for p, shape in enumerate(other)]
        tables = [np.empty(math.prod(shape)) for shape in other]
        for p, table in enumerate(tables):
            step = max(1, cells // self.sizes[p])
            for lo in range(0, len(table), step):
                digits = np.stack(np.unravel_index(np.arange(lo, min(lo + step, len(table))),
                                                   other[p]), axis=-1)
                table[lo:lo + step] = self.outcome(p, self.levels[p][:, None],
                                                   digits[None])[1].max(axis=0)
        found, grid = [], math.prod(self.sizes)
        for lo in range(0, grid, cells):
            digits = np.stack(np.unravel_index(np.arange(lo, min(lo + cells, grid)),
                                               self.sizes), axis=-1)
            util = np.zeros(digits.shape)
            for p in range(k):
                at = np.arange(len(digits)) if checked[p] else np.flatnonzero(digits[:, p])
                rows = digits[at]
                util[at, p] = u = self.outcome(p, self.levels[p][rows[:, p]], rows)[1]
                keep = np.ones(len(digits), dtype=bool)
                keep[at[u < tables[p][rows @ strides[p]] - tol[p]]] = False
                digits, util = digits[keep], util[keep]
            found.append((digits, util, np.stack(
                [tables[p][digits @ strides[p]] for p in range(k)], axis=-1)))
        self.digits, self.util, self.best = (np.concatenate(x) for x in zip(*found))


def _candidates(keywords, kappa, part, count):
    """Chunks of the candidates extending the rows part (a stable vector
    per keyword so far; count, the positive bids per advertiser): grown
    keyword by keyword, over the row-major (row, vector) index in pieces
    of _CHUNK_PROFILES // (keywords) entries, each row dropped once over
    kappa bids."""
    if not keywords:
        yield part
        return
    kw, size = keywords[0], len(keywords[0].digits)
    step, total = max(1, _CHUNK_PROFILES // (part.shape[1] + len(keywords))), len(part) * size
    for lo in range(0, total, step):
        rows, pick = np.divmod(np.arange(lo, min(lo + step, total)), size)
        grown = count[rows]
        ok = np.ones(len(rows), dtype=bool)
        for p, a in enumerate(kw.ids):
            grown[:, a] += kw.digits[pick, p] > 0
            ok &= grown[:, a] <= kappa
        yield from _candidates(keywords[1:], kappa,
                               np.column_stack((part[rows[ok]], pick[ok])), grown[ok])


def _best_sum(tops, size, n):
    """The maximum over the subsets of `size` of the n-vectors tops of their
    sum added in order from 0.0, by a DP: sums[j] the best of j so far."""
    sums = [np.zeros(n)] + [np.full(n, -np.inf)] * size
    for k, top in enumerate(tops, 1):
        for j in range(min(k, size), 0, -1):
            sums[j] = np.maximum(sums[j], sums[j - 1] + top)
    return sums[size]


def _scan(scenario, grid, conservative, eps, winner_truthful):
    """Every keyword's _Keyword, once the cells guard passes, scanned at
    epsilon eps plus its advertiser's slack, and per advertiser index its
    keywords as (keyword, participant position) pairs.  winner_truthful
    keeps the vectors where each slot winner bids its keyword value."""
    advs, w_padded = scenario.advertisers, padded_weights(scenario)
    parts = [(s, ids) for s in scenario.graph.keywords
             if (ids := [a for a, i in enumerate(advs) if s in scenario.kw_positive[i]])]
    cells = sum(math.prod(_menu_rule(grid, s, scenario.kw_values[advs[a]][s], conservative)[1]
                          for a in ids) for s, ids in parts)
    if cells > _MAX_BUILT:
        raise TooLarge(f"keyword grids hold {cells} cells (cap {_MAX_BUILT})")
    keywords = [_Keyword(scenario, s, ids, grid, conservative, w_padded) for s, ids in parts]
    mine = [[(j, p) for j, kw in enumerate(keywords) for p, b in enumerate(kw.ids) if b == a]
            for a in range(len(advs))]
    tol = [eps + 2 * (len(m) + 2) * 2.0 ** -53 * (eps + sum(
        scenario.kw_masses[keywords[j].s] * float(w_padded.max())
        * max(scenario.kw_values[advs[a]][keywords[j].s],
              keywords[j].levels[p][-1]) for j, p in m)) for a, m in enumerate(mine)]
    for kw in keywords:
        kw.scan([tol[a] for a in kw.ids], [len(mine[a]) <= scenario.kappa for a in kw.ids])
        for p, a in enumerate(kw.ids if winner_truthful else ()):
            bid = kw.levels[p][kw.digits[:, p]]
            value = scenario.kw_values[advs[a]][kw.s]
            keep = ~(kw.outcome(p, bid, kw.digits)[0] & (np.abs(bid - value) > _TRUTHFUL_TOL))
            kw.digits, kw.util, kw.best = kw.digits[keep], kw.util[keep], kw.best[keep]
    return keywords, mine


def _equilibria(scenario, grid, conservative, eps, winner_truthful):
    """The stable profiles of enumerate_pure_nash on the grid, as an
    (equilibrium, advertiser, keyword in graph order) bid tensor in the
    order of the joint strategy_rows grid, and the (advertiser, profile)
    regrets."""
    keywords, mine = _scan(scenario, grid, conservative, eps, winner_truthful)
    kappa, n = scenario.kappa, len(scenario.advertisers)
    found, total = [(np.zeros((0, len(keywords)), dtype=np.intp), np.zeros((0, n)))], 0
    for choice in _candidates(keywords, kappa, np.zeros((1, 0), dtype=np.intp),
                              np.zeros((1, n), dtype=np.intp)):
        total += len(choice)
        if total > _MAX_BUILT:
            raise TooLarge(f"stable keyword vectors make at least {total} candidate "
                           f"profiles (cap {_MAX_BUILT})")
        gaps = np.empty((len(choice), 0))
        for m in mine:      # an advertiser's test on the candidates the others kept
            u = sum((keywords[j].util[choice[:, j], p] for j, p in m), np.zeros(len(choice)))
            best = _best_sum([keywords[j].best[choice[:, j], p] for j, p in m],
                             min(kappa, len(m)), len(choice))
            ok = np.flatnonzero(u >= best - eps)
            choice, gaps = choice[ok], np.column_stack((gaps[ok], best[ok] - u[ok]))
        found.append((choice, gaps))
    choice, regrets = (np.concatenate(x) for x in zip(*found))
    col = {s: k for k, s in enumerate(scenario.graph.keywords)}
    bids = np.zeros((len(choice), n, len(col)))
    for j, kw in enumerate(keywords):
        digits = kw.digits[choice[:, j]]
        for p, a in enumerate(kw.ids):
            bids[:, a, col[kw.s]] = kw.levels[p][digits[:, p]]
    # strategy_rows order, advertiser 0 first: per advertiser its count of
    # positive bids, then per keyword in name order a zero bid last
    # (itertools.combinations order), then the bids (itertools.product order)
    keys = []
    for a, i in enumerate(scenario.advertisers):
        own = bids[:, a, [col[s] for s in sorted(scenario.kw_positive[i])]]
        keys += [(own > 0.0).sum(axis=1), *(own == 0.0).T, *own.T]
    order = np.lexsort(keys[::-1])
    return bids[order], regrets[order].T


class Equilibria(Sequence):
    """The pure Nash equilibria of enumerate_pure_nash, held as the arrays
    the enumerator builds, in joint strategy_rows order: bids (E, |A|,
    |S|; advertisers in scenario order, keywords in graph order), regrets
    (|A|, E) and welfare (E,), all read-only.  len, iteration and indexing
    (negative too) build each equilibrium's EquilibriumReport only when it
    is asked for: profile rows of the positive bids, keywords in name
    order, and the regrets and welfare as floats."""

    def __init__(self, scenario, bids, regrets, welfare, epsilon):
        self.advertisers, self.keywords = scenario.advertisers, scenario.graph.keywords
        self.bids, self.regrets, self.welfare, self.epsilon = bids, regrets, welfare, epsilon
        for arr in (bids, regrets, welfare):
            arr.flags.writeable = False
        self._by_name = sorted(range(len(self.keywords)), key=self.keywords.__getitem__)

    def __len__(self):
        return len(self.welfare)

    def __getitem__(self, h):
        h = range(len(self.welfare))[h]
        names = self.keywords
        return EquilibriumReport(
            profile={i: {names[k]: row[k] for k in self._by_name if row[k] > 0.0}
                     for i, row in zip(self.advertisers, self.bids[h].tolist())},
            regrets=dict(zip(self.advertisers, self.regrets[:, h].tolist())),
            converged=True, iterations=0, epsilon=self.epsilon,
            welfare=float(self.welfare[h]))


def enumerate_pure_nash(scenario: Scenario, grid: BidGrid, epsilon=None,
                        conservative=False, winner_truthful=False) -> Equilibria:
    """Every pure Nash equilibrium on the grid, found keyword by keyword.

    Strategy spaces are restricted to each advertiser's positive
    keywords: by utility separability a deviation onto a zero-value
    keyword never strictly gains, so the Nash set over the restricted
    space certifies the Nash condition over the full space.

    The joint grid is never scanned and no strategy row is built: each
    menu is built once, on its keyword (_levels).  If advertiser a bids
    > 0 on keyword s in a stable profile, swapping that bid for a's best
    on s leaves a row of at most kappa positive bids whose utility,
    different only in the s term, is at most a's best-response utility
    B_a; so a's utility there, u_s, is within epsilon of the best,
    best_s.  A zero bid swaps the same way if a has at most kappa
    keywords.  So each
    keyword's grid of its participants' menus is scanned for the vectors
    where those bids are within epsilon plus a float slack of best_s
    (_Keyword.scan), and the product of these sets less the rows of over
    kappa positive bids (_candidates) is checked: a candidate is kept if
    every advertiser's keyword utilities, added in graph order from 0.0,
    are >= B_a - epsilon, B_a the best sum of min(kappa, K) of a's K
    best_s (_best_sum), which is a's maximum over its rows bit for bit
    (float addition is monotone in each term, a zero bid adds 0.0).

    The slack: a sum of K floats from 0.0 is within (K - 1) u sum|x| (1
    + O(u)) of its exact value, u = 2^-53, and a term, a's utility or
    best on one keyword, at most mass * top slot weight * max(value, top
    bid) in magnitude; U_a adds those bounds over a's K keywords.  The
    swapped row's computed sum is at most B_a, so the rounded test
    implies best_s - u_s <= epsilon + (2K + 1) u (U_a + epsilon) (1 +
    O(u)), and the rounded local test keeps every such bid with slack =
    2 (K + 2) u (U_a + epsilon).  No stable profile is dropped.

    The size guards count what is built, not the joint grid.  Keyword
    grids of over _MAX_BUILT cells in all raise TooLarge, naming the
    exact count, before any menu is built: a keyword's cells are the
    product of its participants' menu sizes, _menu_rule's, read from
    the grid alone.  This bounds the menus, the best tables and the
    stable vectors.  The candidates are counted as _candidates makes
    them, and a chunk that takes them past _MAX_BUILT raises TooLarge
    before it is tested, which bounds the equilibria.

    winner_truthful keeps only equilibria in which every slot winner
    bids exactly their keyword value on the winning keyword, a test of a
    keyword's vector that _scan applies before any candidate.  The
    result is an Equilibria: the survivors' bids, exact regrets and
    expected welfare as arrays ordered by joint row-major strategy_rows
    index, 8 * (|A| * |S| + |A| + 1) bytes per equilibrium, with each
    report built only when it is read.
    """
    eps = _resolve_epsilon(scenario, epsilon)
    if not scenario.advertisers:      # the empty profile is the one profile, and stable
        return Equilibria(scenario, np.zeros((1, 0, len(scenario.graph.keywords))),
                          np.zeros((0, 1)), np.zeros(1), eps)
    bids, regrets = _equilibria(scenario, grid, conservative, eps, winner_truthful)
    # the kept profiles, priced by the one welfare path
    values = np.broadcast_to(scenario.value_matrix, (len(bids),) + scenario.value_matrix.shape)
    return Equilibria(scenario, bids, regrets,
                      pbm_expected_welfare_batch(scenario, values, bids), eps)


# ---------------------------------------------------- dominant strategies

def single_slot_dominant_profile(scenario: Scenario) -> dict:
    """Truthful keyword-value bids on the top-kappa positive keywords by
    value, the weakly dominant play when only one slot has positive
    weight.  Ties in value go to the smaller keyword.  The bids of
    truthful_keyword_strategy on the scenario's values, each row in
    that ranking's order."""
    if not scenario.weights.is_single_slot:
        raise NotSingleSlot()
    bids = truthful_keyword_strategy(scenario)(scenario.value_matrix[None])[0].tolist()
    return {i: dict(sorted(((s, b) for s, b in zip(scenario.graph.keywords, row) if b > 0.0),
                           key=lambda kb: (-kb[1], kb[0])))
            for i, row in zip(scenario.advertisers, bids)}


# ------------------------------------------------- Bayes-Nash verification

def truthful_keyword_strategy(bayes: BayesScenario) -> Callable:
    """The truthful strategy: an (n, |A|, |Q|) value tensor in, an
    (n, |A|, |S|) bid tensor out (keywords in graph order).  Each
    advertiser bids its keyword value on its top-kappa positive keywords
    and 0 elsewhere.  A keyword's rank counts the keywords that outrank
    it on (value, name)."""
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


# Cells (own bids x draws x opponents) of one gsp_outcome call of the
# regret estimate.  The kernel's masks and copies and the utility arrays
# peak at about 29 bytes per cell (tracemalloc, 16 draws, two opponents),
# so a call stays near 1.9 MB.
_CELLS = 1 << 16


def _lowest_above_each(x, delta, n):
    """_lowest_above entry by entry on float arrays x and n of one shape,
    its guess (0 below 0) and bracket check on arrays, its misses by it."""
    last = x >= (n - 1.0) * delta
    with np.errstate(over="ignore"):    # x / delta overflows only at or past n
        k = np.where(last, n, np.maximum(np.floor(x / delta) + 1.0, 0.0))
    for at in zip(*np.nonzero(~last & (k > 0.0) & ~(((k - 1.0) * delta <= x) & (x < k * delta)))):
        k[at] = _lowest_above(x[at].item(), delta, int(n[at]))
    return k


def _deviation_menus(grid, value, played, opp, delta, a, others):
    """Bidder index a's deviations of its (type, keyword) rows, laid flat
    as (bids, row): row r's are bids[row == r], sorted without duplicates,
    and the rows follow in order.  Row r's grid is {0, delta, ...,
    (grid[r] - 1) * delta}, to which its keyword value value[r] and played
    bid played[r] are added.  Against the opponents' bids opp[..., r, :],
    whose advertiser indices are others, a bid's GSP utility steps only
    where the bid comes to outrank one of them, so per opponent bid o the
    grid keeps the lowest bid that outranks o: the lowest above x
    (_lowest_above_each), x = o where a loses their tie (j < a) and the
    float below o where it wins.  With delta, the lowest positive grid
    bid, they start every step, so a row holds the grid's best positive
    utility bit for bit in at most (opponent bids) + 3 bids.  A bid that
    falls outside the grid stands in as the value, which the row holds
    anyway."""
    x = np.where(others < a, opp, np.nextafter(opp, -np.inf))
    x = np.moveaxis(x, -2, 0).reshape(len(grid), -1)
    n = np.broadcast_to(grid[:, None], x.shape)
    k = _lowest_above_each(x, delta, n)
    on_grid = (x >= 0.0) & (x < (n - 1.0) * delta)     # not k < n: a float k may round to n
    bids = np.concatenate((np.where(on_grid, k * delta, value[:, None]),
                           np.column_stack((np.where(grid > 1.0, delta, value), value, played))),
                          axis=1)
    bids.sort(axis=1)
    keep = np.ones(bids.shape, dtype=bool)
    keep[:, 1:] = bids[:, 1:] != bids[:, :-1]
    return bids[keep], np.nonzero(keep)[0]


def estimate_bne_regret(bayes: BayesScenario, strategy: Callable, n_types: int,
                        deviation_delta: float, rng,
                        n_opponent_draws: int = 32) -> dict:
    """Monte-Carlo interim regret of a type-measurable strategy, a map
    from an (n, |A|, |Q|) value tensor to an (n, |A|, |S|) bid tensor.

    For each advertiser and each sampled own type, opponents' types are
    redrawn n_opponent_draws times (common random numbers across all
    candidate deviations).  The deviations on a keyword are the grid
    {0, delta, ...} capped at the realized keyword value, the exact
    truthful point, and the played bid, which each keyword may keep; the
    reported regret is the estimated gain of the best deviation over the
    strategy's own play, averaged over types, with its standard error.
    Each advertiser's profiles come from one sample_values call, a type's
    own profile followed by its opponent profiles, and are bid in one
    strategy call.  Every (type, keyword) row is cut to the grid bids
    that start a utility step against its opponents' bids
    (_deviation_menus), which give the whole grid's best utility bit for
    bit, so no grid is built whole and none is too wide.  The bids are
    priced by gsp_outcome against the opponent draws in calls of at most
    _CELLS cells, the draws' utilities added in draw order; a row's best
    is its maximum if > 0, else 0.0, and the keywords are ranked by
    best response's rule, (-utility, keyword), the top kappa of positive
    utility kept.  A delta so fine that a keyword value over it
    overflows leaves no grid index and raises ParameterRange.
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
        with np.errstate(over="ignore"):    # an overflow is caught just below
            n = np.floor(value / deviation_delta) + 2.0
        if np.isinf(n).any():    # value / delta overflows: no grid index for its bids
            raise ParameterRange(f"keyword value {value.max():g} of advertiser {i!r} over "
                                 f"deviation_delta {deviation_delta:g} overflows")
        grid = _lowest_above_each(value, deviation_delta, n)     # BidGrid.size per row
        bids = bids.reshape(n_types, rows, n_adv, n_kw)[..., by_name]
        played = bids[:, 0, a].ravel()
        opp = bids[:, 1:, others].transpose(1, 0, 3, 2).reshape(n_opponent_draws,
                                                                 n_types * n_kw, len(others))
        menu, row = _deviation_menus(grid, value, played, opp, deviation_delta, a, others)
        util = np.empty(len(menu))
        step = max(1, _CELLS // (n_opponent_draws * max(1, len(others))))
        for lo in range(0, len(menu), step):
            at = row[lo:lo + step]
            slot_w, active, price, _ = gsp_outcome(menu[lo:lo + step], a, opp.take(at, axis=-2),
                                                   others, w_padded)
            u = np.where(active, mass[at] * slot_w * (value[at] - price), 0.0)
            # the draws added in draw order
            np.divide(sum(u[1:], u[0]), n_opponent_draws, out=util[lo:lo + step])
        top = np.maximum.reduceat(util, np.flatnonzero(np.diff(row, prepend=-1)))
        u = np.where(top > 0.0, top, 0.0).reshape(n_types, n_kw)
        u_played = util[menu == played[row]].reshape(n_types, n_kw)     # once per row
        order = np.argsort(-u, axis=-1, kind="stable")
        kept = np.minimum((u > 0.0).sum(axis=-1), bayes.kappa)
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
