"""Equilibrium search and verification on discretized bid spaces.

The continuous strategy space is replaced by a grid: per-keyword menus
{0, delta, 2*delta, ..., cap} with the exact truthful keyword value
spliced in so truthful play is always representable.  Equilibria are
exact with respect to the grid (regret tolerance 1e-9 * max value by
default); off-grid deviations are covered by the continuity slack
(max slot weight) * delta that the analysis layer adds to its bounds.

Utilities are separable across keywords (u_i = sum_s u_i^s), which the
best-response search exploits: each keyword is optimized independently
and the top-kappa keywords by achieved utility are kept.  Best response,
the regret check, best-response dynamics and the Bayes-Nash regret
estimate share that computation: one menu pricer (_price_menus) prices
(bidder, keyword) rows, each a sorted bid menu and a played bid, against
per-row opponent bids with leading draw axes, in gsp_outcome calls of at
most _CELLS cells, and returns per row the best menu bid, its mean
utility and the played bid's; _rank_keywords keeps the top kappa.  The
full-information solvers call it with one draw: a run lays out every
advertiser's menus once, with the starting profile's positive bids off
those menus, and mirrors the profile in a dense (keyword, advertiser)
array whose advertiser column is rewritten whenever the dynamics write a
row; a call gathers each row's keyword column of it with the row's own
advertiser zeroed.  The regret estimate calls it with its opponent
draws, its menus built in runs of one call's bids, and refuses a menu of
more than _MAX_MENU bids.  The pure-Nash enumerator builds per-advertiser
strategy arrays and scans the joint grid (one axis per advertiser) once,
in bounded chunks of advertiser 0's rows, for every other advertiser's
best responses and the stable profiles.  Advertiser 0's best responses
come from separability instead, without the joint grid: per keyword its
best utility against the other participants' distinct bids, in bounded
pieces, and the best sum over keyword subsets of size min(kappa, its
keywords).  No array spans the whole grid, so its memory stays about one
chunk's plus a few entries per opponent profile however large the grid
grows.  Every solver here
prices its keyword auctions with mechanisms.gsp_outcome, the one GSP
kernel, at reserve 0, and reports the welfare of
mechanisms.pbm_expected_welfare_batch.  The solvers read a bid profile
through mechanisms.bid_matrix, so bids on keywords outside the graph are
ignored, and reject a non-finite bid on one inside it.
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


# ------------------------------------------------------------ menu pricing

# Cells (own bids x draws x opponents) of one gsp_outcome call of the menu
# pricer.  The kernel's masks and copies and the utility arrays peak at
# about 29 bytes per cell (tracemalloc, 16 draws, two opponents), so a
# call stays near 1.9 MB; the regret check of the benchmark's
# 20-advertiser markets is one call.
_CELLS = 1 << 16


def _call_entries(draws, opponents):
    """Own bids per pricing call: _CELLS cells, one bid at least."""
    return max(1, _CELLS // (draws * max(1, opponents)))


@dataclass(frozen=True)
class _Menus:
    """The sorted bid menus of (bidder, keyword) rows, laid flat: row r's
    menu is bids[first[r]:first[r + 1]] and never empty, and the entries
    from first[-1] on are on no menu (bids played off the menus).  Per
    entry: its row, bidder index, keyword mass and keyword value."""

    bids: np.ndarray
    row: np.ndarray
    first: np.ndarray
    who: np.ndarray
    mass: np.ndarray
    value: np.ndarray


def _price_menus(menus, played, opp, ids, w_padded):
    """(best bid, its mean utility, the played bid's mean utility) of each
    row of menus against the opponents' bids opp[..., r, :], whose
    advertiser indices are ids, and whose leading axes, if any, are draws;
    played[r] is the entry of row r's played bid.  The entries are priced
    in gsp_outcome calls of at most _CELLS cells (one entry at least), the
    draws' utilities added in draw order.  The best bid is the menu's
    first maximum if it is > 0, otherwise bid 0 at utility 0.0."""
    draws = math.prod(opp.shape[:-2])
    step = _call_entries(draws, opp.shape[-1])
    util = np.empty(len(menus.bids))
    for lo in range(0, len(util), step):
        at = slice(lo, lo + step)
        slot_w, active, price, _ = gsp_outcome(menus.bids[at], menus.who[at, None],
                                               opp.take(menus.row[at], axis=-2), ids, w_padded)
        u = np.where(active, menus.mass[at] * slot_w * (menus.value[at] - price),
                     0.0).reshape(draws, -1)
        np.divide(sum(u[1:], u[0]), draws, out=util[at])     # the draws added in draw order
    # a menu's first maximum is its lowest bid of maximal utility
    first, n = menus.first[:-1], menus.first[-1]
    top = np.maximum.reduceat(util[:n], first)
    best = np.minimum.reduceat(np.where(util[:n] == top.take(menus.row[:n]), menus.bids[:n],
                                        np.inf), first)
    gain = top > 0.0
    return np.where(gain, best, 0.0), np.where(gain, top, 0.0), util.take(played)


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


class _Layout:
    """The pricing layout of one run over some of a scenario's advertisers
    and the run's starting profile bids.  Per advertiser index, its rows
    (keyword, menu) in name order, one per positive keyword with its
    _pool_menus menu and one of menu (0.0,) per other keyword of the graph
    the profile bids on, and the profile's positive bids off those menus:
    the rows a run prices are the profile's or built from menus, so every
    positive bid of them is an entry.  The profile is mirrored in a dense
    (keyword, advertiser) array, checked for non-finite bids, whose
    advertiser column is rewritten whenever the dynamics write a row.  A
    group of advertisers' static arrays (group) are built on first use."""

    def __init__(self, scenario, grid, conservative, bids, advertisers):
        menus = {i: _pool_menus(scenario, grid, i, conservative) for i in advertisers}
        dense = bid_matrix(scenario, bids)
        require_finite_bid_tensor(scenario, dense[None])
        self.dense = np.ascontiguousarray(dense.T)
        self.scenario = scenario
        advs, keywords = scenario.advertisers, scenario.graph.keywords
        self.col = {s: k for k, s in enumerate(keywords)}
        self.mass = np.array([scenario.kw_masses[s] for s in keywords])
        self.value = np.array([[scenario.kw_values[i][s] for s in keywords]
                               for i in advs]).reshape(len(advs), len(keywords))
        self.ids = np.arange(len(advs))
        self.w_padded = padded_weights(scenario)
        self.rows = {}      # advertiser index -> (rows, off-menu bids)
        for i, m in menus.items():
            played = {s: b for s, b in bids.get(i, {}).items() if b > 0.0 and s in self.col}
            self.rows[advs.index(i)] = (
                sorted((m | {s: (0.0,) for s in played if s not in m}).items()),
                [(s, b) for s, b in played.items() if b not in m.get(s, ())])
        self._groups = {}

    def group(self, group):
        """The static arrays of a group of advertiser indices: its _Menus
        (the group's rows in order, then its off-menu bids), each row's
        keyword column, its own bid's index in a flat (row, advertiser)
        matrix and its cell in a (group, width) utility matrix, that width,
        each advertiser's first row, and {(advertiser index, keyword, bid):
        (row, entry)}."""
        key = tuple(group)
        if key not in self._groups:
            rows = [(a, s, menu) for a in group for s, menu in self.rows[a][0]]
            at = {(a, s): r for r, (a, s, _) in enumerate(rows)}
            entries = [(r, b) for r, (_, _, menu) in enumerate(rows) for b in menu]
            entries += [(at[a, s], b) for a in group for s, b in self.rows[a][1]]
            lookup = {(*rows[r][:2], b): (r, e) for e, (r, b) in enumerate(entries)}
            row = np.array([r for r, _ in entries], dtype=np.intp)
            who = np.array([a for a, _, _ in rows], dtype=np.intp)
            col = np.array([self.col[s] for _, s, _ in rows], dtype=np.intp)
            width = max((len(self.rows[a][0]) for a in group), default=0)
            cell = np.array([g * width + j for g, a in enumerate(group)
                             for j in range(len(self.rows[a][0]))], dtype=np.intp)
            menus = _Menus(np.array([b for _, b in entries], dtype=float), row,
                           np.cumsum([0] + [len(menu) for _, _, menu in rows]), who[row],
                           self.mass[col[row]], self.value[who[row], col[row]])
            own = np.arange(len(rows)) * len(self.ids) + who
            starts = np.cumsum([0] + [len(self.rows[a][0]) for a in group]).tolist()
            self._groups[key] = (menus, col, own, cell, width, starts, lookup)
        return self._groups[key]

    def write(self, a, row):
        """Set advertiser index a's row of the mirror to the bid row."""
        self.dense[:, a] = 0.0
        for s, b in row.items():
            self.dense[self.col[s], a] = b


def _respond(layout, group, bids):
    """[(best row, its utility, utility of the current row)] of each
    advertiser index in group, against the opponents' bids of the profile
    that layout.dense mirrors: the group's rows priced by _price_menus with
    one draw, each row's keyword column of the mirror with the row's own
    advertiser zeroed (a zero bid neither outranks a positive bid nor
    raises its price).  The current rows are those of the profile bids;
    a caller that needs no current utility passes {}."""
    menus, col, own, cell, width, starts, lookup = layout.group(group)
    opp = layout.dense.take(col, axis=0)            # (row, advertiser)
    opp.put(own, 0.0)
    advs = layout.scenario.advertisers
    playing = [[lookup[a, s, b] for s, b in bids.get(advs[a], {}).items()
                if b > 0.0 and s in layout.col] for a in group]
    played = menus.first[:-1].copy()        # a row's bid 0 where the profile plays none
    for pairs in playing:
        for r, e in pairs:
            played[r] = e
    best_b, best_u, played_u = _price_menus(menus, played, opp, layout.ids, layout.w_padded)
    u = np.zeros(len(group) * width)
    u[cell] = best_u
    order, kept = _rank_keywords(u.reshape(len(group), width), layout.scenario.kappa)
    u, b, order, kept, played_u = (x.tolist() for x in (best_u, best_b, order, kept, played_u))
    out = []
    for g, a in enumerate(group):
        rows, top, lo = layout.rows[a][0], order[g][:kept[g]], starts[g]
        out.append(({rows[k][0]: b[lo + k] for k in top}, sum((u[lo + k] for k in top), 0.0),
                    sum((played_u[r] for r, _ in playing[g]), 0.0)))
    return out


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
    layout = _Layout(scenario, grid, conservative, bids, [advertiser])
    [(row, best, _)] = _respond(layout, [scenario.advertisers.index(advertiser)], {})
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
    return _regrets(_Layout(scenario, grid, conservative, bids, scenario.advertisers), bids)


def _regrets(layout, bids):
    """verify_epsilon_nash over a layout of every advertiser, for the
    profile bids it mirrors."""
    advs = layout.scenario.advertisers
    return {i: max(0.0, best - current)
            for i, (_, best, current) in zip(advs, _respond(layout, range(len(advs)), bids))}


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
    layout = _Layout(scenario, grid, conservative, profile, scenario.advertisers)
    regrets = _regrets(layout, profile)
    converged = False
    iterations = 0
    for it in range(1, max_iters + 1):
        iterations = it
        if max(regrets.values(), default=0.0) <= eps:
            converged = True
            break
        for a, i in enumerate(scenario.advertisers):
            [(profile[i], _, _)] = _respond(layout, [a], {})
            layout.write(a, profile[i])
        regrets = _regrets(layout, profile)
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


# Joint profiles per chunk of the enumerator's scan, and the cells per
# piece of a keyword's best-utility grid.  A chunk is a run of advertiser
# 0's rows (axis 0) crossed with every opponent row, so it holds one row
# at least, however many profiles that row has; a piece likewise holds
# one of advertiser 0's bids at least.
_CHUNK_PROFILES = 1 << 16
# Bytes per chunk profile beyond the n float64 utility accumulators: a
# keyword's utilities spread along the last axis and gathered onto the
# chunk, the Nash mask and its comparisons, and, when a keyword's grid of
# distinct bids is as large as the chunk (one keyword, rows = bids), its
# bid stack and the temporaries of the GSP outcome on it.  Measured with
# tracemalloc (peak less the accumulators and the best-response table):
# 34 B on a 3-keyword market, 100-125 B on one-keyword markets.  Building
# the best-response table prices pieces no larger than a chunk and holds
# a few table-sized arrays, which a chunk (one opponent table at least)
# times these bytes covers.
_CHUNK_BYTES_PER_PROFILE = 128


def _chunk_rows(counts) -> int:
    """Rows of axis 0 per chunk, for the per-advertiser row counts."""
    return max(1, _CHUNK_PROFILES // math.prod(counts[1:]))


def _peak_bytes(counts) -> int:
    """Estimated peak bytes of the enumerator: one chunk's utilities and
    temporaries plus advertiser 0's best-response table."""
    table = math.prod(counts[1:])
    chunk = min(counts[0], _chunk_rows(counts)) * table
    return chunk * (8 * len(counts) + _CHUNK_BYTES_PER_PROFILE) + 8 * table


class _JointGrid:
    """The pure-Nash enumerator's joint grid over a scenario's advertisers
    (at least one), one axis per advertiser index: per advertiser its
    strategy rows (pools, arrays) and their counts, and per keyword of the
    graph that someone's rows bid on, (keyword, {participant: column of
    the keyword in its rows} in advertiser order, their indices, and the
    distinct bids of each with the index of every row's bid among them).
    A grid of more than max_joint profiles raises TooLarge, naming
    _peak_bytes."""

    def __init__(self, scenario, grid, conservative, max_joint):
        advs = scenario.advertisers
        menus = [_menus(scenario, grid, i, conservative) for i in advs]
        self.counts = [_count_rows(m, scenario.kappa) for m in menus]
        joint = math.prod(self.counts)
        if joint > max_joint:
            raise TooLarge(f"joint strategy space has {joint} profiles, about "
                           f"{_peak_bytes(self.counts)} bytes at peak (cap {max_joint})")
        self.pools, self.arrays = zip(*(strategy_rows(m, scenario.kappa, i, max_rows=max_joint)
                                        for m, i in zip(menus, advs)))
        self.scenario = scenario
        self.w_padded = padded_weights(scenario)
        self.keywords = []
        for s in scenario.graph.keywords:
            parts = {a: self.pools[a].index(s) for a in range(len(advs)) if s in self.pools[a]}
            if parts:
                self.keywords.append((s, parts, np.array(list(parts)),
                                      {a: np.unique(self.arrays[a][:, j], return_inverse=True)
                                       for a, j in parts.items()}))

    def _utility(self, s, a, own, opp, ids):
        """Advertiser index a's utility on keyword s bidding own against
        the opponents' bids opp (indices ids), by gsp_outcome."""
        slot_w, active, price, _ = gsp_outcome(own, a, opp, ids, self.w_padded)
        value = self.scenario.kw_values[self.scenario.advertisers[a]][s]
        return np.where(active, self.scenario.kw_masses[s] * slot_w * (value - price), 0.0)

    def utilities(self, rows0):
        """[a's utility on every profile of the chunk of advertiser 0's
        rows rows0] by advertiser index.  Per keyword, a's utility is
        computed on the grid of the participants' distinct bids, spread
        along the last axis to that advertiser's rows, and then copied
        onto the chunk one last-axis line at a time: `line` indexes the
        grid row-major over the other participants."""
        last = len(self.counts) - 1
        shape = (rows0.stop - rows0.start,) + tuple(self.counts[1:])
        acc = [np.zeros(shape) for _ in self.counts]
        for s, parts, ids, distinct in self.keywords:
            levels = [distinct[a] if a != 0 else np.unique(self.arrays[0][rows0, parts[0]],
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
            for p, a in enumerate(parts):
                util = self._utility(s, a, stack[..., p], np.delete(stack, p, -1),
                                     np.delete(ids, p))
                util = np.take(util, spread, axis=-1) if last in parts else util[..., None]
                acc[a] += np.take(util.reshape(-1, util.shape[-1]), line, axis=0)
        return acc

    def _keyword_best(self, s, parts, ids, distinct):
        """Advertiser 0's best utility on keyword s against every
        combination of the other participants' distinct bids: the maximum
        over its own distinct bids of the grid `utilities` prices, built
        in pieces of its bids of at most _CHUNK_PROFILES cells (one bid at
        least) and gathered onto the opponent table, with axes of length
        1 for the advertisers not on s."""
        own = distinct[0][0]
        others = [a for a in parts if a != 0]
        sizes = [len(distinct[a][0]) for a in others]
        opp = np.empty(sizes + [len(others)])
        for p, a in enumerate(others):
            opp[..., p] = distinct[a][0].reshape([-1 if q == p else 1 for q in range(len(others))])
        step = max(1, _CHUNK_PROFILES // math.prod(sizes))
        top = np.full([1] + sizes, -np.inf)
        for lo in range(0, len(own), step):
            util = self._utility(s, 0, own[lo:lo + step].reshape([-1] + [1] * len(sizes)),
                                 opp, ids[1:])
            np.maximum(top, util.max(axis=0, keepdims=True), out=top)
        n = len(self.counts)
        return top[(0,) + tuple(distinct[a][1].reshape([-1 if q == a else 1 for q in range(n)])
                                for a in others)]

    def best_table(self):
        """Advertiser 0's best utility against each opponent profile, on
        the (1, counts[1], ...) table.  By separability the best of its
        rows bidding within a keyword subset T takes each keyword's best
        bid, so the table is the maximum, over the subsets T of min(kappa,
        K) of its K keywords, of T's _keyword_best tables added in keyword
        order from 0.0.  That is the maximum over its rows bit for bit:
        float addition is monotone in each term, and every menu holds bid
        0 at utility 0.0, so a row's zero bids add nothing.  The maximum
        over T runs as a dynamic programme over the keywords in order,
        sums[j] the best sum of j of them so far, kept only while j can
        still reach the subset size."""
        keywords0 = [kw for kw in self.keywords if 0 in kw[1]]
        size = min(self.scenario.kappa, len(keywords0))
        sums = {0: np.zeros([1] + self.counts[1:])}
        for k, kw in enumerate(keywords0, 1):
            top = self._keyword_best(*kw)
            for j in range(min(k, size), max(1, size - len(keywords0) + k) - 1, -1):
                take = sums[j - 1] + top
                if j in sums:
                    np.maximum(sums[j], take, out=sums[j])
                else:
                    sums[j] = take
            sums.pop(size - len(keywords0) + k - 1, None)
        return sums[size]


def enumerate_pure_nash(scenario: Scenario, grid: BidGrid, epsilon=None,
                        conservative=False, winner_truthful=False,
                        max_joint=10_000_000) -> list[EquilibriumReport]:
    """Exhaustive pure-Nash enumeration over the joint grid.

    Strategy spaces are restricted to each advertiser's positive
    keywords: by utility separability a deviation onto a zero-value
    keyword never strictly gains, so the Nash set over the restricted
    space certifies the Nash condition over the full space.

    The joint grid has one axis per advertiser.  Advertiser 0's best
    utility against each opponent profile comes from separability,
    without touching the joint grid: per keyword its best utility
    against the other participants' distinct bids, and the best sum of
    min(kappa, K) of its K keywords (_JointGrid.best_table).  The grid
    is then scanned once, in chunks of advertiser 0's rows (axis 0)
    crossed with every opponent row: each chunk computes every
    advertiser's utility, takes each other advertiser's best response
    within it, and keeps the profiles where no one gains more than
    epsilon.  Within a chunk, a keyword's utilities are computed once
    per combination of the participants' distinct bids and gathered
    onto the chunk's profiles.  Peak memory is one chunk's arrays
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
    space = _JointGrid(scenario, grid, conservative, max_joint)
    counts, pools, arrays = space.counts, space.pools, space.arrays
    best0 = space.best_table()
    step = _chunk_rows(counts)
    found, regrets = [], [[] for _ in advs]   # per chunk: stable profiles, regrets
    for lo in range(0, counts[0], step):
        utilities = space.utilities(slice(lo, min(lo + step, counts[0])))
        best = [best0] + [utilities[a].max(axis=a, keepdims=True) for a in range(1, n)]
        mask = utilities[0] >= best0 - eps
        for a in range(1, n):
            mask &= utilities[a] >= best[a] - eps
        hits = np.nonzero(mask)
        for a in range(n):
            regrets[a].append(best[a][hits[:a] + (0,) + hits[a + 1:]] - utilities[a][hits])
        found.append(np.stack((hits[0] + lo,) + hits[1:], axis=1))
    hits = np.concatenate(found)
    regrets = [np.concatenate(r) for r in regrets]

    keep = np.ones(len(hits), dtype=bool)
    if winner_truthful:
        for s, parts, ids, _ in space.keywords:
            stack = np.stack([arrays[a][hits[:, a], j] for a, j in parts.items()], axis=-1)
            for p, a in enumerate(parts):
                _, active, _, _ = gsp_outcome(stack[:, p], a, np.delete(stack, p, -1),
                                              np.delete(ids, p), space.w_padded)
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


# Deviation-menu length cap.  A menu too wide for one pricing call is
# built and sorted whole, which sets the estimate's peak: 64 bytes per bid
# (tracemalloc, 64 MB at 2^20 bids).  Pricing it costs bids x draws x
# opponents cells, about 0.3 s per 2^20-bid menu at 16 draws and one
# opponent on a 2-core VM.
_MAX_MENU = 1 << 20


def _deviation_menus(grid, value, played, delta, a, mass):
    """The _Menus of bidder index a's (type, keyword) rows and each row's
    played entry: row r's menu is its grid {0, delta, ..., (grid[r] - 1) *
    delta}, 0, its keyword value value[r] and its played bid played[r],
    sorted."""
    width = grid + 3
    first = np.concatenate(([0], np.cumsum(width)))
    row = np.repeat(np.arange(len(grid)), width)
    bids = (np.arange(first[-1]) - first[row]) * delta
    ends = first[1:]
    bids[ends - 3], bids[ends - 2], bids[ends - 1] = 0.0, value, played
    bids = bids[np.lexsort((bids, row))]
    # the played entry: the first of its row's bids equal to it
    played_at = first[:-1] + np.add.reduceat(bids < played[row], first[:-1])
    return (_Menus(bids, row, first, np.broadcast_to(a, row.shape), mass[row], value[row]),
            played_at)


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
    The (type, keyword) rows' menus are built (_deviation_menus) in runs
    of one pricing call's bids and priced by best response's pricer,
    _price_menus, against the opponent draws; the keyword selection is
    best response's too (_rank_keywords).  A menu of more than _MAX_MENU
    bids raises TooLarge before any menu is built.
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
        played = bids[:, 0, a].ravel()
        opp = bids[:, 1:, others].transpose(1, 0, 3, 2).reshape(n_opponent_draws,
                                                                 n_types * n_kw, len(others))
        # the rows in runs of one pricing call's entries (one row at least),
        # so that only a row too wide for a call is built whole
        grid = grid.astype(np.intp)
        room = _call_entries(n_opponent_draws, len(others))
        ends = np.cumsum(grid + 3)
        u, u_played = np.empty(len(grid)), np.empty(len(grid))
        lo = 0
        while lo < len(grid):
            hi = max(lo + 1, int(np.searchsorted(ends, ends[lo] - grid[lo] - 3 + room, "right")))
            menus, played_at = _deviation_menus(grid[lo:hi], value[lo:hi], played[lo:hi],
                                                deviation_delta, a, mass[lo:hi])
            _, u[lo:hi], u_played[lo:hi] = _price_menus(menus, played_at, opp[:, lo:hi], others,
                                                        w_padded)
            lo = hi
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
