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
full-information solvers call it with one draw: a run lays out the
advertisers' menus once, per advertiser and for all advertisers (best
response only its own advertiser's), and mirrors the profile in a dense
(keyword, advertiser) array whose advertiser column is rewritten
whenever the dynamics write a row; a call gathers each row's keyword
column of it with the row's own advertiser zeroed, and prices the
profile's own bids as one-bid menus.  The regret estimate calls it with
its opponent draws, each menu cut to the grid bids next to the row's
opponent bids: a GSP utility against fixed opponent bids is a step
function of the own bid, so those bids give the whole grid's utilities,
and a menu's size is bounded by the draws, not by value / delta.  The
pure-Nash enumerator reads the same _menus menus and builds no strategy
row: it scans each keyword's grid of its participants' menus, not the
joint grid, for the bid vectors a stable profile can hold there, checks
only the profiles built from those, and reads the survivors' bids off
the menus.
Every solver here prices its keyword auctions with mechanisms.gsp_outcome,
the one GSP kernel, at reserve 0, and reports the welfare of
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
)

_TRUTHFUL_TOL = 1e-9


# ------------------------------------------------------------------ grids

@dataclass(frozen=True)
class BidGrid:
    """Per-keyword bid menus: {0, delta, ..., cap_s}.  A cap over delta
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
        """The number of grid points on the keyword, 0 included."""
        return int(math.floor(self.caps[keyword] / self.delta + 1e-9)) + 1


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


def _menu_rule(grid, keyword, value, conservative):
    """(kept, size) of a bid menu from the grid alone: its grid points k *
    delta are a prefix, all kept or under conservative those <= value +
    1e-12, and its size adds the value unless it is one of them."""
    n = grid.size(keyword)
    kept = _points_upto(value + 1e-12, grid.delta, n) if conservative else n
    return kept, kept + ((_points_upto(value, grid.delta, kept) - 1) * grid.delta != value)


def bid_menu(scenario: Scenario, grid: BidGrid, advertiser, keyword,
             conservative=False):
    """Sorted bid menu for one (advertiser, keyword) pair: the kept grid
    points of _menu_rule with the exact truthful value spliced in."""
    v = scenario.kw_values[advertiser][keyword]
    kept, _ = _menu_rule(grid, keyword, v, conservative)
    return tuple(sorted({v, *(k * grid.delta for k in range(kept))}))


# ------------------------------------------------------------ menu pricing

# Cells (own bids x draws x opponents) of one gsp_outcome call of the menu
# pricer.  The kernel's masks and copies and the utility arrays peak at
# about 29 bytes per cell (tracemalloc, 16 draws, two opponents), so a
# call stays near 1.9 MB; the regret check of the benchmark's
# 20-advertiser markets is one call.
_CELLS = 1 << 16


@dataclass(frozen=True)
class _Menus:
    """The sorted bid menus of (bidder, keyword) rows, laid flat: row r's
    menu is bids[first[r]:first[r + 1]] and never empty.  Per entry: its
    row, bidder index, keyword mass and keyword value."""

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
    step = max(1, _CELLS // (draws * max(1, opp.shape[-1])))
    util = np.empty(len(menus.bids))
    for lo in range(0, len(util), step):
        at = slice(lo, lo + step)
        slot_w, active, price, _ = gsp_outcome(menus.bids[at], menus.who[at, None],
                                               opp.take(menus.row[at], axis=-2), ids, w_padded)
        u = np.where(active, menus.mass[at] * slot_w * (menus.value[at] - price),
                     0.0).reshape(draws, -1)
        np.divide(sum(u[1:], u[0]), draws, out=util[at])     # the draws added in draw order
    # a menu's first maximum is its lowest bid of maximal utility
    first = menus.first[:-1]
    top = np.maximum.reduceat(util, first)
    best = np.minimum.reduceat(np.where(util == top.take(menus.row), menus.bids, np.inf), first)
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


class _Layout:
    """The pricing layout of a scenario's advertisers on one grid.  Per
    advertiser index, its rows are its positive keywords' _menus menus in
    name order, laid flat (flat) once per advertiser (blocks) and once for
    all advertisers (all); only advertiser index `only`'s rows are built
    unless it is None.  A run's profile reaches it only through the
    dense (keyword in name order, advertiser) mirror, checked for
    non-finite bids, whose advertiser column is rewritten whenever the
    dynamics write a row."""

    def __init__(self, scenario, grid, conservative, bids, only=None):
        advs, keywords = scenario.advertisers, scenario.graph.keywords
        by_name = sorted(range(len(keywords)), key=keywords.__getitem__)
        self.scenario = scenario
        self.names = [keywords[k] for k in by_name]
        self.col = {s: k for k, s in enumerate(self.names)}
        dense = bid_matrix(scenario, bids)
        require_finite_bid_tensor(scenario, dense[None])
        self.dense = np.ascontiguousarray(dense.T[by_name])
        self.mass = np.array([scenario.kw_masses[s] for s in self.names])
        self.value = np.array([[scenario.kw_values[i][s] for s in self.names]
                               for i in advs]).reshape(len(advs), len(self.names))
        self.ids = np.arange(len(advs))
        self.w_padded = padded_weights(scenario)
        rows = [[(a, self.col[s], menu)
                 for s, menu in _menus(scenario, grid, i, conservative).items()]
                if only in (None, a) else [] for a, i in enumerate(advs)]
        self.blocks = [self.flat(r) for r in rows]
        self.all = self.flat([r for block in rows for r in block])

    def flat(self, rows):
        """The flat arrays of rows [(advertiser index, keyword index,
        menu)]: their _Menus, each row's keyword index, its own bid's index
        in a flat (row, advertiser) matrix and its cell in a flat
        (advertiser, keyword) matrix."""
        row = np.array([r for r, (_, _, menu) in enumerate(rows) for _ in menu], dtype=np.intp)
        who = np.array([a for a, _, _ in rows], dtype=np.intp)
        col = np.array([k for _, k, _ in rows], dtype=np.intp)
        menus = _Menus(np.array([b for _, _, menu in rows for b in menu], dtype=float), row,
                       np.cumsum([0] + [len(menu) for _, _, menu in rows]), who[row],
                       self.mass[col[row]], self.value[who[row], col[row]])
        return menus, col, np.arange(len(rows)) * len(self.ids) + who, who * len(self.names) + col

    def price(self, block):
        """_price_menus of a flat block with one draw, each row against its
        keyword's column of the mirror with its own advertiser zeroed (a
        zero bid neither outranks a positive bid nor raises its price), a
        row's first entry taken as its played bid."""
        menus, col, own, _ = block
        opp = self.dense.take(col, axis=0)          # (row, advertiser)
        opp.put(own, 0.0)
        return _price_menus(menus, menus.first[:-1], opp, self.ids, self.w_padded)

    def write(self, a, row):
        """Set advertiser index a's row of the mirror to the bid row."""
        self.dense[:, a] = 0.0
        for s, b in row.items():
            self.dense[self.col[s], a] = b


def _respond(layout, a=None):
    """(best row, its utility) of advertiser index a, or of each advertiser
    in order when a is None, against the opponents' bids of the profile
    layout.dense mirrors: the block's rows priced by layout.price, their
    best utilities ranked by _rank_keywords in an (advertiser, keyword in
    name order) matrix, and the kept bids' utilities added in ranked
    order from 0.0."""
    block = layout.all if a is None else layout.blocks[a]
    best_b, best_u, _ = layout.price(block)
    n, k = len(layout.ids), len(layout.names)
    rows = slice(None) if a is None else slice(a, a + 1)
    u, b = np.zeros((2, n * k))
    u[block[3]], b[block[3]] = best_u, best_b
    u, b = u.reshape(n, k)[rows], b.reshape(n, k)[rows]
    order, kept = _rank_keywords(u, layout.scenario.kappa)
    u, b, order, kept = (x.tolist() for x in (u, b, order, kept))
    out = [({layout.names[s]: bs[s] for s in top[:m]}, sum((us[s] for s in top[:m]), 0.0))
           for us, bs, top, m in zip(u, b, order, kept)]
    return out if a is None else out[0]


def _current(layout, bids):
    """Each advertiser index's utility of its row of the profile bids,
    which layout.dense mirrors: its positive bids on keywords of the graph
    priced as one-bid rows by layout.price, added in profile order from
    0.0."""
    advs = layout.scenario.advertisers
    rows = [(a, layout.col[s], (b,)) for a, i in enumerate(advs)
            for s, b in bids.get(i, {}).items() if b > 0.0 and s in layout.col]
    per = [[] for _ in advs]
    for (a, _, _), u in zip(rows, layout.price(layout.flat(rows))[2].tolist()):
        per[a].append(u)
    return [sum(u, 0.0) for u in per]


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
    return _respond(_Layout(scenario, grid, conservative, bids, a), a)


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
    """Per-advertiser regret of a profile against grid deviations."""
    return _regrets(_Layout(scenario, grid, conservative, bids), bids)


def _regrets(layout, bids):
    """verify_epsilon_nash over a layout, for the profile bids it
    mirrors: each advertiser's best utility less its current one."""
    return {i: max(0.0, best - current) for i, (_, best), current
            in zip(layout.scenario.advertisers, _respond(layout), _current(layout, bids))}


def best_response_dynamics(scenario: Scenario, initial, grid: BidGrid,
                           epsilon=None, max_iters=50,
                           conservative=False) -> EquilibriumReport:
    """Round-robin best responses until max regret <= epsilon or the
    iteration cap; non-convergence is a report state, not an error."""
    eps = _resolve_epsilon(scenario, epsilon)
    if max_iters < 0:
        raise ValidationError(f"max_iters must be >= 0, got {max_iters}")
    profile = {i: dict(initial.get(i, {})) for i in scenario.advertisers}
    # the menus depend only on (advertiser, keyword), so the layout is built
    # once; every row a best response writes is finite, so one check suffices
    layout = _Layout(scenario, grid, conservative, profile)
    regrets = _regrets(layout, profile)
    converged = False
    iterations = 0
    for it in range(1, max_iters + 1):
        iterations = it
        if max(regrets.values(), default=0.0) <= eps:
            converged = True
            break
        for a, i in enumerate(scenario.advertisers):
            profile[i], _ = _respond(layout, a)
            layout.write(a, profile[i])
        regrets = _regrets(layout, profile)
    else:
        converged = max_iters > 0 and max(regrets.values(), default=0.0) <= eps
    return EquilibriumReport(profile=profile, regrets=regrets,
                             converged=converged, iterations=iterations,
                             epsilon=eps,
                             welfare=pbm_expected_welfare(scenario, profile))


# --------------------------------------------------------- Nash enumeration

def _count_rows(sizes, kappa):
    """Number of bid rows with at most kappa positive bids over menus of
    the given sizes (_menu_rule's, or strategy_rows' menus'), a menu
    offering all but its leading 0.0: the truncated elementary-symmetric
    sum, computed exactly by DP."""
    coeffs = [1]
    for size in sizes:
        m = size - 1
        new = coeffs + [0] if len(coeffs) <= kappa else coeffs
        for k in range(len(new) - 1, 0, -1):
            new[k] = (coeffs[k] if k < len(coeffs) else 0) + m * coeffs[k - 1]
        coeffs = new
    return sum(coeffs)


def strategy_rows(menus, kappa):
    """All feasible bid rows of one advertiser over its menus of _menus
    (at most kappa positive bids), as (keyword list, array).

    Rows are generated by keyword subset then menu product, so only
    feasible rows are ever materialized.  The enumerator never builds
    them; this order is the one its reports sort into, the whole-grid
    scan that is its test oracle (joint_scan_pure_nash) scans these rows,
    and the benchmark's tracer wraps this function by name.
    """
    pool = list(menus)
    positive = [m[1:] for m in menus.values()]      # menus always start at 0.0
    n_rows = _count_rows(map(len, menus.values()), kappa)
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


# Entries over width (a keyword's participants, or the keywords) per piece
# or chunk of the enumerator, and its bytes per entry at most: pricing
# temporaries, indices, sums and masks (tracemalloc: about 57 B).
_CHUNK_PROFILES = 1 << 16
_CHUNK_BYTES_PER_PROFILE = 128


def _peak_bytes(counts) -> int:
    """Estimated peak bytes of the enumerator before its stable sets and
    equilibria: a keyword piece or candidate chunk, and one keyword's
    best tables, at most an entry per profile of the others' rows each."""
    joint = math.prod(counts)
    return (max([_CHUNK_PROFILES] + counts) * _CHUNK_BYTES_PER_PROFILE
            + 8 * sum(joint // c for c in counts if c > 1))


class _Keyword:
    """A keyword some advertiser's menus hold: its participants' advertiser
    indices in order and each one's menu on it as its bids (levels:
    sorted, distinct, 0.0 first); once scanned, its locally stable
    vectors, per vector each participant's bid index (digits), utility
    and best utility."""

    def __init__(self, scenario, s, ids, menus, w_padded):
        self.scenario, self.s, self.w_padded = scenario, s, w_padded
        self.ids = np.array(ids)
        self.levels = [np.array(menus[a][s]) for a in ids]
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
    keyword by keyword in pieces of _CHUNK_PROFILES // (keywords) rows (a
    row's extensions at least), each row dropped once over kappa bids."""
    if not keywords:
        yield part
        return
    kw, size = keywords[0], len(keywords[0].digits)
    step = max(1, _CHUNK_PROFILES // (max(size, 1) * (part.shape[1] + len(keywords))))
    for lo in range(0, len(part), step):
        rows = np.repeat(np.arange(lo, min(lo + step, len(part))), size)
        pick = np.tile(np.arange(size), min(step, len(part) - lo))
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


def _scan(scenario, menus, eps):
    """Every keyword's _Keyword over the menus (per advertiser index, its
    _menus), scanned at epsilon eps plus its advertiser's slack, and per
    advertiser index its keywords as (keyword, participant position)
    pairs."""
    n, w_padded = len(menus), padded_weights(scenario)
    keywords = [_Keyword(scenario, s, ids, menus, w_padded) for s in scenario.graph.keywords
                if (ids := [a for a in range(n) if s in menus[a]])]
    mine = [[(j, p) for j, kw in enumerate(keywords) for p, b in enumerate(kw.ids) if b == a]
            for a in range(n)]
    tol = [eps + 2 * (len(m) + 2) * 2.0 ** -53 * (eps + sum(
        scenario.kw_masses[keywords[j].s] * float(w_padded.max())
        * max(scenario.kw_values[scenario.advertisers[a]][keywords[j].s],
              keywords[j].levels[p][-1]) for j, p in m)) for a, m in enumerate(mine)]
    for kw in keywords:
        kw.scan([tol[a] for a in kw.ids], [len(mine[a]) <= scenario.kappa for a in kw.ids])
    return keywords, mine


def _equilibria(scenario, menus, eps, winner_truthful):
    """The stable profiles of enumerate_pure_nash over the menus, as an
    (equilibrium, advertiser, keyword in graph order) bid tensor in the
    order of the joint strategy_rows grid, and the (advertiser, profile)
    regrets."""
    keywords, mine = _scan(scenario, menus, eps)
    kappa, n = scenario.kappa, len(menus)
    found = [(np.zeros((0, len(keywords)), dtype=np.intp), np.zeros((0, n)))]
    for choice in _candidates(keywords, kappa, np.zeros((1, 0), dtype=np.intp),
                              np.zeros((1, n), dtype=np.intp)):
        gaps = np.empty((len(choice), 0))
        for m in mine:      # an advertiser's test on the candidates the others kept
            u = sum((keywords[j].util[choice[:, j], p] for j, p in m), np.zeros(len(choice)))
            best = _best_sum([keywords[j].best[choice[:, j], p] for j, p in m],
                             min(kappa, len(m)), len(choice))
            ok = np.flatnonzero(u >= best - eps)
            choice, gaps = choice[ok], np.column_stack((gaps[ok], best[ok] - u[ok]))
        for j, kw in enumerate(keywords if winner_truthful else ()):
            for p, a in enumerate(kw.ids):      # a slot winner must bid its keyword value
                digits = kw.digits[choice[:, j]]
                bid = kw.levels[p][digits[:, p]]
                value = scenario.kw_values[scenario.advertisers[a]][kw.s]
                ok = np.flatnonzero(~(kw.outcome(p, bid, digits)[0]
                                      & (np.abs(bid - value) > _TRUTHFUL_TOL)))
                choice, gaps = choice[ok], gaps[ok]
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
    for a in range(n):
        own = bids[:, a, [col[s] for s in menus[a]]]
        keys += [(own > 0.0).sum(axis=1), *(own == 0.0).T, *own.T]
    order = np.lexsort(keys[::-1])
    return bids[order], regrets[order].T


# Joint profiles enumerate_pure_nash takes on at most.
_MAX_JOINT = 10_000_000


def enumerate_pure_nash(scenario: Scenario, grid: BidGrid, epsilon=None,
                        conservative=False,
                        winner_truthful=False) -> list[EquilibriumReport]:
    """Every pure Nash equilibrium on the grid, found keyword by keyword.

    Strategy spaces are restricted to each advertiser's positive
    keywords: by utility separability a deviation onto a zero-value
    keyword never strictly gains, so the Nash set over the restricted
    space certifies the Nash condition over the full space.

    The joint grid is never scanned and no strategy row is built: the
    input is each advertiser's _menus.  If advertiser a bids > 0 on
    keyword s in a stable profile, swapping that bid for a's best on s
    leaves a row of at most kappa positive bids whose utility, different
    only in the s term, is at most a's best-response utility B_a; so a's
    utility there, u_s, is within epsilon of the best, best_s.  A zero
    bid swaps the same way if a has at most kappa keywords.  So each
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

    A grid of over _MAX_JOINT profiles raises TooLarge, naming its exact
    count and _peak_bytes, before any menu is built: _count_rows counts
    the rows from the menu sizes of _menu_rule, read from the grid alone.

    winner_truthful keeps only equilibria in which every slot winner
    bids exactly their keyword value on the winning keyword.  Reports
    are ordered by joint row-major strategy_rows index; each carries
    exact regret and expected welfare.
    """
    eps = _resolve_epsilon(scenario, epsilon)
    advs, kappa, n = scenario.advertisers, scenario.kappa, len(scenario.advertisers)
    if n == 0:      # the empty profile is the one profile, and stable
        return [EquilibriumReport(profile={}, regrets={}, converged=True,
                                  iterations=0, epsilon=eps, welfare=0.0)]
    counts = [_count_rows([_menu_rule(grid, s, scenario.kw_values[i][s], conservative)[1]
                           for s in scenario.kw_positive[i]], kappa) for i in advs]
    if math.prod(counts) > _MAX_JOINT:
        raise TooLarge(f"joint strategy space has {math.prod(counts)} profiles, about "
                       f"{_peak_bytes(counts)} bytes at peak before the stable sets and "
                       f"equilibria (cap {_MAX_JOINT})")
    menus = [_menus(scenario, grid, i, conservative) for i in advs]
    bids, regrets = _equilibria(scenario, menus, eps, winner_truthful)
    # the kept profiles, priced by the one welfare path
    values = np.broadcast_to(scenario.value_matrix, (len(bids),) + scenario.value_matrix.shape)
    welfare = pbm_expected_welfare_batch(scenario, values, bids).tolist()
    names = scenario.graph.keywords
    by_name = sorted(range(len(names)), key=names.__getitem__)
    return [EquilibriumReport(
        profile={i: {names[k]: row[a][k] for k in by_name if row[a][k] > 0.0}
                 for a, i in enumerate(advs)},
        regrets={i: float(regrets[a][h]) for a, i in enumerate(advs)},
        converged=True, iterations=0, epsilon=eps, welfare=welfare[h])
        for h, row in enumerate(bids.tolist())]


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


def _deviation_menus(grid, value, played, opp, delta, a, mass):
    """The _Menus of bidder index a's (type, keyword) rows and each row's
    played entry.  Row r's deviations are its grid {0, delta, ...,
    (grid[r] - 1) * delta}, 0, its keyword value value[r] and its played
    bid played[r].  Against the opponents' bids opp[..., r, :] a bid's GSP
    utility depends only on which of them it lies above, at or below, so
    its mean utility is constant between consecutive opponent bids, and
    the grid is cut to the bids that stand in for the rest: per opponent
    bid o, the lowest grid bid >= o and the lowest > o, and delta.  Each
    row's menu, sorted without duplicates, holds at most min(grid[r] + 3,
    2 * opponent bids + 4) bids and has the full menu's maximum utility."""
    o = np.moveaxis(opp, -2, 0).reshape(len(grid), -1)
    # k = ceil(o / delta), one step either way so that k * delta is the
    # lowest grid float >= o, then also the lowest > o
    k = np.ceil(o / delta)
    k -= (k - 1.0) * delta >= o
    k += k * delta < o
    k = np.concatenate((k, k + (k * delta == o)), axis=1)
    bids = np.concatenate((np.where((k > 0.0) & (k < grid[:, None]), k * delta, 0.0),
                           np.column_stack((np.zeros(len(grid)), np.where(grid > 1.0, delta, 0.0),
                                            value, played))),
                          axis=1)
    bids.sort(axis=1)
    keep = np.ones(bids.shape, dtype=bool)
    keep[:, 1:] = bids[:, 1:] != bids[:, :-1]
    row = np.nonzero(keep)[0]
    bids = bids[keep]
    first = np.concatenate(([0], np.cumsum(keep.sum(axis=1))))
    # the played entry: its row's bid equal to it
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
    Every (type, keyword) row's menu is cut to the grid bids next to its
    opponents' bids (_deviation_menus), which give the whole grid's best
    utility bit for bit, so no menu is built whole and none is too wide;
    the rows are priced by best response's pricer, _price_menus, against
    the opponent draws, and the keyword selection is best response's too
    (_rank_keywords).  A delta so fine that a keyword value over it
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
            grid = np.maximum(np.floor(value / deviation_delta + 1e-9) + 1.0, 0.0)
        if np.isinf(grid).any():    # value / delta overflows: no grid index for its bids
            raise ParameterRange(f"keyword value {value.max():g} of advertiser {i!r} over "
                                 f"deviation_delta {deviation_delta:g} overflows")
        bids = bids.reshape(n_types, rows, n_adv, n_kw)[..., by_name]
        played = bids[:, 0, a].ravel()
        opp = bids[:, 1:, others].transpose(1, 0, 3, 2).reshape(n_opponent_draws,
                                                                 n_types * n_kw, len(others))
        menus, played_at = _deviation_menus(grid, value, played, opp, deviation_delta, a, mass)
        _, u, u_played = _price_menus(menus, played_at, opp, others, w_padded)
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
