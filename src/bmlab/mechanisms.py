"""The probabilistic broad-match mechanism under GSP and its exact
functionals.

The mechanism samples one keyword per query from the matching policy and
runs GSP among that keyword's bidders.  `outranks` is the one rank and
tie rule, and gsp_outcome its array kernel with a reserve: it prices the
exact functionals, the pure-Nash enumerator's keyword grids and the
Bayes-Nash regret estimate's deviation menus.  The full-information
solvers (best response, the regret check, the dynamics) price the same
rule on sorted bid ladders in plain Python.  Expected welfare and
revenue are exact finite sums over (query, keyword, slot) on whole bid
tensors, each keyword ranked once, read off the market's tables
(edge_masses, kw_masses, w_padded); welfare adds its terms P(q) *
pi_q(s) * (click-weighted query values of s's ranking) in edge_masses
order: the queries, then each query's keywords, in graph order.  The
dict-profile forms are their one-profile case through bid_matrix.
gsp_rank ranks one keyword of a dict profile for the seeded round
simulator, the Monte-Carlo counterpart.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import ValidationError
from .market import Scenario, _json_number, _load_json_obj

_NO_RESERVE: Mapping[str, float] = {}
_UNIFORM_BLOCK = 4096    # most uniforms pbm_simulate draws at a time


def validate_bid_profile(scenario: Scenario, bids: Mapping[str, Mapping[str, float]]):
    """A bid profile is a sparse per-advertiser map keyword -> bid.

    Nonnegative bids on known keywords, at most kappa keywords with a
    strictly positive bid per advertiser.
    """
    known_kw = set(scenario.graph.keywords)
    for adv, row in bids.items():
        if adv not in scenario.advertisers:
            raise ValidationError(f"bid profile names unknown advertiser {adv!r}")
        positive = 0
        for s, b in row.items():
            if s not in known_kw:
                raise ValidationError(
                    f"advertiser {adv!r} bids on unknown keyword {s!r}")
            b = float(b)
            if not (math.isfinite(b) and b >= 0.0):
                raise ValidationError(
                    f"bid of {adv!r} on {s!r} must be finite and >= 0, got {b}")
            if b > 0.0:
                positive += 1
        if positive > scenario.kappa:
            raise ValidationError(
                f"advertiser {adv!r} has {positive} positive bids; budget is "
                f"kappa = {scenario.kappa}")
    return bids


def load_bid_profile(path, scenario: Scenario):
    """Read a bid profile {advertiser: {keyword: bid}} from a JSON file."""
    obj = _load_json_obj(path, "bid profile")
    if not all(isinstance(r, dict) for r in obj.values()):
        raise ValidationError(f"bid profile {path} must be a JSON object of objects")
    bids = {adv: {s: _json_number(b, f"bid of {adv!r} on {s!r}") for s, b in row.items()}
            for adv, row in obj.items()}
    return validate_bid_profile(scenario, bids)


@dataclass(frozen=True)
class KeywordRanking:
    """GSP outcome on one keyword: advertisers by descending bid with
    per-position prices.  Positions are 0-indexed; prices beyond the
    ranked list are zero."""

    keyword: str | None
    ranked: tuple          # advertiser ids, descending bid
    bids: tuple            # bid of each ranked advertiser
    prices: tuple          # per-click price at each position


def gsp_rank(bids: Mapping[str, float], reserve=0.0, keyword=None) -> KeywordRanking:
    """Rank one keyword's bids by GSP with an optional reserve.

    Advertisers with a zero bid or a bid below the reserve do not
    participate.  Price at position k is max{reserve, next bid down},
    which never exceeds the bid at k.  Ties break toward the
    lexicographically smaller advertiser id.
    """
    _check_reserve(reserve)
    if not all(map(math.isfinite, bids.values())):
        bad = next(adv for adv, b in bids.items() if not math.isfinite(b))
        raise _non_finite_bid(bad, bids[bad])
    entrants = [(adv, float(b)) for adv, b in bids.items()
                if b > 0.0 and b >= reserve]
    # descending bid, then the smaller id: the order `outranks` defines
    entrants.sort(key=lambda ab: (-ab[1], ab[0]))
    ranked = tuple(adv for adv, _ in entrants)
    bvals = tuple(b for _, b in entrants)
    prices = tuple(max(reserve, bvals[k + 1]) if k + 1 < len(bvals) else reserve
                   for k in range(len(bvals)))
    return KeywordRanking(keyword=keyword, ranked=ranked, bids=bvals, prices=prices)


def _check_reserve(reserve):
    if not reserve >= 0.0:
        raise ValidationError(f"reserve must be >= 0, got {reserve}")


def _non_finite_bid(advertiser, bid):
    return ValidationError(f"bid of {advertiser!r} must be finite, got {bid}")


def require_finite_bid_tensor(market, bids):
    """Reject an (n, |A|, |S|) bid tensor holding a NaN or infinite bid
    with gsp_rank's message, naming the first non-finite bid by profile,
    then keyword, then advertiser: the one gsp_rank would meet first
    pricing the profiles in order."""
    bad = ~np.isfinite(bids)
    if bad.any():
        t, k, a = np.argwhere(bad.transpose(0, 2, 1))[0]
        raise _non_finite_bid(market.advertisers[a], float(bids[t, a, k]))


def outranks(b_j, j, b_i, i):
    """The lex GSP order: j (bid b_j) ranks above i (bid b_i) on a higher
    bid, or an equal bid and smaller id.  Scalars or numpy arrays."""
    return (b_j > b_i) | ((b_j == b_i) & (j < i))


def gsp_outcome(own, a, opp, ids, w_padded, reserve=0.0):
    """(slot weight, active, price, rank) of advertiser index a bidding
    `own` on one keyword against the opponents on opp's last axis, whose
    advertiser indices are ids; own broadcasts against opp without that
    axis, and a against own[..., None].  Ranks follow `outranks`.  A bid
    enters when it is > 0 and at least the reserve; active means it
    entered at a position of positive weight, where it pays
    max(reserve, the highest opponent bid ranked below it).  An opponent
    below the reserve never outranks an entrant, so counting it in the
    rank changes no active entry.  w_padded holds the slot weights of
    positions 0..n, n >= opponents."""
    above = outranks(opp, ids, own[..., None], a)
    # reduce over the opponents as the leading axis of a copy: numpy
    # reduces along a short last axis several times slower
    lead = (-1, *range(above.ndim - 1))
    rank = np.ascontiguousarray(above.transpose(lead)).sum(axis=0)
    price = np.ascontiguousarray(np.where(above, 0.0, opp).transpose(lead)).max(
        axis=0, initial=reserve)
    slot_w = w_padded[rank]
    return slot_w, (own > 0.0) & (own >= reserve) & (slot_w > 0.0), price, rank


@dataclass(frozen=True)
class AuctionOutcome:
    """One realized round: the sampled keyword's ranking applied to the
    arriving query.  Assignments are (slot, advertiser, price, click
    weight) with 1-based slots; welfare and revenue decompose as sums
    over those rows."""

    query: str
    sampled_keyword: str
    ranking: KeywordRanking
    assignments: tuple
    welfare: float
    revenue: float


def _outcome(scenario, query, keyword, ranking) -> AuctionOutcome:
    w = scenario.weights
    rows = [(k + 1, adv, ranking.prices[k], wk) for k, (adv, wk)
            in enumerate(zip(ranking.ranked, w.as_tuple())) if wk > 0.0]
    values = [scenario.valuations.value(adv, query) for _, adv, _, _ in rows]
    return AuctionOutcome(query=query, sampled_keyword=keyword, ranking=ranking,
                          assignments=tuple(rows), welfare=w.click_sum(values),
                          revenue=w.click_sum(ranking.prices))


def draw(rng, items, probs):
    """One item drawn with the given probabilities; a lone item costs no
    random number."""
    return items[rng.choice(len(items), p=probs)] if len(items) > 1 else items[0]


def pbm_run_round(scenario: Scenario, bids, query, rng) -> AuctionOutcome:
    """One probabilistic-match round for an arriving query: sample a
    keyword from the matching policy, then GSP among its bidders."""
    keywords = scenario.pi.support(query)
    keyword = draw(rng, keywords, [scenario.pi.mass(query, s) for s in keywords])
    ranking = _rank_keyword(scenario, bids, keyword)
    return _outcome(scenario, query, keyword, ranking)


def _cdf(probs):
    """The cumulative distribution Generator.choice searches: a running
    sum scaled so that its last entry is 1.  choice(n, p=probs) draws
    cdf.searchsorted(random(), "right"), which bisect_right finds too."""
    cdf = np.array(probs, dtype=float).cumsum()
    cdf /= cdf[-1]
    return cdf.tolist()


def pbm_simulate(scenario: Scenario, bids, rounds, rng):
    """`rounds` probabilistic-match rounds: each round draws
    a query from p, then a keyword from the matching policy, as
    draw and pbm_run_round do, from the same uniforms in the same order,
    so the rounds and rng's final state equal the per-round loop's.

    A keyword's ranking is the same in every round, so each keyword is
    ranked once and each (query, keyword) pair priced once, on first use,
    into its query's row of a table that the rounds draw on inline.
    Uniforms come in blocks of one per round left, this one included, at
    most _UNIFORM_BLOCK at a time: once a round needs a uniform every later
    round needs one too (each draws a query, or each draws a keyword of the
    one query), so no block is overdrawn, and random(a) then random(b)
    gives random(a + b)'s doubles.  Memory beyond the returned list is
    independent of `rounds`.  Returns (outcomes, welfare_sum, revenue_sum):
    one AuctionOutcome per round, shared by the rounds of a pair, and the
    rounds' welfare and revenue added in round order."""
    queries = scenario.p.queries
    q_cdf = _cdf([scenario.p.mass(q) for q in queries])
    table = []      # per query: (query, keywords, cdf, several keywords, outcomes)
    for q in queries:
        support = scenario.pi.support(q)
        table.append((q, support, _cdf([scenario.pi.mass(q, s) for s in support]),
                      len(support) > 1, [None] * len(support)))
    rankings, block, used = {}, [], 0     # keyword -> ranking; the uniforms
    outcomes = []
    welfare_sum = revenue_sum = 0.0
    for t in range(rounds):
        row = table[0]
        if len(table) > 1:
            if used == len(block):
                block, used = rng.random(min(_UNIFORM_BLOCK, rounds - t)).tolist(), 0
            row, used = table[bisect_right(q_cdf, block[used])], used + 1
        q, support, cdf, several, pairs = row
        k = 0
        if several:
            if used == len(block):
                block, used = rng.random(min(_UNIFORM_BLOCK, rounds - t)).tolist(), 0
            k, used = bisect_right(cdf, block[used]), used + 1
        outcome = pairs[k]
        if outcome is None:
            s = support[k]
            if s not in rankings:
                rankings[s] = _rank_keyword(scenario, bids, s)
            outcome = pairs[k] = _outcome(scenario, q, s, rankings[s])
        outcomes.append(outcome)
        welfare_sum += outcome.welfare
        revenue_sum += outcome.revenue
    return outcomes, welfare_sum, revenue_sum


def _rank_keyword(scenario, bids, s):
    """GSP among the nonzero bids on keyword s of a dict profile (NaN
    included, so that gsp_rank rejects it)."""
    return gsp_rank({adv: row[s] for adv, row in bids.items() if row.get(s, 0.0) != 0.0},
                    keyword=s)


def bid_matrix(market, bids) -> np.ndarray:
    """The dense (|A|, |S|) array of a dict profile {advertiser: {keyword:
    bid}}, advertisers sorted and keywords in graph order, 0 where no bid
    is given.  Bids on keywords outside the graph are left out, as no
    auction meets them; an advertiser the market does not have raises
    ValidationError."""
    row_of = {i: a for a, i in enumerate(market.advertisers)}
    col = {s: k for k, s in enumerate(market.graph.keywords)}
    dense = np.zeros((len(row_of), len(col)))
    for i, row in bids.items():
        if i not in row_of:
            raise ValidationError(f"bid profile names unknown advertiser {i!r}")
        for s, b in row.items():
            if s in col:
                dense[row_of[i], col[s]] = b
    return dense


def _keyword_auctions(market, bids, reserves=_NO_RESERVE):
    """[(keyword, active, price, rank)] of an (n, |A|, |S|) bid tensor,
    keywords in graph order: per keyword, one gsp_outcome call prices
    every advertiser against the others under the keyword's reserve."""
    n_adv = bids.shape[1]
    for s in market.graph.keywords:
        _check_reserve(reserves.get(s, 0.0))
    require_finite_bid_tensor(market, bids)
    ids = np.arange(n_adv)
    others = np.array([[j for j in range(n_adv) if j != a] for a in range(n_adv)],
                      dtype=np.intp).reshape(n_adv, max(n_adv - 1, 0))
    out = []
    for k, s in enumerate(market.graph.keywords):
        col = bids[:, :, k]
        _, active, price, rank = gsp_outcome(col, ids[:, None], col[:, others], others,
                                             market.w_padded, reserves.get(s, 0.0))
        out.append((s, active, price, rank))
    return out


def _by_position(rank, amounts):
    """Each advertiser's amounts (n, |A|, ...) moved to its rank, with the
    positions as the leading axis, for SlotWeights.click_sum.  Ranks are a
    permutation of the advertisers, so no position is written twice."""
    out = np.zeros_like(amounts)
    out[np.arange(len(rank))[:, None], rank] = amounts
    return np.moveaxis(out, 1, 0)


def pbm_expected_welfare_batch(market, values, bids) -> np.ndarray:
    """Exact expected welfare of every profile of an (n, |A|, |Q|) value
    tensor (queries in graph order) played with an (n, |A|, |S|) bid
    tensor (keywords in graph order): the sum over queries, matched
    keywords and slots of P(q) * pi_q(s) * w_k * (query value of the
    advertiser ranked k on s).  Each keyword is ranked once, and its
    click-weighted query values are computed for all its neighbours; the
    terms (edge mass) * click sum are then added in edge_masses order."""
    graph, col = market.graph, market.graph.q_index
    clicks = {}     # (query, keyword) -> click-weighted values of the keyword's ranking
    for s, active, _, rank in _keyword_auctions(market, bids):
        nbrs = graph.keyword_neighbors(s)
        ranked = np.where(active[..., None], values[:, :, [col[q] for q in nbrs]], 0.0)
        # click_sum is a scalar 0.0 when it sums no position: broadcast it
        per_query = np.broadcast_to(market.weights.click_sum(_by_position(rank, ranked)),
                                    (len(bids), len(nbrs)))
        clicks.update(((q, s), per_query[:, m]) for m, q in enumerate(nbrs))
    total = np.zeros(len(bids))
    for edge, m in market.edge_masses.items():
        total += m * clicks[edge]
    return total


def pbm_expected_revenue_batch(market, bids, reserves=_NO_RESERVE) -> np.ndarray:
    """Exact expected revenue of every profile of an (n, |A|, |S|) bid
    tensor under per-keyword reserves: the traffic-mass weighted sum of
    w_k * price_k over the keywords' rankings, in graph order.  Each
    active entrant's price goes to its rank, and the positions are added
    in slot order."""
    total = np.zeros(len(bids))
    for s, active, price, rank in _keyword_auctions(market, bids, reserves):
        per_click = market.weights.click_sum(_by_position(rank, np.where(active, price, 0.0)))
        total += np.where(per_click > 0.0, market.kw_masses[s] * per_click, 0.0)
    return total


def pbm_expected_welfare(scenario: Scenario, bids) -> float:
    """pbm_expected_welfare_batch of one dict profile."""
    return float(pbm_expected_welfare_batch(scenario, scenario.value_matrix[None],
                                            bid_matrix(scenario, bids)[None])[0])


def pbm_expected_revenue(scenario: Scenario, bids, reserves=_NO_RESERVE) -> float:
    """pbm_expected_revenue_batch of one dict profile."""
    return float(pbm_expected_revenue_batch(scenario, bid_matrix(scenario, bids)[None],
                                            reserves)[0])
