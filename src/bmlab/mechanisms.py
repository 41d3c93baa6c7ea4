"""Auction engines and their exact functionals.

Two broad-match mechanisms share the per-keyword GSP core:

* the probabilistic mechanism samples one keyword per query from the
  matching policy and runs GSP among that keyword's bidders;
* the standard baseline pools every matched keyword per query,
  transforming each advertiser's bid to their maximum over matched
  keywords.

Expected welfare, utility, and revenue are evaluated as exact finite
sums over (query, keyword, slot); a seeded round simulator provides the
Monte-Carlo counterpart.  One rank/price/tie rule serves both forms:
gsp_rank on dict profiles, and gsp_outcome, its array kernel with a
reserve, which prices every solver's keyword auctions and the batched
revenue of whole bid tensors.
"""
from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import ValidationError
from .market import Scenario, _json_number, _load_json_obj

_NO_RESERVE: Mapping[str, float] = {}


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

    def position(self, advertiser):
        """0-indexed slot of the advertiser, or None when unranked."""
        try:
            return self.ranked.index(advertiser)
        except ValueError:
            return None


def gsp_rank(bids: Mapping[str, float], weights, reserve=0.0,
             keyword=None) -> KeywordRanking:
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


def require_finite_profile(bids):
    """Reject a profile {advertiser: {keyword: bid}} holding a NaN or
    infinite bid, with gsp_rank's message."""
    for adv, row in bids.items():
        if not all(map(math.isfinite, row.values())):
            raise _non_finite_bid(adv, next(b for b in row.values() if not math.isfinite(b)))


def require_finite_bid_tensor(market, bids):
    """The same check on an (n, |A|, |S|) bid tensor, naming the first
    non-finite bid by profile, then keyword, then advertiser: the one
    gsp_rank would meet first pricing the profiles in order."""
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


def _keyword_bids(bids, s):
    """Column of the sparse profile: advertiser -> nonzero bid on keyword s
    (NaN included, so that gsp_rank rejects it)."""
    return {adv: row[s] for adv, row in bids.items() if row.get(s, 0.0) != 0.0}


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
    ranking = _rank_keyword(scenario, bids, keyword, _NO_RESERVE)
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
    ranked once and each (query, keyword) pair priced once, on first use.
    Uniforms come in blocks of one per round left, this one included:
    once a round needs a uniform every later round needs one too (each
    draws a query, or each draws a keyword of the one query), so no block
    is overdrawn.  Returns (outcomes, welfare_sum, revenue_sum): one
    AuctionOutcome per round, shared by the rounds of a pair, and the
    rounds' welfare and revenue added in round order."""
    queries = scenario.p.queries
    q_cdf = _cdf([scenario.p.mass(q) for q in queries])
    supports = {q: scenario.pi.support(q) for q in queries}
    kw_cdfs = {q: _cdf([scenario.pi.mass(q, s) for s in supports[q]]) for q in queries}
    block, used = [], 0

    def pick(items, cdf, t):
        """items[index drawn from cdf]; a lone item costs no uniform."""
        nonlocal block, used
        if len(items) == 1:
            return items[0]
        if used == len(block):
            block, used = rng.random(rounds - t).tolist(), 0
        used += 1
        return items[bisect.bisect_right(cdf, block[used - 1])]

    rankings, pairs = {}, {}        # keyword -> ranking, (query, keyword) -> outcome
    outcomes = []
    welfare_sum = revenue_sum = 0.0
    for t in range(rounds):
        q = pick(queries, q_cdf, t)
        s = pick(supports[q], kw_cdfs[q], t)
        outcome = pairs.get((q, s))
        if outcome is None:
            if s not in rankings:
                rankings[s] = _rank_keyword(scenario, bids, s, _NO_RESERVE)
            outcome = pairs[q, s] = _outcome(scenario, q, s, rankings[s])
        outcomes.append(outcome)
        welfare_sum += outcome.welfare
        revenue_sum += outcome.revenue
    return outcomes, welfare_sum, revenue_sum


def _rank_keyword(scenario, bids, s, reserves):
    """GSP among the bidders on keyword s, under its reserve."""
    return gsp_rank(_keyword_bids(bids, s), scenario.weights,
                    reserve=reserves.get(s, 0.0), keyword=s)


def _rankings_by_keyword(scenario, bids):
    return {s: _rank_keyword(scenario, bids, s, _NO_RESERVE) for s in scenario.graph.keywords}


def pbm_expected_welfare(scenario: Scenario, bids) -> float:
    """Exact expected welfare: sum over queries, matched keywords, and
    slots of P(q) * pi_q(s) * w_k * (query value of the ranked
    advertiser)."""
    rankings = _rankings_by_keyword(scenario, bids)
    total = 0.0
    for q in scenario.graph.queries:
        pq = scenario.p.mass(q)
        for s in scenario.graph.query_neighbors(q):
            mqs = scenario.pi.mass(q, s)
            if mqs <= 0.0:
                continue
            total += pq * mqs * scenario.weights.click_sum(
                scenario.valuations.value(adv, q) for adv in rankings[s].ranked)
    return total


def pbm_expected_revenue(scenario: Scenario, bids, reserves=_NO_RESERVE) -> float:
    """Exact expected revenue under per-keyword reserves: traffic-mass
    weighted sum of w_k * price_k over keyword rankings."""
    total = 0.0
    for s in scenario.graph.keywords:
        per_click = scenario.weights.click_sum(
            _rank_keyword(scenario, bids, s, reserves).prices)
        if per_click > 0.0:
            total += scenario.kw_masses[s] * per_click
    return total


def pbm_expected_revenue_batch(market, bids, reserves=_NO_RESERVE) -> np.ndarray:
    """pbm_expected_revenue of every profile in an (n, |A|, |S|) bid tensor
    (advertisers sorted, keywords in graph order), with the same sums in
    the same order.  Per keyword, one gsp_outcome call prices every
    advertiser against the others under the keyword's reserve; each
    active entrant's price goes to its rank, and the positions are added
    in slot order."""
    n, n_adv, _ = bids.shape
    keywords = market.graph.keywords
    for s in keywords:
        _check_reserve(reserves.get(s, 0.0))
    require_finite_bid_tensor(market, bids)
    ids = np.arange(n_adv)
    others = np.array([[j for j in range(n_adv) if j != a] for a in range(n_adv)],
                      dtype=np.intp).reshape(n_adv, max(n_adv - 1, 0))
    w_padded = np.array([market.weights.weight(k) for k in range(n_adv + 1)])
    rows = np.arange(n)[:, None]
    total = np.zeros(n)
    for k, s in enumerate(keywords):
        col = bids[:, :, k]
        _, active, price, rank = gsp_outcome(col, ids[:, None], col[:, others], others,
                                             w_padded, reserves.get(s, 0.0))
        # ranks are a permutation of the advertisers, so no position is written twice
        at_rank = np.zeros_like(col)
        at_rank[rows, rank] = np.where(active, price, 0.0)
        per_click = market.weights.click_sum(at_rank.T)
        total += np.where(per_click > 0.0, market.kw_masses[s] * per_click, 0.0)
    return total


def pbm_utility(scenario: Scenario, bids, advertiser) -> float:
    """Exact expected utility of one advertiser: value minus price at
    the won position, integrated over queries and matched keywords."""
    rankings = _rankings_by_keyword(scenario, bids)
    positions = {s: r.position(advertiser) for s, r in rankings.items()}
    w = scenario.weights
    total = 0.0
    for q in scenario.graph.queries:
        pq = scenario.p.mass(q)
        vq = scenario.valuations.value(advertiser, q)
        for s in scenario.graph.query_neighbors(q):
            k = positions[s]
            if k is None:
                continue
            wk = w.weight(k)
            if wk <= 0.0:
                continue
            mqs = scenario.pi.mass(q, s)
            total += pq * mqs * wk * (vq - rankings[s].prices[k])
    return total


def pbm_keyword_utility(scenario: Scenario, bids, advertiser, keyword,
                        reserves=_NO_RESERVE) -> float:
    """The advertiser's utility from one keyword's auction: traffic
    mass times w_k * (keyword value - price).  Summing over keywords
    recovers pbm_utility exactly."""
    ranking = _rank_keyword(scenario, bids, keyword, reserves)
    k = ranking.position(advertiser)
    if k is None:
        return 0.0
    wk = scenario.weights.weight(k)
    if wk <= 0.0:
        return 0.0
    return scenario.kw_masses[keyword] * wk * (
        scenario.kw_values[advertiser][keyword] - ranking.prices[k])


def sbm_query_bid(bids, advertiser, query, graph) -> float:
    """Transformed bid of an advertiser on a query: the maximum of
    their bids over the query's matched keywords, zero when none."""
    row = bids.get(advertiser, {})
    return max((row.get(s, 0.0) for s in graph.query_neighbors(query)),
               default=0.0)


def sbm_rank_query(scenario: Scenario, bids, query) -> KeywordRanking:
    """Per-query GSP of the standard baseline: every advertiser enters
    with their max-transformed bid; price is the next transformed bid."""
    transformed = {adv: sbm_query_bid(bids, adv, query, scenario.graph)
                   for adv in bids}
    return gsp_rank(transformed, scenario.weights)


def sbm_expected_welfare(scenario: Scenario, bids) -> float:
    """Expected welfare of the max-transform baseline: per-query GSP on
    transformed bids, crediting query values."""
    total = 0.0
    for q in scenario.graph.queries:
        ranking = sbm_rank_query(scenario, bids, q)
        total += scenario.p.mass(q) * scenario.weights.click_sum(
            scenario.valuations.value(adv, q) for adv in ranking.ranked)
    return total
