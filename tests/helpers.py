"""Shared test utilities: small scenario builders, random instance
generators, and independent brute-force oracles."""

from __future__ import annotations

import itertools
import math
from types import SimpleNamespace

import numpy as np

from bmlab.errors import TooLarge, ValidationError, ZeroDensity
from bmlab.expressiveness import (EXACT_ALPHA_QUERY_CAP, EXACT_COVER_CANDIDATE_CAP,
                                  similarity, tokenize)
from bmlab.market import (
    BipartiteGraph,
    MatchingPolicy,
    QueryDistribution,
    SlotWeights,
    ValuationProfile,
    build_scenario,
)
from bmlab.mechanisms import gsp_rank
from bmlab.reserves import (
    Empirical,
    Exponential,
    Piece,
    PiecewiseDensity,
    PointMass,
    TruncatedExponential,
    Uniform,
    ramp_then_plateau_density,
    virtual_value,
)


def simple_scenario(values, weights=(1.0,), kappa=None, p=None, pi=None,
                    edges=None, queries=None, keywords=None):
    """Assemble a scenario from a {advertiser: {query: value}} map with
    sensible defaults: one keyword per query unless told otherwise."""
    if queries is None:
        queries = sorted({q for row in values.values() for q in row})
    if keywords is None:
        keywords = [f"s{k}" for k in range(1, len(queries) + 1)]
    if edges is None:
        edges = list(zip(queries, keywords))
    graph = BipartiteGraph(queries, keywords, edges)
    if p is None:
        p = {q: 1.0 / len(queries) for q in queries}
    if pi is None:
        pi = {q: {s: 1.0 / len(graph.query_neighbors(q)) for s in graph.query_neighbors(q)}
              for q in queries}
    if kappa is None:
        kappa = len(keywords)
    return build_scenario(graph, QueryDistribution(p), MatchingPolicy(pi),
                          SlotWeights(weights), ValuationProfile(values), kappa)


def single_keyword_scenario(values_by_adv, weights=(1.0,), kappa=1):
    """One query 'q', one keyword 's', degenerate matching."""
    vals = {i: {"q": v} for i, v in values_by_adv.items()}
    return simple_scenario(vals, weights=weights, kappa=kappa,
                           queries=["q"], keywords=["s"], edges=[("q", "s")])


def random_scenario(rng, max_adv=3, max_kw=3, max_q=4, weights=(1.0,),
                    kappa=None, all_positive=False, value_hi=5.0):
    """Random validated scenario. With all_positive every (i, q) value is
    strictly positive, which keeps homogeneity finite."""
    n_q = int(rng.integers(1, max_q + 1))
    n_s = int(rng.integers(1, max_kw + 1))
    n_a = int(rng.integers(1, max_adv + 1))
    queries = [f"q{j}" for j in range(n_q)]
    keywords = [f"s{j}" for j in range(n_s)]
    edges = set()
    for q in queries:
        picks = rng.choice(n_s, size=int(rng.integers(1, n_s + 1)), replace=False)
        for j in picks:
            edges.add((q, keywords[j]))
    for s in keywords:
        if not any(e[1] == s for e in edges):
            edges.add((queries[int(rng.integers(n_q))], s))
    p_raw = rng.uniform(0.2, 1.0, size=n_q)
    p = {q: float(x / p_raw.sum()) for q, x in zip(queries, p_raw)}
    graph = BipartiteGraph(queries, keywords, edges)
    pi = {}
    for q in queries:
        nbrs = graph.query_neighbors(q)
        raw = rng.uniform(0.2, 1.0, size=len(nbrs))
        pi[q] = {s: float(x / raw.sum()) for s, x in zip(nbrs, raw)}
    advs = [f"a{j}" for j in range(n_a)]
    values = {}
    for i in advs:
        row = {}
        for q in queries:
            if all_positive or rng.random() < 0.7:
                row[q] = float(np.round(rng.uniform(0.25, value_hi), 3))
        values[i] = row
    for q in queries:
        if not any(values[i].get(q, 0.0) > 0.0 for i in advs):
            values[advs[int(rng.integers(n_a))]][q] = float(np.round(rng.uniform(0.25, value_hi), 3))
    if kappa == "max":
        kappa = n_s
    elif kappa is None:
        kappa = int(rng.integers(1, n_s + 1))
    return build_scenario(graph, QueryDistribution(p), MatchingPolicy(pi),
                          SlotWeights(weights), ValuationProfile(values), kappa)


def random_bid_profile(rng, scenario, overbid=0.0):
    """Random feasible bid profile; overbid>0 scales some bids past the
    keyword value by up to that factor."""
    bids = {}
    for i in scenario.advertisers:
        pool = sorted(scenario.kw_positive[i])
        rng.shuffle(pool)
        chosen = pool[: int(rng.integers(0, min(scenario.kappa, len(pool)) + 1))]
        row = {}
        for s in chosen:
            cap = scenario.kw_values[i][s]
            b = float(rng.uniform(0.0, cap))
            if overbid and rng.random() < 0.5:
                b = cap * float(rng.uniform(1.0, 1.0 + overbid))
            if b > 0.0:
                row[s] = b
        bids[i] = row
    return bids


def whole_grid_menu(scenario, grid, advertiser, keyword, conservative=False):
    """Oracle: a bid menu by filtering the grid, as an array: every point
    k * delta <= the keyword's cap, k <= floor(cap / delta) + 1, under
    conservative those <= value + 1e-12, with 0 and the value added,
    sorted without duplicates.  It reads neither grid.size nor src's
    menu rule."""
    v, cap = scenario.kw_values[advertiser][keyword], grid.caps[keyword]
    pts = np.arange(math.floor(cap / grid.delta) + 2) * grid.delta
    pts = pts[pts <= cap]
    if conservative:
        pts = pts[pts <= v + 1e-12]
    return np.unique(np.concatenate((pts, [0.0, v])))


def whole_grid_menus(scenario, grid, advertiser, conservative=False):
    """Oracle: {keyword: whole_grid_menu as a list} over the advertiser's
    positive keywords in name order, the space its strategy rows span."""
    return {s: whole_grid_menu(scenario, grid, advertiser, s, conservative).tolist()
            for s in sorted(scenario.kw_positive[advertiser])}


def row_count_oracle(scenario, grid, conservative=False):
    """Oracle: each advertiser's row count, over keyword subsets of size
    at most kappa: a subset offers every positive point of each of its
    whole-grid menus."""
    counts = []
    for i in scenario.advertisers:
        sizes = [len(whole_grid_menu(scenario, grid, i, s, conservative)) - 1
                 for s in scenario.kw_positive[i]]
        counts.append(sum(math.prod(subset) for size in range(scenario.kappa + 1)
                          for subset in itertools.combinations(sizes, size)))
    return counts


def keyword_grid_cells_oracle(scenario, grid, conservative=False):
    """Oracle: the keyword-grid cells the enumerator scans: per keyword
    some advertiser values, the product of its participants' whole-grid
    menu lengths, added up."""
    total = 0
    for s in scenario.graph.keywords:
        sizes = [len(whole_grid_menu(scenario, grid, i, s, conservative))
                 for i in scenario.advertisers if s in scenario.kw_positive[i]]
        total += math.prod(sizes) if sizes else 0
    return total


def per_keyword_nash_count(scenario, grid, epsilon, conservative=False):
    """Oracle: the number of pure Nash equilibria on the grid when kappa is
    at least each advertiser's keyword count, so that the game splits per
    keyword: the product over keywords of the bid vectors over the
    participants' whole-grid menus where no participant gains over
    epsilon by another bid of its menu, priced by slot_utility's scalar
    scan."""
    assert all(len(scenario.kw_positive[i]) <= scenario.kappa for i in scenario.advertisers)
    total = 1
    for s in scenario.graph.keywords:
        ids = [i for i in scenario.advertisers if s in scenario.kw_positive[i]]
        if not ids:
            continue
        menus = [whole_grid_menu(scenario, grid, i, s, conservative).tolist() for i in ids]
        mass, values = scenario.kw_masses[s], [scenario.kw_values[i][s] for i in ids]

        def utility(p, bids):
            opponents = [(q, b) for q, b in enumerate(bids) if q != p and b > 0.0]
            return slot_utility(bids[p], p, opponents, scenario.weights, mass, values[p])

        best, count = {}, 0
        for bids in itertools.product(*menus):
            for p in range(len(ids)):
                key = (p,) + bids[:p] + bids[p + 1:]
                if key not in best:
                    best[key] = max(utility(p, bids[:p] + (b,) + bids[p + 1:]) for b in menus[p])
                if utility(p, bids) < best[key] - epsilon:
                    break
            else:
                count += 1
        total *= count
    return total


def joint_profile_count(scenario, grid, conservative=False):
    """Oracle: the number of joint grid profiles the enumerator scans."""
    return math.prod(row_count_oracle(scenario, grid, conservative))


# ------------------------------------------------- dict-profile functionals
#
# The exact functionals on sparse {advertiser: {keyword: bid}} profiles,
# one gsp_rank ranking per keyword: the oracles of the kernel path
# (mechanisms.pbm_expected_welfare_batch, pbm_expected_revenue_batch and
# the solvers' gsp_outcome utilities), bit for bit in its sum orders.


def keyword_bids(bids, s):
    """Column of the sparse profile: advertiser -> nonzero bid on keyword s
    (NaN included, so that gsp_rank rejects it)."""
    return {adv: row[s] for adv, row in bids.items() if row.get(s, 0.0) != 0.0}


def rank_keyword(scenario, bids, s, reserves=None):
    """GSP among the bidders on keyword s, under its reserve."""
    return gsp_rank(keyword_bids(bids, s), reserve=(reserves or {}).get(s, 0.0), keyword=s)


def rankings_by_keyword(scenario, bids):
    return {s: rank_keyword(scenario, bids, s) for s in scenario.graph.keywords}


def _position(ranking, advertiser):
    """0-indexed slot of the advertiser, or None when unranked."""
    return ranking.ranked.index(advertiser) if advertiser in ranking.ranked else None


def dict_expected_welfare(scenario, bids) -> float:
    """Exact expected welfare: sum over queries, matched keywords, and
    slots of P(q) * pi_q(s) * w_k * (query value of the ranked
    advertiser)."""
    rankings = rankings_by_keyword(scenario, bids)
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


def dict_expected_revenue(scenario, bids, reserves=None) -> float:
    """Exact expected revenue under per-keyword reserves: traffic-mass
    weighted sum of w_k * price_k over keyword rankings."""
    total = 0.0
    for s in scenario.graph.keywords:
        per_click = scenario.weights.click_sum(rank_keyword(scenario, bids, s, reserves).prices)
        if per_click > 0.0:
            total += scenario.kw_masses[s] * per_click
    return total


def pbm_utility(scenario, bids, advertiser) -> float:
    """Exact expected utility of one advertiser: value minus price at
    the won position, integrated over queries and matched keywords."""
    rankings = rankings_by_keyword(scenario, bids)
    positions = {s: _position(r, advertiser) for s, r in rankings.items()}
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


def pbm_keyword_utility(scenario, bids, advertiser, keyword, reserves=None) -> float:
    """The advertiser's utility from one keyword's auction: traffic
    mass times w_k * (keyword value - price).  Summing over keywords
    recovers pbm_utility exactly."""
    ranking = rank_keyword(scenario, bids, keyword, reserves)
    k = _position(ranking, advertiser)
    if k is None:
        return 0.0
    wk = scenario.weights.weight(k)
    if wk <= 0.0:
        return 0.0
    return scenario.kw_masses[keyword] * wk * (
        scenario.kw_values[advertiser][keyword] - ranking.prices[k])


def brute_force_optimal_welfare(scenario):
    """Oracle: enumerate every per-query assignment of advertisers to
    slots and take the best."""
    w = scenario.weights.as_tuple()
    advs = scenario.advertisers
    total = 0.0
    for q in scenario.graph.queries:
        best = 0.0
        n_slots = min(len(w), len(advs))
        for perm in itertools.permutations(advs, n_slots):
            got = sum(w[k] * scenario.valuations.value(perm[k], q) for k in range(n_slots))
            best = max(best, got)
        total += scenario.p.mass(q) * best
    return total


def exhaustive_min_cover(keyword_neighbors, query_set):
    """Oracle: smallest keyword subset covering query_set, by exhaustive
    subset enumeration. keyword_neighbors: {keyword: iterable of queries}."""
    queries = frozenset(query_set)
    if not queries:
        return 0
    cands = [s for s, qs in keyword_neighbors.items() if queries & frozenset(qs)]
    for size in range(1, len(cands) + 1):
        for combo in itertools.combinations(cands, size):
            covered = set()
            for s in combo:
                covered |= queries & frozenset(keyword_neighbors[s])
            if covered == queries:
                return size
    return None


def probing_neighbors(queries, keywords, edges):
    """Oracle: BipartiteGraph's neighbor tables by probing every declared
    (query, keyword) pair for an edge, in declared order."""
    queries = tuple(dict.fromkeys(queries))
    keywords = tuple(dict.fromkeys(keywords))
    edge_set = frozenset(edges)
    q_nbrs = {q: tuple(s for s in keywords if (q, s) in edge_set) for q in queries}
    s_nbrs = {s: tuple(q for q in queries if (q, s) in edge_set) for s in keywords}
    return q_nbrs, s_nbrs


def dp_levenshtein(a: str, b: str) -> int:
    """Oracle: unit-cost edit distance by the row-by-row DP table."""
    if len(a) < len(b):
        a, b = b, a
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        cur = [i]
        for j, cb in enumerate(b, start=1):
            cur.append(min(prev[j] + 1,
                           cur[j - 1] + 1,
                           prev[j - 1] + (ca != cb)))
        prev = cur
    return prev[-1]


def dp_similarity(q: str, s: str) -> float:
    """Oracle: Sim(q, s) = 1 - d(q, s) / maxlength from dp_levenshtein."""
    return 1.0 - dp_levenshtein(q, s) / max(len(q), len(s))


def micro_markets_oracle(corpus) -> list:
    """Oracle: extract_micro_markets as (term, keywords, queries, edges),
    by scanning every keyword and query for each shared term; an edge
    (q, s) when s has tokens and all of them are among q's."""
    kw_terms = {s: frozenset(tokenize(s)) for s in corpus.keywords}
    q_terms = {q: frozenset(tokenize(q)) for q in corpus.queries}
    markets = []
    for term in sorted(set().union(*kw_terms.values()) & set().union(*q_terms.values())):
        kws = tuple(sorted(s for s, toks in kw_terms.items() if term in toks))
        qs = tuple(sorted(q for q, toks in q_terms.items() if term in toks))
        edges = frozenset((q, s) for q in qs for s in kws
                          if kw_terms[s] and kw_terms[s] <= q_terms[q])
        markets.append((term, kws, qs, edges))
    return markets


def subset_alpha_oracle(graph, queries, kappa):
    """Oracle: advertiser_alpha's (alpha_i, m*) by enumerating query
    subsets of growing size and testing each against every union of at
    most kappa keyword neighborhoods, with nothing remembered between
    subsets or calls.  Raises TooLarge under the same caps."""
    universe = frozenset(queries)
    n = len(universe)
    if n == 0:
        return 1.0, None
    if n > EXACT_ALPHA_QUERY_CAP:
        raise TooLarge(f"|Q_i| = {n} (exact alpha cap {EXACT_ALPHA_QUERY_CAP})")
    if len(graph.keywords) > EXACT_COVER_CANDIDATE_CAP:
        raise TooLarge(f"{len(graph.keywords)} cover candidates "
                       f"(exact cap {EXACT_COVER_CANDIDATE_CAP})")
    nbrs = [frozenset(graph.keyword_neighbors(s)) for s in graph.keywords]
    unions = [frozenset().union(*combo) for size in range(kappa + 1)
              for combo in itertools.combinations(nbrs, size)]
    for size in range(1, n + 1):
        for subset in itertools.combinations(sorted(universe), size):
            if not any(u.issuperset(subset) for u in unions):
                return (size - 1) / n, size
    return 1.0, None


def positive_queries(keywords, query_pool, theta, sim=similarity) -> frozenset:
    """Queries similar to at least one bid keyword: sim(q, s) > theta."""
    if not 0.0 <= theta < 1.0:
        raise ValidationError(f"theta must lie in [0, 1), got {theta}")
    kws = tuple(keywords)
    return frozenset(q for q in query_pool
                     if any(sim(q, s) > theta for s in kws))


def vcg_payment_oracle(values, weights, reserve=0.0):
    """Oracle: per-slot VCG payments by brute-force externality.

    values: participating per-click values (all >= reserve, > 0), any
    order.  The seller's opportunity value for an unsold slot is the
    reserve, modeled by padding the candidate pool with seller clones
    worth `reserve` and maximizing over all slot assignments.
    """
    K = len(weights)

    def best_total(vals):
        candidates = list(vals) + [reserve] * K
        return max(sum(w * c for w, c in zip(weights, perm))
                   for perm in itertools.permutations(candidates, K))

    order = sorted(range(len(values)), key=lambda j: -values[j])
    m = min(K, len(values))
    payments = []
    for pos in range(m):
        i = order[pos]
        without = best_total([values[j] for j in range(len(values)) if j != i])
        others_with = 0.0
        for k in range(K):
            if k == pos:
                continue
            others_with += weights[k] * (values[order[k]] if k < m else reserve)
        payments.append(without - others_with)
    return payments


def joint_best_response_oracle(scenario, bids, advertiser, menus):
    """Oracle: best response by enumerating keyword subsets (<= kappa)
    and full menu products, scored with the integral-form utility.
    menus: {keyword: menu} for the advertiser."""
    pool = sorted(menus)
    best, best_row = 0.0, {}
    for size in range(0, min(scenario.kappa, len(pool)) + 1):
        for subset in itertools.combinations(pool, size):
            for combo in itertools.product(*(menus[s] for s in subset)):
                row = {s: b for s, b in zip(subset, combo) if b > 0.0}
                trial = dict(bids)
                trial[advertiser] = row
                u = pbm_utility(scenario, trial, advertiser)
                if u > best + 1e-12:
                    best, best_row = u, row
    return best_row, best


def slow_pure_nash_oracle(scenario, menus_by_adv, epsilon):
    """Oracle: the pure-Nash set by direct definition — enumerate every
    joint profile and test every unilateral deviation with the
    integral-form utility.  menus_by_adv: {advertiser: {keyword: menu}}."""
    advs = scenario.advertisers
    rows_by_adv = []
    for i in advs:
        pool = sorted(menus_by_adv[i])
        rows = []
        for combo in itertools.product(*(menus_by_adv[i][s] for s in pool)):
            if sum(b > 0.0 for b in combo) <= scenario.kappa:
                rows.append({s: b for s, b in zip(pool, combo) if b > 0.0})
        rows_by_adv.append(rows)
    out = []
    for joint in itertools.product(*rows_by_adv):
        profile = {i: dict(r) for i, r in zip(advs, joint)}
        ok = True
        for a, i in enumerate(advs):
            cur = pbm_utility(scenario, profile, i)
            for alt in rows_by_adv[a]:
                trial = dict(profile)
                trial[i] = alt
                if pbm_utility(scenario, trial, i) > cur + epsilon:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.append(profile)
    return out


def joint_utility(scenario, grid, advertiser=0, conservative=False):
    """Oracle: the kernel utility of the advertiser index on every profile
    of the enumerator's joint grid, one axis per advertiser over its
    strategy_rows: per keyword of its rows, in graph order from 0.0, the
    gsp_outcome utility against every opponent's bid on it (0 where the
    opponent's rows do not bid on it), with no distinct-bid grid and no
    chunking."""
    from bmlab.equilibrium import strategy_rows
    from bmlab.mechanisms import gsp_outcome, padded_weights

    advs = scenario.advertisers
    n = len(advs)
    pools, arrays = zip(*(strategy_rows(whole_grid_menus(scenario, grid, i, conservative),
                                        scenario.kappa) for i in advs))
    shape = [len(rows) for rows in arrays]

    def joint_bids(a, s):
        column = arrays[a][:, pools[a].index(s)] if s in pools[a] else np.zeros(shape[a])
        return np.broadcast_to(column.reshape([-1 if q == a else 1 for q in range(n)]), shape)

    others = [b for b in range(n) if b != advertiser]
    acc = np.zeros(shape)
    for s in scenario.graph.keywords:
        if s in pools[advertiser]:
            opp = (np.stack([joint_bids(b, s) for b in others], axis=-1) if others
                   else np.zeros(shape + [0]))
            slot_w, active, price, _ = gsp_outcome(joint_bids(advertiser, s), advertiser, opp,
                                                   np.array(others, dtype=np.intp),
                                                   padded_weights(scenario))
            value = scenario.kw_values[advs[advertiser]][s]
            acc += np.where(active, scenario.kw_masses[s] * slot_w * (value - price), 0.0)
    return acc


def best_response_table_oracle(scenario, grid, advertiser=0, conservative=False):
    """Oracle: the best-response utility of the advertiser index against
    each opponent profile, its maximum over its strategy rows of
    joint_utility, with a length-1 axis of its own."""
    return joint_utility(scenario, grid, advertiser, conservative).max(axis=advertiser,
                                                                        keepdims=True)


class _JointScan:
    """The joint grid of joint_scan_pure_nash, one axis per advertiser
    index: per advertiser its strategy rows (pools, arrays) and their
    counts, and per keyword of the graph that someone's rows bid on,
    (keyword, {participant: column of the keyword in its rows} in
    advertiser order, their indices, and the distinct bids of each with
    the index of every row's bid among them)."""

    def __init__(self, scenario, grid, conservative):
        from bmlab.equilibrium import strategy_rows
        from bmlab.mechanisms import padded_weights

        advs = scenario.advertisers
        self.pools, self.arrays = zip(*(
            strategy_rows(whole_grid_menus(scenario, grid, i, conservative), scenario.kappa)
            for i in advs))
        self.counts = [len(rows) for rows in self.arrays]
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
        from bmlab.mechanisms import gsp_outcome

        slot_w, active, price, _ = gsp_outcome(own, a, opp, ids, self.w_padded)
        value = self.scenario.kw_values[self.scenario.advertisers[a]][s]
        return np.where(active, self.scenario.kw_masses[s] * slot_w * (value - price), 0.0)

    def utilities(self, rows0):
        """[a's utility on every profile of the chunk of advertiser 0's
        rows rows0] by advertiser index: per keyword, on the grid of the
        participants' distinct bids, gathered onto the chunk and added in
        graph keyword order from 0.0."""
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
        combination of the other participants' distinct bids, gathered
        onto the opponent table."""
        own = distinct[0][0]
        others = [a for a in parts if a != 0]
        sizes = [len(distinct[a][0]) for a in others]
        opp = np.empty(sizes + [len(others)])
        for p, a in enumerate(others):
            opp[..., p] = distinct[a][0].reshape([-1 if q == p else 1 for q in range(len(others))])
        top = self._utility(s, 0, own.reshape([-1] + [1] * len(sizes)), opp,
                            ids[1:]).max(axis=0, keepdims=True)
        n = len(self.counts)
        return top[(0,) + tuple(distinct[a][1].reshape([-1 if q == a else 1 for q in range(n)])
                                for a in others)]

    def best_table(self):
        """Advertiser 0's best utility against each opponent profile, on
        the (1, counts[1], ...) table: the maximum, over the subsets of
        min(kappa, K) of its K keywords, of their _keyword_best tables
        added in keyword order from 0.0, as a dynamic programme."""
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


def joint_scan_pure_nash(scenario, grid, epsilon=None, conservative=False,
                         winner_truthful=False, chunk_profiles=1 << 16):
    """Oracle: enumerate_pure_nash by one scan of the whole joint grid, in
    chunks of advertiser 0's rows (one row at least) crossed with every
    opponent row.  Each chunk prices every advertiser on every profile,
    takes each other advertiser's best response within it, advertiser
    0's from the separable best_table, and keeps the profiles where no
    one gains more than epsilon; reports as enumerate_pure_nash's."""
    from bmlab.equilibrium import _TRUTHFUL_TOL, EquilibriumReport, _resolve_epsilon
    from bmlab.mechanisms import gsp_outcome, pbm_expected_welfare_batch

    eps = _resolve_epsilon(scenario, epsilon)
    advs = scenario.advertisers
    n = len(advs)
    if n == 0:
        return [EquilibriumReport(profile={}, regrets={}, converged=True,
                                  iterations=0, epsilon=eps, welfare=0.0)]
    space = _JointScan(scenario, grid, conservative)
    counts, pools, arrays = space.counts, space.pools, space.arrays
    best0 = space.best_table()
    step = max(1, chunk_profiles // math.prod(counts[1:]))
    found, regrets = [], [[] for _ in advs]
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

    col = {s: k for k, s in enumerate(scenario.graph.keywords)}
    bids = np.zeros((len(hits), n, len(col)))
    for a in range(n):
        bids[:, a, [col[s] for s in pools[a]]] = arrays[a][hits[:, a]]
    values = np.broadcast_to(scenario.value_matrix, (len(hits),) + scenario.value_matrix.shape)
    welfare = pbm_expected_welfare_batch(scenario, values, bids).tolist()
    return [EquilibriumReport(
        profile={i: {s: float(b) for s, b in zip(pools[a], arrays[a][row[a]]) if b > 0.0}
                 for a, i in enumerate(advs)},
        regrets={i: float(regrets[a][h]) for a, i in enumerate(advs)},
        converged=True, iterations=0, epsilon=eps, welfare=welfare[h])
        for h, row in enumerate(hits)]


def list_poa_oracle(scenario, reports, grid, label="scenario"):
    """Oracle: empirical_poa over a list of EquilibriumReports, each one
    read: the least of their welfares against the bound, the one grid
    step of slack and the notes."""
    from bmlab.analysis import _POA_TOL, RatioReport, bound_calculators, homogeneity
    from bmlab.expressiveness import kl_expressiveness
    from bmlab.market import optimal_welfare

    reports = list(reports)
    if not reports:
        raise ValidationError("empirical PoA needs at least one equilibrium")
    worst = min(r.welfare for r in reports)
    opt, c, beta = optimal_welfare(scenario), homogeneity(scenario), kl_expressiveness(scenario)
    eps_cont = scenario.weights.weight(0) * grid.delta
    notes = ["exhaustive", f"n_equilibria={len(reports)}", f"beta={beta:.6g}",
             f"grid_slack={eps_cont:.6g}"]
    if not math.isfinite(c):
        bound = math.inf
        notes.append("homogeneity non-finite; bound vacuous")
    else:
        bounds = bound_calculators(c, beta)
        bound = bounds.pure_poa_single if scenario.weights.is_single_slot else bounds.pure_poa_multi
        notes.append(f"c={c:.6g}")
    if worst <= 0.0:
        return RatioReport(label, "pure_poa", opt, worst, math.inf, bound,
                           False, "; ".join(["zero-welfare equilibrium"] + notes))
    ratio = opt / worst
    return RatioReport(label, "pure_poa", opt, worst, ratio, bound,
                       ratio <= bound + eps_cont + _POA_TOL, "; ".join(notes))


def enumerate_report_oracle(obj, reports) -> str:
    """Oracle: equilibrium.json of --mode enumerate as one dict dumped
    whole: obj with the count, every report's _report_obj and the worst,
    min(..., key=welfare), through _json_text."""
    from bmlab.cli import _json_text, _report_obj

    reports = list(reports)
    worst = min(reports, key=lambda r: r.welfare) if reports else None
    return _json_text({**obj, "count": len(reports),
                       "equilibria": [_report_obj(r) for r in reports],
                       "worst": _report_obj(worst) if reports else None})


def scenario_json(scenario, advertisers, keywords, keyword_order) -> dict:
    """The scenario as a scenario JSON object in which advertiser index a
    is named advertisers[a] and keyword index k keywords[k]; the keywords
    are declared in keyword_order (indices) and the advertisers last to
    first."""
    sc, names = scenario, dict(zip(scenario.graph.keywords, keywords))
    return {
        "queries": list(sc.graph.queries),
        "keywords": [keywords[k] for k in keyword_order],
        "edges": [[q, names[s]] for q in sc.graph.queries for s in sc.graph.query_neighbors(q)],
        "query_dist": {q: sc.p.mass(q) for q in sc.graph.queries},
        "matching": {q: {names[s]: sc.pi.mass(q, s) for s in sc.graph.query_neighbors(q)}
                     for q in sc.graph.queries},
        "slot_weights": list(sc.weights.as_tuple()),
        "valuations": {advertisers[a]: {q: sc.valuations.value(i, q) for q in sc.graph.queries
                                        if sc.valuations.value(i, q) > 0.0}
                       for a, i in reversed(list(enumerate(sc.advertisers)))},
        "kappa": sc.kappa,
    }


def canonical_profiles(profiles):
    """Hashable canonical form of a list of bid profiles, for set
    comparison across enumeration orders."""
    return {
        tuple(sorted((i, tuple(sorted((s, round(b, 9)) for s, b in row.items())))
                     for i, row in p.items()))
        for p in profiles
    }


def per_call_truthful_bids(bayes, values):
    """Oracle: the truthful strategy's bid tensor for an (n, |A|, |Q|)
    value tensor, one call of the per-advertiser rule per profile and
    advertiser: the advertiser's own {query: value} row bound into a
    Scenario, whose keyword values it bids on its top-kappa positive
    keywords by (-value, keyword)."""
    col = {s: k for k, s in enumerate(bayes.graph.keywords)}
    bids = np.zeros(values.shape[:2] + (len(col),))
    for t, profile in enumerate(values):
        for a, (i, values_row) in enumerate(bayes.valuations_at(profile).items()):
            row = bayes.to_scenario({i: values_row}).kw_values[i]
            picks = sorted((s for s, v in row.items() if v > 0.0), key=lambda s: (-row[s], s))
            for s in picks[:bayes.kappa]:
                bids[t, a, col[s]] = row[s]
    return bids


def per_sample_revenue_welfare_stats(bayes, strategy, reserves, n_samples, rng):
    """Oracle: the one-profile-at-a-time Monte-Carlo revenue loop that the
    batched analysis.revenue_welfare_stats replaces: each drawn profile is
    bound into a Scenario, bid by one strategy call on its value matrix,
    and priced by the dict-profile revenue oracle."""
    from bmlab.analysis import RevenueStats
    from bmlab.market import optimal_welfare

    revs = np.empty(n_samples)
    opts = np.empty(n_samples)
    revs0 = np.empty(n_samples)
    for t in range(n_samples):
        sc = bayes.to_scenario(bayes.sample_valuations(rng))
        rows = strategy(sc.value_matrix[None])[0].tolist()
        bids = {i: dict(zip(bayes.graph.keywords, row))
                for i, row in zip(bayes.advertisers, rows)}
        revs[t] = dict_expected_revenue(sc, bids, reserves)
        revs0[t] = dict_expected_revenue(sc, bids)
        opts[t] = optimal_welfare(sc)
    return RevenueStats(
        revenue=float(revs.mean()),
        revenue_se=float(revs.std(ddof=1) / math.sqrt(n_samples)),
        optimal=float(opts.mean()),
        optimal_se=float(opts.std(ddof=1) / math.sqrt(n_samples)),
        zero_reserve_revenue=float(revs0.mean()),
        n_samples=n_samples,
    )


def per_draw_valuations(bayes, rng):
    """Oracle: one valuation profile drawn one (advertiser, query) pair at
    a time through each distribution's own sample method."""
    return {i: {q: float(dist.sample(rng, 1)[0]) for q, dist in row.items()}
            for i, row in bayes.value_dists.items()}


def random_piecewise(rng) -> PiecewiseDensity:
    """Contiguous random pieces scaled to total mass 1."""
    n = int(rng.integers(1, 5))
    breaks = np.concatenate([[0.0], np.cumsum(rng.uniform(0.05, 3.0, n))])
    raw = [dict(const=float(rng.uniform(0.05, 1.0)),
                slope=float(rng.uniform(0.0, 1.0)) * (rng.random() < 0.5),
                ramp=float(rng.uniform(0.0, 2.0)) * (rng.random() < 0.6),
                power=float(rng.uniform(1.0, 8.0))) for _ in range(n)]
    total = math.fsum(Piece(float(lo), float(hi), **c).mass
                      for lo, hi, c in zip(breaks, breaks[1:], raw))
    return PiecewiseDensity([
        Piece(float(lo), float(hi), const=c["const"] / total, slope=c["slope"] / total,
              ramp=c["ramp"] / total, power=c["power"])
        for lo, hi, c in zip(breaks, breaks[1:], raw)])


def random_dist(rng, family):
    """A random distribution of the family, or None for "missing"."""
    if family == "uniform":
        lo = float(rng.choice([0.0, 0.5, 1.0]))
        return Uniform(lo, lo + float(rng.uniform(0.5, 4.0)))
    if family == "exponential":
        return Exponential(float(rng.uniform(0.2, 2.0)))
    if family == "truncated_exponential":
        return TruncatedExponential(float(rng.uniform(0.2, 2.0)), float(rng.uniform(1.0, 5.0)))
    if family == "piecewise":
        return (ramp_then_plateau_density(float(rng.uniform(0.01, 0.4)))
                if rng.random() < 0.3 else random_piecewise(rng))
    if family == "empirical":
        # few distinct values, so that equal bids are common
        return Empirical(rng.choice([0.0, 0.5, 1.0, 2.0], size=int(rng.integers(1, 6))))
    if family == "point":
        return PointMass(float(rng.choice([0.0, 1.0, 2.0])))
    return None


def _piece_of_each(dist, x):
    x = np.atleast_1d(np.asarray(x, dtype=float))
    idx = np.clip(np.searchsorted(dist._breaks, x, side="right") - 1, 0,
                  len(dist.pieces) - 1)
    return x, idx


def scalar_piecewise_pdf(dist, x):
    """Oracle: PiecewiseDensity pdf one element at a time through its
    piece's pdf, zero outside the support."""
    lo, hi = dist.support
    x, idx = _piece_of_each(dist, x)
    vals = np.array([dist.pieces[i].pdf(v) for v, i in zip(x, idx)], dtype=float)
    vals[(x < lo) | (x > hi)] = 0.0
    return vals


def scalar_piecewise_cdf(dist, x):
    """Oracle: PiecewiseDensity cdf one element at a time, the mass below
    the element's piece plus the piece's mass up to it."""
    x, idx = _piece_of_each(dist, x)
    x = np.clip(x, *dist.support)
    vals = np.array([dist._cum[i] + dist.pieces[i].mass_to(v) for v, i in zip(x, idx)],
                    dtype=float)
    return np.clip(vals, 0.0, 1.0)


def scalar_piecewise_quantile(dist, u):
    """Oracle: PiecewiseDensity quantile by 80 bisection steps with one
    scalar cdf evaluation per element and step."""
    u = np.atleast_1d(np.clip(np.asarray(u, dtype=float), 0.0, 1.0))
    pidx = np.clip(np.searchsorted(dist._cum, u, side="right") - 1, 0,
                   len(dist.pieces) - 1)
    lo = np.array([dist.pieces[i].lo for i in pidx])
    hi = np.array([dist.pieces[i].hi for i in pidx])
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        cm = np.array([dist._cum[i] + dist.pieces[i].mass_to(m)
                       for m, i in zip(mid, pidx)])
        go_right = cm < u
        lo = np.where(go_right, mid, lo)
        hi = np.where(go_right, hi, mid)
    return 0.5 * (lo + hi)


def bisection_reserve(dist):
    """Oracle: the Myerson reserve by bisection of [lo, grid_hi] that stops
    only at width 1e-13 or after 200 steps.  Returns (reserve, number of
    virtual-value evaluations)."""
    calls = 0

    def phi(v):
        nonlocal calls
        calls += 1
        try:
            return virtual_value(dist, v)
        except ZeroDensity:
            return -math.inf

    a, b = dist.support[0], dist.grid_hi()
    f_lo, f_hi = phi(a), phi(b)
    if abs(f_lo) <= 1e-12:
        return a, calls
    assert f_lo < 0.0 and not f_hi < 0.0, "the oracle needs a sign change"
    for _ in range(200):
        if b - a <= 1e-13:
            break
        mid = 0.5 * (a + b)
        if phi(mid) < 0.0:
            a = mid
        else:
            b = mid
    return 0.5 * (a + b), calls


def opponent_bids(bids, advertiser, keywords):
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


def slot_utility(own_bid, advertiser, opponents, weights, mass, value):
    """Oracle: u_i^s for one bid against fixed positive opponent bids, by a
    scalar scan in the lex GSP order."""
    from bmlab.mechanisms import outranks

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


def select_keywords(menus, utility, kappa):
    """Best-response keyword selection with a scalar utility(s, b): each
    keyword's lowest bid of maximal utility, keywords ranked by
    (-utility, keyword); the ranked list and its top-kappa positive part."""
    ranked = []
    for s, menu in menus.items():
        best_u, best_b = 0.0, 0.0
        for b in menu:
            u = utility(s, b)
            if u > best_u:
                best_u, best_b = u, b
        ranked.append((best_u, s, best_b))
    ranked.sort(key=lambda usb: (-usb[0], usb[1]))
    return ranked, [usb for usb in ranked[:kappa] if usb[0] > 0.0]


def off_menu_bids(scenario, grid, profile, conservative=False):
    """The (advertiser, keyword, bid) entries of a profile whose bid is
    neither a kept grid point k * delta, k < kept of _menu_rule, nor the
    keyword value: the last grid point at or below the bid, found by
    bisection, must equal it."""
    from bmlab.equilibrium import _menu_rule, _points_upto

    off = []
    for i, row in profile.items():
        for s, b in row.items():
            v = scenario.kw_values[i][s]
            kept, _ = _menu_rule(grid, s, v, conservative)
            if b != v and (_points_upto(b, grid.delta, kept) - 1) * grid.delta != b:
                off.append((i, s, b))
    return off


def scalar_best_response(scenario, bids, advertiser, grid, conservative=False,
                         keep_played=False):
    """Oracle: (best row, its utility, utility of the current row) by one
    scalar slot_utility call per menu bid and per current bid.  With
    keep_played each menu also holds the advertiser's played bid on its
    keyword, as the deviations of verify_epsilon_nash do."""
    values = scenario.kw_values[advertiser]
    menus = whole_grid_menus(scenario, grid, advertiser, conservative)
    row = bids.get(advertiser, {})
    if keep_played:
        menus = {s: sorted({*menu, row.get(s, 0.0)}) for s, menu in menus.items()}
    opponents = opponent_bids(bids, advertiser, set(menus) | set(row))

    def utility(s, b):
        return slot_utility(b, advertiser, opponents[s], scenario.weights,
                            scenario.kw_masses[s], values[s])

    _, kept = select_keywords(menus, utility, scenario.kappa)
    current = 0.0
    for s, b in row.items():
        if b > 0.0:
            current += utility(s, b)
    return {s: b for _, s, b in kept}, sum(u for u, _, _ in kept), current


def per_call_dynamics(scenario, initial, grid, epsilon, max_iters, conservative=False):
    """Oracle: best-response dynamics as the round-robin loop of one
    scalar_best_response call per advertiser, for the best responses and
    for the regrets alike, the regrets' menus holding the played bids.
    Returns (profile, regrets, converged, iterations)."""

    def regrets_of(profile):
        regrets = {}
        for i in scenario.advertisers:
            _, best, current = scalar_best_response(scenario, profile, i, grid,
                                                    conservative, keep_played=True)
            regrets[i] = max(0.0, best - current)
        return regrets

    profile = {i: dict(initial.get(i, {})) for i in scenario.advertisers}
    regrets = regrets_of(profile)
    converged = False
    iterations = 0
    for it in range(1, max_iters + 1):
        iterations = it
        if max(regrets.values(), default=0.0) <= epsilon:
            converged = True
            break
        for i in scenario.advertisers:
            profile[i], _, _ = scalar_best_response(scenario, profile, i, grid,
                                                    conservative)
        regrets = regrets_of(profile)
    else:
        converged = max_iters > 0 and max(regrets.values(), default=0.0) <= epsilon
    return profile, regrets, converged, iterations


def per_round_simulate(scenario, bids, rounds, rng):
    """Oracle: the simulate command's per-round loop, kept verbatim: a
    query by draw, then pbm_run_round, welfare and revenue added with +=.
    Returns (outcomes, welfare_sum, revenue_sum)."""
    from bmlab.mechanisms import draw, pbm_run_round

    queries = tuple(scenario.p.queries)
    probs = np.array([scenario.p.mass(q) for q in queries])
    outcomes = []
    welfare_sum = 0.0
    revenue_sum = 0.0
    for _ in range(rounds):
        q = draw(rng, queries, probs)
        outcome = pbm_run_round(scenario, bids, q, rng)
        welfare_sum += outcome.welfare
        revenue_sum += outcome.revenue
        outcomes.append(outcome)
    return outcomes, welfare_sum, revenue_sum



def per_round_reports(scenario, bids, rounds, seed):
    """Oracle: the simulate command's (rounds.csv, summary.json) texts from
    per_round_simulate, rounds.csv rendered line by line: per round, one
    line per slot assignment, so a round without one writes none."""
    import json

    from bmlab.cli import ROUND_HEADER
    from bmlab.mechanisms import pbm_expected_revenue, pbm_expected_welfare

    outcomes, welfare_sum, revenue_sum = per_round_simulate(
        scenario, bids, rounds, np.random.default_rng(seed))
    lines = [ROUND_HEADER + "\n"]
    for t, o in enumerate(outcomes):
        for slot, adv, price, w in o.assignments:
            lines.append(f"{t},{o.query},{o.sampled_keyword},{slot},{adv},{price:.9g},{w:.9g}\n")
    summary = {
        "rounds": rounds,
        "seed": seed,
        "exact_welfare": pbm_expected_welfare(scenario, bids),
        "exact_revenue": pbm_expected_revenue(scenario, bids),
        "empirical_welfare": welfare_sum / rounds if rounds else None,
        "empirical_revenue": revenue_sum / rounds if rounds else None,
    }
    return "".join(lines), json.dumps(summary, indent=2, sort_keys=True) + "\n"

def per_draw_bne_regret(bayes, strategy, n_types, deviation_delta, rng,
                        n_opponent_draws=32):
    """Oracle: estimate_bne_regret as one strategy call per drawn profile
    and one scalar utility call per menu bid and opponent draw, on
    per-draw dict profiles."""
    from bmlab.equilibrium import BidGrid, RegretEstimate
    from bmlab.market import keyword_value_tensor
    from bmlab.mechanisms import require_finite_bid_tensor

    advertisers, keywords = bayes.advertisers, bayes.graph.keywords
    rows = 1 + n_opponent_draws
    out = {}
    for a, i in enumerate(advertisers):
        draws = bayes.sample_values(rng, n_types * rows)
        bids = np.concatenate([strategy(profile[None]) for profile in draws])
        require_finite_bid_tensor(bayes, bids)
        own_values = keyword_value_tensor(bayes, draws[::rows, a]).tolist()
        gaps = []
        for t in range(n_types):
            own_bids, *opp_bids = bids[t * rows:(t + 1) * rows].tolist()
            values = dict(zip(keywords, own_values[t]))
            played = dict(zip(keywords, own_bids[a]))
            grid = BidGrid(deviation_delta, values)
            own = SimpleNamespace(kw_values={i: values})
            menus = {s: sorted({*whole_grid_menu(own, grid, i, s).tolist(), played[s]})
                     for s in values}
            opp_draws = [dict(zip(advertisers, (dict(zip(keywords, row)) for row in draw)))
                         for draw in opp_bids]
            by_draw = [opponent_bids(opp, i, menus) for opp in opp_draws]
            opponents = {s: [opp[s] for opp in by_draw] for s in menus}
            seen = {}

            def utility(s, b):
                u = 0.0
                for opp in opponents[s]:
                    u += slot_utility(b, i, opp, bayes.weights,
                                       bayes.kw_masses[s], values[s])
                u /= n_opponent_draws
                seen[s, b] = u
                return u

            ranked, kept = select_keywords(menus, utility, bayes.kappa)
            best_total = sum(u for u, _, _ in kept)
            played_total = sum(seen[s, played[s]] for _, s, _ in ranked)
            gaps.append(max(0.0, best_total - played_total))
        arr = np.asarray(gaps)
        out[i] = RegretEstimate(mean=float(arr.mean()),
                                stderr=float(arr.std(ddof=1) / math.sqrt(n_types))
                                if n_types > 1 else 0.0,
                                n_types=n_types, per_type=tuple(arr.tolist()))
    return out


def scalar_homogeneity(scenario):
    """Oracle: homogeneity by a scalar loop over keywords, advertisers and
    neighborhood values."""
    c = 1.0
    for s in scenario.graph.keywords:
        nbrs = scenario.graph.keyword_neighbors(s)
        for i in scenario.advertisers:
            vals = [scenario.valuations.value(i, q) for q in nbrs]
            pos = [v for v in vals if v > 0.0]
            if not pos:
                continue
            if len(pos) < len(vals):
                return math.inf
            c = max(c, max(pos) / min(pos))
    return c


def per_draw_realized_homogeneity(bayes, rng, draws=1000):
    """Oracle: the revenue command's realized homogeneity, one drawn
    profile bound into a Scenario at a time, stopping at the first
    infinite value."""
    c = 1.0
    for _ in range(draws):
        c = max(c, scalar_homogeneity(bayes.to_scenario(bayes.sample_valuations(rng))))
        if math.isinf(c):
            break
    return c
