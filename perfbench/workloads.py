"""Seeded input generators for the four benchmark workloads.

Each generator writes the files bmlab will read into a directory and
returns a `meta` dict with the run parameters and the input sizes the
rates are quoted against.  The same seed always gives byte-identical
files.  Costs are held inside narrow bands (by redrawing from the seeded
stream) so that seed-to-seed spread measures the program, not the luck
of the draw.
"""
from __future__ import annotations

import itertools
import json
import math
from pathlib import Path

import numpy as np

# Why each workload exists: which layer it loads and what it leaves out.
WHY = {
    "equilibria": "pure-Nash tensor enumeration, Python best-response dynamics "
                  "and the GSP round loop; the largest peak RSS; no sampling",
    "revenue_mc": "per-sample Monte-Carlo revenue loop over closed-form value "
                  "families; analysis->mechanisms->market dominate, sampling is small",
    "counterexample_mc": "the same MC path on piecewise densities, where scalar "
                         "quantile bisection dominates; the vanishing-revenue instance",
    "corpus_sweep": "corpus micro-market extraction and the alpha/beta sweep; "
                    "edit distance and cover search, no numpy",
}

# equilibria: the enumerated market's joint grid and its number of pure-Nash
# equilibria (each one costs report-writing time) are held in these bands
JOINT_BAND = (2_500_000, 2_550_000)
# rows per advertiser: the enumeration's peak memory depends on the shape
# of its grid as well as on its size, so lopsided shapes are redrawn
ROWS_BAND = (105, 175)
NASH_BAND = (60, 140)
ENUM_DELTA = 1.0
WIDE_ADVERTISERS = 20
DYN_DELTA = 0.25
DYN_MAX_ITERS = 100
SIM_ROUNDS = 20_000

# revenue_mc
REVENUE_SAMPLES = 6_000

# counterexample_mc: ROADMAP's instance is eps1 = 0.05, eps2 = 2e-4, m = 11;
# the seed moves eps1 around it and keeps eps2 = eps1^2 / 12.5
CE_M_EXP = 11
CE_INDUCED_SAMPLES = 1_000
CE_MC_SAMPLES = 500

# corpus_sweep
CORPUS_ADVERTISERS = 30
CORPUS_KEYWORDS_PER_ADVERTISER = 5
CORPUS_QUERIES_PER_KEYWORD = 2
CORPUS_VOCAB = 60
CORPUS_HEAD_TERMS = ("cheap", "online")
CORPUS_HEAD_KEYWORD_P = 0.05
CORPUS_HEAD_QUERY_P = 0.2
# both the edit-distance cost and the cell count are held in bands, so that
# cells per second moves with the program and not with the seed
CORPUS_COST_BAND = (5_100_000, 5_400_000)
CORPUS_CELLS_BAND = (1_950, 2_010)


def _rng(seed, salt):
    return np.random.default_rng([int(seed), salt])


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=1, sort_keys=True) + "\n",
                    encoding="utf-8")


def _skeleton(rng, n_q, n_s, extra_edge_p):
    """Queries, keywords and edges where every vertex has a neighbor, plus
    query and matching distributions with strictly positive masses."""
    queries = [f"q{j}" for j in range(n_q)]
    keywords = [f"s{j}" for j in range(n_s)]
    edges = {(queries[j % n_q], keywords[j]) for j in range(n_s)}
    edges |= {(queries[j], keywords[j % n_s]) for j in range(n_q)}
    for q in queries:
        for s in keywords:
            if rng.random() < extra_edge_p:
                edges.add((q, s))
    edges = sorted(edges)
    pq = rng.uniform(1.0, 3.0, n_q)
    pq /= pq.sum()
    query_dist = {q: float(m) for q, m in zip(queries, pq)}
    # the last mass absorbs rounding so each row sums to 1 within 1e-12
    query_dist[queries[-1]] = 1.0 - math.fsum(query_dist[q] for q in queries[:-1])
    matching = {}
    for q in queries:
        nbrs = [s for qq, s in edges if qq == q]
        w = rng.uniform(1.0, 3.0, len(nbrs))
        w /= w.sum()
        row = {s: float(m) for s, m in zip(nbrs, w)}
        row[nbrs[-1]] = 1.0 - math.fsum(row[s] for s in nbrs[:-1])
        matching[q] = row
    return {"queries": queries, "keywords": keywords,
            "edges": [list(e) for e in edges],
            "query_dist": query_dist, "matching": matching}


def keyword_values(sc) -> dict:
    """{advertiser: {keyword: traffic-weighted mean query value}}."""
    out = {}
    for i, row in sc["valuations"].items():
        out[i] = {}
        for s in sc["keywords"]:
            num = den = 0.0
            for q, ss in sc["edges"]:
                if ss == s:
                    m = sc["query_dist"][q] * sc["matching"][q][s]
                    num += m * row.get(q, 0.0)
                    den += m
            out[i][s] = num / den
    return out


def strategy_rows(sc, delta) -> list:
    """Rows per advertiser of a conservative enumeration: rows with at
    most kappa positive bids, each bid a grid point at or below the
    keyword value or the value itself."""
    kv = keyword_values(sc)
    out = []
    for i in sorted(kv):
        levels = [math.floor(v / delta + 1e-9) + (0 if _on_grid(v, delta) else 1)
                  for v in kv[i].values() if v > 0.0]
        out.append(sum(math.prod(c) for k in range(sc["kappa"] + 1)
                       for c in itertools.combinations(levels, k)))
    return out


def joint_profiles(sc, delta) -> int:
    """Joint grid size of a conservative enumeration."""
    return math.prod(strategy_rows(sc, delta))


def nash_count(sc, delta) -> int:
    """Pure-Nash equilibria of the enumerated market on its conservative
    grid, by the benchmark's own search.  With kappa equal to the number
    of keywords nobody is budget-bound, utilities add up over keywords,
    so the joint count is the product of the per-keyword GSP games'."""
    kv = keyword_values(sc)
    advs = sorted(kv)
    w = list(sc["slot_weights"]) + [0.0] * len(advs)
    eps = 1e-9 * max(1.0, max(v for row in sc["valuations"].values() for v in row.values()))
    total = 1
    for s in sc["keywords"]:
        mass = math.fsum(sc["query_dist"][q] * sc["matching"][q][s]
                         for q, ss in sc["edges"] if ss == s)
        vals = [kv[i][s] for i in advs]
        menus = [sorted({k * delta for k in range(math.floor(v / delta + 1e-9) + 1)} | {v})
                 for v in vals]

        def util(a, bids):
            b = bids[a]
            if b <= 0.0:
                return 0.0
            above = [j for j in range(len(bids)) if j != a
                     and (bids[j] > b or (bids[j] == b and j < a))]
            price = max((bids[j] for j in range(len(bids)) if j != a and j not in above),
                        default=0.0)
            return mass * w[len(above)] * (vals[a] - price)

        best = {}
        count = 0
        for prof in itertools.product(*menus):
            stable = True
            for a in range(len(advs)):
                key = (a,) + prof[:a] + prof[a + 1:]
                if key not in best:
                    best[key] = max(util(a, prof[:a] + (b,) + prof[a + 1:]) for b in menus[a])
                if util(a, prof) < best[key] - eps:
                    stable = False
                    break
            count += stable
        total *= count
    return total


def _on_grid(v, delta):
    k = round(v / delta)
    return k >= 1 and abs(k * delta - v) <= 1e-12


def _enum_market(rng):
    while True:
        sc = _skeleton(rng, n_q=3, n_s=3, extra_edge_p=0.3)
        sc["slot_weights"] = [1.0, 0.6]
        # kappa = number of keywords: nobody is budget-bound, so the game
        # splits per keyword, which nash_count relies on
        sc["kappa"] = 3
        sc["valuations"] = {f"a{i}": {q: round(float(rng.uniform(2.5, 6.0)), 3)
                                      for q in sc["queries"]}
                            for i in range(3)}
        rows = strategy_rows(sc, ENUM_DELTA)
        joint = math.prod(rows)
        if (JOINT_BAND[0] <= joint <= JOINT_BAND[1]
                and all(ROWS_BAND[0] <= r <= ROWS_BAND[1] for r in rows)):
            nash = nash_count(sc, ENUM_DELTA)
            if NASH_BAND[0] <= nash <= NASH_BAND[1]:
                return sc, joint, nash


def _wide_market(rng):
    sc = _skeleton(rng, n_q=10, n_s=8, extra_edge_p=0.2)
    sc["slot_weights"] = [1.0, 0.7, 0.4]
    sc["kappa"] = 2
    vals = {}
    for i in range(WIDE_ADVERTISERS):
        qs = rng.choice(10, size=4, replace=False)
        vals[f"a{i:02d}"] = {f"q{j}": round(float(rng.uniform(1.0, 10.0)), 3)
                             for j in sorted(qs)}
    # every query needs a positive advertiser
    for q in sc["queries"]:
        if not any(q in row for row in vals.values()):
            vals["a00"][q] = round(float(rng.uniform(1.0, 10.0)), 3)
    sc["valuations"] = vals
    return sc


def gen_equilibria(seed, d: Path) -> dict:
    rng = _rng(seed, 1)
    enum_sc, joint, nash = _enum_market(rng)
    _write_json(d / "enum.json", enum_sc)
    _write_json(d / "wide.json", _wide_market(rng))
    return {"seed": int(seed), "joint_profiles": joint, "equilibria": nash, "rounds": SIM_ROUNDS,
            "enum_delta": ENUM_DELTA, "dyn_delta": DYN_DELTA,
            "dyn_max_iters": DYN_MAX_ITERS, "wide_advertisers": WIDE_ADVERTISERS}


def _value_dist(rng):
    fam = ("uniform", "exponential", "truncated_exponential")[int(rng.integers(3))]
    if fam == "uniform":
        lo = round(float(rng.uniform(0.5, 2.0)), 3)
        return {"family": fam, "params": {"lo": lo,
                                          "hi": round(lo + float(rng.uniform(2.0, 8.0)), 3)}}
    if fam == "exponential":
        return {"family": fam, "params": {"rate": round(float(rng.uniform(0.2, 0.6)), 3)}}
    return {"family": fam, "params": {"rate": round(float(rng.uniform(0.2, 0.8)), 3),
                                      "hi": round(float(rng.uniform(5.0, 12.0)), 3)}}


def gen_revenue_mc(seed, d: Path) -> dict:
    rng = _rng(seed, 2)
    sc = _skeleton(rng, n_q=4, n_s=3, extra_edge_p=0.3)
    sc["slot_weights"] = [1.0, 0.5]
    sc["kappa"] = 2
    # every (advertiser, query) has a distribution, so realized homogeneity
    # stays finite and the revenue floor is defined
    sc["value_dists"] = {f"a{i}": {q: _value_dist(rng) for q in sc["queries"]}
                         for i in range(3)}
    _write_json(d / "bayes.json", sc)
    return {"seed": int(seed), "samples": REVENUE_SAMPLES,
            "advertisers": 3, "queries": 4, "keywords": 3}


def gen_counterexample_mc(seed, d: Path) -> dict:
    from bmlab.analysis import counterexample_scenario

    rng = _rng(seed, 3)
    eps1 = round(float(rng.uniform(0.04, 0.06)), 4)
    eps2 = eps1 * eps1 / 12.5
    bayes, rep = counterexample_scenario(eps1, eps2, CE_M_EXP)
    g = bayes.graph
    obj = {"queries": list(g.queries), "keywords": list(g.keywords),
           "edges": sorted([list(e) for e in g.edges]),
           "query_dist": dict(bayes.p.items()),
           "matching": {q: {s: bayes.pi.mass(q, s) for s in bayes.pi.support(q)}
                        for q in bayes.pi.queries},
           "slot_weights": list(bayes.weights.as_tuple()), "kappa": bayes.kappa,
           "value_dists": {i: {q: dist.to_json() for q, dist in row.items()}
                           for i, row in bayes.value_dists.items()}}
    _write_json(d / "bayes.json", obj)
    _write_json(d / "mc.json", {"seed": int(seed), "induced_samples": CE_INDUCED_SAMPLES,
                                "mc_samples": CE_MC_SAMPLES,
                                "reserves": {"s1": rep.reserve_small,
                                             "s2": rep.reserve_large}})
    return {"seed": int(seed), "eps1": eps1, "eps2": eps2, "m_exp": CE_M_EXP,
            "mc_samples": CE_MC_SAMPLES, "induced_samples": CE_INDUCED_SAMPLES}


_CONSONANTS = "bcdfghklmnprstvz"
_VOWELS = "aeiou"


def _vocab(rng, n):
    words = set()
    while len(words) < n:
        syl = int(rng.integers(2, 4))
        words.add("".join(_CONSONANTS[int(rng.integers(len(_CONSONANTS)))]
                          + _VOWELS[int(rng.integers(len(_VOWELS)))]
                          for _ in range(syl)))
    return sorted(words)


def gen_corpus_sweep(seed, d: Path) -> dict:
    """Bids are 1-2 term phrases; every keyword seeds queries that contain
    all of its terms plus 0-2 extra terms.  Every term a keyword uses
    therefore has a containment edge in its micro-market, so no market is
    edgeless (gamma = 0 would make the degree bound vacuous).  A few head
    terms ride on many queries, as real logs have, so some markets exceed
    the exact-alpha caps and the sweep's skip path is exercised."""
    rng = _rng(seed, 4)
    while True:
        bids, queries = _corpus(rng)
        if (CORPUS_COST_BAND[0] <= corpus_cost(bids, queries) <= CORPUS_COST_BAND[1]
                and CORPUS_CELLS_BAND[0] <= corpus_cells(bids, queries) <= CORPUS_CELLS_BAND[1]):
            break
    bids = sorted(set(bids))
    (d / "corpus").mkdir(exist_ok=True)
    (d / "corpus" / "bids.csv").write_text(
        "advertiser,keyword\n" + "".join(f"{a},{k}\n" for a, k in bids), encoding="utf-8")
    (d / "corpus" / "queries.csv").write_text(
        "query,frequency\n" + "".join(f"{q},{f}\n" for q, f in sorted(queries.items())),
        encoding="utf-8")
    return {"seed": int(seed), "advertisers": CORPUS_ADVERTISERS,
            "keywords": len({k for _, k in bids}), "queries": len(queries), "vocab": CORPUS_VOCAB}


def _corpus(rng):
    vocab = _vocab(rng, CORPUS_VOCAB)
    bids = []
    for a in range(CORPUS_ADVERTISERS):
        for _ in range(CORPUS_KEYWORDS_PER_ADVERTISER):
            terms = [vocab[t] for t in rng.choice(len(vocab), size=int(rng.integers(1, 3)),
                                                  replace=False)]
            if rng.random() < CORPUS_HEAD_KEYWORD_P:
                terms.append(CORPUS_HEAD_TERMS[int(rng.integers(len(CORPUS_HEAD_TERMS)))])
            bids.append((f"adv{a:02d}", " ".join(sorted(terms))))
    queries = {}
    for kw in sorted({k for _, k in bids}):
        for _ in range(CORPUS_QUERIES_PER_KEYWORD):
            toks = kw.split()
            extra = [vocab[t] for t in rng.choice(len(vocab), size=int(rng.integers(0, 3)),
                                                  replace=False)]
            extra += [h for h in CORPUS_HEAD_TERMS if rng.random() < CORPUS_HEAD_QUERY_P]
            toks += [t for t in extra if t not in toks]
            q = " ".join(toks[k] for k in rng.permutation(len(toks)))
            queries[q] = queries.get(q, 0) + int(rng.integers(1, 50))
    _check_no_edgeless_market(bids, queries)
    return bids, queries


def corpus_cost(bids, queries) -> int:
    """Edit-distance work of a sweep, in character-pair cells: every
    (query, keyword) pair of each micro-market once, plus the degree-bound
    pass's pairs of reachable queries and an advertiser's own keywords,
    once per theta."""
    kw_toks = {k: frozenset(k.split()) for _, k in bids}
    q_toks = {q: frozenset(q.split()) for q in queries}
    cost = 0
    for term in set().union(*kw_toks.values()) & set().union(*q_toks.values()):
        kws = [k for k, t in kw_toks.items() if term in t]
        qs = [q for q, t in q_toks.items() if term in t]
        reach = [q for q in qs if any(kw_toks[k] <= q_toks[q] for k in kws)]
        cost += sum(len(q) * len(k) for q in qs for k in kws)
        cost += 10 * sum(len(q) * len(k) for a, k in set(bids) if k in kws for q in reach)
    return cost


def corpus_cells(bids, queries) -> int:
    """(market, theta, kappa) cells of a sweep that skips no market: every
    theta of the default grid times kappa = 1..size, size being the number
    of keywords in the term's micro-market."""
    from bmlab.expressiveness import DEFAULT_THETA_GRID

    kw_toks = {k: frozenset(k.split()) for _, k in bids}
    terms = set().union(*kw_toks.values()) & set().union(*(q.split() for q in queries))
    return len(DEFAULT_THETA_GRID) * sum(term in t for term in terms for t in kw_toks.values())


def _check_no_edgeless_market(bids, queries):
    kw_toks = {k: frozenset(k.split()) for _, k in bids}
    q_toks = {q: frozenset(q.split()) for q in queries}
    for term in set().union(*kw_toks.values()) & set().union(*q_toks.values()):
        if not any(term in kt and kt <= qt for kt in kw_toks.values()
                   for qt in q_toks.values()):
            raise AssertionError(f"micro-market {term!r} would have no edge")


GENERATORS = {
    "equilibria": gen_equilibria,
    "revenue_mc": gen_revenue_mc,
    "counterexample_mc": gen_counterexample_mc,
    "corpus_sweep": gen_corpus_sweep,
}
