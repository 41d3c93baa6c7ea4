"""Acceptance gate: ten numbered criteria, one verdict line each.

Each test prints `PASS criterion N: ...` (or FAIL) straight to the
terminal, bypassing capture, and then asserts.  Tolerances and runtime
targets are stated inline; random suites are seeded so reruns are
reproducible.
"""

import math
import time

import numpy as np

from helpers import (exhaustive_min_cover, joint_best_response_oracle,
                     joint_profile_count, pbm_utility, random_bid_profile,
                     random_scenario)

from bmlab.analysis import (bound_calculators, counterexample_scenario,
                            empirical_poa, empirical_revenue_ratio,
                            revenue_welfare_stats)
from bmlab.equilibrium import (best_response, bid_menu, enumerate_pure_nash,
                               make_grid, truthful_keyword_strategy)
from bmlab.errors import Uncoverable
from bmlab.expressiveness import (Corpus, expressiveness_sweep,
                                  min_cover_size, degree_bound_check)
from bmlab.market import (BayesScenario, BipartiteGraph, MatchingPolicy,
                          QueryDistribution, SlotWeights, keyword_value)
from bmlab.mechanisms import (pbm_expected_revenue, pbm_expected_welfare,
                              pbm_run_round)
from bmlab.reserves import Exponential, Uniform, myerson_reserve

JOINT_CAP = 300_000


def _verdict(capsys, num, ok, detail):
    line = f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}"
    with capsys.disabled():
        print(f"\n{line}")
    assert ok, line


def _fuzz_scenario(rng, weights, all_positive):
    """Random instance within the fuzz-size caps whose conservative
    joint strategy space fits the enumeration budget."""
    while True:
        sc = random_scenario(rng, max_adv=3, max_kw=3, max_q=4,
                             weights=weights, all_positive=all_positive)
        maxv = max(sc.valuations.value(i, q) for i in sc.advertisers
                   for q in sc.graph.queries)
        grid = make_grid(sc, maxv / 8.0)
        if joint_profile_count(sc, grid, conservative=True) <= JOINT_CAP:
            return sc, grid


def _poa_fuzz(weights, seed, n_instances):
    rng = np.random.default_rng(seed)
    counts = {"tested": 0, "vacuous": 0, "filtered_empty": 0}
    violations = []
    for k in range(n_instances):
        sc, grid = _fuzz_scenario(rng, weights, all_positive=(k % 2 == 0))
        for wt in (True, False):
            reports = enumerate_pure_nash(sc, grid, conservative=True,
                                          winner_truthful=wt)
            if not reports:
                counts["filtered_empty"] += 1
                continue
            rep = empirical_poa(sc, reports, grid=grid)
            if math.isinf(rep.bound):
                counts["vacuous"] += 1
                continue
            counts["tested"] += 1
            if not rep.satisfied:
                violations.append((k, wt, rep))
    return counts, violations


def test_criterion_01_single_slot_poa_bound(capsys):
    t0 = time.perf_counter()
    counts, violations = _poa_fuzz((1.0,), seed=101, n_instances=500)
    dt = time.perf_counter() - t0
    ok = not violations and counts["tested"] >= 500 and dt < 300.0
    _verdict(capsys, 1, ok,
             f"single-slot PoA <= c/beta + eps on {counts['tested']} "
             f"equilibrium sets over 500 instances "
             f"({counts['vacuous']} vacuous, "
             f"{counts['filtered_empty']} empty after filtering; "
             f"{len(violations)} violations; {dt:.1f}s)")


def test_criterion_02_multi_slot_poa_bound(capsys):
    t0 = time.perf_counter()
    counts, violations = _poa_fuzz((1.0, 0.5), seed=202, n_instances=500)
    dt = time.perf_counter() - t0
    ok = not violations and counts["tested"] >= 500 and dt < 600.0
    _verdict(capsys, 2, ok,
             f"two-slot PoA <= c(1+beta)/beta + eps on {counts['tested']} "
             f"equilibrium sets over 500 instances "
             f"({counts['vacuous']} vacuous, "
             f"{counts['filtered_empty']} empty after filtering; "
             f"{len(violations)} violations; {dt:.1f}s)")


def test_criterion_03_revenue_counterexample(capsys):
    t0 = time.perf_counter()
    _, rep = counterexample_scenario(0.01, 1e-5, 11)
    ratios = []
    for eps1 in (0.05, 0.01, 0.002):
        _, r = counterexample_scenario(eps1, eps1 ** 2 / 10.0, 11)
        ratios.append(r.ratio)
    dt = time.perf_counter() - t0
    trend_ok = all(a > b for a, b in zip(ratios, ratios[1:]))
    ok = (rep.checks_pass and rep.ratio < 0.05 and trend_ok and dt < 60.0)
    _verdict(capsys, 3, ok,
             f"two-keyword instance: sign/reserve checks pass, "
             f"revenue/optimal = {rep.ratio:.4f} < 0.05, trend "
             f"{[round(r, 4) for r in ratios]} strictly decreasing "
             f"({dt:.2f}s)")


def test_criterion_04_myerson_reserves(capsys):
    t0 = time.perf_counter()
    cases = [
        (Uniform(0.0, 1.0), 0.5),
        (Exponential(1.0), 1.0),
        (Uniform(2.0, 4.0), 2.0),
    ]
    errs = [abs(myerson_reserve(d) - want) for d, want in cases]
    dt = time.perf_counter() - t0
    ok = all(e <= 1e-9 for e in errs) and dt < 1.0
    _verdict(capsys, 4, ok,
             f"monopoly reserves within 1e-9 of 0.5 / 1.0 / 2.0 "
             f"(max err {max(errs):.2e}; {dt:.3f}s)")


def _uniform_unit_bayes():
    graph = BipartiteGraph(["q"], ["s"], [("q", "s")])
    return BayesScenario(graph, QueryDistribution({"q": 1.0}),
                         MatchingPolicy({"q": {"s": 1.0}}),
                         SlotWeights([1.0]), 1,
                         {"a": {"q": Uniform(0.0, 1.0)}})


def test_criterion_05_revenue_guarantee(capsys):
    t0 = time.perf_counter()
    bayes = _uniform_unit_bayes()
    strategy = truthful_keyword_strategy(bayes)
    reserves = {"s": myerson_reserve(Uniform(0.0, 1.0))}
    rng = np.random.default_rng(55)
    stats = revenue_welfare_stats(bayes, strategy, reserves,
                                  n_samples=100_000, rng=rng)
    rev_ok = abs(stats.revenue - 0.25) <= 3.0 * stats.revenue_se
    opt_ok = abs(stats.optimal - 0.5) <= 3.0 * stats.optimal_se
    bound = bound_calculators(c=1.0, beta=1.0, eta=2.0).revenue_fraction_single
    rep = empirical_revenue_ratio(bayes, strategy, reserves, c=1.0, beta=1.0,
                                  eta=2.0, n_samples=100_000,
                                  rng=np.random.default_rng(56))
    dt = time.perf_counter() - t0
    ok = (rev_ok and opt_ok and 0.5 >= bound and rep.satisfied and dt < 30.0)
    _verdict(capsys, 5, ok,
             f"uniform monopolist: closed-form fraction 0.5 >= bound "
             f"{bound:.4f}; MC revenue {stats.revenue:.4f}±{stats.revenue_se:.4f} "
             f"and optimal {stats.optimal:.4f}±{stats.optimal_se:.4f} within "
             f"3 SE of 0.25 / 0.5 ({dt:.1f}s)")


def _best_response_oracle_suite(n_cases):
    rng = np.random.default_rng(606)
    mismatches = 0
    checked = 0
    for _ in range(n_cases):
        while True:
            sc = random_scenario(rng, max_adv=3, max_kw=3, max_q=3)
            if sc.kappa <= 2:
                break
        maxv = max(sc.valuations.value(i, q) for i in sc.advertisers
                   for q in sc.graph.queries)
        grid = make_grid(sc, maxv / 5.0)  # six grid points on the top keyword
        bids = random_bid_profile(rng, sc)
        for i in sc.advertisers:
            menus = {s: bid_menu(sc, grid, i, s)
                     for s in sc.kw_positive[i]}
            _, fast = best_response(sc, bids, i, grid)
            _, slow = joint_best_response_oracle(sc, bids, i, menus)
            checked += 1
            if abs(fast - slow) > 1e-9:
                mismatches += 1
    return checked, mismatches


def _min_cover_oracle_suite(n_cases):
    rng = np.random.default_rng(707)
    mismatches = 0
    for _ in range(n_cases):
        n_s = int(rng.integers(2, 13))
        n_q = int(rng.integers(2, 9))
        queries = [f"q{j}" for j in range(n_q)]
        cover_map = {}
        edges = []
        for k in range(n_s):
            picks = rng.choice(n_q, size=int(rng.integers(1, n_q + 1)),
                               replace=False)
            cover_map[f"s{k}"] = {queries[j] for j in picks}
            edges += [(queries[j], f"s{k}") for j in picks]
        graph = BipartiteGraph(queries, sorted(cover_map), edges, strict=False)
        target = {q for q in queries if rng.random() < 0.75}
        want = exhaustive_min_cover(cover_map, target)
        try:
            got = min_cover_size(graph, target)
        except Uncoverable:
            got = None
        if got != want:
            mismatches += 1
    return mismatches


def _welfare_mc_check():
    rng = np.random.default_rng(808)
    sc = random_scenario(rng, all_positive=True)
    bids = random_bid_profile(rng, sc)
    exact = pbm_expected_welfare(sc, bids)
    n = 20_000
    queries = sc.graph.queries
    masses = np.array([sc.p.mass(q) for q in queries])
    draws = rng.choice(len(queries), size=n, p=masses)
    total = sum(pbm_run_round(sc, bids, queries[ix], rng).welfare
                for ix in draws)
    maxv = max(sc.valuations.value(i, q) for i in sc.advertisers
               for q in sc.graph.queries)
    return abs(total / n - exact), 4.0 * maxv * math.sqrt(1.0 / n)


def test_criterion_06_oracle_equivalences(capsys):
    t0 = time.perf_counter()
    br_checked, br_bad = _best_response_oracle_suite(60)
    cover_bad = _min_cover_oracle_suite(100)
    mc_err, mc_tol = _welfare_mc_check()
    dt = time.perf_counter() - t0
    ok = (br_bad == 0 and cover_bad == 0 and mc_err <= mc_tol and dt < 300.0)
    _verdict(capsys, 6, ok,
             f"separable best response = joint oracle on {br_checked} "
             f"advertiser cases; exact cover = exhaustive on 100 suites; "
             f"MC welfare err {mc_err:.4f} <= {mc_tol:.4f} ({dt:.1f}s)")


def test_criterion_07_degree_bound_sandwich(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(909)
    violations = 0
    checked = 0
    for _ in range(200):
        n_q = int(rng.integers(1, 9))
        n_s = int(rng.integers(1, 7))
        queries = [f"q{j}" for j in range(n_q)]
        keywords = [f"s{j}" for j in range(n_s)]
        edges = []
        while not edges:  # an edgeless graph has no reachable queries
            edges = [(q, s) for q in queries for s in keywords
                     if rng.random() < 0.4]
        g = BipartiteGraph(queries, keywords, edges, strict=False)
        sets = {}
        for a in range(int(rng.integers(1, 4))):
            # the sandwich presumes positive queries reachable in the graph
            qs = frozenset(q for q in queries
                           if g.query_neighbors(q) and rng.random() < 0.7)
            sets[f"a{a}"] = qs
        kappa = int(rng.integers(1, n_s + 1))
        rep = degree_bound_check(g, sets, kappa)
        checked += 1
        if not rep.holds:
            violations += 1
    dt = time.perf_counter() - t0
    ok = violations == 0 and checked == 200 and dt < 120.0
    _verdict(capsys, 7, ok,
             f"alpha/gamma^2 <= beta <= gamma*alpha on {checked} random "
             f"graphs with exact alpha; {violations} violations ({dt:.1f}s)")


def test_criterion_08_overbid_clamping(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(1010)
    regressions = 0
    clamps = 0
    for _ in range(200):
        sc = random_scenario(rng)
        bids = random_bid_profile(rng, sc, overbid=1.0)
        for i in sc.advertisers:
            row = bids[i]
            overbids = [s for s, b in row.items()
                        if b > keyword_value(sc, i, s) + 1e-12]
            for s in overbids:
                clamped = dict(bids)
                clamped[i] = dict(row)
                clamped[i][s] = keyword_value(sc, i, s)
                clamps += 1
                if (pbm_utility(sc, clamped, i)
                        < pbm_utility(sc, bids, i) - 1e-9):
                    regressions += 1
    dt = time.perf_counter() - t0
    ok = regressions == 0 and clamps > 100 and dt < 60.0
    _verdict(capsys, 8, ok,
             f"clamping an overbid to the keyword value never lowered "
             f"utility across {clamps} paired clamps on 200 instances "
             f"({regressions} regressions; {dt:.1f}s)")


def test_criterion_09_accounting_identity(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(1111)
    worst = 0.0
    for _ in range(500):
        sc = random_scenario(rng)
        bids = random_bid_profile(rng, sc, overbid=0.5)
        lhs = (sum(pbm_utility(sc, bids, i) for i in sc.advertisers)
               + pbm_expected_revenue(sc, bids))
        worst = max(worst, abs(lhs - pbm_expected_welfare(sc, bids)))
    dt = time.perf_counter() - t0
    ok = worst <= 1e-9 and dt < 60.0
    _verdict(capsys, 9, ok,
             f"sum of utilities + revenue = welfare on 500 random "
             f"profile pairs (max gap {worst:.2e}; {dt:.1f}s)")


def _synthetic_corpus(n_terms, size):
    """Every non-trivial micro market gets the same size, so each sweep
    cell averages one fixed population and bucket means inherit the
    per-market monotonicity.  Secondary tokens carry the term index
    (t0w1, not w1): a token shared across terms would mint extra markets
    of a different size, and mixing sizes inside one kappa bucket breaks
    the composition the trend statements quantify over."""
    bids = {}
    queries = {}
    for t in range(n_terms):
        term = f"term{t}"
        kws = {f"{term} t{t}w{j}" for j in range(size)}
        bids[f"a{t}"] = frozenset(kws)
        for j in range(size):
            queries[f"{term} t{t}w{j} buy"] = float(1 + j)
    return Corpus(bids, queries)


def test_criterion_10_corpus_trends(capsys):
    t0 = time.perf_counter()
    thetas = (0.8, 0.6, 0.4, 0.2, 0.0)
    cells = 0
    beta_wins = 0
    monotone_ok = True
    for n_terms, size in ((3, 3), (4, 4), (3, 5)):
        table = expressiveness_sweep(_synthetic_corpus(n_terms, size),
                                     thetas=thetas)
        assert table.skipped == ()
        by_theta, by_kappa = {}, {}
        for (th, kb), (a, b, _) in table.rows.items():
            cells += 1
            if b > a / 3.0:
                beta_wins += 1
            by_theta.setdefault(th, []).append((float(kb), a, b))
            by_kappa.setdefault(kb, []).append((-float(th), a, b))
        for rows in by_theta.values():  # nondecreasing in kappa/size
            rows.sort()
            if [r[1] for r in rows] != sorted(r[1] for r in rows):
                monotone_ok = False
            if [r[2] for r in rows] != sorted(r[2] for r in rows):
                monotone_ok = False
        for rows in by_kappa.values():  # nonincreasing as theta drops
            rows.sort()  # ascending -theta = descending theta
            alphas = [r[1] for r in rows]
            betas = [r[2] for r in rows]
            if alphas != sorted(alphas, reverse=True):
                monotone_ok = False
            if betas != sorted(betas, reverse=True):
                monotone_ok = False
    frac = beta_wins / cells
    dt = time.perf_counter() - t0
    ok = monotone_ok and frac >= 0.95 and dt < 300.0
    _verdict(capsys, 10, ok,
             f"sweep tables monotone in kappa and theta on 3 synthetic "
             f"corpora; beta > alpha/3 in {frac:.0%} of {cells} cells "
             f"({dt:.1f}s)")
