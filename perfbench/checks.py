"""Correctness checks on one child's reports, by oracle or tolerance.

No check compares against a stored byte hash: a change may legitimately
consume the RNG stream differently.  Byte identity is only demanded
between children of the same run (`same_bytes`).  Each `check_*` takes
the input directory, the child's output directory and the workload meta,
and returns ({step: [problem, ...]} with an entry for every step,
{finding: number}); findings are reported, never gated.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
import re
from pathlib import Path

import numpy as np

# Monte-Carlo agreement is asked within this many standard errors
Z = 4.0


def _json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def _close(a, b, rel=1e-9, abs_=1e-12):
    return abs(a - b) <= max(abs_, rel * max(abs(a), abs(b)))


def step_of(rel_path: str) -> str:
    """Step that wrote a report: its directory or `<step>.stdout`."""
    return rel_path.split("/", 1)[0].removesuffix(".stdout")


def digests(out: Path) -> dict:
    return {p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.rglob("*")) if p.is_file()}


def same_bytes(ref: dict, out: Path, steps) -> dict:
    """Problems per step where `out` is not byte-identical to `ref`."""
    got = digests(out)
    problems = {s: [] for s in steps}
    for rel in sorted(set(ref) | set(got)):
        if ref.get(rel) != got.get(rel):
            problems.setdefault(step_of(rel), []).append(f"{rel} differs between runs")
    return problems


# ------------------------------------------------------------ equilibria


def check_equilibria(inp: Path, out: Path, meta: dict) -> tuple:
    from bmlab.analysis import bound_calculators, homogeneity
    from bmlab.equilibrium import make_grid, verify_epsilon_nash
    from bmlab.expressiveness import kl_expressiveness
    from bmlab.market import optimal_welfare, scenario_from_json
    from bmlab.mechanisms import pbm_expected_revenue, pbm_expected_welfare

    enum_p, dyn_p, sim_p = [], [], []
    sc = scenario_from_json(inp / "enum.json")
    obj = _json(out / "equilibrium_enumerate" / "equilibrium.json")
    eps = obj["epsilon"]
    eqs = obj["equilibria"]
    if not obj["count"] == len(eqs) == meta["equilibria"]:
        enum_p.append(f"count {obj['count']}, {len(eqs)} listed; the benchmark's own "
                      f"per-keyword search finds {meta['equilibria']}")
    for k, e in enumerate(eqs):
        if max(e["regrets"].values()) > eps:
            enum_p.append(f"equilibrium {k} reports regret above epsilon {eps}")
            break
    grid = make_grid(sc, meta["enum_delta"])
    rng = np.random.default_rng(meta["seed"])
    for k in rng.choice(len(eqs), size=min(5, len(eqs)), replace=False) if eqs else []:
        regrets = verify_epsilon_nash(sc, eqs[k]["profile"], grid, conservative=True)
        if max(regrets.values()) > eps + 1e-9:
            enum_p.append(f"equilibrium {k} fails verify_epsilon_nash: {regrets}")
    worst = obj["worst"]
    if eqs and worst is not None:
        if not _close(worst["welfare"], min(e["welfare"] for e in eqs)):
            enum_p.append("worst is not the lowest-welfare equilibrium")
        exact = pbm_expected_welfare(sc, worst["profile"])
        if not _close(worst["welfare"], exact):
            enum_p.append(f"worst welfare {worst['welfare']} != pbm_expected_welfare {exact}")
        bounds = bound_calculators(homogeneity(sc), kl_expressiveness(sc))
        bound = bounds.pure_poa_single if sc.weights.is_single_slot else bounds.pure_poa_multi
        slack = sc.weights.weight(0) * meta["enum_delta"]
        poa = optimal_welfare(sc) / worst["welfare"]
        if not poa <= bound + slack + 1e-9:
            enum_p.append(f"PoA {poa} exceeds bound {bound} + slack {slack}")

    wide = scenario_from_json(inp / "wide.json")
    dyn = _json(out / "equilibrium_dynamics" / "equilibrium.json")
    regrets = verify_epsilon_nash(wide, dyn["profile"], make_grid(wide, meta["dyn_delta"]),
                                  conservative=True)
    if any(not _close(regrets[i], dyn["regrets"][i], abs_=1e-9) for i in regrets):
        dyn_p.append("reported regrets differ from verify_epsilon_nash")
    if dyn["converged"] != (max(regrets.values()) <= dyn["epsilon"]):
        dyn_p.append("converged flag disagrees with the regrets")
    if not _close(dyn["welfare"], pbm_expected_welfare(wide, dyn["profile"])):
        dyn_p.append("dynamics welfare != pbm_expected_welfare of its profile")
    if any(sum(1 for b in row.values() if b > 0) > wide.kappa for row in dyn["profile"].values()):
        dyn_p.append("profile exceeds the keyword budget")

    summary = _json(out / "simulate" / "summary.json")
    bids = _json(out / "simulate" / "bids.json")
    n = meta["rounds"]
    welfare, revenue = np.zeros(n), np.zeros(n)
    with open(out / "simulate" / "rounds.csv", newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            t, w = int(row["round"]), float(row["click_weight"])
            welfare[t] += w * wide.valuations.value(row["advertiser"], row["query"])
            revenue[t] += w * float(row["price"])
    for name, arr, exact_fn in (("welfare", welfare, pbm_expected_welfare),
                                ("revenue", revenue, pbm_expected_revenue)):
        exact = exact_fn(wide, bids)
        if summary["rounds"] != n or not _close(summary[f"exact_{name}"], exact):
            sim_p.append(f"exact {name} {summary[f'exact_{name}']} != {exact}")
        if not _close(summary[f"empirical_{name}"], arr.mean(), rel=1e-6):
            sim_p.append(f"empirical {name} disagrees with rounds.csv")
        se = arr.std(ddof=1) / math.sqrt(n)
        if abs(arr.mean() - exact) > Z * se:
            sim_p.append(f"empirical {name} {arr.mean()} is {abs(arr.mean() - exact) / se:.1f}"
                         f" SE from exact {exact}")
    return ({"equilibrium_enumerate": enum_p, "equilibrium_dynamics": dyn_p,
             "simulate": sim_p}, {"equilibria": len(eqs), "dynamics_iterations": dyn["iterations"],
                                  "dynamics_converged": int(dyn["converged"])})


# ------------------------------------------------------------ revenue_mc

_NOTE = re.compile(r"revenue=([^±]+)±([^;]+); optimal=([^±]+)±([^;]+);.*n=(\d+)")


def _draw(dist, rng, n):
    """The benchmark's own samplers for the closed-form families."""
    fam, p = dist["family"], dist["params"]
    u = rng.random(n)
    if fam == "uniform":
        return p["lo"] + (p["hi"] - p["lo"]) * u
    if fam == "exponential":
        return -np.log1p(-u) / p["rate"]
    if fam == "truncated_exponential":
        return -np.log1p(-u * (1.0 - math.exp(-p["rate"] * p["hi"]))) / p["rate"]
    raise ValueError(f"no sampler for {fam}")


def optimal_welfare_mc(sc: dict, rng, n: int):
    """Mean and SE of the per-query optimal welfare over n fresh draws."""
    w = np.array(sc["slot_weights"])
    advs = sorted(sc["value_dists"])
    total = np.zeros(n)
    for q in sc["queries"]:
        vals = np.stack([_draw(sc["value_dists"][i][q], rng, n) if q in sc["value_dists"][i]
                         else np.zeros(n) for i in advs])
        top = -np.sort(-vals, axis=0)[: len(w)]
        total += sc["query_dist"][q] * (w[: top.shape[0]] @ top)
    return float(total.mean()), float(total.std(ddof=1) / math.sqrt(n))


def check_revenue_mc(inp: Path, out: Path, meta: dict) -> tuple:
    problems = []
    with open(out / "revenue" / "revenue.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != 1:
        return {"revenue": [f"expected one revenue.csv row, got {len(rows)}"]}, {}
    row = rows[0]
    if row["satisfied"] != "true":
        problems.append("revenue floor not satisfied")
    m = _NOTE.search(row["notes"])
    if not m:
        return {"revenue": problems + [f"unparsable notes {row['notes']!r}"]}, {}
    rev, rev_se, opt, opt_se = (float(m.group(k)) for k in range(1, 5))
    if int(m.group(5)) != meta["samples"]:
        problems.append(f"n={m.group(5)}, asked for {meta['samples']}")
    frac = float(row["empirical"])
    if not _close(frac, rev / opt, rel=1e-5):
        problems.append(f"fraction {frac} != revenue/optimal {rev / opt}")
    frac_se = math.hypot(rev_se / opt, rev * opt_se / opt ** 2)
    if frac > 1.0 + 3.0 * frac_se:
        problems.append(f"revenue fraction {frac} exceeds 1 + 3 SE")
    sc = _json(inp / "bayes.json")
    own, own_se = optimal_welfare_mc(sc, np.random.default_rng([meta["seed"], 99]), 200_000)
    if abs(own - opt) > Z * math.hypot(own_se, opt_se):
        problems.append(f"optimal {opt}±{opt_se} disagrees with own estimate {own}±{own_se:.2g}")
    res = _json(out / "revenue" / "reserves.json")
    if sorted(res["reserves"]) != sorted(sc["keywords"]) or not all(
            math.isfinite(r) and r >= 0.0 for r in res["reserves"].values()):
        problems.append("reserves must be finite, >= 0 and cover every keyword")
    if not (res["homogeneity"] >= 1.0 and 0.0 < res["beta"] <= 1.0 and res["eta"] >= 1.0):
        problems.append("bound inputs out of range")
    return {"revenue": problems}, {"mc_samples": int(m.group(5))}


# ----------------------------------------------------- counterexample_mc


def piecewise_moments(pieces) -> tuple:
    """E[x] and E[x^2] of a piecewise density in closed form: on a piece
    x = lo + u, t = const + slope*u + ramp*(u/L)^power."""
    m1 = m2 = 0.0
    for p in pieces:
        lo, L, pw = p["lo"], p["hi"] - p["lo"], p["power"]

        def mom(j):
            return (p["const"] * L ** (j + 1) / (j + 1) + p["slope"] * L ** (j + 2) / (j + 2)
                    + p["ramp"] * L ** (j + 1) / (j + pw + 1))
        m1 += lo * mom(0) + mom(1)
        m2 += lo * lo * mom(0) + 2.0 * lo * mom(1) + mom(2)
    return m1, m2


def check_counterexample_mc(inp: Path, out: Path, meta: dict) -> tuple:
    ce_p, mc_p = [], []
    ce = _json(out / "counterexample" / "counterexample.json")
    if ce["checks_pass"] is not True:
        ce_p.append("checks_pass is false")
    ratios = [t["ratio"] for t in ce["trend"]]
    if not all(a > b for a, b in zip(ratios, ratios[1:])):
        ce_p.append(f"ratio trend does not decrease: {ratios}")
    if not _close(ce["ratio"], ce["revenue"] / ce["optimal"]):
        ce_p.append("ratio != revenue / optimal")

    # one bidder, so the optimal welfare is the mass- and slot-weighted value
    sc = _json(inp / "bayes.json")
    dists = sc["value_dists"]["a"]
    mean = var = 0.0
    for q in sc["queries"]:
        m1, m2 = piecewise_moments(dists[q]["params"]["pieces"])
        mass = sc["query_dist"][q] * sc["slot_weights"][0]
        mean += mass * m1
        var += mass * mass * (m2 - m1 * m1)
    if not _close(mean, ce["optimal"], rel=1e-9):
        ce_p.append(f"analytic optimal {ce['optimal']} != closed-form mean {mean}")
    mc = _json(out / "mc_revenue" / "mc_revenue.json")
    if mc["n_samples"] != meta["mc_samples"]:
        mc_p.append(f"{mc['n_samples']} samples, asked for {meta['mc_samples']}")
    # the SE from the closed-form variance: the rare low draws of the spike
    # density seldom appear in a few hundred samples, so the sample SE
    # understates the error
    se = math.sqrt(var / mc["n_samples"])
    if abs(mc["optimal"] - ce["optimal"]) > Z * se:
        mc_p.append(f"MC optimal {mc['optimal']} is more than {Z} SE ({se:.3g}) "
                    f"from the analytic {ce['optimal']}")
    if mc["revenue"] > mc["optimal"] + Z * se:
        mc_p.append("MC revenue exceeds MC optimal")
    findings = {"mc_revenue_fraction": mc["revenue"] / mc["optimal"],
                "analytic_revenue_fraction": ce["ratio"],
                "mc_optimal_se_sample_over_true": mc["optimal_se"] / se,
                "mc_samples": mc["n_samples"]}
    return {"counterexample": ce_p, "mc_revenue": mc_p}, findings


# ---------------------------------------------------------- corpus_sweep


def _edit_distance(a: str, b: str) -> int:
    """Row-by-row Wagner-Fischer with the rows swapped in place."""
    prev = list(range(len(b) + 1))
    cur = [0] * (len(b) + 1)
    for i in range(1, len(a) + 1):
        cur[0] = i
        for j in range(1, len(b) + 1):
            cur[j] = min(prev[j] + 1, cur[j - 1] + 1,
                         prev[j - 1] + (a[i - 1] != b[j - 1]))
        prev, cur = cur, prev
    return prev[len(b)]


class _Corpus:
    """The generated corpus read back with plain csv, and its markets."""

    def __init__(self, d: Path):
        with open(d / "bids.csv", newline="", encoding="utf-8") as fh:
            self.bids = {}
            for r in csv.DictReader(fh):
                self.bids.setdefault(r["advertiser"], set()).add(r["keyword"])
        with open(d / "queries.csv", newline="", encoding="utf-8") as fh:
            self.queries = sorted({r["query"] for r in csv.DictReader(fh)})
        self.keywords = sorted(set().union(*self.bids.values()))
        self._sim = {}

    def sim(self, q, s):
        if (q, s) not in self._sim:
            self._sim[q, s] = 1.0 - _edit_distance(q, s) / max(len(q), len(s))
        return self._sim[q, s]

    def market(self, term):
        kws = [s for s in self.keywords if term in s.split()]
        qs = [q for q in self.queries if term in q.split()]
        nbrs = {s: {q for q in qs if set(s.split()) <= set(q.split())} for s in kws}
        return kws, qs, nbrs

    def positive(self, term, theta, reachable_only):
        kws, qs, nbrs = self.market(term)
        reach = set().union(*nbrs.values())
        out = {}
        for adv in sorted(self.bids):
            mine = self.bids[adv] & set(kws)
            if mine:
                out[adv] = {q for q in qs if (q in reach or not reachable_only)
                            and any(self.sim(q, s) > theta for s in mine)}
        return out, nbrs

    def beta(self, term, theta, kappa, reachable_only=False):
        sets, nbrs = self.positive(term, theta, reachable_only)
        counts = [sum(1 for s in nbrs if nbrs[s] & pos) for pos in sets.values()]
        return min([min(1.0, kappa / c) for c in counts if c > 0], default=1.0)


def check_corpus_sweep(inp: Path, out: Path, meta: dict) -> tuple:
    problems = []
    d = out / "expressiveness"
    with open(d / "expressiveness.csv", newline="", encoding="utf-8") as fh:
        cells = list(csv.DictReader(fh))
    with open(d / "degree_bound.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    if not cells or not rows:
        return {"expressiveness": ["empty expressiveness or degree-bound table"]}, {}
    for r in cells + rows:
        a = float(r.get("mean_alpha", r.get("alpha")))
        b = float(r.get("mean_beta", r.get("beta")))
        if not (0.0 <= a <= 1.0 and 0.0 <= b <= 1.0):
            problems.append(f"alpha/beta outside [0, 1] in {r}")
            break
    for r in rows:
        if int(r["gamma"]) > 0 and r["holds"] != "true":
            problems.append(f"degree bound fails on {r['market']} theta={r['theta']}")
    corpus = _Corpus(inp / "corpus")
    rng = np.random.default_rng([meta["seed"], 7])
    for k in rng.choice(len(rows), size=min(25, len(rows)), replace=False):
        r = rows[k]
        beta = corpus.beta(r["market"], float(r["theta"]), int(r["kappa"]),
                           reachable_only=True)
        if abs(beta - float(r["beta"])) > 5e-7:
            problems.append(f"beta of {r['market']} theta={r['theta']} is {r['beta']}, "
                            f"recomputed {beta:.6f}")
    bucket_problems, partial = _check_buckets(corpus, cells, rng)
    skipped = skipped_by_reason((out / "expressiveness.stdout").read_text(encoding="utf-8"))
    findings = {f"markets_skipped.{k}": v for k, v in skipped.items()}
    findings["gamma0_rows"] = sum(1 for r in rows if int(r["gamma"]) == 0)
    findings["skipped_market_cells"] = partial
    return {"expressiveness": problems + bucket_problems}, findings


THETAS = tuple(round(0.9 - 0.1 * j, 1) for j in range(10))
ALPHA_QUERY_CAP, COVER_CANDIDATE_CAP = 20, 25


def _swept_thetas(corpus, term) -> list:
    """Thetas a market adds cells for.  The sweep walks the grid from 0.9
    down and drops a market at the first theta where an advertiser is over
    the exact-alpha caps, but the cells it added before that stay."""
    kws = corpus.market(term)[0]
    out = []
    for th in THETAS:
        if any(pos and (len(pos) > ALPHA_QUERY_CAP or len(kws) > COVER_CANDIDATE_CAP)
               for pos in corpus.positive(term, th, False)[0].values()):
            break
        out.append(th)
    return out


def _check_buckets(corpus, cells, rng) -> tuple:
    """Recompute mean beta and the market count of two sampled buckets
    that share a theta; also count the cells that markets the sweep
    reports as skipped still add to the table."""
    theta = cells[int(rng.integers(len(cells)))]["theta_bucket"]
    picks = [c for c in cells if c["theta_bucket"] == theta]
    picks = [picks[k] for k in rng.choice(len(picks), size=min(2, len(picks)), replace=False)]
    terms = sorted({t for s in corpus.keywords for t in s.split()}
                   & {t for q in corpus.queries for t in q.split()})
    swept = {term: _swept_thetas(corpus, term) for term in terms}
    sizes = {term: len(corpus.market(term)[0]) for term in terms}
    problems = []
    for c in picks:
        betas = [corpus.beta(term, float(theta), kappa)
                 for term in terms if float(theta) in swept[term]
                 for kappa in range(1, sizes[term] + 1)
                 if f"{math.ceil(10 * kappa / sizes[term]) / 10:.1f}" == c["kappa_bucket"]]
        mean = sum(betas) / max(len(betas), 1)
        if len(betas) != int(c["n_markets"]) or abs(mean - float(c["mean_beta"])) > 5e-7:
            problems.append(f"bucket theta={theta} kappa={c['kappa_bucket']}: "
                            f"{c['n_markets']} markets, mean beta {c['mean_beta']}; "
                            f"recomputed {len(betas)}, {mean:.6f}")
    partial = sum(len(swept[t]) * sizes[t] for t in terms if len(swept[t]) < len(THETAS))
    return problems, partial


_SKIP = re.compile(r"(\S+): ([^;]+)")


def skipped_by_reason(stdout: str) -> dict:
    """Distinct skipped markets per reason, from the sweep's stdout."""
    line = next((ln for ln in stdout.splitlines() if ln.startswith("skipped ")), "")
    by_reason = {"alpha_query_cap": set(), "cover_candidate_cap": set(), "other": set()}
    for term, reason in _SKIP.findall(line.partition(": ")[2]):
        key = ("alpha_query_cap" if "exact alpha cap" in reason
               else "cover_candidate_cap" if "cover candidates" in reason else "other")
        by_reason[key].add(term)
    return {k: len(v) for k, v in by_reason.items()}


CHECKS = {
    "equilibria": check_equilibria,
    "revenue_mc": check_revenue_mc,
    "counterexample_mc": check_counterexample_mc,
    "corpus_sweep": check_corpus_sweep,
}
