"""The bmlab benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root.  The seed generates the workload's input
files (workloads.py); bmlab sees only those files.  This process then starts
fresh child processes (child.py) one at a time until S seconds have
passed, each running the whole workload, and checks the reports of the
first child by oracle (checks.py) and every later child for byte identity
with the first.  It prints a table of the end-to-end metrics (median,
quartiles, sample count, input size; times rescaled to a reference
machine speed by the pacer of pace.py, and raw), then, as the last
line, a JSON object with `correct`, `attempted`, `failed` and `metrics`:
the end-to-end metrics (END_TO_END) with --trace 0, the per-layer metrics
(PER_LAYER) with --trace 1.

With --trace 1 untraced and traced children alternate; the traced ones
carry the span wrappers of spans.py, and the per-layer metrics are the
medians over the traced children.  `--workload all` runs every workload.
Work files go to .perfbench-work/<workload>/ under the current directory.
"""
from __future__ import annotations

import os

# one BLAS/OpenMP thread per process; children inherit this
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import csv  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

HERE = Path(__file__).resolve().parent
CHILD_TIMEOUT_S = 150
MIN_CHILDREN = 3
clock = time.monotonic

STEPS = {
    "equilibria": ("equilibrium_enumerate", "equilibrium_dynamics", "simulate"),
    "revenue_mc": ("revenue",),
    "counterexample_mc": ("counterexample", "mc_revenue"),
    "corpus_sweep": ("expressiveness",),
}

# named rates per workload: (metric, step, size key, size label); the
# first one is also reported as the gated end-to-end metric work_per_s
RATES = {
    "equilibria": (("profiles_per_s", "equilibrium_enumerate", "joint_profiles",
                    "joint profiles"),
                   ("rounds_per_s", "simulate", "rounds", "simulate rounds")),
    "revenue_mc": (("mc_samples_per_s", "revenue", "samples", "MC samples, fixed passes in"),),
    "counterexample_mc": (("mc_samples_per_s", "mc_revenue", "mc_samples",
                           "MC samples, induced reserves in"),),
    "corpus_sweep": (("cells_per_s", "expressiveness", "cells", "(market, theta, kappa) cells"),),
}

# (name, unit): the median over the run's timed children.  Times are
# rescaled to the pacer's reference CPU speed (pace.py): on the 2-vCPU VMs
# this runs on, CPU speed flips between two levels about 1.5x apart, in
# stretches of up to tens of seconds, and raw times measure that more than
# the program.  The table prints the raw wall times as well.
END_TO_END = (("wall_ref_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"),
              ("work_per_s", "1/s"))


# -------------------------------------------------------------- children


def run_child(workload, work: Path, tag: str, trace: bool, src: Path) -> dict:
    """Run one child; returns its result with its wall and set-up times added,
    or {"error": ...} when it produced no result."""
    out, result = work / tag, work / f"{tag}.result.json"
    out.mkdir(parents=True)
    # a fixed hash seed fixes set iteration order, and with it how much work
    # bmlab does: cmd_expressiveness stops `any()` over a set of keywords
    # early, so similarity call counts differ between hash seeds
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED="0")
    cmd = [sys.executable, str(HERE / "child.py"), workload, str(work / "inputs"),
           str(result), "1" if trace else "0"]
    with open(work / f"{tag}.log", "w", encoding="utf-8") as log:
        t0 = clock()
        try:
            proc = subprocess.run(cmd, cwd=out, env=env, stdout=log, stderr=log,
                                  timeout=CHILD_TIMEOUT_S)
            code = proc.returncode
        except subprocess.TimeoutExpired:
            code = "timeout"
        t1 = clock()
    if code != 0 or not result.exists():
        return {"error": f"child exit {code}; see {work / (tag + '.log')}", "out": out}
    res = json.loads(result.read_text(encoding="utf-8"))
    # raw wall times leave the pacer's sampling out; the rescaled ones scale
    # the stretch before the pacer started (exec, interpreter start) by its
    # first sample and the one after it stopped (exit) by its last
    res.update(out=out, tag=tag, trace=trace, t_exit=t1,
               wall_s=t1 - t0 - res.get("pace_s", 0.0),
               setup_s=res["setup_end"] - t0 - res.get("setup_pace_s", 0.0))
    if "ref_s" in res:
        before = (res["start"] - t0) * res["scale_start"]
        res.update(wall_ref_s=before + res["ref_s"] + (t1 - res["end"]) * res["scale_end"],
                   setup_ref_s=before + res["setup_ref_s"])
    return res


def step_problems(res, steps) -> dict:
    if "error" in res:
        return {s: [res["error"]] for s in steps}
    return {s: ([] if res["steps"].get(s, {}).get("exit") == 0
                else [f"step exit {res['steps'].get(s, {}).get('exit')}"]) for s in steps}


# -------------------------------------------------------------- metrics


def quartiles(values):
    vals = sorted(values)
    if len(vals) == 1:
        return vals[0], vals[0], vals[0]
    q1, med, q3 = statistics.quantiles(vals, n=4)
    return q1, med, q3


def _ratio(a, b):
    return a / b if b else 0.0


def rates(workload, res, sizes, clock="ref_s") -> dict:
    return {name: _ratio(sizes[key], res["steps"][step][clock])
            for name, step, key, _ in RATES[workload]}


def end_to_end(workload, res, sizes) -> dict:
    return {"wall_ref_s": res["wall_ref_s"], "setup_s": res["setup_ref_s"],
            "peak_rss_mb": res["maxrss_kb"] / 1024.0,
            "work_per_s": rates(workload, res, sizes)[RATES[workload][0][0]]}


def _cli_step(name):
    return lambda c: c.sp.total(f"cli.{name}")


def _calls(name):
    return lambda c: c.sp.calls(name)


def _total(name):
    return lambda c: c.sp.total(name)


def _joint(c):
    rows = [c.sp.amount[k] for k in c.sp.idx("equilibrium.strategy_rows")
            if c.sp.inside(k, "equilibrium.enumerate_pure_nash")]
    return float(math.prod(rows)) if rows else 0.0


_RWS = "analysis.revenue_welfare_stats"
_LAYERS = ("market", "mechanisms", "equilibrium", "reserves", "analysis",
           "expressiveness", "cli")

# (name, unit, better, value from a traced child's context)
PER_LAYER = (
    ("market.load_s", "s", "lower", _total("market.load")),
    ("market.graph_builds", "count", "lower", _calls("market.graph_build")),
    ("market.graph_build_s", "s", "lower", _total("market.graph_build")),
    ("market.keyword_value_calls", "count", "lower", _calls("market.keyword_value")),
    ("market.keyword_mass_calls", "count", "lower", _calls("market.keyword_mass")),
    ("market.keyword_lookup_s", "s", "lower",
     lambda c: c.sp.total("market.keyword_value") + c.sp.total("market.keyword_mass")),
    ("market.sample_valuations_calls", "count", "lower", _calls("market.sample_valuations")),
    ("market.to_scenario_calls", "count", "lower", _calls("market.to_scenario")),
    ("market.optimal_welfare_s", "s", "lower", _total("market.optimal_welfare")),
    ("mechanisms.gsp_rank_calls", "count", "lower", _calls("mechanisms.gsp_rank")),
    ("mechanisms.gsp_rank_s", "s", "lower", _total("mechanisms.gsp_rank")),
    ("mechanisms.gsp_rank_per_sample", "1/sample", "lower",
     lambda c: _ratio(c.sp.count_within("mechanisms.gsp_rank", _RWS), c.sp.work(_RWS))),
    ("mechanisms.pbm_expected_revenue_s", "s", "lower",
     _total("mechanisms.pbm_expected_revenue")),
    ("mechanisms.pbm_run_round_calls", "count", "lower", _calls("mechanisms.pbm_run_round")),
    ("mechanisms.us_per_round", "us", "lower",
     lambda c: 1e6 * _ratio(c.sp.total("mechanisms.pbm_run_round"),
                            c.sp.calls("mechanisms.pbm_run_round"))),
    ("equilibrium.joint_profiles", "count", "lower", _joint),
    ("equilibrium.enumerate_s", "s", "lower", _total("equilibrium.enumerate_pure_nash")),
    ("equilibrium.ns_per_profile", "ns", "lower",
     lambda c: 1e9 * _ratio(c.sp.total("equilibrium.enumerate_pure_nash"), _joint(c))),
    ("equilibrium.strategy_rows_s", "s", "lower", _total("equilibrium.strategy_rows")),
    # tracemalloc peak over the enumerate step: bytes allocated, not RSS
    ("equilibrium.bytes_per_profile", "B", "lower",
     lambda c: _ratio(c.res.get("alloc_peak") or 0, _joint(c))),
    # peak-RSS growth over the enumerate step, from the untraced children
    ("equilibrium.rss_bytes_per_profile", "B", "lower",
     lambda c: _ratio(c.rss_growth, _joint(c))),
    ("equilibrium.equilibria", "count", "higher", lambda c: c.findings.get("equilibria", 0)),
    ("equilibrium.nash_hit_ratio", "ratio", "higher",
     lambda c: _ratio(c.findings.get("equilibria", 0), _joint(c))),
    ("equilibrium.best_response_calls", "count", "lower", _calls("equilibrium.best_response")),
    ("equilibrium.best_response_s", "s", "lower", _total("equilibrium.best_response")),
    ("equilibrium.dynamics_iterations", "count", "lower",
     lambda c: c.findings.get("dynamics_iterations", 0)),
    ("equilibrium.dynamics_converged", "bool", "higher",
     lambda c: c.findings.get("dynamics_converged", 0)),
    ("equilibrium.bne_regret_s", "s", "lower", _total("equilibrium.estimate_bne_regret")),
    ("reserves.draws", "count", "lower", lambda c: c.sp.work("reserves.sample")),
    ("reserves.quantile_calls", "count", "lower", _calls("reserves.quantile")),
    ("reserves.quantile_s", "s", "lower", _total("reserves.quantile")),
    ("reserves.us_per_draw", "us", "lower",
     lambda c: 1e6 * _ratio(c.sp.total("reserves.sample"), c.sp.work("reserves.sample"))),
    ("reserves.draws_per_mc_sample", "1/sample", "lower",
     lambda c: _ratio(c.sp.work("reserves.sample", within=_RWS), c.sp.work(_RWS))),
    ("reserves.induced_s", "s", "lower", _total("reserves.induced")),
    ("reserves.myerson_s", "s", "lower", _total("reserves.myerson")),
    ("reserves.mhr_check_s", "s", "lower", _total("reserves.mhr_check")),
    ("analysis.revenue_welfare_stats_s", "s", "lower", _total(_RWS)),
    ("analysis.mc_samples", "count", "higher", lambda c: c.sp.work(_RWS)),
    ("analysis.us_per_mc_sample", "us", "lower",
     lambda c: 1e6 * _ratio(c.sp.total(_RWS), c.sp.work(_RWS))),
    ("analysis.homogeneity_calls", "count", "lower", _calls("analysis.homogeneity")),
    ("analysis.homogeneity_s", "s", "lower", _total("analysis.homogeneity")),
    ("analysis.counterexample_s", "s", "lower", _total("analysis.counterexample")),
    ("analysis.mc_revenue_step_s", "s", "lower", _total("analysis.mc_revenue")),
    # findings on counterexample_mc, reported and never gated
    ("analysis.mc_revenue_fraction", "ratio", "lower",
     lambda c: c.findings.get("mc_revenue_fraction", 0.0)),
    ("analysis.analytic_revenue_fraction", "ratio", "lower",
     lambda c: c.findings.get("analytic_revenue_fraction", 0.0)),
    ("analysis.mc_optimal_se_sample_over_true", "ratio", "higher",
     lambda c: c.findings.get("mc_optimal_se_sample_over_true", 0.0)),
    ("expressiveness.similarity_calls", "count", "lower", _calls("expressiveness.similarity")),
    ("expressiveness.similarity_pairs", "count", "lower",
     lambda c: c.res.get("similarity_pairs", 0)),
    ("expressiveness.similarity_reuse", "ratio", "lower",
     lambda c: _ratio(c.sp.calls("expressiveness.similarity"), c.res.get("similarity_pairs", 0))),
    ("expressiveness.levenshtein_s", "s", "lower", _total("expressiveness.levenshtein")),
    ("expressiveness.levenshtein_share", "ratio", "lower",
     lambda c: _ratio(c.sp.total("expressiveness.levenshtein"),
                      c.sp.total("cli.expressiveness"))),
    ("expressiveness.extract_s", "s", "lower", _total("expressiveness.extract")),
    ("expressiveness.alpha_calls", "count", "lower", _calls("expressiveness.alpha")),
    ("expressiveness.alpha_s", "s", "lower", _total("expressiveness.alpha")),
    ("expressiveness.degree_bound_s", "s", "lower", _total("expressiveness.degree_bound")),
    ("expressiveness.markets", "count", "higher",
     lambda c: max((c.sp.amount[k] for k in c.sp.idx("expressiveness.extract")), default=0.0)),
    ("expressiveness.markets_skipped", "count", "lower",
     lambda c: sum(v for k, v in c.findings.items() if k.startswith("markets_skipped."))),
    ("expressiveness.markets_skipped.alpha_query_cap", "count", "lower",
     lambda c: c.findings.get("markets_skipped.alpha_query_cap", 0)),
    ("expressiveness.markets_skipped.cover_candidate_cap", "count", "lower",
     lambda c: c.findings.get("markets_skipped.cover_candidate_cap", 0)),
    ("expressiveness.markets_skipped.other", "count", "lower",
     lambda c: c.findings.get("markets_skipped.other", 0)),
    # cells that markets reported as skipped still add to expressiveness.csv
    ("expressiveness.skipped_market_cells", "count", "lower",
     lambda c: c.findings.get("skipped_market_cells", 0)),
    ("expressiveness.gamma0_rows", "count", "lower", lambda c: c.findings.get("gamma0_rows", 0)),
    ("cli.import_s", "s", "lower", lambda c: c.res["import_s"]),
    ("cli.equilibrium_enumerate_s", "s", "lower", _cli_step("equilibrium_enumerate")),
    ("cli.equilibrium_dynamics_s", "s", "lower", _cli_step("equilibrium_dynamics")),
    ("cli.simulate_s", "s", "lower", _cli_step("simulate")),
    ("cli.revenue_s", "s", "lower", _cli_step("revenue")),
    ("cli.counterexample_s", "s", "lower", _cli_step("counterexample")),
    ("cli.expressiveness_s", "s", "lower", _cli_step("expressiveness")),
    ("cli.report_bytes", "B", "lower", lambda c: c.report_bytes),
    # `bm-lab revenue --samples 2` on the piecewise instance (counterexample_mc)
    ("cli.revenue_floor_s", "s", "lower", lambda c: c.floor_s),
) + tuple((f"{layer}.self_s", "s", "lower", (lambda c, p=layer: c.sp.layer_self(p)))
          for layer in _LAYERS) + (
    ("trace.overhead_frac", "ratio", "lower", lambda c: c.overhead_frac),
    ("trace.coverage", "ratio", "higher",
     lambda c: _ratio(c.sp.top_level_after(c.res["setup_end"]),
                      c.res["t_exit"] - c.res["setup_end"])),
    ("trace.spans", "count", "lower", lambda c: len(c.sp.names)),
)


# ------------------------------------------------------------------ run


def environment() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    import numpy
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "blas_threads": int(os.environ["OMP_NUM_THREADS"]),
            "children_at_once": 1}


def run_workload(workload, seed, seconds, trace, src: Path, work: Path) -> dict:
    """Generate the inputs into `work`, run and check the children, and
    collect every number the report and the result line need."""
    import checks
    import workloads

    shutil.rmtree(work, ignore_errors=True)
    (work / "inputs").mkdir(parents=True)
    sizes = workloads.GENERATORS[workload](seed, work / "inputs")
    (work / "inputs" / "meta.json").write_text(json.dumps(sizes, indent=1, sort_keys=True),
                                               encoding="utf-8")
    steps = STEPS[workload]
    children, problems, findings, ref = [], [], {}, None
    attempted = failed = 0

    def attempt(traced):
        nonlocal findings, ref, attempted, failed
        res = run_child(workload, work, f"c{len(children):02d}", traced, src)
        probs = step_problems(res, steps)
        if "error" not in res:
            if ref is None:
                found, findings = checks.CHECKS[workload](work / "inputs", res["out"], sizes)
                for s, p in found.items():
                    probs[s] += p
                ref = checks.digests(res["out"])
                if workload == "corpus_sweep":
                    sizes["cells"] = _cells(res["out"])
            else:
                for s, p in checks.same_bytes(ref, res["out"], steps).items():
                    probs.setdefault(s, []).extend(p)
        attempted += len(steps)
        failed += sum(1 for s in steps if probs.get(s))
        problems.extend(f"{res.get('tag', '?')} {s}: {p}" for s in probs for p in probs[s])
        children.append(res)

    # The first child is checked by oracle and is the byte reference, but
    # not timed: a fresh VM backs guest memory lazily, so whichever process
    # first touches a few hundred MB runs up to 1.5x slower.
    attempt(False)
    start = clock()
    while True:
        for traced in ((False, True) if trace else (False,)):
            attempt(traced)
        if clock() - start >= seconds and (trace or len(children) > MIN_CHILDREN):
            break
    ok = [c for c in children[1:] if "error" not in c]
    untraced = [c for c in ok if not c["trace"]]
    e2e = {k: [end_to_end(workload, c, sizes)[k] for c in untraced] for k, _ in END_TO_END}
    e2e["wall_s"] = [c["wall_s"] for c in untraced]
    e2e["setup_wall_s"] = [c["setup_s"] for c in untraced]
    named = {}
    for c in untraced:
        for k, v in rates(workload, c, sizes).items():
            named.setdefault(k, []).append(v)
        for k, v in rates(workload, c, sizes, "s").items():
            named.setdefault(f"{k} (raw)", []).append(v)
    out = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
           "env": environment(), "sizes": sizes, "findings": findings,
           "children": len(children), "attempted": attempted, "failed": failed,
           "problems": problems, "e2e": e2e, "rates": named}
    if trace and any(c["trace"] for c in ok):
        floor_s = 0.0
        if workload == "counterexample_mc":
            probe = run_child("revenue_floor", work, "floor", False, src)
            out["attempted"] += 1
            if "error" in probe or probe["steps"]["revenue_floor"]["exit"] != 0:
                out["failed"] += 1
                problems.append("floor: the revenue_floor probe failed")
            else:
                floor_s = probe["steps"]["revenue_floor"]["s"]
        out["layers"], mismatch = _layers(workload, ok, untraced, findings, work, floor_s)
        if mismatch:
            out["failed"] += 1
            problems.append(f"counts differ between traced runs: {mismatch}")
    (work / "result.json").write_text(json.dumps(out, indent=1, default=str), encoding="utf-8")
    return out


def _cells(out: Path) -> int:
    with open(out / "expressiveness" / "expressiveness.csv", newline="", encoding="utf-8") as fh:
        return sum(int(r["n_markets"]) for r in csv.DictReader(fh))


def _layers(workload, ok, untraced, findings, work, floor_s) -> tuple:
    """Median of each per-layer metric over the traced children, and the
    count metrics that did not repeat exactly between them."""
    from spans import Spans

    traced = [c for c in ok if c["trace"]]
    overhead = _ratio(statistics.median(c["wall_s"] for c in traced),
                      statistics.median(c["wall_s"] for c in untraced)) - 1.0 if untraced else 0.0
    first_step = STEPS[workload][0]
    growth = statistics.median(
        (c["steps"][first_step]["maxrss_kb"] - c["setup_maxrss_kb"]) * 1024.0
        for c in untraced) if untraced else 0.0
    report_bytes = sum(p.stat().st_size for p in traced[0]["out"].rglob("*") if p.is_file())
    per_child = []
    for c in traced:
        ctx = SimpleNamespace(sp=Spans(work / f"{c['tag']}.result.spans.npz"), res=c,
                           findings=findings, overhead_frac=overhead, floor_s=floor_s,
                           rss_growth=growth if workload == "equilibria" else 0.0,
                           report_bytes=report_bytes)
        per_child.append({name: float(fn(ctx)) for name, _, _, fn in PER_LAYER})
    layers = {name: statistics.median(v[name] for v in per_child)
              for name, _, _, _ in PER_LAYER}
    mismatch = [name for name, unit, _, _ in PER_LAYER
                if unit == "count" and len({v[name] for v in per_child}) > 1]
    return layers, mismatch


# --------------------------------------------------------------- output


def print_report(out) -> None:
    w = out["workload"]
    env = out["env"]
    print(f"perfbench {w}  seed={out['seed']}  seconds={out['seconds']}  trace={out['trace']}")
    print(f"  env: nproc={env['nproc']}  cpu={env['cpu']!r}  python={env['python']}  "
          f"numpy={env['numpy']}  blas_threads={env['blas_threads']}  children one at a time")
    print("  inputs: " + "  ".join(f"{k}={v}" for k, v in sorted(out["sizes"].items())))
    n_ok = len(out["e2e"]["wall_s"])
    print(f"  {'metric':<26}{'unit':<7}{'median':>13}{'q1':>13}{'q3':>13}{'n':>4}  input")
    e2e, sizes = out["e2e"], out["sizes"]
    rows = [("wall_ref_s", "s", e2e["wall_ref_s"], "rescaled to the reference speed"),
            ("wall_s", "s", e2e["wall_s"], "raw"),
            ("setup_s", "s", e2e["setup_s"], "rescaled to the reference speed"),
            ("setup_wall_s", "s", e2e["setup_wall_s"], "raw"),
            ("peak_rss_mb", "MB", e2e["peak_rss_mb"], ""),
            ("ops_failed_frac", "frac", [_ratio(out["failed"], out["attempted"])],
             f"{out['attempted']} steps")]
    for name, _, key, label in RATES[w]:
        for suffix in ("", " (raw)"):
            rows.append((name + suffix, "1/s", out["rates"].get(name + suffix, []),
                         f"{sizes.get(key)} {label}"))
    rows.append(("work_per_s", "1/s", e2e["work_per_s"], f"= {RATES[w][0][0]}"))
    for name, unit, vals, note in rows:
        if not vals:
            print(f"  {name:<26}{unit:<7}{'-':>13}{'-':>13}{'-':>13}{0:>4}  {note}")
            continue
        q1, med, q3 = quartiles(vals)
        print(f"  {name:<26}{unit:<7}{med:>13.6g}{q1:>13.6g}{q3:>13.6g}{len(vals):>4}  {note}")
    if out["findings"]:
        print("  findings: " + "  ".join(f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}"
                                         for k, v in sorted(out["findings"].items())))
    if "layers" in out:
        for name, unit, _, _ in PER_LAYER:
            print(f"  {name:<48}{out['layers'][name]:>16.6g} {unit}")
    for p in out["problems"][:20]:
        print(f"  PROBLEM {p}")
    if not n_ok:
        print("  no child finished")


def result_line(out) -> dict:
    if out["trace"]:
        metrics = {name: {"value": out["layers"][name], "unit": unit}
                   for name, unit, _, _ in PER_LAYER} if "layers" in out else {}
    else:
        metrics = {k: {"value": statistics.median(out["e2e"][k]), "unit": u}
                   for k, u in END_TO_END if out["e2e"][k]}
    return {"correct": out["failed"] == 0 and not out["problems"] and bool(metrics),
            "attempted": out["attempted"], "failed": out["failed"], "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=tuple(STEPS) + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=22.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "bmlab" / "cli.py").is_file():
        print(f"error: no bmlab source under {root / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    import bmlab.cli  # noqa: F401  (compiles the package once before any child starts)

    names = tuple(STEPS) if args.workload == "all" else (args.workload,)
    lines = {}
    for w in names:
        out = run_workload(w, args.seed, args.seconds, bool(args.trace), root / "src",
                           root / ".perfbench-work" / w)
        print_report(out)
        lines[w] = result_line(out)
    if len(names) == 1:
        line = lines[names[0]]
    else:
        line = {"correct": all(v["correct"] for v in lines.values()),
                "attempted": sum(v["attempted"] for v in lines.values()),
                "failed": sum(v["failed"] for v in lines.values()),
                "metrics": {f"{w}.{k}": m for w, v in lines.items()
                            for k, m in v["metrics"].items()}}
    print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
