"""One workload run in a fresh interpreter.

    python3 child.py WORKLOAD INPUT_DIR RESULT_JSON TRACE

Run with the output directory as the working directory and bmlab's
`src` on PYTHONPATH.  The child imports `bmlab.cli`, loads and validates
the generated inputs (that is the set-up), then runs the workload's
steps, each through `bmlab.cli.main` or a public library call, with the
step's reports in `<step>/` and its stdout in `<step>.stdout`.  It writes the set-up end
time, each step's time, exit code and peak RSS so far, and its own peak
RSS to RESULT_JSON.  With TRACE=0 the pacer of pace.py samples the CPU's
speed from the first line on, and every time is also given rescaled to
the reference speed (`*ref_s`).  With TRACE=1 the span wrappers are
installed before set-up and the spans are saved next to RESULT_JSON; the
pacer stays off, so that spans hold no sampling time.
"""
from __future__ import annotations

import contextlib
import json
import resource
import sys
import time
import traceback
import tracemalloc
from pathlib import Path

import pace  # imports no numpy, so that numpy's import stays in the set-up

clock = time.monotonic   # CLOCK_MONOTONIC, the clock the parent reads too


def _maxrss_kb() -> int:
    """Peak RSS of this process image.  Linux carries ru_maxrss across
    exec, so rusage would report the parent's size at fork whenever that
    is larger; VmHWM belongs to the image that exec created."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Run:
    def __init__(self, inputs: Path, rec, pacer):
        self.inputs = inputs
        self.pacer = pacer
        self.meta = json.loads((inputs / "meta.json").read_text(encoding="utf-8"))
        self.rec = rec
        self.steps = {}
        # rescaled minus interpreter-rescaled time of the steps that use
        # another probe, so that the whole run can be rescaled step by step
        self.probe_adjust = 0.0
        self.loaded = {}
        self.alloc_peak = None

    @contextlib.contextmanager
    def span(self, name):
        idx = self.rec.open(name) if self.rec else None
        try:
            yield
        finally:
            if self.rec:
                self.rec.close(idx)

    def rss_kb(self) -> int:
        """Peak RSS, less the memory probe's arrays when the pacer runs."""
        return _maxrss_kb() - (pace.PROBE_BYTES // 1024 if self.pacer else 0)

    def step(self, name, fn, layer="cli", alloc=False, probe="interpreter"):
        """Time one step; a raised exception counts as exit code 1."""
        code = 1
        t0 = clock()
        with open(f"{name}.stdout", "w", encoding="utf-8") as fh, \
                contextlib.redirect_stdout(fh), self.span(f"{layer}.{name}"):
            if alloc and self.rec:
                tracemalloc.start()
            try:
                code = fn()
            except Exception:
                traceback.print_exc()
            finally:
                if alloc and self.rec:
                    self.alloc_peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
        t1 = clock()
        self.steps[name] = {"s": t1 - t0, "exit": code, "maxrss_kb": self.rss_kb()}
        if self.pacer:
            ref = self.pacer.ref_seconds(t0, t1, probe)
            self.steps[name]["ref_s"] = ref
            self.probe_adjust += ref - self.pacer.ref_seconds(t0, t1)

    def cli(self, name, argv, alloc=False, probe="interpreter"):
        import bmlab.cli
        self.step(name, lambda: bmlab.cli.main([str(a) for a in argv]), alloc=alloc,
                  probe=probe)


# ------------------------------------------------------------- workloads


def load_equilibria(run):
    from bmlab.market import scenario_from_json
    for name in ("enum", "wide"):
        run.loaded[name] = scenario_from_json(run.inputs / f"{name}.json")


def steps_equilibria(run):
    m, inp = run.meta, run.inputs
    run.cli("equilibrium_enumerate",
            ["equilibrium", "--mode", "enumerate", "--conservative",
             "--grid-delta", m["enum_delta"], "--scenario", inp / "enum.json",
             "--out", "equilibrium_enumerate"], alloc=True, probe="memory")
    run.cli("equilibrium_dynamics",
            ["equilibrium", "--mode", "dynamics", "--conservative",
             "--grid-delta", m["dyn_delta"], "--max-iters", m["dyn_max_iters"],
             "--scenario", inp / "wide.json", "--out", "equilibrium_dynamics"])
    # the dynamics profile is the bid profile the rounds are played with
    dyn = Path("equilibrium_dynamics") / "equilibrium.json"
    profile = json.loads(dyn.read_text(encoding="utf-8"))["profile"] if dyn.exists() else {}
    Path("simulate").mkdir(exist_ok=True)
    Path("simulate/bids.json").write_text(json.dumps(profile, sort_keys=True),
                                          encoding="utf-8")
    run.cli("simulate",
            ["simulate", "--rounds", m["rounds"], "--seed", m["seed"],
             "--scenario", inp / "wide.json", "--bids", "simulate/bids.json", "--out", "simulate"])


def load_bayes(run):
    from bmlab.reserves import bayes_scenario_from_json
    run.loaded["bayes"] = bayes_scenario_from_json(run.inputs / "bayes.json")


def steps_revenue_mc(run):
    run.cli("revenue", ["revenue", "--samples", run.meta["samples"], "--seed", run.meta["seed"],
                        "--scenario", run.inputs / "bayes.json", "--out", "revenue"])


def steps_counterexample_mc(run):
    m = run.meta
    run.cli("counterexample", ["counterexample", "--eps1", repr(m["eps1"]),
                               "--eps2", repr(m["eps2"]), "--m-exp", m["m_exp"],
                               "--out", "counterexample"])

    def mc():
        import numpy as np
        from bmlab.analysis import revenue_welfare_stats
        from bmlab.equilibrium import truthful_keyword_strategy
        from bmlab.reserves import induced_keyword_distribution, myerson_reserve

        bayes = run.loaded["bayes"]
        ce = json.loads(Path("counterexample/counterexample.json").read_text(encoding="utf-8"))
        rng = np.random.default_rng(m["seed"])
        induced = {s: myerson_reserve(induced_keyword_distribution(
            bayes, s, m["induced_samples"], rng)) for s in bayes.graph.keywords}
        # the instance's analytic reserves, as counterexample_scenario set them
        reserves = {"s1": ce["reserve_small"], "s2": ce["reserve_large"]}
        st = revenue_welfare_stats(bayes, truthful_keyword_strategy(bayes), reserves,
                                   m["mc_samples"], rng)
        Path("mc_revenue").mkdir(exist_ok=True)
        Path("mc_revenue/mc_revenue.json").write_text(json.dumps({
            "induced_reserves": induced, "reserves": reserves,
            "revenue": st.revenue, "revenue_se": st.revenue_se,
            "optimal": st.optimal, "optimal_se": st.optimal_se,
            "zero_reserve_revenue": st.zero_reserve_revenue,
            "n_samples": st.n_samples}, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        return 0

    run.step("mc_revenue", mc, layer="analysis")


def steps_revenue_floor(run):
    """`bm-lab revenue` on the piecewise instance at 2 samples: what is
    left is the command's fixed passes."""
    run.cli("revenue_floor", ["revenue", "--samples", 2, "--seed", run.meta["seed"],
                              "--scenario", run.inputs / "bayes.json",
                              "--out", "revenue_floor"])


def load_corpus(run):
    from bmlab.expressiveness import load_corpus as load
    run.loaded["corpus"] = load(run.inputs / "corpus")


def steps_corpus_sweep(run):
    run.cli("expressiveness", ["expressiveness", "--corpus", run.inputs / "corpus",
                               "--out", "expressiveness"])


WORKLOADS = {
    "equilibria": (load_equilibria, steps_equilibria),
    "revenue_mc": (load_bayes, steps_revenue_mc),
    "counterexample_mc": (load_bayes, steps_counterexample_mc),
    "revenue_floor": (load_bayes, steps_revenue_floor),
    "corpus_sweep": (load_corpus, steps_corpus_sweep),
}


def main(argv) -> int:
    workload, inputs, result_path, trace = argv[1], Path(argv[2]), Path(argv[3]), argv[4] == "1"
    pacer, start, arm_s = None, clock(), 0.0
    if not trace:
        # the memory probe's arrays are resident from here on, so that peak
        # RSS less their size is exact; numpy's import, which they need,
        # counts as set-up and their allocation does not
        pacer = pace.Pacer()
        pacer.start()
        import numpy  # noqa: F401
        a0 = clock()
        pace.arm_memory()
        arm_s = pacer.ref_seconds(a0, clock())
    t0 = clock()
    import bmlab.cli  # noqa: F401  (the import is part of set-up)
    import_s = clock() - t0
    rec = None
    if trace:
        import spans
        rec = spans.Recorder()
        spans.install(rec)
    run = Run(inputs, rec, pacer)
    load, steps = WORKLOADS[workload]
    with run.span("market.load"):
        load(run)
    setup_end = clock()
    setup_rss = run.rss_kb()
    steps(run)
    result = {"import_s": import_s, "start": start, "setup_end": setup_end,
              "setup_maxrss_kb": setup_rss, "steps": run.steps, "maxrss_kb": run.rss_kb(),
              "alloc_peak": run.alloc_peak}
    if pacer:
        end = clock()
        pacer.stop()
        result.update(end=end, setup_ref_s=pacer.ref_seconds(start, setup_end) - arm_s,
                      setup_pace_s=pacer.spent(start, setup_end),
                      ref_s=pacer.ref_seconds(start, end) + run.probe_adjust - arm_s,
                      pace_s=pacer.spent(start, end),
                      scale_start=pacer.scale_at(start), scale_end=pacer.scale_at(end))
    if rec:
        result["similarity_pairs"] = len(rec.similarity_pairs)
        rec.save(result_path.with_suffix(".spans.npz"))
    result_path.write_text(json.dumps(result, indent=1), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
