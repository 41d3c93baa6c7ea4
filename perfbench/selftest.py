"""Tests of the benchmark itself (not part of the repository's test suite).

    python3 -m pytest perfbench/selftest.py

Generators must be deterministic per seed, every correctness check must
reject a deliberately corrupted copy of a real child's reports, and the
metric names run.py prints must be the ones BENCHMARK.json declares.
"""
from __future__ import annotations

import csv
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import pace  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SEED = 11


def _files(d: Path) -> dict:
    return {p.relative_to(d).as_posix(): p.read_bytes() for p in sorted(d.rglob("*"))
            if p.is_file()}


@pytest.mark.parametrize("workload", sorted(workloads.GENERATORS))
def test_generators_are_deterministic_per_seed(workload, tmp_path):
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    for d in (a, b, c):
        d.mkdir()
    assert workloads.GENERATORS[workload](SEED, a) == workloads.GENERATORS[workload](SEED, b)
    assert _files(a) == _files(b)
    workloads.GENERATORS[workload](SEED + 1, c)
    assert _files(a) != _files(c)


def test_corpus_has_no_edgeless_market(tmp_path):
    for seed in range(5):
        workloads.gen_corpus_sweep(seed, tmp_path)   # raises on an edgeless market


@pytest.fixture(scope="module")
def reports(tmp_path_factory):
    """One real child per workload: (inputs, outputs, meta)."""
    made = {}
    for workload in run.STEPS:
        work = tmp_path_factory.mktemp(workload)
        (work / "inputs").mkdir()
        meta = workloads.GENERATORS[workload](SEED, work / "inputs")
        (work / "inputs" / "meta.json").write_text(json.dumps(meta), encoding="utf-8")
        res = run.run_child(workload, work, "c00", False, ROOT / "src")
        assert "error" not in res, res
        made[workload] = (work / "inputs", res["out"], meta)
    return made


def _problems(workload, inputs, out, meta):
    found, _ = checks.CHECKS[workload](inputs, out, meta)
    return {s: p for s, p in found.items() if p}


def _edit_json(path: Path, fn):
    obj = json.loads(path.read_text(encoding="utf-8"))
    fn(obj)
    path.write_text(json.dumps(obj), encoding="utf-8")


def _edit_csv(path: Path, fn):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
        header = list(rows[0])
    fn(rows)
    buf = io.StringIO()
    w = csv.DictWriter(buf, header, lineterminator="\n")
    w.writeheader()
    w.writerows(rows)
    path.write_text(buf.getvalue(), encoding="utf-8")


def _bump_regret(o):
    first = o["equilibria"][0]["regrets"]
    first[next(iter(first))] = 10 * o["epsilon"] + 1.0


def _bump_worst(o):
    o["worst"]["welfare"] *= 1.01


def _bump_summary(o):
    o["empirical_welfare"] += 1.0


def _bump_dyn_regret(o):
    o["regrets"][next(iter(o["regrets"]))] += 0.5


def _unsatisfy(rows):
    rows[0]["satisfied"] = "false"


def _double_optimal(rows):
    rows[0]["notes"] = rows[0]["notes"].replace("optimal=", "optimal=1")


def _fail_checks(o):
    o["checks_pass"] = False


def _reverse_trend(o):
    o["trend"].reverse()


def _shift_mc_optimal(o):
    o["optimal"] += 5.0


def _break_holds(rows):
    for r in rows:
        r["holds"] = "false"


def _shift_beta(rows):
    for r in rows:
        r["beta"] = f"{float(r['beta']) / 2:.6f}"


def _alpha_above_one(rows):
    rows[0]["mean_alpha"] = "1.500000"


def _shift_bucket_beta(rows):
    for r in rows:
        r["mean_beta"] = f"{float(r['mean_beta']) / 2:.6f}"


CORRUPTIONS = [
    ("equilibria", "equilibrium_enumerate/equilibrium.json", _edit_json, _bump_regret,
     "equilibrium_enumerate"),
    ("equilibria", "equilibrium_enumerate/equilibrium.json", _edit_json, _bump_worst,
     "equilibrium_enumerate"),
    ("equilibria", "equilibrium_dynamics/equilibrium.json", _edit_json, _bump_dyn_regret,
     "equilibrium_dynamics"),
    ("equilibria", "simulate/summary.json", _edit_json, _bump_summary, "simulate"),
    ("revenue_mc", "revenue/revenue.csv", _edit_csv, _unsatisfy, "revenue"),
    ("revenue_mc", "revenue/revenue.csv", _edit_csv, _double_optimal, "revenue"),
    ("counterexample_mc", "counterexample/counterexample.json", _edit_json, _fail_checks,
     "counterexample"),
    ("counterexample_mc", "counterexample/counterexample.json", _edit_json, _reverse_trend,
     "counterexample"),
    ("counterexample_mc", "mc_revenue/mc_revenue.json", _edit_json, _shift_mc_optimal,
     "mc_revenue"),
    ("corpus_sweep", "expressiveness/degree_bound.csv", _edit_csv, _break_holds,
     "expressiveness"),
    ("corpus_sweep", "expressiveness/degree_bound.csv", _edit_csv, _shift_beta,
     "expressiveness"),
    ("corpus_sweep", "expressiveness/expressiveness.csv", _edit_csv, _alpha_above_one,
     "expressiveness"),
    ("corpus_sweep", "expressiveness/expressiveness.csv", _edit_csv, _shift_bucket_beta,
     "expressiveness"),
]


def test_checks_pass_on_real_reports(reports):
    for workload, (inputs, out, meta) in reports.items():
        assert _problems(workload, inputs, out, meta) == {}, workload


@pytest.mark.parametrize("workload,rel,edit,fn,step", CORRUPTIONS,
                         ids=[f"{c[0]}-{c[3].__name__.strip('_')}" for c in CORRUPTIONS])
def test_checks_reject_corrupted_reports(reports, tmp_path, workload, rel, edit, fn, step):
    inputs, out, meta = reports[workload]
    bad = tmp_path / "out"
    shutil.copytree(out, bad)
    edit(bad / rel, fn)
    assert step in _problems(workload, inputs, bad, meta)


def test_byte_identity_flags_a_changed_report(reports, tmp_path):
    _, out, _ = reports["revenue_mc"]
    ref = checks.digests(out)
    bad = tmp_path / "out"
    shutil.copytree(out, bad)
    assert not any(checks.same_bytes(ref, bad, ("revenue",)).values())
    with open(bad / "revenue" / "reserves.json", "a", encoding="utf-8") as fh:
        fh.write(" ")
    assert checks.same_bytes(ref, bad, ("revenue",))["revenue"]


def _declared():
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_benchmark_json_declares_what_run_py_knows():
    spec = _declared()
    assert [w["name"] for w in spec["workloads"]] == list(run.STEPS)
    assert {w["name"]: w["why"] for w in spec["workloads"]} == workloads.WHY
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        [(n, u, b) for n, u, b, _ in run.PER_LAYER]


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metric_names_match_benchmark_json(trace):
    """A short real run of the cheapest workload, through the command."""
    spec = _declared()
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", "revenue_mc",
                           "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    kind = "per_layer" if trace else "end_to_end"
    assert {k: v["unit"] for k, v in line["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec[kind]}


def test_pacer_rescales_by_the_sampled_probe_time():
    """Work done while a probe ran at twice its reference time counts half;
    the handler's own time counts not at all."""
    p = pace.Pacer()
    ref = pace.PROBES["interpreter"][2]
    # two handler calls, each 0.01 s long and ending at 1.0 and 2.0; the
    # interpreter probe ran at reference speed in the first and at half of
    # it in the second; the memory probe ran only in the second, at speed
    p._starts, p._ends = [0.99, 1.99], [1.0, 2.0]
    p._calls = {"interpreter": [0, 1], "memory": [1]}
    p._secs = {"interpreter": [ref, 2 * ref], "memory": [pace.PROBES["memory"][2]]}
    assert p.ref_seconds(0.0, 1.0) == pytest.approx(0.99)
    assert p.ref_seconds(1.0, 2.0) == pytest.approx(0.99 / 2)
    # the tail after the last call is scaled by that call's sample
    assert p.ref_seconds(2.0, 2.5) == pytest.approx(0.25)
    assert p.scale_at(0.5) == pytest.approx(1.0) and p.scale_at(1.5) == pytest.approx(0.5)
    # a probe without a sample in a call uses its next sample
    assert p.ref_seconds(0.0, 2.0, "memory") == pytest.approx(1.98)
    assert p.spent(0.0, 2.0) == pytest.approx(0.02)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "revenue_mc",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0 and proc.stdout == ""
