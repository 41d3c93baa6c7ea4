"""End-to-end checks of the command-line driver.

Commands are run in-process via main(argv); outputs land in tmp_path.
Golden files pin the three equilibrium modes on the 2x2 fixture, its
dynamics at a fine grid delta, the dynamics on a wide market, the
enumeration and the PoA report on a 3x3 market where kappa binds, the
corpus sweep reports on the small corpus and on the benchmark's seed-7
corpus, a seeded simulation, a Monte-Carlo revenue run and the default
counterexample byte-for-byte.
"""

import json
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from bmlab import cli, equilibrium, expressiveness
from bmlab.analysis import counterexample_scenario
from bmlab.cli import main
from bmlab.equilibrium import (default_epsilon, enumerate_pure_nash, make_grid,
                               verify_epsilon_nash)
from bmlab.market import scenario_from_json
from bmlab.mechanisms import load_bid_profile

from helpers import (enumerate_report_oracle, keyword_grid_cells_oracle, off_menu_bids,
                     per_round_reports, random_scenario, scenario_json)

DATA = Path(__file__).parent / "data"
SCENARIO = str(DATA / "scenario_2x2.json")
BIDS = str(DATA / "bids_2x2.json")
BAYES = str(DATA / "bayes_1x1.json")
BAYES_3X3 = str(DATA / "bayes_3x3.json")
BAYES_COUNTEREXAMPLE = str(DATA / "bayes_counterexample.json")
CORPUS = str(DATA / "corpus")
CORPUS_BENCH = str(DATA / "corpus_bench")
GOLDEN = DATA / "golden"


def run(*argv) -> int:
    return main([str(a) for a in argv])


# ------------------------------------------------------------------ goldens


def test_enumerate_mode_matches_golden(tmp_path):
    code = run("equilibrium", "--scenario", SCENARIO, "--mode", "enumerate",
               "--grid-delta", "1.0", "--conservative", "--out", tmp_path)
    assert code == 0
    got = (tmp_path / "equilibrium.json").read_bytes()
    assert got == (GOLDEN / "equilibrium_enumerate.json").read_bytes()


def test_dynamics_mode_matches_golden(tmp_path):
    code = run("equilibrium", "--scenario", SCENARIO, "--mode", "dynamics",
               "--grid-delta", "1.0", "--bids", BIDS, "--out", tmp_path)
    assert code == 0
    got = (tmp_path / "equilibrium.json").read_bytes()
    assert got == (GOLDEN / "equilibrium_dynamics.json").read_bytes()


def test_dynamics_mode_matches_golden_on_a_wide_market(tmp_path):
    """12 advertisers, 6 keywords, kappa 2 below every pool, 3 slots: 30
    sweeps of a cycling run pin the dynamics and their regret check."""
    code = run("equilibrium", "--scenario", DATA / "scenario_wide.json", "--mode", "dynamics",
               "--conservative", "--grid-delta", "0.25", "--max-iters", "30",
               "--out", tmp_path)
    assert code == 0
    got = (tmp_path / "equilibrium.json").read_bytes()
    assert got == (GOLDEN / "equilibrium_dynamics_wide.json").read_bytes()


def test_dynamics_mode_matches_golden_at_a_fine_grid_delta(tmp_path):
    """At delta 1e-5 the 2x2 market's grid holds about 500 000 points a
    keyword; 50 sweeps of a cycling run, from the empty profile, pin the
    dynamics where every candidate comes from grid arithmetic."""
    code = run("equilibrium", "--scenario", SCENARIO, "--mode", "dynamics",
               "--grid-delta", "1e-5", "--out", tmp_path)
    assert code == 0
    got = (tmp_path / "equilibrium.json").read_bytes()
    assert got == (GOLDEN / "equilibrium_dynamics_fine.json").read_bytes()


def test_enumerate_mode_matches_golden_on_a_3x3_market(tmp_path):
    """3 advertisers, each positive on all 3 keywords under kappa 2, two
    slots, overbids allowed: 19 rows each, 26 equilibria."""
    code = run("equilibrium", "--scenario", DATA / "scenario_3x3.json", "--mode", "enumerate",
               "--grid-delta", "2.0", "--out", tmp_path)
    assert code == 0
    got = (tmp_path / "equilibrium.json").read_bytes()
    assert got == (GOLDEN / "equilibrium_enumerate_3x3.json").read_bytes()


def test_enumerate_mode_matches_golden_at_an_epsilon_where_kappa_binds(tmp_path):
    """The 3x3 market at epsilon 0.05: kappa 2 of 3 keywords binds, so
    zero bids pass the keyword filter unchecked; 45 equilibria."""
    code = run("equilibrium", "--scenario", DATA / "scenario_3x3.json", "--mode", "enumerate",
               "--epsilon", "0.05", "--grid-delta", "2.0", "--out", tmp_path)
    assert code == 0
    got = (tmp_path / "equilibrium.json").read_bytes()
    assert got == (GOLDEN / "equilibrium_enumerate_3x3_eps.json").read_bytes()


def test_poa_matches_golden(tmp_path):
    """The 3x3 market on the unit grid: 61 rows each, 226 981 profiles
    scanned in several chunks, 648 equilibria."""
    code = run("poa", "--scenario", DATA / "scenario_3x3.json", "--grid-delta", "1.0",
               "--out", tmp_path)
    assert code == 0
    got = (tmp_path / "poa.csv").read_bytes()
    assert got == (GOLDEN / "poa_3x3.csv").read_bytes()


def test_dominant_mode_matches_golden(tmp_path):
    code = run("equilibrium", "--scenario", SCENARIO,
               "--mode", "single-slot-dominant", "--grid-delta", "1.0",
               "--out", tmp_path)
    assert code == 0
    got = (tmp_path / "equilibrium.json").read_bytes()
    assert got == (GOLDEN / "equilibrium_dominant.json").read_bytes()


def test_enumerate_reports_worst_equilibrium(tmp_path):
    run("equilibrium", "--scenario", SCENARIO, "--mode", "enumerate",
        "--grid-delta", "1.0", "--conservative", "--out", tmp_path)
    obj = json.loads((tmp_path / "equilibrium.json").read_text())
    assert obj["count"] == len(obj["equilibria"]) > 0
    welfares = [e["welfare"] for e in obj["equilibria"]]
    assert obj["worst"]["welfare"] == pytest.approx(min(welfares))


# names with json escapes, a %-sign, non-ASCII and surrogate characters
_NAME = st.text(st.sampled_from(['"', "\\", "\x00", "\x1f", "\x7f", "\n", "%", "/", " ", "a",
                                 "B", "\u00e9", "\u2603", "\U0001f600", "\ud800"])
                | st.characters(), max_size=4)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), delta=st.sampled_from([1.0, 0.5]),
       conservative=st.booleans(), epsilon=st.sampled_from([None, 0.0]),
       advertisers=st.lists(_NAME, min_size=3, max_size=3, unique=True),
       keywords=st.lists(_NAME, min_size=2, max_size=2, unique=True),
       keyword_order=st.permutations([0, 1]))
# seed 92's market has no equilibrium at delta 1.0
@example(seed=92, delta=1.0, conservative=True, epsilon=None,
         advertisers=["z\"", "%s", "\u00e9"], keywords=["\\", "\x00"], keyword_order=[1, 0])
def test_enumerate_report_equals_the_dict_oracle(seed, delta, conservative, epsilon,
                                                 advertisers, keywords, keyword_order):
    """equilibrium.json of --mode enumerate, streamed from the arrays in
    blocks of _REPORT_BLOCK (patched to 1 and 2 too), is the text of
    enumerate_report_oracle over the reports of enumerate_pure_nash, byte
    for byte: names to escape, declared orders unlike name order, rows
    without a positive bid and markets without an equilibrium."""
    sc = random_scenario(np.random.default_rng(seed), max_adv=3, max_kw=2, max_q=3,
                         weights=(1.0, 0.5))
    assume(not set(keywords) & set(sc.graph.queries))
    obj = scenario_json(sc, advertisers, keywords,
                        [k for k in keyword_order if k < len(sc.graph.keywords)])
    sc = scenario_from_json(obj)
    eps = default_epsilon(sc) if epsilon is None else epsilon
    reports = enumerate_pure_nash(sc, make_grid(sc, delta), epsilon=eps,
                                  conservative=conservative)
    assume(len(reports) <= 2000)
    want = enumerate_report_oracle({"mode": "enumerate", "grid_delta": delta, "epsilon": eps,
                                    "conservative": conservative}, reports).encode()
    flags = ["--conservative"] if conservative else []
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scenario.json"
        path.write_text(json.dumps(obj), encoding="utf-8")
        for block in (1, 2, cli._REPORT_BLOCK):
            with mock.patch.object(cli, "_REPORT_BLOCK", block):
                assert run("equilibrium", "--mode", "enumerate", "--scenario", path,
                           "--grid-delta", delta, "--epsilon", repr(eps), *flags,
                           "--out", tmp) == 0
            assert (Path(tmp) / "equilibrium.json").read_bytes() == want


def test_expressiveness_matches_golden(tmp_path):
    code = run("expressiveness", "--corpus", CORPUS, "--out", tmp_path)
    assert code == 0
    got = (tmp_path / "expressiveness.csv").read_bytes()
    assert got == (GOLDEN / "expressiveness.csv").read_bytes()
    assert (tmp_path / "degree_bound.csv").read_bytes() == \
        (GOLDEN / "degree_bound.csv").read_bytes()
    prop = (tmp_path / "degree_bound.csv").read_text().splitlines()
    assert prop[0] == "market,theta,kappa,alpha,beta,gamma,holds"
    assert len(prop) > 1
    assert all(line.endswith("true") for line in prop[1:])


def test_expressiveness_matches_golden_on_the_benchmark_corpus(tmp_path, capsys):
    """The seed-7 corpus of the corpus_sweep benchmark: 118 keywords, 233
    queries, 1968 cells, and two markets over the exact-alpha cap."""
    assert run("expressiveness", "--corpus", CORPUS_BENCH, "--out", tmp_path) == 0
    for name, golden in (("expressiveness.csv", "expressiveness_bench.csv"),
                         ("degree_bound.csv", "degree_bound_bench.csv")):
        assert (tmp_path / name).read_bytes() == (GOLDEN / golden).read_bytes()
    rows = (tmp_path / "expressiveness.csv").read_text().splitlines()[1:]
    assert sum(int(line.rsplit(",", 1)[1]) for line in rows) == 1968
    assert capsys.readouterr().out.splitlines()[-1] == (
        "skipped 2 market(s): cheap: |Q_i| = 26 (exact alpha cap 20); "
        "online: |Q_i| = 36 (exact alpha cap 20)")


def test_simulate_matches_golden(tmp_path):
    code = run("simulate", "--scenario", SCENARIO, "--bids", BIDS,
               "--rounds", 500, "--seed", 5, "--out", tmp_path)
    assert code == 0
    assert (tmp_path / "rounds.csv").read_bytes() == \
        (GOLDEN / "simulate_rounds.csv").read_bytes()
    assert (tmp_path / "summary.json").read_bytes() == \
        (GOLDEN / "simulate_summary.json").read_bytes()


def test_revenue_matches_golden(tmp_path):
    # three advertisers, three keywords sharing queries, kappa = 1, two slots
    code = run("revenue", "--scenario", BAYES_3X3, "--samples", 300,
               "--out", tmp_path)
    assert code == 0
    assert (tmp_path / "revenue.csv").read_bytes() == \
        (GOLDEN / "revenue.csv").read_bytes()
    assert (tmp_path / "reserves.json").read_bytes() == \
        (GOLDEN / "reserves.json").read_bytes()


def test_revenue_matches_golden_on_piecewise_densities(tmp_path):
    """counterexample_scenario(0.05, 2e-4, 11) serialized: piecewise pdf,
    sf and quantile, phi on the MHR grid (eta) and the reserves from the
    induced distributions.  satisfied=true here is the known defect of
    the truthful strategy ignoring reserves, not a verdict."""
    code = run("revenue", "--scenario", BAYES_COUNTEREXAMPLE, "--samples", 300,
               "--out", tmp_path)
    assert code == 0
    assert (tmp_path / "revenue.csv").read_bytes() == \
        (GOLDEN / "revenue_piecewise.csv").read_bytes()
    assert (tmp_path / "reserves.json").read_bytes() == \
        (GOLDEN / "reserves_piecewise.json").read_bytes()


def test_counterexample_matches_golden(tmp_path):
    # the defaults: eps1 0.01, eps2 1e-5, m_exp 11
    assert run("counterexample", "--out", tmp_path) == 0
    assert (tmp_path / "counterexample.json").read_bytes() == \
        (GOLDEN / "counterexample.json").read_bytes()


# ----------------------------------------------------------------- simulate


def test_simulate_empirical_tracks_exact(tmp_path):
    code = run("simulate", "--scenario", SCENARIO, "--bids", BIDS,
               "--rounds", 2000, "--seed", 5, "--out", tmp_path)
    assert code == 0
    s = json.loads((tmp_path / "summary.json").read_text())
    tol = 4 * 5.0 * (1 / 2000) ** 0.5  # 4 * maxvalue * sqrt(1/rounds)
    assert s["empirical_welfare"] == pytest.approx(s["exact_welfare"], abs=tol)
    assert s["empirical_revenue"] == pytest.approx(s["exact_revenue"], abs=tol)
    lines = (tmp_path / "rounds.csv").read_text().splitlines()
    assert lines[0] == ("round,query,sampled_keyword,slot,advertiser,"
                       "price,click_weight")
    # single slot, a bidder on every keyword: one assignment per round
    assert len(lines) == 1 + 2000


def test_simulate_zero_rounds_gives_exact_summary_only(tmp_path):
    code = run("simulate", "--scenario", SCENARIO, "--bids", BIDS,
               "--rounds", 0, "--out", tmp_path)
    assert code == 0
    s = json.loads((tmp_path / "summary.json").read_text())
    assert s["empirical_welfare"] is None
    assert s["empirical_revenue"] is None
    assert s["exact_welfare"] == pytest.approx(4.0)
    lines = (tmp_path / "rounds.csv").read_text().splitlines()
    assert len(lines) == 1  # header only


def test_simulate_reruns_are_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run("simulate", "--scenario", SCENARIO, "--bids", BIDS,
                   "--rounds", 500, "--seed", 11, "--out", out) == 0
    assert (a / "rounds.csv").read_bytes() == (b / "rounds.csv").read_bytes()
    assert (a / "summary.json").read_bytes() == (b / "summary.json").read_bytes()


def test_simulate_different_seeds_differ(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    run("simulate", "--scenario", SCENARIO, "--bids", BIDS,
        "--rounds", 500, "--seed", 1, "--out", a)
    run("simulate", "--scenario", SCENARIO, "--bids", BIDS,
        "--rounds", 500, "--seed", 2, "--out", b)
    assert (a / "rounds.csv").read_bytes() != (b / "rounds.csv").read_bytes()


def test_simulate_report_blocks_match_the_per_round_oracle(tmp_path):
    """Past two report blocks, on a market where nobody bids on s1:
    rounds.csv and summary.json are the per-round loop's rendered line by
    line, so a round that draws s1 writes no line."""
    bids = tmp_path / "bids.json"
    bids.write_text(json.dumps({"a": {"s2": 1.0}, "b": {"s2": 3.5}}))
    rounds = 2 * cli._REPORT_BLOCK + 300
    assert run("simulate", "--scenario", SCENARIO, "--bids", bids, "--rounds", rounds,
               "--seed", 3, "--out", tmp_path / "out") == 0
    sc = scenario_from_json(SCENARIO)
    want_rounds, want_summary = per_round_reports(sc, load_bid_profile(bids, sc), rounds, 3)
    got = (tmp_path / "out" / "rounds.csv").read_bytes()
    assert got == want_rounds.encode()
    assert (tmp_path / "out" / "summary.json").read_bytes() == want_summary.encode()
    # single slot: a line per round that has an assignment, some have none,
    # and the lines reach the third report block
    assert got.count(b"\n") - 1 < rounds
    assert int(got.splitlines()[-1].split(b",")[0]) >= 2 * cli._REPORT_BLOCK


def _traced_simulate_peak(rounds, out) -> int:
    tracemalloc.start()
    try:
        assert run("simulate", "--scenario", SCENARIO, "--bids", BIDS,
                   "--rounds", rounds, "--out", out) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_simulate_memory_grows_only_by_the_outcome_references(tmp_path):
    """Ten times the rounds may add the returned list's 8 B reference per
    round (and the list's spare capacity), not the report's lines or a
    uniform per round: rounds.csv is written in blocks of rounds and the
    uniforms come in capped blocks."""
    n = 10_000
    _traced_simulate_peak(10, tmp_path / "warm")
    small = _traced_simulate_peak(n, tmp_path / "small")
    large = _traced_simulate_peak(10 * n, tmp_path / "large")
    assert (large - small) / (9 * n) <= 16


# ------------------------------------------------------- config and errors


def test_config_file_supplies_flags(tmp_path):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({
        "scenario": SCENARIO, "bids": BIDS, "rounds": 50,
        "out": str(tmp_path / "o")}))
    assert run("simulate", "--config", conf) == 0
    s = json.loads((tmp_path / "o" / "summary.json").read_text())
    assert s["rounds"] == 50


def test_explicit_flag_beats_config(tmp_path):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({
        "scenario": SCENARIO, "bids": BIDS, "rounds": 50,
        "out": str(tmp_path / "o")}))
    assert run("simulate", "--config", conf, "--rounds", 75) == 0
    s = json.loads((tmp_path / "o" / "summary.json").read_text())
    assert s["rounds"] == 75


def test_unknown_config_key_rejected(tmp_path, capsys):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"scenario": SCENARIO, "rouns": 5}))
    assert run("simulate", "--config", conf) == 2
    assert "rouns" in capsys.readouterr().err


@pytest.mark.parametrize("conf", [
    {"samples": "abc"},
    {"rounds": 1.5},
    {"seed": True},
    {"grid_delta": "0.25"},
    {"conservative": "false"},
    {"mode": "enumerat"},
    {"scenario": 5},
    {"samples": None},
    {"thetas": ["a"]},
    {"kappas": [1.5]},
    ["samples", 5],
])
def test_config_values_are_typed_like_their_flags(tmp_path, capsys, conf):
    path = tmp_path / "conf.json"
    path.write_text(json.dumps(conf))
    command = "equilibrium" if "mode" in conf else "simulate"
    assert run(command, "--config", path, "--scenario", SCENARIO, "--bids", BIDS,
               "--out", tmp_path) == 2
    assert "config" in capsys.readouterr().err


def test_config_of_every_default_is_no_config(tmp_path):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps(cli.DEFAULTS))
    parse = cli.build_parser().parse_args
    assert cli.load_config(parse(["poa", "--config", str(conf)])) == \
        cli.load_config(parse(["poa"]))


# one value per flag that its config-file key must reject
_WRONG_JSON_TYPE = {
    "scenario": 5, "bids": ["b.json"], "corpus": True, "config": {}, "out": 0.5,
    "rounds": 1.5, "seed": "0", "grid_delta": "0.25", "epsilon": True,
    "conservative": 1, "mode": 1, "max_iters": [50], "eps1": {}, "eps2": "1e-5",
    "m_exp": 11.0, "samples": "abc", "thetas": 0.5, "kappas": 2,
}


def test_every_flag_has_a_wrong_type_case():
    assert set(_WRONG_JSON_TYPE) == set(cli.FLAGS)


@pytest.mark.parametrize("key", sorted(_WRONG_JSON_TYPE))
def test_wrong_json_type_in_config_exits_2_naming_the_key(tmp_path, capsys, key):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({key: _WRONG_JSON_TYPE[key]}))
    assert run("poa", "--config", conf) == 2
    assert f"config value {key!r} must be" in capsys.readouterr().err


def test_config_accepts_nulls_lists_and_json_types(tmp_path):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({
        "scenario": SCENARIO, "epsilon": None, "grid_delta": 1, "conservative": True,
        "mode": "single-slot-dominant", "thetas": [0.5], "kappas": "1,2",
        "out": str(tmp_path / "o")}))
    assert run("equilibrium", "--config", conf) == 0
    obj = json.loads((tmp_path / "o" / "equilibrium.json").read_text())
    assert obj["mode"] == "single-slot-dominant" and obj["conservative"] is True


def _edited(tmp_path, source, edit):
    obj = json.loads(Path(source).read_text())
    edit(obj)
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(obj))
    return path


@pytest.mark.parametrize("edit", [
    lambda o: o.update(query_dist={q: "abc" for q in o["query_dist"]}),
    lambda o: o.update(kappa="abc"),
    lambda o: o.update(kappa=None),
    lambda o: o.update(slot_weights=["abc"]),
    lambda o: o["valuations"]["a"].update(q1="abc"),
])
def test_non_numeric_scenario_field_is_a_validation_error(tmp_path, edit):
    bad = _edited(tmp_path, SCENARIO, edit)
    assert run("equilibrium", "--scenario", bad, "--out", tmp_path) == 2


@pytest.mark.parametrize("params", [
    {"family": "uniform", "params": {"lo": "abc", "hi": 1.0}},
    {"family": "truncated_exponential", "params": {"rate": 1.0, "hi": "abc"}},
    {"family": "empirical", "params": {"samples": ["abc"]}},
    {"family": "point", "params": {"value": "abc"}},
    {"family": "uniform", "params": {"lo": "0", "hi": True}},
    {"family": "point", "params": {"value": "2"}},
    {"family": "empirical", "params": {"samples": ["1", True]}},
    {"family": "piecewise", "params": {"pieces": [{"lo": 0, "hi": 1, "const": True}]}},
    {"family": "uniform", "params": {"lo": 0, "hi": 1, "width": 2}},
])
def test_non_numeric_distribution_parameter_is_a_validation_error(tmp_path, params):
    bad = _edited(tmp_path, BAYES, lambda o: o["value_dists"]["a"].update(q=params))
    assert run("revenue", "--scenario", bad, "--samples", 10, "--out", tmp_path) == 2


@pytest.mark.parametrize("bid", ["abc", None, [1.0]])
def test_non_numeric_bid_is_a_validation_error(tmp_path, capsys, bid):
    bad = _edited(tmp_path, BIDS, lambda o: o["a"].update(s1=bid))
    assert run("simulate", "--scenario", SCENARIO, "--bids", bad, "--rounds", 3,
               "--out", tmp_path) == 2
    assert "non-numeric bid" in capsys.readouterr().err


@pytest.mark.parametrize("role, edit, field", [
    pytest.param("bids", lambda o: o["a"].update(s1="1"), "bid of 'a' on 's1'",
                 id="bid-string"),
    pytest.param("bids", lambda o: o["a"].update(s1=True), "bid of 'a' on 's1'",
                 id="bid-true"),
    pytest.param("scenario", lambda o: o["valuations"]["a"].update(q1="5.0"),
                 "valuation of 'a' on 'q1'", id="valuation-string"),
    pytest.param("scenario", lambda o: o["valuations"]["a"].update(q1=True),
                 "valuation of 'a' on 'q1'", id="valuation-true"),
    pytest.param("scenario", lambda o: o["query_dist"].update(q1="0.6"),
                 "query_dist mass of 'q1'", id="query-mass-string"),
    pytest.param("scenario", lambda o: o["matching"]["q2"].update(s2="1"),
                 "matching mass of ('q2', 's2')", id="matching-mass-string"),
    pytest.param("scenario", lambda o: o.update(slot_weights=["1.0"]),
                 "slot weight at position 1", id="slot-weight-string"),
    pytest.param("scenario", lambda o: o.update(kappa=True), "kappa", id="kappa-true"),
    pytest.param("bayes", lambda o: o.update(kappa=True), "kappa", id="bayes-kappa-true"),
    pytest.param("bayes", lambda o: o.update(slot_weights=[True]),
                 "slot weight at position 1", id="bayes-slot-weight-true"),
])
def test_json_string_or_boolean_for_a_number_exits_2(tmp_path, capsys, role, edit, field):
    """A string or boolean where the JSON holds a number is rejected,
    not coerced by float(), and the message names the field."""
    source = {"bids": BIDS, "scenario": SCENARIO, "bayes": BAYES}[role]
    bad = _edited(tmp_path, source, edit)
    argv = {"bids": ("simulate", "--scenario", SCENARIO, "--bids", bad, "--rounds", 3),
            "scenario": ("equilibrium", "--scenario", bad, "--mode", "single-slot-dominant"),
            "bayes": ("revenue", "--scenario", bad, "--samples", 10)}[role]
    assert run(*argv, "--out", tmp_path / "out") == 2
    assert f"non-numeric {field}" in capsys.readouterr().err


@pytest.mark.parametrize("source, edit, argv, field", [
    pytest.param(BAYES, lambda o: o["value_dists"]["a"]["q"]["params"].update(hi=10 ** 400),
                 ("revenue", "--samples", 10), "uniform parameter 'hi'", id="bayes-uniform-hi"),
    pytest.param(SCENARIO, lambda o: o.update(kappa=10 ** 400), ("equilibrium",), "kappa",
                 id="scenario-kappa"),
])
def test_json_integer_beyond_float_range_exits_2(tmp_path, capsys, source, edit, argv, field):
    bad = _edited(tmp_path, source, edit)
    assert run(*argv, "--scenario", bad, "--out", tmp_path / "out") == 2
    assert f"{field} is an integer too large for a float" in capsys.readouterr().err


def test_malformed_scenario_names_offending_key(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"queries": ["q"], "bogus_key": 1}))
    assert run("simulate", "--scenario", bad, "--bids", BIDS) == 2
    assert "bogus_key" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["simulate"], ["equilibrium", "--mode", "dynamics"]],
                         ids=["simulate", "dynamics"])
@pytest.mark.parametrize("kind", ["missing", "directory"])
def test_unreadable_bids_file_exits_2(tmp_path, capsys, command, kind):
    bids = tmp_path / kind
    if kind == "directory":
        bids.mkdir()
    assert run(*command, "--scenario", SCENARIO, "--bids", bids, "--out", tmp_path) == 2
    assert str(bids) in capsys.readouterr().err


# argv of a run that reads the file BAD first among its JSON inputs
_READS_BAD = {
    "scenario": ["simulate", "--scenario", "BAD", "--bids", BIDS],
    "bids": ["simulate", "--scenario", SCENARIO, "--bids", "BAD"],
    "config": ["simulate", "--config", "BAD"],
    "bayes": ["revenue", "--scenario", "BAD", "--samples", 10],
}


def _run_on_bad(tmp_path, role, content):
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    argv = [bad if a == "BAD" else a for a in _READS_BAD[role]]
    return bad, run(*argv, "--rounds", 3, "--out", tmp_path / "out")


@pytest.mark.parametrize("role", list(_READS_BAD))
def test_non_utf8_input_exits_2(tmp_path, capsys, role):
    bad, code = _run_on_bad(tmp_path, role, b'{"queries": ["q\xff"]}')
    assert code == 2
    assert str(bad) in capsys.readouterr().err


@pytest.mark.parametrize("role", list(_READS_BAD))
@pytest.mark.parametrize("content", [b"3", b'"text"', b"[1, 2]", b"[" * 100_000],
                         ids=["number", "string", "list", "nested-too-deep"])
def test_json_input_that_is_not_an_object_exits_2(tmp_path, capsys, role, content):
    bad, code = _run_on_bad(tmp_path, role, content)
    assert code == 2
    assert str(bad) in capsys.readouterr().err


@pytest.mark.parametrize("name", ["bids.csv", "queries.csv"])
def test_non_utf8_corpus_exits_2(tmp_path, capsys, name):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for part in ("bids.csv", "queries.csv"):
        (corpus / part).write_bytes((Path(CORPUS) / part).read_bytes())
    (corpus / name).write_bytes((corpus / name).read_bytes() + b"\xff,1\n")
    assert run("expressiveness", "--corpus", corpus, "--out", tmp_path / "out") == 2
    assert name in capsys.readouterr().err


def _simulate_into(out) -> int:
    return run("simulate", "--scenario", SCENARIO, "--bids", BIDS,
               "--rounds", "3", "--out", out)


def test_out_that_is_a_file_exits_2(tmp_path, capsys):
    afile = tmp_path / "afile"
    afile.write_text("")
    assert _simulate_into(afile) == 2
    assert str(afile) in capsys.readouterr().err


def test_out_under_a_file_exits_2(tmp_path, capsys):
    afile = tmp_path / "afile"
    afile.write_text("")
    assert _simulate_into(afile / "x") == 2
    assert str(afile / "x") in capsys.readouterr().err


def test_out_that_is_a_file_exits_2_before_any_output(tmp_path, capsys):
    afile = tmp_path / "afile"
    afile.write_text("")
    assert run("counterexample", "--out", afile) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert str(afile) in captured.err


def test_out_that_is_a_file_exits_2_before_enumerating(tmp_path, monkeypatch):
    def enumerate_pure_nash(*args, **kwargs):
        raise AssertionError("enumerated before checking --out")

    monkeypatch.setattr(cli, "enumerate_pure_nash", enumerate_pure_nash)
    afile = tmp_path / "afile"
    afile.write_text("")
    assert run("equilibrium", "--scenario", SCENARIO, "--grid-delta", 0.2,
               "--out", afile) == 2


def test_report_path_that_is_a_directory_exits_2(tmp_path, capsys):
    # either report may be the directory: the run leaves neither file
    for report, other in [("rounds.csv", "summary.json"), ("summary.json", "rounds.csv")]:
        out = tmp_path / report.split(".")[0]
        (out / report).mkdir(parents=True)
        assert _simulate_into(out) == 2
        captured = capsys.readouterr()
        assert str(out / report) in captured.err
        assert "wrote" not in captured.out
        assert not (out / other).exists()


def test_text_report_path_that_is_a_directory_exits_2(tmp_path, capsys):
    for report, other in [("revenue.csv", "reserves.json"), ("reserves.json", "revenue.csv")]:
        out = tmp_path / report.split(".")[0]
        (out / report).mkdir(parents=True)
        assert run("revenue", "--scenario", BAYES, "--samples", 10, "--out", out) == 2
        captured = capsys.readouterr()
        assert f"cannot write {out / report}" in captured.err
        assert "wrote" not in captured.out
        assert not (out / other).exists()


def test_report_write_failing_midway_leaves_nothing(tmp_path, capsys, monkeypatch):
    """A disk that fills after rounds.csv is opened: exit 2, the partial
    file is removed, and with it the --out directories the run made."""
    def round_lines(outcomes):
        yield cli.ROUND_HEADER + "\n"
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(cli, "_round_lines", round_lines)
    assert _simulate_into(tmp_path / "new" / "out") == 2
    captured = capsys.readouterr()
    assert "No space left on device" in captured.err
    assert "wrote" not in captured.out
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("theta", ["1.0", "-0.1", "nan"])
def test_theta_outside_unit_interval_exits_2(tmp_path, capsys, theta):
    code = run("expressiveness", "--corpus", CORPUS, "--thetas", f"0.5,{theta}",
               "--out", tmp_path)
    assert code == 2
    assert "theta must lie in [0, 1)" in capsys.readouterr().err
    assert not (tmp_path / "expressiveness.csv").exists()


def test_theta_is_checked_on_a_corpus_without_markets(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "bids.csv").write_text("advertiser,keyword\na,boats\n")
    (corpus / "queries.csv").write_text("query,frequency\ncars,1\n")
    assert run("expressiveness", "--corpus", corpus, "--out", tmp_path / "ok") == 0
    code = run("expressiveness", "--corpus", corpus, "--thetas", "1.0",
               "--out", tmp_path / "bad")
    assert code == 2
    assert "theta must lie in [0, 1)" in capsys.readouterr().err


def test_expressiveness_names_a_market_skipped_at_several_thetas_once(tmp_path, capsys):
    """Keyword "x" reaches all 26 queries of market "x": its cells stop at
    theta 0.1 and its degree rows are skipped at 0.1 and 0.0, three skips
    of one market."""
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "bids.csv").write_text("advertiser,keyword\na,x\n")
    (corpus / "queries.csv").write_text("query,frequency\nx,1\n" + "".join(
        f"x z{a}{b},1\n" for a in "abcde" for b in "abcde"))
    table = expressiveness.expressiveness_sweep(expressiveness.load_corpus(corpus))
    assert len(table.skipped + table.degree_skipped) == 3
    assert run("expressiveness", "--corpus", corpus, "--out", tmp_path / "out") == 0
    assert capsys.readouterr().out.splitlines()[-1] == \
        "skipped 1 market(s): x: |Q_i| = 26 (exact alpha cap 20)"


@pytest.mark.parametrize("kappas", ["0,-3", "2,0", "-1"])
def test_kappa_below_one_exits_2_before_any_market_is_extracted(tmp_path, capsys,
                                                                monkeypatch, kappas):
    def extract_micro_markets(*args, **kwargs):
        raise AssertionError("extracted a market before checking --kappas")

    monkeypatch.setattr(expressiveness, "extract_micro_markets", extract_micro_markets)
    code = run("expressiveness", "--corpus", CORPUS, "--kappas", kappas, "--out", tmp_path)
    assert code == 2
    assert "kappa must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "expressiveness.csv").exists()


@pytest.mark.parametrize("flag", ["--thetas", "--kappas"])
def test_empty_grid_exits_2_before_any_market_is_extracted(tmp_path, capsys, monkeypatch,
                                                           flag):
    def extract_micro_markets(*args, **kwargs):
        raise AssertionError(f"extracted a market before checking {flag}")

    monkeypatch.setattr(expressiveness, "extract_micro_markets", extract_micro_markets)
    code = run("expressiveness", "--corpus", CORPUS, flag, ",", "--out", tmp_path)
    assert code == 2
    assert f"the {flag[2:-1]} grid is empty" in capsys.readouterr().err
    assert not (tmp_path / "expressiveness.csv").exists()


@pytest.mark.parametrize("argv", [
    ("simulate", "--scenario", SCENARIO, "--bids", BIDS, "--seed", -1),
    ("revenue", "--scenario", BAYES, "--samples", 10, "--seed", -5),
])
def test_negative_seed_exits_2(tmp_path, capsys, argv):
    assert run(*argv, "--out", tmp_path) == 2
    assert "seed must be >= 0, got" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("samples", [0, 1, -5])
def test_too_few_samples_exit_2_before_any_computation(tmp_path, capsys, monkeypatch,
                                                       samples):
    def computed(*args, **kwargs):
        raise AssertionError("computed before checking --samples")

    for name in ("bayes_scenario_from_json", "induced_keyword_distribution",
                 "estimate_bne_regret"):
        monkeypatch.setattr(cli, name, computed)
    assert run("revenue", "--scenario", BAYES, "--samples", samples, "--out", tmp_path) == 2
    assert capsys.readouterr().err == f"error: --samples must be >= 2, got {samples}\n"
    assert not any(tmp_path.iterdir())


def test_negative_seed_in_config_exits_2(tmp_path, capsys):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"seed": -1}))
    assert run("simulate", "--config", conf, "--scenario", SCENARIO, "--bids", BIDS,
               "--out", tmp_path) == 2
    assert "seed must be >= 0, got -1" in capsys.readouterr().err


@pytest.mark.parametrize("command, extra, message", [
    ("equilibrium", ("--scenario", SCENARIO), "grid delta must be finite"),
    ("poa", ("--scenario", SCENARIO), "grid delta must be finite"),
    ("revenue", ("--scenario", BAYES, "--samples", 10), "deviation_delta must be finite"),
])
def test_infinite_grid_delta_exits_2(tmp_path, capsys, command, extra, message):
    assert run(command, *extra, "--grid-delta", "inf", "--out", tmp_path) == 2
    assert message in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [
    *(("equilibrium", "--scenario", SCENARIO, "--mode", mode) for mode in cli.MODES),
    ("poa", "--scenario", DATA / "scenario_3x3.json"),
])
def test_grid_delta_past_the_float_range_exits_4(tmp_path, capsys, argv):
    out = tmp_path / "out"
    assert run(*argv, "--grid-delta", "1e-320", "--out", out) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: grid cap ") and err.count("\n") == 1 and "overflows" in err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ("equilibrium", "--mode", "enumerate"),
    ("equilibrium", "--mode", "enumerate", "--conservative"),
    ("poa",),
])
def test_grid_delta_past_sys_maxsize_points_exits_3_at_once(tmp_path, capsys, argv):
    """At delta 1e-30 a keyword holds about 5e30 grid points; the size
    guard counts the keyword-grid cells from the grid and exits 3 with
    one error line."""
    out = tmp_path / "out"
    assert run(*argv, "--scenario", SCENARIO, "--grid-delta", "1e-30", "--out", out) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: keyword grids hold ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("mode", ["dynamics", "single-slot-dominant"])
@pytest.mark.parametrize("extra", [(), ("--conservative",)])
def test_full_information_modes_exit_0_at_fine_grid_deltas(tmp_path, mode, extra):
    """At delta 1e-7 the menus of the 2x2 market would hold about 171 M
    bids, and at 1e-30 a keyword holds about 5e30 grid points, past
    sys.maxsize; the full-information solvers build no menu, so they
    exit 0 with a traced peak under 150 MB.  Every bid reported is a kept
    grid point or the keyword value, and the regrets reported are
    verify_epsilon_nash's of the profile reported."""
    sc = scenario_from_json(SCENARIO)
    conservative = "--conservative" in extra
    for delta in (1e-7, 1e-12, 1e-30):
        out = tmp_path / str(delta)
        tracemalloc.start()
        try:
            assert run("equilibrium", "--mode", mode, *extra, "--scenario", SCENARIO,
                       "--grid-delta", delta, "--out", out) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 150 << 20
        report = json.loads((out / "equilibrium.json").read_text(encoding="utf-8"))
        grid = make_grid(sc, delta)
        assert report["grid_delta"] == delta and report["conservative"] == conservative
        assert all(report["profile"].values())
        assert off_menu_bids(sc, grid, report["profile"], conservative) == []
        assert report["regrets"] == verify_epsilon_nash(sc, report["profile"], grid, conservative)


def test_failed_run_removes_only_the_empty_out_directories_it_created(tmp_path, capsys):
    assert run("simulate", "--bids", BIDS, "--out", tmp_path / "new" / "deep") == 2
    assert not (tmp_path / "new").exists()
    old = tmp_path / "old"
    old.mkdir()
    assert run("simulate", "--bids", BIDS, "--out", old / "deep") == 2
    assert old.is_dir() and not any(old.iterdir())
    assert run("simulate", "--bids", BIDS, "--out", old) == 2
    assert old.is_dir()
    # a failure after the computation started cleans up alike
    assert run("equilibrium", "--scenario", SCENARIO, "--grid-delta", "0.0001",
               "--out", tmp_path / "big") == 3
    assert not (tmp_path / "big").exists()


def test_missing_required_flag_is_validation_error(capsys):
    assert run("simulate", "--bids", BIDS) == 2
    assert "--scenario" in capsys.readouterr().err


def test_too_large_exit_code_reports_size(tmp_path, capsys):
    code = run("equilibrium", "--scenario", SCENARIO,
               "--grid-delta", "0.0001", "--out", tmp_path)
    assert code == 3
    sc = scenario_from_json(SCENARIO)
    cells = keyword_grid_cells_oracle(sc, make_grid(sc, 0.0001))
    assert capsys.readouterr().err == (f"error: keyword grids hold {cells} cells "
                                       f"(cap {equilibrium._MAX_BUILT})\n")


def test_poa_past_the_candidate_cap_exits_3(tmp_path, capsys):
    """At delta 0.25 the 3x3 market's keyword grids are small, but the
    products of their stable vectors pass the cap: poa exits 3 with one
    error line, its traced peak under 150 MB."""
    out = tmp_path / "out"
    tracemalloc.start()
    try:
        code = run("poa", "--scenario", DATA / "scenario_3x3.json", "--grid-delta", "0.25",
                   "--out", out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3 and peak < 150 << 20
    err = capsys.readouterr().err
    assert err.startswith("error: stable keyword vectors make at least ") and err.count("\n") == 1
    assert not out.exists()


def test_revenue_at_a_fine_grid_delta_writes_both_reports(tmp_path, capsys):
    # the spike keyword's value 2048 at delta 0.001: full grids of 2 M bids,
    # which the deviation menus never build
    out = tmp_path / "rev"
    assert run("revenue", "--scenario", BAYES_COUNTEREXAMPLE, "--samples", 10,
               "--grid-delta", "0.001", "--out", out) == 0
    assert capsys.readouterr().out == f"wrote {out / 'revenue.csv'}\nwrote {out / 'reserves.json'}\n"
    assert "truthful_regret=0" in (out / "revenue.csv").read_text()
    assert (out / "reserves.json").is_file()


@pytest.mark.parametrize("key, value", [
    ("query_dist", {"q1": 0.3, "q2": 0.2, "q3": 0.25, "q4": 0.15, "q5": 0.1}),
    ("matching", {"q1": {"s1": 0.5, "s2": 0.5}, "q2": {"s1": 0.5, "s2": 0.5},
                  "q3": {"s2": 0.25, "s3": 0.75}, "q4": {"s3": 1.0}}),
])
def test_revenue_rejects_inconsistent_bayes_scenario(tmp_path, key, value):
    obj = json.loads(Path(BAYES_3X3).read_text())
    obj[key] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    assert run("revenue", "--scenario", bad, "--samples", 10, "--out", tmp_path) == 2


def test_parameter_range_exit_code(tmp_path, capsys):
    assert run("counterexample", "--eps1", "0.5", "--out", tmp_path) == 4
    assert "eps1" in capsys.readouterr().err


@pytest.mark.parametrize("m_exp, message", [
    (40, "finer than float spacing"),      # 2**40 - eps2/2 rounds onto a neighbour
    (2000, "overflows a float"),
])
def test_unrepresentable_m_exp_is_parameter_range(tmp_path, capsys, m_exp, message):
    assert run("counterexample", "--m-exp", m_exp, "--out", tmp_path) == 4
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("m_exp, code", [(35, 0), (32, 1)])
def test_unrepresentable_trend_instance_is_skipped(tmp_path, capsys, m_exp, code):
    """The trend instance eps1 = 0.002 (eps2 = 4e-7) does not fit below
    2**32..2**35 where the main instance (eps2 = 1e-5) does: its row is
    skipped with the reason, and the main instance's checks set the exit
    code (at 2**32 its large reserve misses the spike)."""
    assert run("counterexample", "--m-exp", m_exp, "--out", tmp_path) == code
    out = capsys.readouterr().out
    assert f"trend eps1=0.002 skipped: the spike window of width 4e-07 below 2**{m_exp}" in out
    obj = json.loads((tmp_path / "counterexample.json").read_text())
    assert obj["checks_pass"] is (code == 0)
    assert [row["ratio"] is None for row in obj["trend"]] == [False, False, True]
    assert "finer than float spacing" in obj["trend"][2]["skipped"]


def test_unrepresentable_main_instance_still_exits_4(tmp_path, capsys):
    assert run("counterexample", "--m-exp", 36, "--out", tmp_path) == 4
    assert "width 1e-05 below 2**36" in capsys.readouterr().err
    assert not (tmp_path / "counterexample.json").exists()


@pytest.mark.parametrize("mode", ["enumerate", "dynamics", "single-slot-dominant"])
@pytest.mark.parametrize("epsilon", ["nan", "inf", "-0.5"])
def test_bad_epsilon_is_validation_error(tmp_path, capsys, mode, epsilon):
    code = run("equilibrium", "--scenario", SCENARIO, "--mode", mode,
               "--grid-delta", 1, "--epsilon", epsilon, "--out", tmp_path)
    assert code == 2
    assert "epsilon must be finite and >= 0" in capsys.readouterr().err
    assert not (tmp_path / "equilibrium.json").exists()


def test_poa_rejects_nan_epsilon(tmp_path, capsys):
    assert run("poa", "--scenario", SCENARIO, "--grid-delta", 1,
               "--epsilon", "nan", "--out", tmp_path) == 2
    assert "epsilon must be finite" in capsys.readouterr().err


def test_negative_max_iters_is_validation_error(tmp_path, capsys):
    code = run("equilibrium", "--scenario", SCENARIO, "--mode", "dynamics",
               "--grid-delta", 1, "--max-iters", -5, "--out", tmp_path)
    assert code == 2
    assert "max_iters must be >= 0, got -5" in capsys.readouterr().err


# ------------------------------------------------------------ ratio reports


def test_poa_report_bound_holds(tmp_path):
    code = run("poa", "--scenario", SCENARIO, "--grid-delta", "1.0",
               "--conservative", "--out", tmp_path)
    assert code == 0
    lines = (tmp_path / "poa.csv").read_text().splitlines()
    assert lines[0] == "scenario,metric,empirical,bound,satisfied,notes"
    fields = lines[1].split(",")
    assert fields[0] == "scenario_2x2"
    assert fields[1] == "pure_poa"
    assert fields[4] == "true"


def test_revenue_report_bound_holds(tmp_path):
    code = run("revenue", "--scenario", BAYES, "--samples", 3000,
               "--seed", 3, "--out", tmp_path)
    assert code == 0
    lines = (tmp_path / "revenue.csv").read_text().splitlines()
    fields = lines[1].split(",")
    assert fields[1] == "revenue_fraction"
    assert fields[4] == "true"
    res = json.loads((tmp_path / "reserves.json").read_text())
    # lone uniform [0, 1] bidder: monopoly reserve is 1/2, found empirically
    assert res["reserves"]["s"] == pytest.approx(0.5, abs=0.05)
    assert res["homogeneity"] == 1.0
    assert res["eta"] == 2.0


def test_counterexample_checks_and_trend(tmp_path, capsys):
    code = run("counterexample", "--out", tmp_path)
    assert code == 0
    text = capsys.readouterr().out
    assert "FAIL" not in text
    _, rep = counterexample_scenario(0.01, 1e-5, 11)
    assert text.splitlines()[:6] == [f"ok   {name:34s} {detail}"
                                     for name, _, detail in rep.checks]
    obj = json.loads((tmp_path / "counterexample.json").read_text())
    assert obj["checks_pass"] is True
    ratios = [row["ratio"] for row in obj["trend"]]
    assert ratios == sorted(ratios, reverse=True)
    assert obj["ratio"] < 0.05
