"""Command-line driver: simulation, equilibria, bounds, and corpus sweeps.

Every command reads inputs named by flags (or by a JSON config file;
explicit flags win), writes CSV/JSON reports with stable field ordering
into --out, and is byte-deterministic given the same config and seed.
Exit codes: 0 ok, 2 validation, 3 too-large, 4 parameter-range.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .analysis import (counterexample_scenario, empirical_poa,
                       empirical_revenue_ratio, homogeneity_batch, ratio_csv)
from .equilibrium import (EquilibriumReport, _resolve_epsilon, best_response_dynamics,
                          enumerate_pure_nash,
                          estimate_bne_regret, make_grid,
                          single_slot_dominant_profile,
                          truthful_keyword_strategy, verify_epsilon_nash)
from .errors import BmLabError, ParameterRange, ValidationError
from .expressiveness import (DEFAULT_THETA_GRID, expressiveness_sweep,
                             kl_expressiveness, load_corpus)
from .market import _load_json_obj, scenario_from_json
from .mechanisms import (load_bid_profile, pbm_expected_revenue,
                         pbm_expected_welfare, pbm_simulate)
from .reserves import (bayes_scenario_from_json, induced_keyword_distribution,
                       mhr_bounded_derivative_check, myerson_reserve)

COMMANDS = ("simulate", "equilibrium", "poa", "revenue", "counterexample",
            "expressiveness")
MODES = ("dynamics", "enumerate", "single-slot-dominant")

DEFAULTS = dict(
    scenario=None, bids=None, corpus=None, config=None,
    rounds=10_000, seed=0, grid_delta=0.25, epsilon=None,
    conservative=False, out=".", mode="enumerate", max_iters=50,
    eps1=0.01, eps2=1e-5, m_exp=11, samples=100_000,
    thetas=None, kappas=None,
)


@dataclass(frozen=True)
class RunConfig:
    """Effective settings of one invocation after config-file merging."""
    command: str
    scenario: str | None
    bids: str | None
    corpus: str | None
    rounds: int
    seed: int
    grid_delta: float
    epsilon: float | None
    conservative: bool
    out: str
    mode: str
    max_iters: int
    eps1: float
    eps2: float
    m_exp: int
    samples: int
    thetas: tuple | None
    kappas: tuple | None


def _parse_grid(text, kind):
    if text is None or isinstance(text, (tuple, list)):
        return tuple(text) if text is not None else None
    try:
        return tuple(kind(part) for part in str(text).split(",") if part != "")
    except ValueError as exc:
        raise ValidationError(f"bad grid value list {text!r}: {exc}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bm-lab",
        description="Broad-match auction laboratory: simulate, solve, verify.")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--scenario", help="scenario JSON file")
    parser.add_argument("--bids", help="bid profile JSON file")
    parser.add_argument("--corpus", help="directory with bids.csv/queries.csv")
    parser.add_argument("--config", help="JSON file with flag defaults")
    parser.add_argument("--rounds", type=int)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--grid-delta", type=float)
    parser.add_argument("--epsilon", type=float)
    parser.add_argument("--conservative", action="store_true", default=None)
    parser.add_argument("--out", help="output directory (created if absent)")
    parser.add_argument("--mode", choices=MODES)
    parser.add_argument("--max-iters", type=int)
    parser.add_argument("--eps1", type=float)
    parser.add_argument("--eps2", type=float)
    parser.add_argument("--m-exp", type=int)
    parser.add_argument("--samples", type=int)
    parser.add_argument("--thetas", help="comma-separated theta grid")
    parser.add_argument("--kappas", help="comma-separated kappa grid")
    return parser


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return _is_int(value) or isinstance(value, float)


def _is_grid(element_ok):
    return lambda v: isinstance(v, str) or isinstance(v, list) and all(map(element_ok, v))


# What a config-file value must be: what its flag parses to.  A key whose
# default is None may also be null.
_CONFIG_CHECKS = {
    **dict.fromkeys(("scenario", "bids", "corpus", "config", "out"),
                    (lambda v: isinstance(v, str), "a string")),
    **dict.fromkeys(("rounds", "seed", "max_iters", "m_exp", "samples"),
                    (_is_int, "an integer")),
    **dict.fromkeys(("grid_delta", "epsilon", "eps1", "eps2"), (_is_number, "a number")),
    "conservative": (lambda v: isinstance(v, bool), "true or false"),
    "mode": (lambda v: v in MODES, f"one of {', '.join(MODES)}"),
    "thetas": (_is_grid(_is_number), "a comma-separated string or a list of numbers"),
    "kappas": (_is_grid(_is_int), "a comma-separated string or a list of integers"),
}


def load_config(args: argparse.Namespace) -> RunConfig:
    """Merge defaults < config file < explicit flags."""
    merged = dict(DEFAULTS)
    if args.config is not None:
        file_conf = _load_json_obj(args.config, "config")
        unknown = set(file_conf) - set(DEFAULTS)
        if unknown:
            raise ValidationError(f"unknown config key(s): {sorted(unknown)!r}")
        for key, value in file_conf.items():
            ok, what = _CONFIG_CHECKS[key]
            if not (ok(value) or value is None and DEFAULTS[key] is None):
                raise ValidationError(f"config value {key!r} must be {what}, got {value!r}")
        merged.update(file_conf)
    for key in DEFAULTS:
        flag_val = getattr(args, key, None)
        if flag_val is not None:
            merged[key] = flag_val
    merged.pop("config")
    merged["thetas"] = _parse_grid(merged["thetas"], float)
    merged["kappas"] = _parse_grid(merged["kappas"], int)
    return RunConfig(command=args.command, **merged)


def _outdir(cfg: RunConfig) -> Path:
    d = Path(cfg.out)
    try:
        d.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ValidationError(f"cannot create output directory {d}: {exc}") from exc
    return d


def _write(path: Path, text: str) -> None:
    try:
        path.write_text(text, encoding="utf-8")
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc}") from exc
    print(f"wrote {path}")


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _need(cfg, attr, flag):
    value = getattr(cfg, attr)
    if value is None:
        raise ValidationError(f"{cfg.command} requires {flag}")
    return value


# ---------------------------------------------------------------- simulate

ROUND_HEADER = "round,query,sampled_keyword,slot,advertiser,price,click_weight"


def cmd_simulate(cfg: RunConfig) -> int:
    sc = scenario_from_json(_need(cfg, "scenario", "--scenario"))
    bids = load_bid_profile(_need(cfg, "bids", "--bids"), sc)
    if cfg.rounds < 0:
        raise ValidationError(f"--rounds must be >= 0, got {cfg.rounds}")
    outcomes, welfare_sum, revenue_sum = pbm_simulate(
        sc, bids, cfg.rounds, np.random.default_rng(cfg.seed))
    rows = {}       # (query, keyword) -> its CSV lines after the round number
    lines = [ROUND_HEADER]
    for t, outcome in enumerate(outcomes):
        key = (outcome.query, outcome.sampled_keyword)
        if key not in rows:
            rows[key] = [f",{outcome.query},{outcome.sampled_keyword},{slot},{adv},"
                         f"{price:.9g},{w:.9g}"
                         for slot, adv, price, w in outcome.assignments]
        lines.extend(f"{t}{row}" for row in rows[key])
    exact_welfare = pbm_expected_welfare(sc, bids)
    exact_revenue = pbm_expected_revenue(sc, bids)
    summary = {
        "rounds": cfg.rounds,
        "seed": cfg.seed,
        "exact_welfare": exact_welfare,
        "exact_revenue": exact_revenue,
        "empirical_welfare": welfare_sum / cfg.rounds if cfg.rounds else None,
        "empirical_revenue": revenue_sum / cfg.rounds if cfg.rounds else None,
    }
    out = _outdir(cfg)
    _write(out / "rounds.csv", "\n".join(lines) + "\n")
    _write(out / "summary.json", _json_text(summary))
    return 0


# -------------------------------------------------------------- equilibrium


def _report_obj(report) -> dict:
    return {
        "profile": {i: dict(row) for i, row in report.profile.items()},
        "regrets": dict(report.regrets),
        "welfare": report.welfare,
    }


def cmd_equilibrium(cfg: RunConfig) -> int:
    sc = scenario_from_json(_need(cfg, "scenario", "--scenario"))
    grid = make_grid(sc, cfg.grid_delta)
    eps = _resolve_epsilon(sc, cfg.epsilon)
    obj = {"mode": cfg.mode, "grid_delta": cfg.grid_delta, "epsilon": eps,
           "conservative": cfg.conservative}
    if cfg.mode == "dynamics":
        initial = load_bid_profile(cfg.bids, sc) if cfg.bids is not None else {}
        report = best_response_dynamics(sc, initial, grid, epsilon=eps,
                                        max_iters=cfg.max_iters,
                                        conservative=cfg.conservative)
        obj.update(_report_obj(report))
        obj["converged"] = report.converged
        obj["iterations"] = report.iterations
    elif cfg.mode == "enumerate":
        reports = enumerate_pure_nash(sc, grid, epsilon=eps,
                                      conservative=cfg.conservative)
        obj["count"] = len(reports)
        obj["equilibria"] = [_report_obj(r) for r in reports]
        if reports:
            worst = min(reports, key=lambda r: r.welfare)
            obj["worst"] = _report_obj(worst)
        else:
            obj["worst"] = None
    else:  # single-slot-dominant
        profile = single_slot_dominant_profile(sc)
        regrets = verify_epsilon_nash(sc, profile, grid,
                                      conservative=cfg.conservative)
        obj.update(_report_obj(EquilibriumReport(
            profile, regrets, True, 0, eps, pbm_expected_welfare(sc, profile))))
    _write(_outdir(cfg) / "equilibrium.json", _json_text(obj))
    return 0


# --------------------------------------------------------------------- poa


def cmd_poa(cfg: RunConfig) -> int:
    path = _need(cfg, "scenario", "--scenario")
    sc = scenario_from_json(path)
    grid = make_grid(sc, cfg.grid_delta)
    reports = enumerate_pure_nash(sc, grid, epsilon=cfg.epsilon,
                                  conservative=cfg.conservative)
    rep = empirical_poa(sc, reports, grid=grid, label=Path(path).stem)
    _write(_outdir(cfg) / "poa.csv", ratio_csv([rep]))
    return 0


# ------------------------------------------------------------------ revenue


def _bayes_eta(bayes) -> float:
    eta = 1.0
    for i in bayes.advertisers:
        for dist in bayes.value_dists[i].values():
            if not dist.has_density:
                continue
            cap = dist.exact_virtual_slope_cap()
            if cap is None:
                cap = mhr_bounded_derivative_check(dist, resolution=2000).eta
            eta = max(eta, cap)
    return eta


def _realized_homogeneity(bayes, rng, draws=1000) -> float:
    return float(homogeneity_batch(bayes, bayes.sample_values(rng, draws)).max(initial=1.0))


def cmd_revenue(cfg: RunConfig) -> int:
    path = _need(cfg, "scenario", "--scenario")
    bayes = bayes_scenario_from_json(path)
    rng = np.random.default_rng(cfg.seed)
    reserves = {}
    for s in bayes.graph.keywords:
        induced = induced_keyword_distribution(bayes, s,
                                               n_samples=min(cfg.samples, 20_000),
                                               rng=rng)
        reserves[s] = myerson_reserve(induced)
    strategy = truthful_keyword_strategy(bayes)
    regrets = estimate_bne_regret(bayes, strategy, n_types=32,
                                  deviation_delta=cfg.grid_delta, rng=rng,
                                  n_opponent_draws=16)
    max_regret = max(est.mean for est in regrets.values())
    c = _realized_homogeneity(bayes, rng)
    beta = kl_expressiveness(bayes)
    eta = _bayes_eta(bayes)
    rep = empirical_revenue_ratio(bayes, strategy, reserves, c=c, beta=beta,
                                  eta=eta, n_samples=cfg.samples, rng=rng,
                                  label=Path(path).stem)
    rep = dataclasses.replace(
        rep, notes=rep.notes + f"; truthful_regret={max_regret:.6g}")
    out = _outdir(cfg)
    _write(out / "revenue.csv", ratio_csv([rep]))
    reserve_obj = {
        "reserves": {s: reserves[s] for s in sorted(reserves)},
        "homogeneity": c, "beta": beta, "eta": eta, "seed": cfg.seed,
    }
    _write(out / "reserves.json", _json_text(reserve_obj))
    return 0


# ------------------------------------------------------------ counterexample

TREND_EPS1 = (0.05, 0.01, 0.002)


def cmd_counterexample(cfg: RunConfig) -> int:
    _, rep = counterexample_scenario(cfg.eps1, cfg.eps2, cfg.m_exp)
    hi = 2.0 ** rep.m_exp
    checks = [
        ("homogeneity c <= 2", rep.c <= 2.0 + 1e-9, f"c = {rep.c:.6g}"),
        ("phi_small(eps1) > 0", rep.phi_small_at_eps > 0.0,
         f"phi = {rep.phi_small_at_eps:.6g}"),
        ("phi_large(2^m - eps2) < 0", rep.phi_large_below < 0.0,
         f"phi = {rep.phi_large_below:.6g}"),
        ("phi_large(2^m - eps2/2) > 0", rep.phi_large_above > 0.0,
         f"phi = {rep.phi_large_above:.6g}"),
        ("small reserve below eps1", rep.reserve_small < rep.eps1,
         f"r = {rep.reserve_small:.6g}"),
        ("large reserve inside spike", hi - rep.eps2 < rep.reserve_large < hi - rep.eps2 / 2,
         f"r = {rep.reserve_large:.9g}"),
    ]
    for name, ok, detail in checks:
        print(f"{'ok  ' if ok else 'FAIL'} {name:34s} {detail}")
    print(f"revenue/optimal ratio = {rep.ratio:.6g}")
    trend = []
    for eps1 in TREND_EPS1:
        eps2 = eps1 ** 2 / 10.0
        # the trend's narrower spikes may not fit below 2**m_exp where the
        # main instance's does: such a row is reported, not fatal
        try:
            _, t = counterexample_scenario(eps1, eps2, cfg.m_exp)
        except ParameterRange as exc:
            trend.append({"eps1": eps1, "eps2": eps2, "ratio": None, "skipped": str(exc)})
            print(f"trend eps1={eps1:g} skipped: {exc}")
            continue
        trend.append({"eps1": eps1, "eps2": eps2, "ratio": t.ratio})
        print(f"trend eps1={eps1:g} ratio={t.ratio:.6g}")
    obj = {
        "eps1": rep.eps1, "eps2": rep.eps2, "m_exp": rep.m_exp,
        "c": rep.c, "reserve_small": rep.reserve_small,
        "reserve_large": rep.reserve_large,
        "phi_small_at_eps": rep.phi_small_at_eps,
        "phi_large_below": rep.phi_large_below,
        "phi_large_above": rep.phi_large_above,
        "revenue": rep.revenue, "optimal": rep.optimal, "ratio": rep.ratio,
        "checks_pass": rep.checks_pass,
        "trend": trend,
    }
    _write(_outdir(cfg) / "counterexample.json", _json_text(obj))
    return 0 if rep.checks_pass else 1


# ------------------------------------------------------------ expressiveness


def cmd_expressiveness(cfg: RunConfig) -> int:
    corpus = load_corpus(_need(cfg, "corpus", "--corpus"))
    thetas = cfg.thetas if cfg.thetas is not None else DEFAULT_THETA_GRID
    table = expressiveness_sweep(corpus, thetas=thetas, kappas=cfg.kappas)
    out = _outdir(cfg)
    _write(out / "expressiveness.csv", table.to_csv())
    _write(out / "degree_bound.csv", table.degree_bound_csv())
    print(f"beta > alpha/3 in {table.beta_exceeds_third_alpha():.1%} "
          f"of cells (descriptive)")
    skipped = table.skipped + table.degree_skipped
    if skipped:
        print(f"skipped {len(skipped)} market(s): "
              + "; ".join(f"{t}: {r}" for t, r in skipped))
    return 0


# --------------------------------------------------------------------- main

_DISPATCH = {
    "simulate": cmd_simulate,
    "equilibrium": cmd_equilibrium,
    "poa": cmd_poa,
    "revenue": cmd_revenue,
    "counterexample": cmd_counterexample,
    "expressiveness": cmd_expressiveness,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args)
        return _DISPATCH[cfg.command](cfg)
    except BmLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
