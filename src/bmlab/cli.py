"""Command-line driver: simulation, equilibria, bounds, and corpus sweeps.

Every command reads inputs named by flags (or by a JSON config file;
explicit flags win), writes CSV/JSON reports with stable field ordering
into --out, and is byte-deterministic given the same config and seed.
Exit codes: 0 ok, 1 a counterexample check failed (its report is
still written), 2 validation, 3 too-large, 4 parameter-range.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import itertools
import json
import sys
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


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return _is_int(value) or isinstance(value, float)


def _grid(element_ok, elements):
    return (lambda v: isinstance(v, str) or isinstance(v, list) and all(map(element_ok, v)),
            f"a comma-separated string or a list of {elements}", {})


# A flag's kind: what a config-file value must be, and the argparse
# keywords that make the flag parse to the same.
_STRING = (lambda v: isinstance(v, str), "a string", {})
_INT = (_is_int, "an integer", {"type": int})
_NUMBER = (_is_number, "a number", {"type": float})
_BOOL = (lambda v: isinstance(v, bool), "true or false", {"action": "store_true"})
_MODE = (lambda v: v in MODES, f"one of {', '.join(MODES)}", {"choices": MODES})

# The one declaration of every flag: {name: (default, kind, help)}.  The
# parser, the merged defaults, the config-file checks and RunConfig are
# derived from it; a config-file key is the flag's name, and a key whose
# default is None may also be null.
FLAGS = {
    "scenario": (None, _STRING, "scenario JSON file"),
    "bids": (None, _STRING, "bid profile JSON file"),
    "corpus": (None, _STRING, "directory with bids.csv/queries.csv"),
    "config": (None, _STRING, "JSON file with flag defaults"),
    "rounds": (10_000, _INT, None),
    "seed": (0, _INT, None),
    "grid_delta": (0.25, _NUMBER, None),
    "epsilon": (None, _NUMBER, None),
    "conservative": (False, _BOOL, None),
    "out": (".", _STRING, "output directory (created if absent)"),
    "mode": ("enumerate", _MODE, None),
    "max_iters": (50, _INT, None),
    "eps1": (0.01, _NUMBER, None),
    "eps2": (1e-5, _NUMBER, None),
    "m_exp": (11, _INT, None),
    "samples": (100_000, _INT, None),
    "thetas": (None, _grid(_is_number, "numbers"), "comma-separated theta grid"),
    "kappas": (None, _grid(_is_int, "integers"), "comma-separated kappa grid"),
}
DEFAULTS = {name: default for name, (default, _, _) in FLAGS.items()}

RunConfig = dataclasses.make_dataclass(
    "RunConfig", ["command", *(name for name in FLAGS if name != "config")],
    frozen=True, namespace={
        "__doc__": "Effective settings of one invocation after config-file merging.",
        "__module__": __name__})


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
    for name, (_, (_, _, keywords), help_text) in FLAGS.items():
        parser.add_argument("--" + name.replace("_", "-"), default=None, help=help_text,
                            **keywords)
    return parser


def load_config(args: argparse.Namespace) -> RunConfig:
    """Merge defaults < config file < explicit flags."""
    merged = dict(DEFAULTS)
    if args.config is not None:
        file_conf = _load_json_obj(args.config, "config")
        unknown = set(file_conf) - set(DEFAULTS)
        if unknown:
            raise ValidationError(f"unknown config key(s): {sorted(unknown)!r}")
        for key, value in file_conf.items():
            ok, what, _ = FLAGS[key][1]
            if not (ok(value) or value is None and DEFAULTS[key] is None):
                raise ValidationError(f"config value {key!r} must be {what}, got {value!r}")
        merged.update(file_conf)
    for key in DEFAULTS:
        flag_val = getattr(args, key, None)
        if flag_val is not None:
            merged[key] = flag_val
    merged.pop("config")
    if merged["seed"] < 0:
        raise ValidationError(f"seed must be >= 0, got {merged['seed']}")
    merged["thetas"] = _parse_grid(merged["thetas"], float)
    merged["kappas"] = _parse_grid(merged["kappas"], int)
    return RunConfig(command=args.command, **merged)


@contextlib.contextmanager
def _outdir(cfg: RunConfig):
    """The --out directory, created before any computation so that a bad
    one exits 2 at once.  The directories the run created on the way are
    removed again, deepest first, while they are empty: a run that wrote
    no report leaves none behind, and a directory that existed before the
    run is never touched."""
    d = Path(cfg.out)
    created = list(itertools.takewhile(lambda p: not p.exists(), (d, *d.parents)))
    try:
        try:
            d.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ValidationError(f"cannot create output directory {d}: {exc}") from exc
        yield d
    finally:
        for p in created:
            try:
                p.rmdir()
            except OSError:         # not empty, or never made
                break


def _write_reports(*reports) -> None:
    """Write each report, a (path, strings) pair, in turn with the strings
    of its lines, then print the `wrote` lines.  An OSError exits 2 and
    removes every report written so far, a partial one too, so that a run
    leaves all its reports or none and _outdir can remove the directories
    the run created."""
    written = []
    try:
        for path, lines in reports:
            with path.open("w", encoding="utf-8") as fh:
                written.append(path)
                fh.writelines(lines)
    except OSError as exc:
        for done in written:
            with contextlib.suppress(OSError):
                done.unlink()
        raise ValidationError(f"cannot write {path}: {exc}") from exc
    for path, _ in reports:
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
_REPORT_BLOCK = 1024     # most rounds or equilibria in one string a report yields


def cmd_simulate(cfg: RunConfig, out: Path) -> int:
    sc = scenario_from_json(_need(cfg, "scenario", "--scenario"))
    bids = load_bid_profile(_need(cfg, "bids", "--bids"), sc)
    if cfg.rounds < 0:
        raise ValidationError(f"--rounds must be >= 0, got {cfg.rounds}")
    outcomes, welfare_sum, revenue_sum = pbm_simulate(
        sc, bids, cfg.rounds, np.random.default_rng(cfg.seed))
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
    _write_reports((out / "rounds.csv", _round_lines(outcomes)),
                   (out / "summary.json", [_json_text(summary)]))
    return 0


def _round_lines(outcomes):
    """rounds.csv: the header, then a string per _REPORT_BLOCK rounds.  Each
    (query, keyword) pair's lines after the round number are formatted
    once; round t writes n + n.join(them), n = str(t), if it has any."""
    yield ROUND_HEADER + "\n"
    rows, block = {}, []    # (query, keyword) -> its CSV lines after the round number
    for t, outcome in enumerate(outcomes):
        key = (outcome.query, outcome.sampled_keyword)
        if (lines := rows.get(key)) is None:
            lines = rows[key] = [f",{outcome.query},{outcome.sampled_keyword},{slot},{adv},"
                                 f"{price:.9g},{w:.9g}\n"
                                 for slot, adv, price, w in outcome.assignments]
        if lines:
            n = str(t)
            block.append(n + n.join(lines))
        if t % _REPORT_BLOCK == _REPORT_BLOCK - 1:
            yield "".join(block)
            block = []
    yield "".join(block)


# -------------------------------------------------------------- equilibrium


def _report_obj(report) -> dict:
    return {
        "profile": {i: dict(row) for i, row in report.profile.items()},
        "regrets": dict(report.regrets),
        "welfare": report.welfare,
    }


def _object_text(items, pad) -> str:
    """A JSON object from its (key text, value text) items, as
    json.dumps(indent=2) writes it with its closing brace at indent pad."""
    if not items:
        return "{}"
    return "{" + ",".join(f"\n{pad}  {k}: {v}" for k, v in items) + f"\n{pad}}}"


def _enumerate_lines(obj, eq):
    """equilibrium.json of --mode enumerate: obj with the count, the
    equilibria of eq (enumerate_pure_nash's result) and the worst one
    (the first of least welfare) added, as _json_text of their
    _report_obj dicts would write it, in a string per _REPORT_BLOCK
    equilibria formatted from the arrays.  The equilibria of a block are
    grouped by which bids are positive (a row without one is {}); each
    group shares a %-template with the keys, advertisers and keywords
    sorted by name and encoded once by json, and its numbers, the
    positive bids, regrets and welfare, come from one json.dumps of their
    .tolist(): json's own float form."""
    advs = sorted(range(len(eq.advertisers)), key=eq.advertisers.__getitem__)
    kws = sorted(range(len(eq.keywords)), key=eq.keywords.__getitem__)
    adv_keys = [json.dumps(eq.advertisers[a]).replace("%", "%%") for a in advs]
    kw_keys = [json.dumps(eq.keywords[k]).replace("%", "%%") for k in kws]
    templates = {}      # (positive mask, pad) -> the equilibrium's %-template

    def template(mask, pad):
        inner = pad + "    "
        profile = [(key, _object_text([(kw_keys[k], "%s") for k in np.flatnonzero(row)], inner))
                   for key, row in zip(adv_keys, mask.reshape(len(advs), len(kws)))]
        return _object_text([('"profile"', _object_text(profile, pad + "  ")),
                             ('"regrets"', _object_text([(key, "%s") for key in adv_keys],
                                                        pad + "  ")),
                             ('"welfare"', "%s")], pad)

    def texts(at, pad):
        bids = eq.bids[at][:, advs][:, :, kws].reshape(len(at), -1)
        tail = np.column_stack((eq.regrets[:, at][advs].T, eq.welfare[at]))
        masks, which, counts = np.unique(bids > 0.0, axis=0, return_inverse=True,
                                         return_counts=True)
        groups = np.split(np.argsort(which.reshape(-1), kind="stable"), np.cumsum(counts)[:-1])
        out = np.empty(len(at), dtype=object)
        for mask, rows in zip(masks, groups):
            if (tmpl := templates.get((mask.tobytes(), pad))) is None:
                tmpl = templates[mask.tobytes(), pad] = template(mask, pad)
            vals = np.column_stack((bids[rows][:, mask], tail[rows]))
            nums = json.dumps(vals.ravel().tolist())[1:-1].split(", ")
            out[rows] = [tmpl % t for t in zip(*[iter(nums)] * vals.shape[1])]
        return out.tolist()

    text = _json_text({**obj, "count": len(eq), "equilibria": None, "worst": None})
    head, _, rest = text.partition('"equilibria": null')
    middle, _, end = rest.partition('"worst": null')
    yield head + '"equilibria": ' + ("[" if len(eq) else "[]")
    for lo in range(0, len(eq), _REPORT_BLOCK):
        at = np.arange(lo, min(lo + _REPORT_BLOCK, len(eq)))
        yield ("," if lo else "") + ",".join("\n    " + t for t in texts(at, "    "))
    worst = texts(np.argmin(eq.welfare, keepdims=True), "  ")[0] if len(eq) else "null"
    yield ("\n  ]" if len(eq) else "") + middle + '"worst": ' + worst + end


def cmd_equilibrium(cfg: RunConfig, out: Path) -> int:
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
        equilibria = enumerate_pure_nash(sc, grid, epsilon=eps,
                                         conservative=cfg.conservative)
        _write_reports((out / "equilibrium.json", _enumerate_lines(obj, equilibria)))
        return 0
    else:  # single-slot-dominant
        profile = single_slot_dominant_profile(sc)
        regrets = verify_epsilon_nash(sc, profile, grid,
                                      conservative=cfg.conservative)
        obj.update(_report_obj(EquilibriumReport(
            profile, regrets, True, 0, eps, pbm_expected_welfare(sc, profile))))
    _write_reports((out / "equilibrium.json", [_json_text(obj)]))
    return 0


# --------------------------------------------------------------------- poa


def cmd_poa(cfg: RunConfig, out: Path) -> int:
    path = _need(cfg, "scenario", "--scenario")
    sc = scenario_from_json(path)
    grid = make_grid(sc, cfg.grid_delta)
    equilibria = enumerate_pure_nash(sc, grid, epsilon=cfg.epsilon,
                                     conservative=cfg.conservative)
    rep = empirical_poa(sc, equilibria, grid=grid, label=Path(path).stem)
    _write_reports((out / "poa.csv", [ratio_csv([rep])]))
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


# valuation profiles drawn for the realized homogeneity c of the revenue check
_HOMOGENEITY_DRAWS = 1000


def _realized_homogeneity(bayes, rng) -> float:
    return float(homogeneity_batch(bayes, bayes.sample_values(rng, _HOMOGENEITY_DRAWS))
                 .max(initial=1.0))


def cmd_revenue(cfg: RunConfig, out: Path) -> int:
    path = _need(cfg, "scenario", "--scenario")
    if cfg.samples < 2:     # a standard error needs two samples
        raise ValidationError(f"--samples must be >= 2, got {cfg.samples}")
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
    reserve_obj = {
        "reserves": {s: reserves[s] for s in sorted(reserves)},
        "homogeneity": c, "beta": beta, "eta": eta, "seed": cfg.seed,
    }
    _write_reports((out / "revenue.csv", [ratio_csv([rep])]),
                   (out / "reserves.json", [_json_text(reserve_obj)]))
    return 0


# ------------------------------------------------------------ counterexample

TREND_EPS1 = (0.05, 0.01, 0.002)


def cmd_counterexample(cfg: RunConfig, out: Path) -> int:
    _, rep = counterexample_scenario(cfg.eps1, cfg.eps2, cfg.m_exp)
    for name, ok, detail in rep.checks:
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
    _write_reports((out / "counterexample.json", [_json_text(obj)]))
    return 0 if rep.checks_pass else 1


# ------------------------------------------------------------ expressiveness


def cmd_expressiveness(cfg: RunConfig, out: Path) -> int:
    corpus = load_corpus(_need(cfg, "corpus", "--corpus"))
    thetas = cfg.thetas if cfg.thetas is not None else DEFAULT_THETA_GRID
    table = expressiveness_sweep(corpus, thetas=thetas, kappas=cfg.kappas)
    _write_reports((out / "expressiveness.csv", [table.to_csv()]),
                   (out / "degree_bound.csv", [table.degree_bound_csv()]))
    print(f"beta > alpha/3 in {table.beta_exceeds_third_alpha():.1%} "
          f"of cells (descriptive)")
    skipped = {}        # market term -> the reason it was first skipped for
    for term, reason in table.skipped + table.degree_skipped:
        skipped.setdefault(term, reason)
    if skipped:
        print(f"skipped {len(skipped)} market(s): "
              + "; ".join(f"{t}: {r}" for t, r in skipped.items()))
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
        with _outdir(cfg) as out:
            return _DISPATCH[cfg.command](cfg, out)
    except BmLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
