"""Spans for the traced run: a recorder, the wrappers that time calls
into bmlab's public functions from outside, and the aggregation of the
recorded spans into per-layer metrics.

The wrappers are installed on every bmlab module namespace that holds
the wrapped function (so `bmlab.equilibrium.keyword_value` is timed as
well as `bmlab.market.keyword_value`) and on the classes that define the
wrapped methods.  Nothing under src/ is changed.  A span is (name, start,
end, parent, amount); `amount` is the work the call did in its natural
unit (values drawn, grid rows built).  A span's self time is its duration
minus the time its child spans cover.
"""
from __future__ import annotations

import functools
import sys
import time

import numpy as np

clock = time.monotonic   # CLOCK_MONOTONIC: comparable across processes


class Recorder:
    """Spans kept in parallel lists until the run ends."""

    def __init__(self):
        self.names, self.start, self.end, self.parent, self.amount = [], [], [], [], []
        self._stack = []
        self.similarity_pairs = set()

    def open(self, name) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.amount.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(clock())
        return idx

    def close(self, idx, amount=0.0) -> None:
        self.end[idx] = clock()
        self.amount[idx] = amount
        self._stack.pop()

    def save(self, path) -> None:
        table = sorted(set(self.names))
        code = {n: k for k, n in enumerate(table)}
        np.savez(path, table=np.array(table),
                 name=np.array([code[n] for n in self.names], dtype=np.int32),
                 start=np.array(self.start), end=np.array(self.end),
                 parent=np.array(self.parent, dtype=np.int64),
                 amount=np.array(self.amount))


def _size(args, kwargs, _result):
    return float(kwargs.get("size", args[2] if len(args) > 2 else 1))


def _quantile_size(args, kwargs, _result):
    return float(np.size(kwargs.get("u", args[1])))


def _len_result(_args, _kwargs, result):
    return float(len(result))


def _rows(_args, _kwargs, result):
    return float(result[1].shape[0])


def _samples(_args, _kwargs, result):
    return float(result.n_samples)


# (module, attribute, span name, amount)  -- attribute may be Class.method
TARGETS = (
    ("bmlab.market", "scenario_from_json", "market.scenario_from_json", None),
    ("bmlab.reserves", "bayes_scenario_from_json", "reserves.bayes_scenario_from_json", None),
    ("bmlab.market", "BipartiteGraph.__init__", "market.graph_build", None),
    ("bmlab.market", "keyword_value", "market.keyword_value", None),
    ("bmlab.market", "keyword_mass", "market.keyword_mass", None),
    ("bmlab.market", "optimal_welfare", "market.optimal_welfare", None),
    ("bmlab.market", "BayesScenario.sample_valuations", "market.sample_valuations", None),
    ("bmlab.market", "BayesScenario.to_scenario", "market.to_scenario", None),
    ("bmlab.mechanisms", "load_bid_profile", "mechanisms.load_bid_profile", None),
    ("bmlab.mechanisms", "gsp_rank", "mechanisms.gsp_rank", None),
    ("bmlab.mechanisms", "pbm_run_round", "mechanisms.pbm_run_round", None),
    ("bmlab.mechanisms", "pbm_expected_welfare", "mechanisms.pbm_expected_welfare", None),
    ("bmlab.mechanisms", "pbm_expected_revenue", "mechanisms.pbm_expected_revenue", None),
    ("bmlab.equilibrium", "make_grid", "equilibrium.make_grid", None),
    ("bmlab.equilibrium", "strategy_rows", "equilibrium.strategy_rows", _rows),
    ("bmlab.equilibrium", "enumerate_pure_nash", "equilibrium.enumerate_pure_nash",
     _len_result),
    ("bmlab.equilibrium", "best_response", "equilibrium.best_response", None),
    ("bmlab.equilibrium", "verify_epsilon_nash", "equilibrium.verify_epsilon_nash", None),
    ("bmlab.equilibrium", "best_response_dynamics", "equilibrium.best_response_dynamics",
     None),
    ("bmlab.equilibrium", "estimate_bne_regret", "equilibrium.estimate_bne_regret", None),
    ("bmlab.reserves", "ValueDistribution.sample", "reserves.sample", _size),
    ("bmlab.reserves", "Empirical.sample", "reserves.sample", _size),
    ("bmlab.reserves", "Uniform.quantile", "reserves.quantile", _quantile_size),
    ("bmlab.reserves", "Exponential.quantile", "reserves.quantile", _quantile_size),
    ("bmlab.reserves", "TruncatedExponential.quantile", "reserves.quantile", _quantile_size),
    ("bmlab.reserves", "PiecewiseDensity.quantile", "reserves.quantile", _quantile_size),
    ("bmlab.reserves", "induced_keyword_distribution", "reserves.induced", None),
    ("bmlab.reserves", "myerson_reserve", "reserves.myerson", None),
    ("bmlab.reserves", "mhr_bounded_derivative_check", "reserves.mhr_check", None),
    ("bmlab.analysis", "homogeneity", "analysis.homogeneity", None),
    ("bmlab.analysis", "revenue_welfare_stats", "analysis.revenue_welfare_stats", _samples),
    ("bmlab.analysis", "empirical_poa", "analysis.empirical_poa", None),
    ("bmlab.analysis", "counterexample_scenario", "analysis.counterexample", None),
    ("bmlab.expressiveness", "load_corpus", "expressiveness.load_corpus", None),
    ("bmlab.expressiveness", "similarity", "expressiveness.similarity", None),
    ("bmlab.expressiveness", "levenshtein", "expressiveness.levenshtein", None),
    ("bmlab.expressiveness", "extract_micro_markets", "expressiveness.extract",
     _len_result),
    ("bmlab.expressiveness", "advertiser_alpha", "expressiveness.alpha", None),
    ("bmlab.expressiveness", "degree_bound_check", "expressiveness.degree_bound", None),
    ("bmlab.expressiveness", "expressiveness_sweep", "expressiveness.sweep", None),
)


def _wrap(rec, span_name, fn, amount):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = rec.open(span_name)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            rec.close(idx)
            raise
        rec.close(idx, amount(args, kwargs, result) if amount else 0.0)
        return result
    return wrapper


def _wrap_similarity(rec, fn):
    plain = _wrap(rec, "expressiveness.similarity", fn, None)

    @functools.wraps(fn)
    def wrapper(q, s):
        rec.similarity_pairs.add((q, s))
        return plain(q, s)
    return wrapper


def install(rec: Recorder) -> None:
    """Wrap every target on every loaded bmlab module that holds it."""
    modules = [m for name, m in sys.modules.items()
               if name == "bmlab" or name.startswith("bmlab.")]
    for mod_name, attr, span_name, amount in TARGETS:
        home = sys.modules[mod_name]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(home, cls_name)
            setattr(cls, meth, _wrap(rec, span_name, cls.__dict__[meth], amount))
            continue
        original = getattr(home, attr)
        wrapped = (_wrap_similarity(rec, original) if attr == "similarity"
                   else _wrap(rec, span_name, original, amount))
        for m in modules:
            if getattr(m, attr, None) is original:
                setattr(m, attr, wrapped)


# ----------------------------------------------------------- aggregation


class Spans:
    """Recorded spans loaded back for aggregation."""

    def __init__(self, path):
        with np.load(path) as z:
            table = [str(t) for t in z["table"]]
            self.names = [table[k] for k in z["name"]]
            self.start, self.end = z["start"], z["end"]
            self.parent, self.amount = z["parent"], z["amount"]
        self.dur = self.end - self.start
        covered = np.zeros(len(self.names))
        has_parent = self.parent >= 0
        np.add.at(covered, self.parent[has_parent], self.dur[has_parent])
        self.self_time = self.dur - covered
        self._by_name = {}
        for k, n in enumerate(self.names):
            self._by_name.setdefault(n, []).append(k)

    def idx(self, name):
        return self._by_name.get(name, [])

    def calls(self, name) -> int:
        return len(self.idx(name))

    def total(self, name) -> float:
        """Time inside calls of `name`, not counting a call nested in
        another call of the same name twice."""
        return float(sum(self.dur[k] for k in self.idx(name)
                         if not self.inside(k, name)))

    def work(self, name, within=None) -> float:
        return float(sum(self.amount[k] for k in self.idx(name)
                         if within is None or self.inside(k, within)))

    def count_within(self, name, within) -> int:
        return sum(1 for k in self.idx(name) if self.inside(k, within))

    def inside(self, k, ancestor) -> bool:
        """Whether span k runs inside a call of `ancestor`."""
        p = self.parent[k]
        while p >= 0:
            if self.names[p] == ancestor:
                return True
            p = self.parent[p]
        return False

    def layer_self(self, layer) -> float:
        prefix = layer + "."
        return float(sum(self.self_time[k] for k, n in enumerate(self.names)
                         if n.startswith(prefix)))

    def top_level_after(self, t0) -> float:
        return float(sum(self.dur[k] for k in range(len(self.names))
                         if self.parent[k] < 0 and self.start[k] >= t0))
