"""Market structure: the query-keyword graph, traffic and matching
distributions, slot weights, advertiser valuations, and the scenario
bundle that the mechanisms operate on.

All probability masses are validated to within PROB_TOL; ids are opaque
strings interned to dense indices in input order (advertisers are kept
sorted so index order agrees with the lexicographic tie-break used by
the auctions).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from .errors import (
    EmptyNeighborhood,
    MassNotOne,
    NonMonotoneWeights,
    NoPositiveAdvertiser,
    SupportMismatch,
    ValidationError,
)

PROB_TOL = 1e-12


class BipartiteGraph:
    """Query-keyword bipartite graph with neighborhood lookups.

    With strict=True (the default) every vertex must touch at least one
    edge.  Corpus-derived subgraphs relax this with strict=False.
    """

    def __init__(self, queries, keywords, edges, strict=True):
        self.queries = tuple(dict.fromkeys(queries))
        self.keywords = tuple(dict.fromkeys(keywords))
        q_rank = {q: i for i, q in enumerate(self.queries)}
        s_rank = {s: j for j, s in enumerate(self.keywords)}
        both = q_rank.keys() & s_rank.keys()
        if strict and both:
            # auction scenarios key lookups by name across both sides;
            # corpus graphs legitimately repeat a string as query and keyword
            raise ValidationError(f"ids used on both sides: {sorted(both)!r}")
        seen = set()
        q_nbrs = {q: [] for q in self.queries}
        s_nbrs = {s: [] for s in self.keywords}
        for q, s in edges:
            if q not in q_rank:
                raise ValidationError(f"edge endpoint {q!r} is not a declared query")
            if s not in s_rank:
                raise ValidationError(f"edge endpoint {s!r} is not a declared keyword")
            if (q, s) not in seen:
                seen.add((q, s))
                q_nbrs[q].append(s)
                s_nbrs[s].append(q)
        self.edges = frozenset(seen)
        # neighbors in declared order: lookups, goldens and RNG draws rely on it
        self._q_nbrs = {q: tuple(sorted(v, key=s_rank.__getitem__))
                        for q, v in q_nbrs.items()}
        self._s_nbrs = {s: tuple(sorted(v, key=q_rank.__getitem__))
                        for s, v in s_nbrs.items()}
        if strict:
            for q in self.queries:
                if not self._q_nbrs[q]:
                    raise EmptyNeighborhood(q)
            for s in self.keywords:
                if not self._s_nbrs[s]:
                    raise EmptyNeighborhood(s)

    def query_neighbors(self, q):
        return self._q_nbrs[q]

    def keyword_neighbors(self, s):
        return self._s_nbrs[s]

    def keywords_meeting(self, queries):
        """Keywords whose neighborhood meets the query set, in declared order."""
        queries = frozenset(queries)
        return tuple(s for s in self.keywords if not queries.isdisjoint(self._s_nbrs[s]))

    def max_degree(self):
        degs = [len(v) for v in self._q_nbrs.values()]
        degs += [len(v) for v in self._s_nbrs.values()]
        return max(degs) if degs else 0


class QueryDistribution:
    """Strictly positive probability masses over queries, summing to 1."""

    def __init__(self, weights: Mapping[str, float]):
        self._mass = {q: float(m) for q, m in weights.items()}
        for q, m in self._mass.items():
            if not m > 0.0:
                raise ValidationError(f"query {q!r} has non-positive mass {m!r}")
        total = math.fsum(self._mass.values())
        if abs(total - 1.0) > PROB_TOL:
            raise MassNotOne("query distribution", total)

    def mass(self, q):
        return self._mass[q]

    @property
    def queries(self):
        return tuple(self._mass)

    def items(self):
        return self._mass.items()


class MatchingPolicy:
    """Per-query keyword-sampling distributions pi_q over N(q)."""

    def __init__(self, table: Mapping[str, Mapping[str, float]]):
        self._table = {q: {s: float(m) for s, m in row.items()} for q, row in table.items()}
        for q, row in self._table.items():
            for s, m in row.items():
                if not m > 0.0:
                    raise ValidationError(f"matching mass for ({q!r}, {s!r}) is non-positive")
            total = math.fsum(row.values())
            if abs(total - 1.0) > PROB_TOL:
                raise MassNotOne(f"matching of query {q!r}", total)

    def mass(self, q, s):
        return self._table[q].get(s, 0.0)

    def support(self, q):
        return tuple(self._table[q])

    @property
    def queries(self):
        return tuple(self._table)


class SlotWeights:
    """Nonincreasing click probabilities per slot; positions past the
    end of the vector carry weight 0."""

    def __init__(self, w: Sequence[float]):
        vec = tuple(float(x) for x in w)
        if not vec:
            raise ValidationError("slot weights must be non-empty")
        for k, x in enumerate(vec):
            if not (0.0 <= x <= 1.0):
                raise ValidationError(f"slot weight at position {k + 1} is outside [0, 1]")
            if k and x > vec[k - 1]:
                raise NonMonotoneWeights(k + 1)
        self._w = vec

    def weight(self, k):
        """Click probability of 0-indexed position k."""
        return self._w[k] if 0 <= k < len(self._w) else 0.0

    def as_tuple(self):
        return self._w

    def click_sum(self, amounts):
        """Sum of w_k * amounts[k] over the clicked positions, in slot order."""
        total = 0.0
        for wk, x in zip(self._w, amounts):
            if wk <= 0.0:
                break
            total += wk * x
        return total

    def __len__(self):
        return len(self._w)

    @property
    def is_single_slot(self):
        return all(x == 0.0 for x in self._w[1:])


class ValuationProfile:
    """Sparse nonnegative per-click values v_i^q, advertisers sorted by id."""

    def __init__(self, values: Mapping[str, Mapping[str, float]]):
        self._values = {}
        for i in sorted(values):
            row = {}
            for q, v in values[i].items():
                v = float(v)
                if not (math.isfinite(v) and v >= 0.0):
                    raise ValidationError(
                        f"valuation of {i!r} on {q!r} must be finite and >= 0, got {v}")
                if v > 0.0:
                    row[q] = v
            self._values[i] = row
        self.advertisers = tuple(self._values)

    def value(self, advertiser, query):
        return self._values[advertiser].get(query, 0.0)

    def positive_queries(self, advertiser):
        return frozenset(self._values[advertiser])

    def row(self, advertiser):
        return dict(self._values[advertiser])


def _keyword_masses(graph, p, pi) -> dict:
    """Traffic mass of every keyword: sum of P(q)*pi_q(s) over q in N(s)."""
    return {s: math.fsum(p.mass(q) * pi.mass(q, s) for q in graph.keyword_neighbors(s))
            for s in graph.keywords}


@dataclass(frozen=True)
class Scenario:
    """A fully specified market instance.  Use build_scenario for the
    validated path; direct construction skips cross-checks (used for
    sampled valuation profiles that may not meet the positivity rule).
    The kw_* tables are in index order (advertisers sorted, keywords as
    declared)."""

    graph: BipartiteGraph
    p: QueryDistribution
    pi: MatchingPolicy
    weights: SlotWeights
    valuations: ValuationProfile
    kappa: int

    @property
    def advertisers(self):
        return self.valuations.advertisers

    @cached_property
    def kw_masses(self) -> dict:
        """{keyword: traffic mass}, see _keyword_masses."""
        return _keyword_masses(self.graph, self.p, self.pi)

    @cached_property
    def kw_values(self) -> dict:
        """{advertiser: {keyword: expected per-click value}}: the traffic-
        weighted average of the advertiser's query values over the
        keyword's neighborhood.  Bidding above it is weakly dominated, so
        it is the natural conservative cap."""
        table = keyword_value_tensor(self, self.value_matrix).tolist()
        return {i: dict(zip(self.graph.keywords, row))
                for i, row in zip(self.advertisers, table)}

    @cached_property
    def value_matrix(self) -> np.ndarray:
        """(|A|, |Q|) per-click values, advertisers sorted, queries in
        graph order: one profile in the layout of sample_values."""
        return np.array([[self.valuations.value(i, q) for q in self.graph.queries]
                         for i in self.advertisers]).reshape(-1, len(self.graph.queries))

    @cached_property
    def kw_positive(self) -> dict:
        """{advertiser: keywords whose neighborhood meets its positive queries}."""
        return {i: frozenset(self.graph.keywords_meeting(self.valuations.positive_queries(i)))
                for i in self.advertisers}


def keyword_value_tensor(market, values) -> np.ndarray:
    """Keyword values of a value array (..., |Q|) -> (..., |S|), queries
    and keywords in graph order: for each keyword, num += m * v and
    den += m over its neighbors q in order, m = P(q) * pi_q(s), then
    num / den.  Elementwise, so every entry is the float the scalar loop
    gives (a matrix product would reorder the sums)."""
    graph = market.graph
    col = {q: j for j, q in enumerate(graph.queries)}
    out = np.empty(values.shape[:-1] + (len(graph.keywords),))
    for k, s in enumerate(graph.keywords):
        num = np.zeros(values.shape[:-1])
        den = 0.0
        for q in graph.keyword_neighbors(s):
            m = market.p.mass(q) * market.pi.mass(q, s)
            num += m * values[..., col[q]]
            den += m
        if den <= 0.0:
            raise ValidationError(f"keyword {s!r} has zero traffic mass")
        out[..., k] = num / den
    return out


def _check_skeleton(graph, p, pi, kappa, valued) -> int:
    """Cross-checks every scenario shares: kappa, the query supports of
    p and pi, pi_q supported on exactly N(q), and values only on declared
    queries (valued: {advertiser: queries}).  Returns int kappa."""
    try:
        whole = int(kappa) == kappa >= 1
    except (TypeError, ValueError, OverflowError):      # "abc", null, inf, nan
        whole = False
    if not whole:
        raise ValidationError(f"kappa must be a positive integer, got {kappa!r}")
    for what, queries in (("query distribution support mismatch on", p.queries),
                          ("matching policy missing/extra queries", pi.queries)):
        if set(queries) != set(graph.queries):
            raise ValidationError(f"{what} {sorted(set(graph.queries) ^ set(queries))!r}")
    for q in graph.queries:
        if set(pi.support(q)) != set(graph.query_neighbors(q)):
            raise SupportMismatch(q)
    for i, queries in valued.items():
        extra = set(queries) - set(graph.queries)
        if extra:
            raise ValidationError(f"advertiser {i!r} values unknown queries {sorted(extra)!r}")
    return int(kappa)


def build_scenario(graph, p, pi, weights, valuations, kappa) -> Scenario:
    """Validate cross-component invariants and assemble a Scenario."""
    kappa = _check_skeleton(graph, p, pi, kappa, {
        i: valuations.positive_queries(i) for i in valuations.advertisers})
    for q in graph.queries:
        if not any(valuations.value(i, q) > 0.0 for i in valuations.advertisers):
            raise NoPositiveAdvertiser(q)
    return Scenario(graph, p, pi, weights, valuations, kappa)


def _json_number(x, field) -> float:
    """x as a float when it is a JSON number.  Every loader passes its
    numeric fields through here, so that a string such as "1", a boolean,
    null, a container or an integer beyond the float range raises
    ValidationError naming the field instead of being coerced by float()
    or overflowing in it."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise ValidationError(f"non-numeric {field}: {x!r} is not a JSON number")
    try:
        return float(x)
    except OverflowError:
        raise ValidationError(f"{field} is an integer too large for a float") from None


_SKELETON_KEYS = {"queries", "keywords", "edges", "query_dist", "matching",
                  "slot_weights", "kappa"}


def _load_skeleton(source, what, values_key, parse_values):
    """The JSON loading every scenario format shares: exact top-level keys
    (typos fail loudly), then (graph, p, pi, weights, kappa, values) with
    obj[values_key] parsed by parse_values; not yet cross-checked."""
    obj = _load_json_obj(source, what)
    keys = _SKELETON_KEYS | {values_key}
    unknown = set(obj) - keys
    if unknown:
        raise ValidationError(f"unknown {what} key(s): {sorted(unknown)!r}")
    missing = keys - set(obj)
    if missing:
        raise ValidationError(f"{what} is missing key(s): {sorted(missing)!r}")
    try:
        graph = BipartiteGraph(obj["queries"], obj["keywords"],
                               [tuple(e) for e in obj["edges"]])
        p = QueryDistribution({q: _json_number(m, f"query_dist mass of {q!r}")
                               for q, m in obj["query_dist"].items()})
        pi = MatchingPolicy({q: {s: _json_number(m, f"matching mass of ({q!r}, {s!r})")
                                 for s, m in row.items()}
                             for q, row in obj["matching"].items()})
        weights = SlotWeights([_json_number(w, f"slot weight at position {k + 1}")
                               for k, w in enumerate(obj["slot_weights"])])
        values = parse_values(obj[values_key])
    except (TypeError, ValueError, AttributeError) as exc:
        raise ValidationError(f"malformed {what} field: {exc}") from exc
    return graph, p, pi, weights, _json_number(obj["kappa"], "kappa"), values


def scenario_from_json(source) -> Scenario:
    """Load a scenario from a JSON file path or an already-parsed dict."""
    def parse(table):
        return ValuationProfile({i: {q: _json_number(v, f"valuation of {i!r} on {q!r}")
                                     for q, v in row.items()}
                                 for i, row in table.items()})

    graph, p, pi, weights, kappa, valuations = _load_skeleton(
        source, "scenario", "valuations", parse)
    return build_scenario(graph, p, pi, weights, valuations, kappa)


def _load_json_obj(source, what) -> dict:
    """The one JSON reader: the object in the UTF-8 JSON file at path
    source, or a copy of source when it is already a mapping.  A file that
    cannot be read, is not UTF-8 or not JSON, or holds anything but an
    object raises ValidationError naming the file."""
    if isinstance(source, Mapping):
        return dict(source)
    try:
        with open(source, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read {what} file {source}: {exc}") from exc
    except (ValueError, RecursionError) as exc:     # not UTF-8, not JSON, nested too deep
        raise ValidationError(f"malformed {what} JSON in {source}: {exc}") from exc
    if not isinstance(obj, dict):
        raise ValidationError(f"{what} file {source} must hold a JSON object, "
                              f"not {type(obj).__name__}")
    return obj


def keyword_mass(scenario: Scenario, keyword) -> float:
    """Traffic mass of a keyword: sum of P(q)*pi_q(s) over q in N(s)."""
    return scenario.kw_masses[keyword]


def keyword_value(scenario: Scenario, advertiser, keyword) -> float:
    """Expected per-click value of a keyword for one advertiser."""
    return scenario.kw_values[advertiser][keyword]


def optimal_welfare(scenario: Scenario) -> float:
    """Welfare of the omniscient per-query allocation: for every query,
    the k-th slot goes to the k-th highest per-click value."""
    return float(optimal_welfare_batch(scenario, scenario.value_matrix[None])[0])


def optimal_welfare_batch(market, values) -> np.ndarray:
    """optimal_welfare of every profile in an (n, |A|, |Q|) value tensor:
    per query, the values sorted high to low, click-weighted in slot
    order, times P(q), summed over queries in graph order."""
    ranked = np.sort(values, axis=1)[:, ::-1, :]
    total = np.zeros(values.shape[0])
    for j, q in enumerate(market.graph.queries):
        total += market.p.mass(q) * market.weights.click_sum(ranked[:, :, j].T)
    return total


class BayesScenario:
    """Scenario skeleton plus independent per-(advertiser, query) value
    distributions.  Missing entries mean the value is identically 0."""

    def __init__(self, graph, p, pi, weights, kappa, value_dists):
        self.kappa = _check_skeleton(graph, p, pi, kappa, value_dists)
        self.graph = graph
        self.p = p
        self.pi = pi
        self.weights = weights
        self.kw_masses = _keyword_masses(graph, p, pi)
        self.value_dists = {i: dict(row) for i, row in sorted(value_dists.items())}
        self.advertisers = tuple(self.value_dists)
        for i, row in self.value_dists.items():
            for q, dist in row.items():
                lo, _ = dist.support
                if lo < 0.0:
                    raise ValidationError(
                        f"value distribution of {i!r} on {q!r} allows negative values")
        col = {q: j for j, q in enumerate(graph.queries)}
        # {advertiser: ((query, column), ...)} and the (advertiser index,
        # column, distribution) pairs, both in value_dists order
        self._rows = {i: tuple((q, col[q]) for q in row)
                      for i, row in self.value_dists.items()}
        self._pairs = tuple((a, col[q], row[q]) for a, (i, row)
                            in enumerate(self.value_dists.items()) for q in row)

    def dist(self, advertiser, query):
        return self.value_dists[advertiser].get(query)

    def sample_values(self, rng, n) -> np.ndarray:
        """Draw n valuation profiles as an (n, |A|, |Q|) tensor (advertisers
        sorted, queries in graph order, 0 where no distribution is given).
        Each profile takes one uniform per (advertiser, query) pair, in
        value_dists order, through the pair's quantile: the stream n
        successive sample_valuations calls consume."""
        u = rng.random((n, len(self._pairs)))
        out = np.zeros((n, len(self.advertisers), len(self.graph.queries)))
        for k, (a, j, dist) in enumerate(self._pairs):
            out[:, a, j] = dist.quantile(u[:, k])
        return out

    def valuations_at(self, values) -> dict:
        """One (|A|, |Q|) profile of sample_values as {advertiser: {query:
        value}}, over the queries each advertiser has distributions for."""
        return {i: {q: float(values[a, j]) for q, j in row}
                for a, (i, row) in enumerate(self._rows.items())}

    def sample_valuations(self, rng) -> dict:
        """Draw one valuation profile; independent across (i, q)."""
        return self.valuations_at(self.sample_values(rng, 1)[0])

    def to_scenario(self, valuations: Mapping[str, Mapping[str, float]]) -> Scenario:
        """Bind sampled values into a Scenario (no positivity cross-check:
        a draw may legitimately produce zeros)."""
        return Scenario(self.graph, self.p, self.pi, self.weights,
                        ValuationProfile(valuations), self.kappa)
