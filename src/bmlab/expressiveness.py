"""Expressiveness metrics and the corpus micro-market pipeline.

Two limits on what an advertiser can say with at most kappa keyword
bids:

* keyword-level expressiveness beta -- the fraction of their positive
  keywords they can afford to bid on, computable in linear time;
* query-level expressiveness alpha -- the largest fraction x such that
  every subset of their positive queries of size <= x * |Q_i| can be
  covered by kappa keyword neighborhoods.  Computing alpha embeds set
  cover, so it is exact only at micro-market scale.

The corpus side turns raw bid and query logs into micro markets (term
sharing), infers positive queries from edit-distance similarity, and
sweeps (theta, kappa) to tabulate both metrics.
"""

from __future__ import annotations

import csv
import itertools
import math
import string
import weakref
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

from .errors import (
    EmptyStrings,
    TooLarge,
    Uncoverable,
    ValidationError,
)
from .market import BayesScenario, BipartiteGraph, Scenario

EXACT_COVER_CANDIDATE_CAP = 25
EXACT_ALPHA_QUERY_CAP = 20


# --------------------------------------------------------------- string side

def levenshtein(a: str, b: str) -> int:
    """Unit-cost edit distance (insert / delete / substitute).

    Myers' bit-parallel algorithm (J. ACM 46(3), 1999) in Hyyro's
    formulation: one column of the DP table's vertical deltas lives in
    two Python ints, one bit per character of the longer string, so each
    character of the shorter one costs a dozen integer operations at any
    length.
    """
    if len(a) < len(b):
        a, b = b, a
    peq = {}
    bit = 1
    for ch in a:
        peq[ch] = peq.get(ch, 0) | bit
        bit <<= 1
    mask = bit - 1
    last = bit >> 1
    pv, mv, dist = mask, 0, len(a)
    for ch in b:
        eq = peq.get(ch, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | ~(xh | pv)
        mh = pv & xh
        if ph & last:
            dist += 1
        elif mh & last:
            dist -= 1
        ph = (ph << 1) | 1
        pv = ((mh << 1) | ~(xv | ph)) & mask
        mv = ph & xv
    return dist


def similarity(q: str, s: str) -> float:
    """Sim(q, s) = 1 - d(q, s) / maxlength, with character-level lengths."""
    longest = max(len(q), len(s))
    if longest == 0:
        raise EmptyStrings()
    return 1.0 - levenshtein(q, s) / longest


_PUNCT_TO_SPACE = str.maketrans({ch: " " for ch in string.punctuation})


def tokenize(text: str, stop_words=()) -> tuple:
    """Lowercase terms with punctuation treated as whitespace."""
    toks = text.lower().translate(_PUNCT_TO_SPACE).split()
    if stop_words:
        toks = [t for t in toks if t not in stop_words]
    return tuple(toks)


# ------------------------------------------------------- positive queries

def positive_queries(keywords, query_pool, theta, sim=similarity) -> frozenset:
    """Queries similar to at least one bid keyword: sim(q, s) > theta."""
    if not 0.0 <= theta < 1.0:
        raise ValidationError(f"theta must lie in [0, 1), got {theta}")
    kws = tuple(keywords)
    return frozenset(q for q in query_pool
                     if any(sim(q, s) > theta for s in kws))


@dataclass(frozen=True)
class AdvertiserFootprint:
    """An advertiser's bid keywords and inferred positive query set."""
    advertiser: str
    keywords: frozenset
    positive: frozenset


def build_footprint(advertiser, keywords, query_pool, theta) -> AdvertiserFootprint:
    kws = frozenset(keywords)
    return AdvertiserFootprint(advertiser, kws,
                               positive_queries(kws, query_pool, theta))


# ------------------------------------------------- keyword-level beta

def _max_meeting(graph, positive_sets) -> int:
    """The largest number of keywords whose neighborhood meets one of the
    positive query sets; 0 when none meets any keyword."""
    return max((len(graph.keywords_meeting(pos)) for pos in positive_sets), default=0)


def _beta(max_meeting, kappa) -> float:
    """min over positive query sets of min(1, kappa / #keywords meeting
    the set), from the largest count c: min(1, kappa / c) is that minimum
    bit for bit for kappa >= 0, as correctly rounded division is monotone;
    1.0 when no set meets any keyword."""
    return min(1.0, kappa / max_meeting) if max_meeting else 1.0


def kl_expressiveness(source, kappa=None, graph=None) -> float:
    """beta: min over advertisers of min(1, kappa / #positive keywords).

    `source` is either a Scenario (kappa defaults to the scenario's),
    a BayesScenario (a query with a value distribution counts as
    positive), or an iterable of AdvertiserFootprint, in which case
    `graph` and `kappa` are required and a keyword counts as positive
    when its neighborhood meets the footprint's positive query set.
    """
    if isinstance(source, Scenario):
        sets = [source.valuations.positive_queries(i) for i in source.advertisers]
    elif isinstance(source, BayesScenario):
        sets = [source.value_dists[i].keys() for i in source.advertisers]
    elif kappa is None or graph is None:
        raise ValidationError("footprint form needs kappa and graph")
    else:
        return _beta(_max_meeting(graph, [fp.positive for fp in source]), kappa)
    return _beta(_max_meeting(source.graph, sets), source.kappa if kappa is None else kappa)


# ------------------------------------------------------------- set cover

@dataclass(frozen=True)
class CoverResult:
    size: int
    exact: bool


def _cover_search(universe, cov_sets) -> int:
    """Minimum number of cov_sets whose union is `universe`, by branch
    and bound (greedy upper bound, counting lower bound)."""
    if not universe:
        return 0
    cover = _traces(universe, cov_sets)
    best = _greedy_cover_size(universe, cover)
    return best if best == 1 else _cover_search_exact(universe, cover, best)


def _traces(universe, sets) -> dict:
    """The nonempty traces of `sets` on `universe`, which they must cover."""
    traces = {s: c for s in sorted(sets) if (c := universe.intersection(sets[s]))}
    missing = universe.difference(*traces.values())
    if missing:
        raise Uncoverable(sorted(missing))
    return traces


def _greedy_cover_size(universe, cover) -> int:
    """Greedy cover size (most new coverage, lex tie-break), an upper bound."""
    size = 0
    left = set(universe)
    while left:
        pick = min(cover, key=lambda s: (-len(cover[s] & left), s))
        left -= cover[pick]
        size += 1
    return size


def _cover_search_exact(universe, cover, upper) -> int:
    labels = sorted(cover)
    by_query = {q: [s for s in labels if q in cover[s]] for q in universe}
    biggest = max(len(c) for c in cover.values())
    best = upper

    def descend(uncovered, used):
        nonlocal best
        if not uncovered:
            best = min(best, used)
            return
        if used + math.ceil(len(uncovered) / biggest) >= best:
            return
        pivot = min(uncovered, key=lambda q: (len(by_query[q]), q))
        for s in sorted(by_query[pivot],
                        key=lambda s: (-len(cover[s] & uncovered), s)):
            descend(uncovered - cover[s], used + 1)

    descend(frozenset(universe), 0)
    return best


def min_cover_size(graph, queries, candidates=None, exact=True,
                   max_candidates=EXACT_COVER_CANDIDATE_CAP) -> CoverResult:
    """Fewest candidate keywords whose neighborhoods cover `queries`.

    Exact mode runs branch and bound and is capped at `max_candidates`
    candidate keywords; exact=False returns the greedy upper bound,
    flagged approximate.
    """
    universe = frozenset(queries)
    if candidates is None:
        candidates = graph.keywords
    if not universe:
        return CoverResult(0, True)
    cov_sets = _traces(universe, {s: graph.keyword_neighbors(s) for s in candidates})
    if not exact:
        return CoverResult(_greedy_cover_size(universe, cov_sets), False)
    if len(cov_sets) > max_candidates:
        raise TooLarge(f"{len(cov_sets)} cover candidates "
                       f"(exact cap {max_candidates})")
    return CoverResult(_cover_search(universe, cov_sets), True)


class _CoverNumbers:
    """Minimum-cover numbers of query sets over one candidate list of one
    graph, each searched once.  A query set is keyed by the bitmask of its
    queries' declared indices; None marks a set no candidate covers."""

    def __init__(self, graph, candidates):
        self.bit = {q: 1 << i for i, q in enumerate(graph.queries)}
        self.cov_sets = {s: graph.keyword_neighbors(s) for s in candidates}
        self.sizes = {}

    def __call__(self, queries):
        try:
            key = sum(map(self.bit.__getitem__, queries))
        except KeyError:
            return None  # a query outside the graph has no neighbor
        if key not in self.sizes:
            try:
                self.sizes[key] = _cover_search(frozenset(queries), self.cov_sets)
            except Uncoverable:
                self.sizes[key] = None
        return self.sizes[key]


# default-candidate cover numbers per graph, shared by every kappa, theta
# and pass over it, and dropped with the graph
_COVER_NUMBERS = weakref.WeakKeyDictionary()


# ---------------------------------------------------------- query-level alpha

def advertiser_alpha(graph, queries, kappa, candidates=None,
                     max_queries=EXACT_ALPHA_QUERY_CAP):
    """(alpha_i, m*) for one positive query set.

    m* is the smallest subset size whose minimum cover exceeds kappa;
    alpha_i = (m* - 1) / |Q_i|, or 1.0 with m* = None when every subset
    is coverable.  Empty query sets are vacuously fully expressive.
    Cover numbers over the graph's own keywords are remembered per graph;
    an explicit candidate list is searched afresh.
    """
    universe = frozenset(queries)
    n = len(universe)
    if n == 0:
        return 1.0, None
    if n > max_queries:
        raise TooLarge(f"|Q_i| = {n} (exact alpha cap {max_queries})")
    n_candidates = len(graph.keywords if candidates is None else candidates)
    if n_candidates > EXACT_COVER_CANDIDATE_CAP:
        raise TooLarge(f"{n_candidates} cover candidates "
                       f"(exact cap {EXACT_COVER_CANDIDATE_CAP})")
    if candidates is not None:
        cover = _CoverNumbers(graph, candidates)
    elif graph in _COVER_NUMBERS:
        cover = _COVER_NUMBERS[graph]
    else:
        cover = _COVER_NUMBERS[graph] = _CoverNumbers(graph, graph.keywords)
    whole = cover(universe)
    if whole is None:
        # some query is coverable by nothing, so already singletons fail
        return 0.0, 1
    if whole <= kappa:
        return 1.0, None
    # every query is individually coverable, so sizes <= kappa hold
    for size in range(kappa + 1, n + 1):
        for subset in itertools.combinations(sorted(universe), size):
            if cover(subset) > kappa:
                return (size - 1) / n, size
    raise AssertionError("whole set failed earlier, a subset must fail")


def ql_expressiveness(graph, positive_sets, kappa,
                      max_queries=EXACT_ALPHA_QUERY_CAP) -> float:
    """System alpha: min over advertisers of advertiser_alpha."""
    alpha = 1.0
    for adv in sorted(positive_sets):
        a_i, _ = advertiser_alpha(graph, positive_sets[adv], kappa,
                                  max_queries=max_queries)
        alpha = min(alpha, a_i)
    return alpha


# --------------------------------------------------------------- Prop check

@dataclass(frozen=True)
class DegreeBoundReport:
    """alpha/gamma^2 <= beta <= gamma*alpha, checked on one instance."""
    alpha: float
    beta: float
    gamma: int
    kappa: int
    lower: float
    upper: float
    holds: bool


def degree_bound_check(graph, positive_sets, kappa, tol=1e-12) -> DegreeBoundReport:
    """Check the degree-bound sandwich between alpha and beta.

    The sandwich presumes every positive query is reachable through the
    graph (as any auction-derived footprint is); isolated positive
    queries or an edgeless graph fall outside it and report holds=False.
    """
    gamma = graph.max_degree()
    alpha = ql_expressiveness(graph, positive_sets, kappa)
    beta = _beta(_max_meeting(graph, positive_sets.values()), kappa)
    lower = alpha / gamma**2 if gamma else 0.0
    upper = gamma * alpha
    holds = (lower <= beta + tol) and (beta <= upper + tol)
    return DegreeBoundReport(alpha, beta, gamma, kappa, lower, upper, holds)


# ------------------------------------------------------------------- corpus

@dataclass(frozen=True)
class Corpus:
    """Bid log (advertiser -> keywords) and query log (query -> frequency)."""
    bids: dict
    queries: dict

    @property
    def keywords(self):
        out = set()
        for kws in self.bids.values():
            out |= kws
        return frozenset(out)


def _read_rows(path, expected_header):
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path} is not UTF-8: {exc}") from exc
    if not rows or [h.strip() for h in rows[0]] != list(expected_header):
        raise ValidationError(
            f"{path} must start with header {','.join(expected_header)!r}")
    return rows[1:]


def load_corpus(directory) -> Corpus:
    """Read bids.csv (advertiser,keyword) and queries.csv (query,frequency)."""
    d = Path(directory)
    bids = {}
    for row in _read_rows(d / "bids.csv", ("advertiser", "keyword")):
        if len(row) != 2 or not row[0].strip() or not row[1].strip():
            raise ValidationError(f"malformed bids.csv row: {row!r}")
        bids.setdefault(row[0].strip(), set()).add(row[1].strip())
    queries = {}
    for row in _read_rows(d / "queries.csv", ("query", "frequency")):
        if len(row) != 2 or not row[0].strip():
            raise ValidationError(f"malformed queries.csv row: {row!r}")
        try:
            freq = float(row[1])
        except ValueError as exc:
            raise ValidationError(f"bad frequency in {row!r}") from exc
        if freq <= 0 or not math.isfinite(freq):
            raise ValidationError(f"frequency must be positive: {row!r}")
        queries[row[0].strip()] = queries.get(row[0].strip(), 0.0) + freq
    if not bids or not queries:
        raise ValidationError("corpus needs at least one bid and one query")
    return Corpus({a: frozenset(k) for a, k in bids.items()}, queries)


@dataclass(frozen=True)
class MicroMarket:
    """Keywords and queries sharing one term, with containment edges."""
    term: str
    keywords: tuple
    queries: tuple
    graph: BipartiteGraph

    @property
    def size(self):
        return len(self.keywords)

    @cached_property
    def similarities(self) -> dict:
        """Sim(q, s) for every (query, keyword) pair of the market."""
        return {(q, s): similarity(q, s) for q in self.queries for s in self.keywords}


def containment_graph(queries, keywords, stop_words=()) -> BipartiteGraph:
    """Edge (q, s) when every token of s appears among q's tokens."""
    edges = []
    q_tokens = {q: frozenset(tokenize(q, stop_words)) for q in queries}
    for s in keywords:
        s_tok = frozenset(tokenize(s, stop_words))
        if not s_tok:
            continue
        for q in queries:
            if s_tok <= q_tokens[q]:
                edges.append((q, s))
    return BipartiteGraph(queries, keywords, edges, strict=False)


def extract_micro_markets(corpus: Corpus, stop_words=()) -> list:
    """One market per term shared by >= 1 keyword and >= 1 query."""
    kw_terms = {s: frozenset(tokenize(s, stop_words)) for s in corpus.keywords}
    q_terms = {q: frozenset(tokenize(q, stop_words)) for q in corpus.queries}
    terms = sorted(set().union(*kw_terms.values(), frozenset())
                   & set().union(*q_terms.values(), frozenset()))
    markets = []
    for term in terms:
        kws = tuple(sorted(s for s, toks in kw_terms.items() if term in toks))
        qs = tuple(sorted(q for q, toks in q_terms.items() if term in toks))
        if not kws or not qs:
            continue
        markets.append(MicroMarket(term, kws, qs,
                                   containment_graph(qs, kws, stop_words)))
    return markets


# -------------------------------------------------------------------- sweep

@dataclass(frozen=True)
class ExpressivenessTable:
    """Bucketed means of alpha and beta over micro markets.

    rows maps (theta_bucket, kappa_bucket) -> (mean_alpha, mean_beta,
    n_markets); buckets are the theta grid value and the decile ceiling
    of kappa / market size, both as strings with one decimal.
    """
    rows: dict
    skipped: tuple

    def to_csv(self) -> str:
        lines = ["theta_bucket,kappa_bucket,mean_alpha,mean_beta,n_markets"]
        def order(key):
            th, kb = key
            return (-float(th), float(kb))
        for key in sorted(self.rows, key=order):
            a, b, n = self.rows[key]
            lines.append(f"{key[0]},{key[1]},{a:.6f},{b:.6f},{n}")
        return "\n".join(lines) + "\n"

    def beta_exceeds_third_alpha(self) -> float:
        """Descriptive only: fraction of cells with mean beta > mean alpha/3."""
        if not self.rows:
            return 1.0
        hits = sum(1 for a, b, _ in self.rows.values() if b > a / 3.0)
        return hits / len(self.rows)


DEFAULT_THETA_GRID = tuple(round(0.9 - 0.1 * j, 1) for j in range(10))


def market_positive_sets(corpus, market, theta, reachable_only=False) -> dict:
    """{advertiser: positive queries} for every advertiser bidding in the
    market, from its similarity table; reachable_only leaves out queries
    with no keyword neighbor."""
    pool = [q for q in market.queries
            if not reachable_only or market.graph.query_neighbors(q)]
    sims = market.similarities
    sets = {}
    for adv in sorted(corpus.bids):
        kws = corpus.bids[adv] & set(market.keywords)
        if kws:
            sets[adv] = positive_queries(kws, pool, theta, lambda q, s: sims[q, s])
    return sets


def expressiveness_sweep(corpus: Corpus, thetas=DEFAULT_THETA_GRID,
                         kappas=None, markets=None) -> ExpressivenessTable:
    """Tabulate mean alpha and beta per (theta, kappa/size decile).

    kappas defaults to 1..size per market.  Markets where exact alpha
    is out of reach are skipped and logged in the table.  markets
    defaults to extract_micro_markets(corpus).
    """
    cells = {}
    skipped = []
    for market in extract_micro_markets(corpus) if markets is None else markets:
        grid = kappas if kappas is not None else range(1, market.size + 1)
        try:
            for theta in thetas:
                sets = market_positive_sets(corpus, market, theta)
                widest = _max_meeting(market.graph, sets.values())
                for kappa in grid:
                    if not 1 <= kappa <= market.size:
                        continue
                    alpha = ql_expressiveness(market.graph, sets, kappa)
                    beta = _beta(widest, kappa)
                    kb = math.ceil(10 * kappa / market.size) / 10
                    key = (f"{theta:.1f}", f"{kb:.1f}")
                    cells.setdefault(key, []).append((alpha, beta))
        except TooLarge as exc:
            skipped.append((market.term, str(exc)))
    rows = {}
    for key, pairs in cells.items():
        a = sum(p[0] for p in pairs) / len(pairs)
        b = sum(p[1] for p in pairs) / len(pairs)
        rows[key] = (a, b, len(pairs))
    return ExpressivenessTable(rows, tuple(skipped))
