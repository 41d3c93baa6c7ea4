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
from .market import BayesScenario, BipartiteGraph

EXACT_COVER_CANDIDATE_CAP = 25
EXACT_ALPHA_QUERY_CAP = 20
_DEGREE_BOUND_TOL = 1e-12   # float slack on both sides of the sandwich


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


def tokenize(text: str) -> tuple:
    """Lowercase terms with punctuation treated as whitespace."""
    return tuple(text.lower().translate(_PUNCT_TO_SPACE).split())


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


def kl_expressiveness(source) -> float:
    """beta: min over advertisers of min(1, kappa / #positive keywords)
    of a Scenario, or of a BayesScenario, where a query with a value
    distribution counts as positive."""
    if isinstance(source, BayesScenario):
        sets = [source.value_dists[i].keys() for i in source.advertisers]
    else:
        sets = [source.valuations.positive_queries(i) for i in source.advertisers]
    return _beta(_max_meeting(source.graph, sets), source.kappa)


# ------------------------------------------------------------- set cover

@dataclass(frozen=True)
class CoverResult:
    size: int


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


def min_cover_size(graph, queries) -> CoverResult:
    """Fewest of the graph's keywords whose neighborhoods cover `queries`,
    by branch and bound.  More than EXACT_COVER_CANDIDATE_CAP keywords
    meeting `queries` raise TooLarge."""
    universe = frozenset(queries)
    if not universe:
        return CoverResult(0)
    cov_sets = _traces(universe, {s: graph.keyword_neighbors(s) for s in graph.keywords})
    if len(cov_sets) > EXACT_COVER_CANDIDATE_CAP:
        raise TooLarge(f"{len(cov_sets)} cover candidates "
                       f"(exact cap {EXACT_COVER_CANDIDATE_CAP})")
    return CoverResult(_cover_search(universe, cov_sets))


class _CoverNumbers:
    """Minimum-cover numbers of query sets over one graph's keywords, each
    searched once.  A query set is keyed by the bitmask of its queries'
    declared indices; None marks a set no keyword covers."""

    def __init__(self, graph):
        self.bit = {q: 1 << i for i, q in enumerate(graph.queries)}
        self.cov_sets = {s: graph.keyword_neighbors(s) for s in graph.keywords}
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


# cover numbers per graph, shared by every kappa and theta over it, and
# dropped with the graph
_COVER_NUMBERS = weakref.WeakKeyDictionary()


# ---------------------------------------------------------- query-level alpha

def advertiser_alpha(graph, queries, kappa):
    """(alpha_i, m*) for one positive query set.

    m* is the smallest subset size whose minimum cover by the graph's
    keywords exceeds kappa; alpha_i = (m* - 1) / |Q_i|, or 1.0 with
    m* = None when every subset is coverable.  Empty query sets are
    vacuously fully expressive.  Cover numbers are remembered per graph.
    """
    universe = frozenset(queries)
    n = len(universe)
    if n == 0:
        return 1.0, None
    if n > EXACT_ALPHA_QUERY_CAP:
        raise TooLarge(f"|Q_i| = {n} (exact alpha cap {EXACT_ALPHA_QUERY_CAP})")
    if len(graph.keywords) > EXACT_COVER_CANDIDATE_CAP:
        raise TooLarge(f"{len(graph.keywords)} cover candidates "
                       f"(exact cap {EXACT_COVER_CANDIDATE_CAP})")
    cover = _COVER_NUMBERS.get(graph)
    if cover is None:
        cover = _COVER_NUMBERS[graph] = _CoverNumbers(graph)
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


def ql_expressiveness(graph, positive_sets, kappa) -> float:
    """System alpha: min over advertisers of advertiser_alpha."""
    alpha = 1.0
    for adv in sorted(positive_sets):
        a_i, _ = advertiser_alpha(graph, positive_sets[adv], kappa)
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


def degree_bound_check(graph, positive_sets, kappa) -> DegreeBoundReport:
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
    holds = (lower <= beta + _DEGREE_BOUND_TOL) and (beta <= upper + _DEGREE_BOUND_TOL)
    return DegreeBoundReport(alpha, beta, gamma, kappa, lower, upper, holds)


# ------------------------------------------------------------------- corpus

@dataclass(frozen=True)
class Corpus:
    """Bid log (advertiser -> keywords) and query log (query -> frequency)."""
    bids: dict
    queries: dict

    @property
    def keywords(self):
        return frozenset().union(*self.bids.values())


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


def containment_graph(queries, keywords) -> BipartiteGraph:
    """Edge (q, s) when every token of s appears among q's tokens."""
    q_tokens = {q: frozenset(tokenize(q)) for q in queries}
    edges = [(q, s) for s in keywords if (s_tok := frozenset(tokenize(s)))
             for q in queries if s_tok <= q_tokens[q]]
    return BipartiteGraph(queries, keywords, edges, strict=False)


def extract_micro_markets(corpus: Corpus) -> list:
    """One market per term shared by >= 1 keyword and >= 1 query."""
    kw_terms = {s: frozenset(tokenize(s)) for s in corpus.keywords}
    q_terms = {q: frozenset(tokenize(q)) for q in corpus.queries}
    terms = sorted(set().union(*kw_terms.values(), frozenset())
                   & set().union(*q_terms.values(), frozenset()))
    markets = []
    for term in terms:
        kws = tuple(sorted(s for s, toks in kw_terms.items() if term in toks))
        qs = tuple(sorted(q for q, toks in q_terms.items() if term in toks))
        if not kws or not qs:
            continue
        markets.append(MicroMarket(term, kws, qs, containment_graph(qs, kws)))
    return markets


# -------------------------------------------------------------------- sweep

@dataclass(frozen=True)
class ExpressivenessTable:
    """Bucketed means of alpha and beta over micro markets, and the
    kappa = 1 degree-bound check per (market, theta).

    rows maps (theta_bucket, kappa_bucket) -> (mean_alpha, mean_beta,
    n_markets); buckets are the theta grid value and the decile ceiling
    of kappa / market size, both as strings with one decimal.
    degree_rows holds (market term, theta, DegreeBoundReport) in sweep
    order; skipped and degree_skipped hold (market term, reason).
    """
    rows: dict
    skipped: tuple
    degree_rows: tuple
    degree_skipped: tuple

    def to_csv(self) -> str:
        lines = ["theta_bucket,kappa_bucket,mean_alpha,mean_beta,n_markets"]
        for key in sorted(self.rows, key=lambda k: (-float(k[0]), float(k[1]))):
            a, b, n = self.rows[key]
            lines.append(f"{key[0]},{key[1]},{a:.6f},{b:.6f},{n}")
        return "\n".join(lines) + "\n"

    def degree_bound_csv(self) -> str:
        lines = ["market,theta,kappa,alpha,beta,gamma,holds"]
        for term, theta, rep in self.degree_rows:
            lines.append(f"{term},{theta:.1f},{rep.kappa},{rep.alpha:.6f},"
                         f"{rep.beta:.6f},{rep.gamma},{str(rep.holds).lower()}")
        return "\n".join(lines) + "\n"

    def beta_exceeds_third_alpha(self) -> float:
        """Descriptive only: fraction of cells with mean beta > mean alpha/3."""
        if not self.rows:
            return 1.0
        hits = sum(1 for a, b, _ in self.rows.values() if b > a / 3.0)
        return hits / len(self.rows)


DEFAULT_THETA_GRID = tuple(round(0.9 - 0.1 * j, 1) for j in range(10))


def _positive_sets(corpus, market, thetas):
    """Yield (theta, sets, reachable) per theta.  sets maps each advertiser
    bidding in the market to the queries whose best similarity to its
    keywords there exceeds theta: a max and a strict compare, the same as
    any(sim(q, s) > theta).  reachable drops queries with no neighbor."""
    sims = market.similarities
    best = {}
    for adv in sorted(corpus.bids):
        kws = corpus.bids[adv].intersection(market.keywords)
        if kws:
            best[adv] = {q: max(sims[q, s] for s in kws) for q in market.queries}
    linked = frozenset(q for q in market.queries if market.graph.query_neighbors(q))
    for theta in thetas:
        sets = {adv: frozenset(q for q, b in top.items() if b > theta)
                for adv, top in best.items()}
        yield theta, sets, {adv: pos & linked for adv, pos in sets.items()}


def _add_cells(cells, market, theta, sets, kappas) -> None:
    """Append one (alpha, beta) per kappa in 1..size to its bucket."""
    widest = _max_meeting(market.graph, sets.values())
    for kappa in kappas:
        if not 1 <= kappa <= market.size:
            continue
        alpha = ql_expressiveness(market.graph, sets, kappa)
        kb = math.ceil(10 * kappa / market.size) / 10
        key = (f"{theta:.1f}", f"{kb:.1f}")
        cells.setdefault(key, []).append((alpha, _beta(widest, kappa)))


def expressiveness_sweep(corpus: Corpus, thetas=DEFAULT_THETA_GRID,
                         kappas=None) -> ExpressivenessTable:
    """Tabulate mean alpha and beta per (theta, kappa/size decile), and
    check the degree bound at kappa = 1 per (market, theta), from one
    positive query set per (advertiser, market, theta).

    kappas defaults to 1..size per market.  An empty theta or kappa grid,
    a theta outside [0, 1) or a kappa below 1 raises ValidationError
    before any market is extracted.
    A market where exact alpha is out of reach adds no cells from that
    theta on (earlier cells stay) and is logged in skipped.  The degree
    bound is checked at every theta on the reachable positive sets, as
    the sandwich presumes; a (market, theta) out of exact reach is
    logged in degree_skipped.
    """
    thetas = tuple(thetas)
    kappas = None if kappas is None else tuple(kappas)
    if not thetas:
        raise ValidationError("the theta grid is empty")
    if kappas == ():
        raise ValidationError("the kappa grid is empty")
    for theta in thetas:
        if not 0.0 <= theta < 1.0:
            raise ValidationError(f"theta must lie in [0, 1), got {theta}")
    for kappa in kappas or ():
        if kappa < 1:
            raise ValidationError(f"kappa must be >= 1, got {kappa}")
    cells = {}
    skipped, degree_rows, degree_skipped = [], [], []
    for market in extract_micro_markets(corpus):
        grid = kappas if kappas is not None else range(1, market.size + 1)
        tabulating = True
        for theta, sets, reachable in _positive_sets(corpus, market, thetas):
            if tabulating:
                try:
                    _add_cells(cells, market, theta, sets, grid)
                except TooLarge as exc:
                    skipped.append((market.term, str(exc)))
                    tabulating = False
            try:
                rep = degree_bound_check(market.graph, reachable, kappa=1)
            except TooLarge as exc:
                degree_skipped.append((market.term, str(exc)))
            else:
                degree_rows.append((market.term, theta, rep))
    rows = {key: (sum(p[0] for p in pairs) / len(pairs),
                  sum(p[1] for p in pairs) / len(pairs), len(pairs))
            for key, pairs in cells.items()}
    return ExpressivenessTable(rows, tuple(skipped), tuple(degree_rows),
                               tuple(degree_skipped))
