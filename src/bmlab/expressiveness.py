"""Expressiveness metrics and the corpus micro-market pipeline.

Two limits on what an advertiser can say with at most kappa keyword
bids:

* keyword-level expressiveness beta -- the fraction of their positive
  keywords they can afford to bid on, computable in linear time;
* query-level expressiveness alpha -- the largest fraction x such that
  every subset of their positive queries of size <= x * |Q_i| can be
  covered by kappa keyword neighborhoods.  Computing alpha embeds set
  cover, so it is exact only at micro-market scale.  One bitmask engine
  serves every kappa at once: it grows the family of kappa-coverable
  subsets, one bit per subset, one keyword at a time, and the smallest
  subset missing from it is the smallest failing one.

The corpus side turns raw bid and query logs into micro markets (term
sharing), infers positive queries from edit-distance similarity, and
sweeps (theta, kappa) to tabulate both metrics.  Edit distance has one
bit-parallel kernel, which packs all of a market's queries into one int
and runs one pass per keyword over them; a single pair is its
one-pattern case.
"""

from __future__ import annotations

import csv
import itertools
import math
import numbers
import string
from dataclasses import dataclass
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

def _packed(patterns) -> tuple:
    """(patterns, peq, mask, starts, fields): the patterns laid side by
    side in one int for _distances.  Each pattern gets a field of one bit
    per character, lowest bit first, and one zero guard bit above it,
    which absorbs the carry out of the field in (eq & pv) + pv.  peq maps
    a character to the bits of its positions, fields holds each pattern's
    field bits, mask all of them and starts the lowest bit of each."""
    peq, fields, bit = {}, [], 1
    for p in patterns:
        start = bit
        for ch in p:
            peq[ch] = peq.get(ch, 0) | bit
            bit <<= 1
        fields.append(bit - start)
        bit <<= 1
    return tuple(patterns), peq, sum(fields), sum(f & -f for f in fields), fields


def _distances(packed, text) -> list:
    """Unit-cost edit distance (insert / delete / substitute) from text to
    each packed pattern, in one pass over text.

    Myers' bit-parallel algorithm (J. ACM 46(3), 1999) in Hyyro's
    formulation, run on all fields at once (Hyyro, Fredriksson and
    Navarro, ACM JEA 10, 2005): pv and mv hold a DP column's +1 and -1
    vertical deltas, each character of text costs a dozen integer
    operations on the packed int, and the shifted horizontal deltas get
    row 0's +1 at every field start.  A pattern's distance is its
    bottom-row entry: len(text) plus its field's vertical deltas."""
    _, peq, mask, starts, fields = packed
    pv, mv = mask, 0
    for ch in text:
        eq = peq.get(ch, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | ~(xh | pv)
        mh = pv & xh
        ph = (ph << 1) | starts
        pv = ((mh << 1) | ~(xv | ph)) & mask
        mv = ph & xv
    n = len(text)
    return [n + (pv & f).bit_count() - (mv & f).bit_count() for f in fields]


def levenshtein(a: str, b: str) -> int:
    """Unit-cost edit distance: _distances with the longer string as the
    one pattern, so each character of the shorter one is one step."""
    if len(a) < len(b):
        a, b = b, a
    return _distances(_packed((a,)), b)[0]


def _similarities(packed, s) -> list:
    """Sim(q, s) = 1 - d(q, s) / maxlength, with character-level lengths,
    for each packed query q."""
    return [1.0 - d / max(len(q), len(s))
            for q, d in zip(packed[0], _distances(packed, s))]


def similarity(q: str, s: str) -> float:
    """Sim(q, s): the one-query case of _similarities."""
    if not q and not s:
        raise EmptyStrings()
    return _similarities(_packed((q,)), s)[0]


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
# Queries the same keywords reach are covered together, so a query set is
# read as its classes of such queries, class j as bit j; a family of class
# sets is one int with bit T set for each member T.


def _trace_masks(graph, queries):
    """(U, traces): the mask U of the classes of `queries` and the trace
    of each keyword meeting them, the mask of the classes it reaches.
    Raises Uncoverable, naming the queries that no keyword reaches."""
    reach = {}
    for q in queries:
        try:
            reach[q] = graph.query_neighbors(q)
        except KeyError:    # a query outside the graph
            reach[q] = ()
    missing = sorted(q for q, by in reach.items() if not by)
    if missing:
        raise Uncoverable(missing)
    classes = dict.fromkeys(reach.values())
    traces = {}
    for j, by in enumerate(classes):
        for s in by:
            traces[s] = traces.get(s, 0) | 1 << j
    return (1 << len(classes)) - 1, list(traces.values())


def min_cover_size(graph, queries) -> int:
    """Fewest of the graph's keywords whose neighborhoods cover `queries`,
    by iterative deepening: a cover holds some keyword reaching the first
    uncovered class, so branch on those.  Memory is linear in the answer.
    Queries no keyword reaches raise Uncoverable; then more than
    EXACT_COVER_CANDIDATE_CAP keywords meeting `queries` raise TooLarge."""
    universe, traces = _trace_masks(graph, frozenset(queries))
    if len(traces) > EXACT_COVER_CANDIDATE_CAP:
        raise TooLarge(f"{len(traces)} cover candidates "
                       f"(exact cap {EXACT_COVER_CANDIDATE_CAP})")

    def covers(left, k):
        return not left or k > 0 and any(
            covers(left & ~t, k - 1) for t in traces if t & left & -left)

    return next(k for k in itertools.count() if covers(universe, k))


def _coverable(n, traces):
    """Yield, for kappa = 0, 1, ..., the family of class sets that kappa
    traces cover: the last one's members, each joined by a subset of a trace."""
    without = []        # without[i]: the family of sets missing class i
    for i in range(n):
        without = [w | w << (1 << i) for w in without] + [(1 << (1 << i)) - 1]
    family = 1
    while True:
        yield family
        grown = family
        for t in traces:
            part = family
            for i in range(n):
                if t >> i & 1:
                    part |= (part & without[i]) << (1 << i)
            grown |= part
        family = grown


# ---------------------------------------------------------- query-level alpha

def _alphas(graph, queries, top) -> list:
    """[(alpha_i, m*) for kappa = 0, 1, ...] of one positive query set, up
    to kappa = top, or up to the first entry that holds for every larger
    kappa if that comes sooner.

    m* is the size of the smallest class set missing from the family
    that kappa traces cover (a smallest failing query set has one query
    per class); alpha_i = (m* - 1) / |Q_i|, or 1.0 with m* = None once
    every class is in it.  m* grows by at least 1 per kappa, as a failing
    set less one query fails with one keyword less.  Empty sets are fully
    expressive; a query no keyword reaches fails at singletons.
    """
    universe = frozenset(queries)
    n = len(universe)
    if n == 0:
        return [(1.0, None)]
    if n > EXACT_ALPHA_QUERY_CAP:
        raise TooLarge(f"|Q_i| = {n} (exact alpha cap {EXACT_ALPHA_QUERY_CAP})")
    if len(graph.keywords) > EXACT_COVER_CANDIDATE_CAP:
        raise TooLarge(f"{len(graph.keywords)} cover candidates "
                       f"(exact cap {EXACT_COVER_CANDIDATE_CAP})")
    try:
        whole, traces = _trace_masks(graph, universe)
    except Uncoverable:
        return [(0.0, 1)]
    bits = whole.bit_length()
    sized = [1]         # sized[k]: the family of class sets of size k
    for i in range(bits):
        sized = [a | b << (1 << i) for a, b in zip(sized + [0], [0] + sized)]
    out, m_star = [], 0
    for _, family in zip(range(top + 1), _coverable(bits, traces)):
        if family >> whole:
            return out + [(1.0, None)]
        m_star += 1
        while not sized[m_star] & ~family:
            m_star += 1
        out.append(((m_star - 1) / n, m_star))
    return out


def advertiser_alpha(graph, queries, kappa):
    """(alpha_i, m*) for one positive query set: the kappa entry of
    _alphas."""
    return _alphas(graph, queries, kappa)[-1]


def _system_alpha(known, kappa) -> float:
    """min over advertisers of alpha_i at kappa, read from the _alphas of
    their _known entries."""
    return min((a[min(kappa, len(a) - 1)][0] for a, _ in known), default=1.0)


def ql_expressiveness(graph, positive_sets, kappa) -> float:
    """System alpha: min over advertisers of advertiser_alpha."""
    return min((advertiser_alpha(graph, positive_sets[adv], kappa)[0]
                for adv in sorted(positive_sets)), default=1.0)


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
    alpha = ql_expressiveness(graph, positive_sets, kappa)
    return _degree_report(graph.max_degree(),
                          _max_meeting(graph, positive_sets.values()), kappa, alpha)


def _degree_report(gamma, widest, kappa, alpha) -> DegreeBoundReport:
    """The report from the graph's max degree gamma and the largest
    number widest of keywords meeting one positive set."""
    beta = _beta(widest, kappa)
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


def _containment(queries, keywords, tokens) -> BipartiteGraph:
    """containment_graph, with tokens mapping each string to its token set."""
    edges = [(q, s) for s in keywords if tokens[s]
             for q in queries if tokens[s] <= tokens[q]]
    return BipartiteGraph(queries, keywords, edges, strict=False)


def containment_graph(queries, keywords) -> BipartiteGraph:
    """Edge (q, s) when every token of s appears among q's tokens."""
    tokens = {x: frozenset(tokenize(x)) for x in (*queries, *keywords)}
    return _containment(queries, keywords, tokens)


def extract_micro_markets(corpus: Corpus) -> list:
    """One market per term shared by >= 1 keyword and >= 1 query, in term
    order, from one tokenization of each corpus string and one pass that
    files each string under its terms."""
    tokens = {x: frozenset(tokenize(x)) for x in (*corpus.keywords, *corpus.queries)}
    by_term = {}        # term -> ([keywords], [queries]) holding it
    for s in corpus.keywords:
        for term in tokens[s]:
            by_term.setdefault(term, ([], []))[0].append(s)
    for q in corpus.queries:
        for term in tokens[q]:
            if term in by_term:
                by_term[term][1].append(q)
    markets = []
    for term in sorted(by_term):
        kws, qs = (tuple(sorted(v)) for v in by_term[term])
        if qs:
            markets.append(MicroMarket(term, kws, qs, _containment(qs, kws, tokens)))
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
    any(sim(q, s) > theta).  reachable drops queries with no neighbor.
    The similarities come in one row per keyword, from one _distances
    pass over all of the market's queries."""
    packed = _packed(market.queries)
    rows = {s: _similarities(packed, s) for s in market.keywords}
    best = {}
    for adv in sorted(corpus.bids):
        kws = corpus.bids[adv].intersection(market.keywords)
        if kws:
            best[adv] = [max(col) for col in zip(*(rows[s] for s in kws))]
    linked = frozenset(q for q in market.queries if market.graph.query_neighbors(q))
    for theta in thetas:
        sets = {adv: frozenset(q for q, b in zip(market.queries, top) if b > theta)
                for adv, top in best.items()}
        yield theta, sets, {adv: pos & linked for adv, pos in sets.items()}


def _known(graph, sets, top, memo) -> list:
    """(_alphas up to top, #keywords meeting the set) of each advertiser's
    positive set, in advertiser order; memo maps the sets met so far to
    theirs, so each distinct set is worked out once."""
    out = []
    for adv in sorted(sets):
        pos = sets[adv]
        if pos not in memo:
            memo[pos] = (_alphas(graph, pos, top), len(graph.keywords_meeting(pos)))
        out.append(memo[pos])
    return out


def _add_cells(cells, market, theta, sets, kappas, memo) -> None:
    """Append one (alpha, beta) per kappa of the grid to its bucket."""
    known = _known(market.graph, sets, max(kappas), memo)
    widest = max((m for _, m in known), default=0)
    for kappa in kappas:
        kb = math.ceil(10 * kappa / market.size) / 10
        cells.setdefault((f"{theta:.1f}", f"{kb:.1f}"), []).append(
            (_system_alpha(known, kappa), _beta(widest, kappa)))


def expressiveness_sweep(corpus: Corpus, thetas=DEFAULT_THETA_GRID,
                         kappas=None) -> ExpressivenessTable:
    """Tabulate mean alpha and beta per (theta, kappa/size decile), and
    check the degree bound at kappa = 1 per (market, theta), from one
    positive query set per (advertiser, market, theta).

    kappas defaults to 1..size per market; a market adds cells only for
    the kappas in 1..size, and computes each distinct positive set's
    alphas, up to the largest of them, and its count of keywords meeting
    it once.  An empty theta or kappa
    grid, a theta that is not a real number in [0, 1) or a kappa that is
    not an integer >= 1 raises ValidationError before any market is
    extracted.
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
        if not isinstance(theta, numbers.Real):
            raise ValidationError(f"theta must be a real number, got {theta!r}")
        if not 0.0 <= theta < 1.0:
            raise ValidationError(f"theta must lie in [0, 1), got {theta}")
    for kappa in kappas or ():
        if not isinstance(kappa, numbers.Real) or kappa % 1:
            raise ValidationError(f"kappa must be an integer, got {kappa!r}")
        if kappa < 1:
            raise ValidationError(f"kappa must be >= 1, got {kappa}")
    cells = {}
    skipped, degree_rows, degree_skipped = [], [], []
    for market in extract_micro_markets(corpus):
        grid = [int(k) for k in (kappas or range(1, market.size + 1))
                if 1 <= k <= market.size]
        top, memo = max(grid, default=1), {}
        gamma = market.graph.max_degree()
        tabulating = bool(grid)
        for theta, sets, reachable in _positive_sets(corpus, market, thetas):
            if tabulating:
                try:
                    _add_cells(cells, market, theta, sets, grid, memo)
                except TooLarge as exc:
                    skipped.append((market.term, str(exc)))
                    tabulating = False
            try:
                known = _known(market.graph, reachable, top, memo)
            except TooLarge as exc:
                degree_skipped.append((market.term, str(exc)))
            else:
                degree_rows.append((market.term, theta, _degree_report(
                    gamma, max((m for _, m in known), default=0), 1,
                    _system_alpha(known, 1))))
    rows = {key: (sum(p[0] for p in pairs) / len(pairs),
                  sum(p[1] for p in pairs) / len(pairs), len(pairs))
            for key, pairs in cells.items()}
    return ExpressivenessTable(rows, tuple(skipped), tuple(degree_rows),
                               tuple(degree_skipped))
