import functools
import itertools
import math
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bmlab.errors import (EmptyStrings, TooLarge, Uncoverable,
                          ValidationError)
from bmlab import expressiveness
from bmlab.expressiveness import (DEFAULT_THETA_GRID, Corpus, _Index,
                                  _beta, _distances, _named_alphas, _packed,
                                  _positive_sets,
                                  advertiser_alpha, containment_graph,
                                  extract_micro_markets, expressiveness_sweep,
                                  kl_expressiveness, levenshtein, load_corpus,
                                  min_cover_size, degree_bound_check,
                                  ql_expressiveness, similarity, tokenize)
from bmlab.market import BipartiteGraph
from helpers import (dp_levenshtein, dp_similarity, exhaustive_min_cover,
                     micro_markets_oracle, positive_queries, simple_scenario,
                     subset_alpha_oracle)

DATA = Path(__file__).parent / "data"
BENCH = DATA / "corpus_bench"
GOLDEN = DATA / "golden"

# ----------------------------------------------------------------- strings


def edit_distance_oracle(a, b):
    @functools.cache
    def d(i, j):
        if i == 0 or j == 0:
            return i + j
        return min(d(i - 1, j) + 1, d(i, j - 1) + 1,
                   d(i - 1, j - 1) + (a[i - 1] != b[j - 1]))
    return d(len(a), len(b))


def test_levenshtein_basics():
    assert levenshtein("abc", "abc") == 0
    assert levenshtein("abc", "abd") == 1
    assert levenshtein("", "abc") == 3
    assert levenshtein("kitten", "sitting") == 3


@given(st.text(alphabet="abcd", max_size=8), st.text(alphabet="abcd", max_size=8))
def test_levenshtein_matches_recursive_oracle(a, b):
    assert levenshtein(a, b) == edit_distance_oracle(a, b)


@given(st.text(alphabet="abc", max_size=6), st.text(alphabet="abc", max_size=6),
       st.text(alphabet="abc", max_size=6))
def test_levenshtein_symmetry_and_triangle(a, b, c):
    assert levenshtein(a, b) == levenshtein(b, a)
    assert levenshtein(a, c) <= levenshtein(a, b) + levenshtein(b, c)


# empty, ASCII, accented, CJK and non-BMP characters; lengths past the
# 64- and 128-bit word boundaries of the bit-parallel kernel
_EDIT_ALPHABET = "ab \u00e9\u4e2d\U0001F600"
_EDIT_TEXT = st.text(alphabet=_EDIT_ALPHABET, max_size=150)


@settings(max_examples=300, deadline=None)
@given(_EDIT_TEXT, _EDIT_TEXT)
@example("", "")
@example("", "\U0001F600" * 3)
@example("a" * 200, "a" * 200)
@example("a" * 64, "a" * 65)
@example("ab" * 70, "ba" * 70)
@example("\U0001F600" * 129, "\U0001F600" * 64 + "a" * 65)
@example("x" * 128 + "y", "y" + "x" * 128)
def test_levenshtein_matches_dp_table(a, b):
    assert levenshtein(a, b) == dp_levenshtein(a, b)


# packed field widths: short and empty ones, and ones around the 30-bit
# digit of a Python int and the 64- and 128-bit words
_FIELD = st.one_of(st.integers(0, 6), st.integers(28, 32), st.integers(62, 66),
                   st.integers(126, 130)).flatmap(
    lambda n: st.text(alphabet=_EDIT_ALPHABET, min_size=n, max_size=n))


@settings(max_examples=150, deadline=None)
@given(st.lists(_FIELD, min_size=1, max_size=40),
       st.text(alphabet=_EDIT_ALPHABET, max_size=40))
@example([""], "")
@example(["", "a", ""], "")
@example(["", "ab", ""], "ba\U0001F600")
@example(["a" * 29, "a" * 30, "b"], "a" * 40)
@example(["a" * 64, "a" * 64, "a"], "a")
@example(["\U0001F600" * 128, "", "\u4e2d" * 64], "\u4e2d\U0001F600" * 20)
def test_packed_distances_match_dp_table(patterns, text):
    """One pass over text gives each packed pattern its own distance, even
    where (eq & pv) + pv carries out of a field full of matches."""
    assert _distances(_packed(patterns), text) == \
        [dp_levenshtein(p, text) for p in patterns]


def test_similarity_values():
    assert similarity("abc", "abc") == pytest.approx(1.0)
    assert similarity("abc", "abd") == pytest.approx(1 - 1 / 3)
    assert similarity("", "abc") == pytest.approx(0.0)
    with pytest.raises(EmptyStrings):
        similarity("", "")


def test_tokenize():
    assert tokenize("Cheap Car-Insurance!") == ("cheap", "car", "insurance")


# --------------------------------------------------------- positive queries
# positive_queries is the oracle (tests/helpers.py) the sweep's single pass
# is checked against below


def test_positive_queries_exact_keyword():
    got = positive_queries(["shoes"], ["shoes", "boots"], 0.9)
    assert got == {"shoes"}


def test_positive_queries_loose_theta():
    pool = ["shoes", "shoe", "zzz"]
    got = positive_queries(["shoes"], pool, 0.0)
    assert "shoes" in got and "shoe" in got and "zzz" not in got


def test_positive_queries_theta_monotone():
    rng = np.random.default_rng(3)
    words = ["".join(rng.choice(list("abcde"), size=rng.integers(2, 7)))
             for _ in range(30)]
    kws = words[:5]
    pool = words[5:]
    assert len(positive_queries(kws, pool, 0.5)) >= \
        len(positive_queries(kws, pool, 0.7))


def test_positive_queries_theta_range():
    with pytest.raises(ValidationError):
        positive_queries(["a"], ["a"], 1.0)


# -------------------------------------------------------------------- beta


def test_kl_expressiveness_scenario_form():
    values = {"a": {f"q{j}": 1.0 for j in range(4)}}
    assert kl_expressiveness(simple_scenario(values, kappa=2)) == pytest.approx(0.5)
    assert kl_expressiveness(simple_scenario(values, kappa=4)) == pytest.approx(1.0)


def test_kl_expressiveness_min_over_advertisers():
    vals = {"a": {f"q{j}": 1.0 for j in range(2)},
            "b": {f"q{j}": 1.0 for j in range(5)}}
    sc = simple_scenario(vals, kappa=2)
    assert kl_expressiveness(sc) == pytest.approx(0.4)


def test_kl_expressiveness_binding_advertiser_equality():
    from helpers import random_scenario

    rng = np.random.default_rng(8)
    for _ in range(25):
        sc = random_scenario(rng, max_adv=3, max_kw=5, max_q=5)
        beta = kl_expressiveness(sc)
        counts = [len([s for s in sc.graph.keywords
                       if any(sc.valuations.value(i, q) > 0
                              for q in sc.graph.keyword_neighbors(s))])
                  for i in sc.advertisers]
        assert all(sc.kappa >= beta * c - 1e-12 for c in counts)
        assert any(abs(min(1.0, sc.kappa / c) - beta) < 1e-12
                   for c in counts if c > 0) or beta == 1.0


# --------------------------------------------------------------- set cover


def cover_graph(cover_map, queries):
    kws = sorted(cover_map)
    edges = [(q, s) for s in kws for q in cover_map[s]]
    return BipartiteGraph(sorted(queries), kws, edges, strict=False)


def test_min_cover_simple():
    g = cover_graph({"s": ["q1", "q2"]}, ["q1", "q2"])
    assert min_cover_size(g, ["q1", "q2"]) == 1


def test_min_cover_disjoint_singletons():
    g = cover_graph({f"s{j}": [f"q{j}"] for j in range(3)},
                    [f"q{j}" for j in range(3)])
    assert min_cover_size(g, [f"q{j}" for j in range(3)]) == 3


def test_min_cover_greedy_trap():
    """Greedy grabs the big decoy set and pays 3; the optimum is 2."""
    cover = {"x": ["a", "b", "c"], "y": ["d", "e", "f"],
             "z": ["b", "c", "d", "e"]}
    g = cover_graph(cover, list("abcdef"))
    assert min_cover_size(g, list("abcdef")) == 2


def test_min_cover_uncoverable_and_caps():
    g = cover_graph({"s": ["q1"]}, ["q1", "q2"])
    with pytest.raises(Uncoverable):
        min_cover_size(g, ["q1", "q2"])
    big = cover_graph({f"s{j}": ["q0"] for j in range(26)}, ["q0"])
    with pytest.raises(TooLarge):
        min_cover_size(big, ["q0"])


def test_min_cover_matches_exhaustive_oracle():
    rng = np.random.default_rng(4)
    for _ in range(60):
        n_q = int(rng.integers(1, 7))
        n_s = int(rng.integers(1, 9))
        cover = {}
        for j in range(n_s):
            picks = rng.random(n_q) < rng.uniform(0.2, 0.9)
            cover[f"s{j}"] = [f"q{k}" for k in np.flatnonzero(picks)]
        queries = [f"q{k}" for k in range(n_q)]
        g = cover_graph(cover, queries)
        want = exhaustive_min_cover(cover, queries)
        if want is None:
            with pytest.raises(Uncoverable):
                min_cover_size(g, queries)
        else:
            assert min_cover_size(g, queries) == want


# ------------------------------------------------------------------- alpha


def test_alpha_single_shared_keyword():
    g = cover_graph({"s": ["q1", "q2", "q3"]}, ["q1", "q2", "q3"])
    alpha, m_star = advertiser_alpha(g, ["q1", "q2", "q3"], kappa=1)
    assert alpha == 1.0 and m_star is None


def test_alpha_distinct_keywords_binding_budget():
    g = cover_graph({f"s{j}": [f"q{j}"] for j in range(4)},
                    [f"q{j}" for j in range(4)])
    alpha, m_star = advertiser_alpha(g, [f"q{j}" for j in range(4)], kappa=2)
    assert m_star == 3
    assert alpha == pytest.approx(0.5)


def test_alpha_budget_covers_everything():
    g = cover_graph({f"s{j}": [f"q{j}"] for j in range(3)},
                    [f"q{j}" for j in range(3)])
    alpha, m_star = advertiser_alpha(g, [f"q{j}" for j in range(3)], kappa=3)
    assert alpha == 1.0 and m_star is None


def test_alpha_isolated_query_is_zero():
    g = cover_graph({"s": ["q1"]}, ["q1", "q2"])
    alpha, m_star = advertiser_alpha(g, ["q1", "q2"], kappa=1)
    assert alpha == 0.0 and m_star == 1


def test_alpha_too_large():
    """The caps bind at 21 positive queries and 26 keywords, not before."""
    queries = [f"q{j}" for j in range(21)]
    g = cover_graph({f"s{j}": [q] for j, q in enumerate(queries)}, queries)
    enough = cover_graph({f"s{j}": ["q0"] for j in range(25)}, ["q0"])
    many = cover_graph({f"s{j}": ["q0"] for j in range(26)}, ["q0"])
    for alpha in (advertiser_alpha, subset_alpha_oracle):
        assert alpha(g, queries[:20], kappa=1) == (1 / 20, 2)
        with pytest.raises(TooLarge, match="21"):
            alpha(g, queries, kappa=1)
        assert alpha(enough, ["q0"], kappa=1) == (1.0, None)
        with pytest.raises(TooLarge, match="26"):
            alpha(many, ["q0"], kappa=1)


def test_alpha_subset_coverability_from_m_star():
    """Below m*, every subset is kappa-coverable; at m*, some is not."""
    rng = np.random.default_rng(11)
    for _ in range(20):
        n_q = int(rng.integers(2, 6))
        n_s = int(rng.integers(1, 6))
        cover = {f"s{j}": [f"q{k}" for k in np.flatnonzero(rng.random(n_q) < 0.6)]
                 for j in range(n_s)}
        queries = [f"q{k}" for k in range(n_q)]
        g = cover_graph(cover, queries)
        kappa = int(rng.integers(1, 4))
        alpha, m_star = advertiser_alpha(g, queries, kappa)
        if m_star is None:
            assert alpha == 1.0
            continue
        cap = m_star - 1
        assert alpha == pytest.approx(cap / n_q)
        for size in range(1, cap + 1):
            for sub in itertools.combinations(queries, size):
                want = exhaustive_min_cover(cover, sub)
                assert want is not None and want <= kappa
        failing = [sub for sub in itertools.combinations(queries, m_star)
                   if (exhaustive_min_cover(cover, sub) or float("inf")) > kappa]
        assert failing


def alpha_oracle_graphs(rng):
    """Random graphs, plus every r-subset of n queries as a keyword, whose
    m* lies far above kappa + 1 (every set of r queries is 1-coverable)."""
    for n in range(2, 7):
        for r in range(1, n + 1):
            queries = [f"q{k}" for k in range(n)]
            cover = {f"s{j}": list(c)
                     for j, c in enumerate(itertools.combinations(queries, r))}
            if len(cover) <= 10:
                yield cover_graph(cover, queries), queries
    for _ in range(300):
        n_q = int(rng.integers(1, 10))
        p = rng.uniform(0.15, 0.6)
        cover = {f"s{j}": [f"q{k}" for k in np.flatnonzero(rng.random(n_q) < p)]
                 for j in range(int(rng.integers(1, 8)))}
        queries = [f"q{k}" for k in range(n_q)]
        yield cover_graph(cover, queries), [q for q in queries if rng.random() < 0.8]


def test_alpha_matches_subset_oracle_for_every_kappa():
    rng = np.random.default_rng(23)
    paths = {"empty": 0, "uncoverable": 0, "full": 0, "m* > kappa + 2": 0}
    for g, picked in alpha_oracle_graphs(rng):
        for kappa in range(1, len(g.keywords) + 2):
            got = advertiser_alpha(g, picked, kappa)
            assert got == subset_alpha_oracle(g, picked, kappa), (picked, kappa)
            if not picked:
                paths["empty"] += 1
            elif got[1] == 1:
                paths["uncoverable"] += 1
            elif got[1] is None:
                paths["full"] += 1
            elif got[1] > kappa + 2:
                paths["m* > kappa + 2"] += 1
    assert all(paths.values()), paths


def test_alpha_memo_is_per_graph():
    """Same query names, different edges: no cover number is shared."""
    queries = ["q1", "q2", "q3"]
    star = cover_graph({"s1": queries, "s2": ["q1"]}, queries)
    split = cover_graph({"s1": ["q1"], "s2": ["q2", "q3"]}, queries)
    for _ in range(2):
        assert advertiser_alpha(star, queries, kappa=1) == (1.0, None)
        assert advertiser_alpha(split, queries, kappa=1) == (1 / 3, 2)
        assert advertiser_alpha(star, ["q2", "q3"], kappa=1) == (1.0, None)
        assert advertiser_alpha(split, ["q2", "q3"], kappa=1) == (1.0, None)


def test_kappa_must_be_an_integer_at_least_zero():
    g = containment_graph(["a b", "a c"], ["a", "b"])
    sets = {"x": {"a b", "a c"}}
    calls = (lambda k: advertiser_alpha(g, sets["x"], k),
             lambda k: ql_expressiveness(g, sets, k),
             lambda k: degree_bound_check(g, sets, k))
    for call in calls:
        with pytest.raises(ValidationError, match="kappa must be >= 0, got -1"):
            call(-1)
        for kappa in (2.5, "1", None, float("nan"), float("inf")):
            with pytest.raises(ValidationError, match="kappa must be an integer"):
                call(kappa)
    assert advertiser_alpha(g, sets["x"], 0) == (0.0, 1)
    assert advertiser_alpha(g, set(), 0) == (1.0, None)
    assert ql_expressiveness(g, sets, 0) == 0.0
    assert degree_bound_check(g, sets, 0).alpha == 0.0
    assert advertiser_alpha(g, sets["x"], 2.0) == advertiser_alpha(g, sets["x"], 2)


def test_one_class_structure_gives_each_set_its_own_size():
    """{q1, q2} and {q1, q3, q4, q5} both read as two classes, each
    reached by its own keyword: one m* run serves both, and each alpha
    divides by its own |Q_i|."""
    queries = [f"q{j}" for j in range(1, 6)]
    g = cover_graph({"s1": ["q1"], "s2": ["q2"], "s3": ["q3", "q4", "q5"]}, queries)
    small, large = ["q1", "q2"], ["q1", "q3", "q4", "q5"]
    memo = {}
    got = [_named_alphas(_Index(g), qs, 2, memo) for qs in (small, large)]
    assert len(memo) == 1
    assert [a[1] for a in got] == [(1 / 2, 2), (1 / 4, 2)]
    for qs, alphas in zip((small, large), got):
        assert alphas == [subset_alpha_oracle(g, qs, k) for k in range(3)]
    assert ql_expressiveness(g, {"a": small, "b": large}, 1) == 1 / 4


def test_ql_expressiveness_min_over_advertisers():
    g = cover_graph({"s1": ["q1", "q2"], "s2": ["q3"], "s3": ["q4"]},
                    [f"q{j}" for j in range(1, 5)])
    sets = {"a": {"q1", "q2"}, "b": {"q2", "q3", "q4"}}
    assert ql_expressiveness(g, sets, kappa=1) == pytest.approx(1 / 3)
    assert ql_expressiveness(g, {"a": sets["a"]}, kappa=1) == 1.0
    assert ql_expressiveness(g, {}, kappa=1) == 1.0


# ------------------------------------------------------------ degree bound


def test_degree_bound_matching_graph_equality():
    n = 4
    g = BipartiteGraph([f"q{j}" for j in range(n)],
                       [f"s{j}" for j in range(n)],
                       [(f"q{j}", f"s{j}") for j in range(n)])
    sets = {"a": {f"q{j}" for j in range(n)}}
    rep = degree_bound_check(g, sets, kappa=2)
    assert rep.gamma == 1
    assert rep.alpha == pytest.approx(rep.beta)
    assert rep.holds


def test_degree_bound_single_edge():
    g = BipartiteGraph(["q"], ["s"], [("q", "s")])
    rep = degree_bound_check(g, {"a": {"q"}}, kappa=1)
    assert rep.alpha == rep.beta == 1.0 and rep.holds


def test_degree_bound_random_graphs():
    rng = np.random.default_rng(17)
    trials = 0
    for _ in range(200):
        n_q = int(rng.integers(1, 6))
        n_s = int(rng.integers(1, 6))
        edges = [(f"q{a}", f"s{b}") for a in range(n_q) for b in range(n_s)
                 if rng.random() < 0.5]
        g = BipartiteGraph([f"q{j}" for j in range(n_q)],
                           [f"s{j}" for j in range(n_s)], edges, strict=False)
        # positive queries must be reachable through the graph, as in any
        # auction-derived footprint; isolated ones make alpha vacuously 0
        sets = {"a": {f"q{j}" for j in range(n_q)
                      if g.query_neighbors(f"q{j}") and rng.random() < 0.7}}
        rep = degree_bound_check(g, sets, kappa=int(rng.integers(1, 4)))
        if rep.gamma == 0:
            continue
        assert rep.holds, rep
        trials += 1
    assert trials >= 150


# ------------------------------------------------------------------ corpus


def write_corpus(tmp_path, bids, queries):
    (tmp_path / "bids.csv").write_text(
        "advertiser,keyword\n" + "".join(f"{a},{k}\n" for a, k in bids))
    (tmp_path / "queries.csv").write_text(
        "query,frequency\n" + "".join(f"{q},{f}\n" for q, f in queries))
    return tmp_path


def test_load_corpus_roundtrip(tmp_path):
    d = write_corpus(tmp_path, [("a", "car insurance"), ("a", "car rental"),
                                ("b", "car rental")],
                     [("cheap car insurance", 3), ("car rental deals", 2)])
    corpus = load_corpus(d)
    assert corpus.bids["a"] == {"car insurance", "car rental"}
    assert corpus.queries["car rental deals"] == pytest.approx(2.0)
    assert corpus.keywords == {"car insurance", "car rental"}


def test_load_corpus_rejects_bad_inputs(tmp_path):
    with pytest.raises(ValidationError):
        load_corpus(tmp_path)  # missing files
    d = write_corpus(tmp_path, [("a", "k")], [("q", 1)])
    (d / "queries.csv").write_text("query,count\nq,1\n")
    with pytest.raises(ValidationError):
        load_corpus(d)
    (d / "queries.csv").write_text("query,frequency\nq,-2\n")
    with pytest.raises(ValidationError):
        load_corpus(d)
    (d / "queries.csv").write_text("query,frequency\nq,abc\n")
    with pytest.raises(ValidationError):
        load_corpus(d)


def test_containment_graph_edges():
    g = containment_graph(["cheap car insurance", "boat loans"],
                          ["car insurance", "insurance"])
    assert ("cheap car insurance", "car insurance") in g.edges
    assert ("cheap car insurance", "insurance") in g.edges
    assert not g.keyword_neighbors("insurance") == ("boat loans",)
    assert g.query_neighbors("boat loans") == ()


def test_micro_market_shared_term():
    corpus = Corpus({"a": frozenset({"car insurance"})},
                    {"cheap insurance": 1.0})
    markets = extract_micro_markets(corpus)
    assert [m.term for m in markets] == ["insurance"]
    assert markets[0].keywords == ("car insurance",)
    assert markets[0].queries == ("cheap insurance",)
    assert markets[0].size == 1


def test_micro_market_no_shared_terms():
    corpus = Corpus({"a": frozenset({"boats"})}, {"cars": 1.0})
    assert extract_micro_markets(corpus) == []


def test_micro_markets_match_the_per_term_scan():
    """The one-pass index gives the markets, their order and their edges
    that scanning every keyword and query for each term gives."""
    rng = np.random.default_rng(43)
    markets = 0
    for corpus in [random_corpus(rng) for _ in range(150)] + [cap_corpus()]:
        got = [(m.term, m.keywords, m.queries, m.graph.edges)
               for m in extract_micro_markets(corpus)]
        assert got == micro_markets_oracle(corpus)
        markets += len(got)
    assert markets > 300


def test_micro_market_planted_terms():
    bids = {"a": frozenset({"red shoes", "blue hats"}),
            "b": frozenset({"green bikes"})}
    queries = {"buy red shoes": 1.0, "warm blue hats": 2.0,
               "fast green bikes": 1.0}
    markets = extract_micro_markets(Corpus(bids, queries))
    terms = {m.term for m in markets}
    # each planted pair shares its color and its noun
    assert {"red", "shoes", "blue", "hats", "green", "bikes"} <= terms


# ------------------------------------------------------------------- sweep


def test_sweep_degenerate_market_is_fully_expressive():
    corpus = Corpus({"a": frozenset({"shoes"})}, {"shoes": 1.0})
    table = expressiveness_sweep(corpus, thetas=(0.5,))
    assert table.skipped == ()
    assert set(table.rows) == {("0.5", "1.0")}
    a, b, n = table.rows[("0.5", "1.0")]
    assert a == 1.0 and b == 1.0 and n == 1


def sized_market_corpus(n_terms=3, size=4):
    """Markets of identical size so every cell mixes the same markets."""
    bids = {}
    queries = {}
    terms = [f"term{t}" for t in range(n_terms)]
    for t, term in enumerate(terms):
        kws = {f"{term} w{j}" for j in range(size)}
        bids[f"a{t}"] = frozenset(kws)
        for j in range(size):
            queries[f"{term} w{j} buy"] = 1.0
    return Corpus(bids, queries)


def test_sweep_monotone_in_kappa_and_theta():
    corpus = sized_market_corpus()
    table = expressiveness_sweep(corpus, thetas=(0.8, 0.4, 0.0))
    assert table.skipped == ()
    by_theta = {}
    for (th, kb), (a, b, _) in table.rows.items():
        by_theta.setdefault(th, []).append((float(kb), a, b))
    for th, rows in by_theta.items():
        rows.sort()
        alphas = [r[1] for r in rows]
        betas = [r[2] for r in rows]
        assert alphas == sorted(alphas)
        assert betas == sorted(betas)
    # fixed kappa bucket: lower theta -> weakly more positive queries ->
    # weakly smaller metrics
    buckets = {kb for (_, kb) in table.rows}
    for kb in buckets:
        col = [(float(th), *table.rows[(th, kb)][:2])
               for (th, kb2) in table.rows if kb2 == kb]
        col.sort(reverse=True)
        alphas = [a for _, a, _ in col]
        betas = [b for _, _, b in col]
        assert alphas == sorted(alphas, reverse=True)
        assert betas == sorted(betas, reverse=True)


def test_sweep_csv_shape():
    table = expressiveness_sweep(sized_market_corpus(2, 3), thetas=(0.5, 0.0))
    csv_text = table.to_csv()
    lines = csv_text.strip().split("\n")
    assert lines[0] == "theta_bucket,kappa_bucket,mean_alpha,mean_beta,n_markets"
    assert len(lines) == len(table.rows) + 1
    assert 0.0 <= table.beta_exceeds_third_alpha() <= 1.0


def test_sweep_rejects_theta_before_any_market(monkeypatch):
    from bmlab import expressiveness

    def no_markets(corpus):
        raise AssertionError("markets extracted before theta was checked")

    monkeypatch.setattr(expressiveness, "extract_micro_markets", no_markets)
    empty = Corpus({"a": frozenset({"boats"})}, {"cars": 1.0})
    for corpus in (sized_market_corpus(), empty):
        for theta in (1.0, -0.1, float("nan")):
            with pytest.raises(ValidationError, match="theta must lie in"):
                expressiveness_sweep(corpus, thetas=(0.5, theta))


def test_sweep_rejects_bad_grid_values_before_any_market(monkeypatch):
    from bmlab import expressiveness

    def no_markets(corpus):
        raise AssertionError("markets extracted before the grid was checked")

    monkeypatch.setattr(expressiveness, "extract_micro_markets", no_markets)
    corpus = sized_market_corpus()
    for kappa in (1.5, "2", None, float("nan"), float("inf")):
        with pytest.raises(ValidationError, match="kappa must be an integer"):
            expressiveness_sweep(corpus, kappas=(1, kappa))
    for theta in ("0.5", None):
        with pytest.raises(ValidationError, match="theta must be a real number"):
            expressiveness_sweep(corpus, thetas=(0.5, theta))


def test_sweep_integral_float_kappa_is_its_integer():
    corpus = sized_market_corpus()
    assert expressiveness_sweep(corpus, kappas=(2.0, 3.0)) == \
        expressiveness_sweep(corpus, kappas=(2, 3))


def cap_corpus():
    """The corpus of test_sweep_cap_stops_cells_but_not_degree_rows:
    market "x" has 26 queries 0.4-similar to its one keyword "x y"."""
    queries = {"x y": 1.0, **{f"x z{a}{b}": 1.0 for a in "abcde" for b in "abcde"}}
    return Corpus({"a": frozenset({"x y"})}, queries)


def test_sweep_cap_stops_cells_but_not_degree_rows():
    """Market "x" has 26 queries 0.4-similar to the keyword but only one
    keyword neighbor: its cells stop at theta 0.3, where |Q_i| passes
    the alpha cap, while its degree rows, on the one reachable query,
    go on for every theta."""
    queries = {"x y": 1.0, **{f"x z{a}{b}": 1.0 for a in "abcde" for b in "abcde"}}
    table = expressiveness_sweep(Corpus({"a": frozenset({"x y"})}, queries))
    assert table.skipped == (("x", "|Q_i| = 26 (exact alpha cap 20)"),)
    assert table.degree_skipped == ()
    for theta in DEFAULT_THETA_GRID:
        assert table.rows[(f"{theta:.1f}", "1.0")][2] == (2 if theta >= 0.4 else 1)
    assert [(term, theta) for term, theta, _ in table.degree_rows] == \
        [(term, theta) for term in ("x", "y") for theta in DEFAULT_THETA_GRID]


def test_sweep_disjoint_phrases_at_the_query_cap_is_fast():
    """One advertiser bids on 20 phrases sharing a term, queried as is:
    each query's own keyword is its one neighbor, so every k of them need
    k keywords, and the whole set only becomes coverable at kappa = 20,
    the top of the default grid."""
    phrases = [f"x a{j}" for j in range(1, 21)]
    corpus = Corpus({"a": frozenset(phrases)}, dict.fromkeys(phrases, 1.0))
    graph = containment_graph(phrases, phrases)
    assert [advertiser_alpha(graph, phrases, k) for k in range(1, 21)] == \
        [(k / 20, k + 1) for k in range(1, 20)] + [(1.0, None)]
    t0 = time.perf_counter()
    table = expressiveness_sweep(corpus)
    dt = time.perf_counter() - t0
    assert table.skipped == ()
    assert table.rows[("0.0", "0.5")] == pytest.approx(((9 + 10) / 40,) * 2 + (2,))
    assert dt < 5.0, dt


def test_sweep_out_of_range_kappa_grid_records_no_skip():
    """No kappa of the grid lies in 1..size of the one-keyword markets,
    so no alpha is computed and the query cap is never reached."""
    table = expressiveness_sweep(cap_corpus(), kappas=(5,))
    assert table.skipped == ()
    assert table.rows == {}


# ---------------------------------------------- single pass against oracle


def random_corpus(rng):
    """A small corpus over a tiny vocabulary: short strings make
    similarities equal to a grid theta common, several advertisers leave
    markets holding no keyword of some of them, and multi-word keywords
    leave market queries without a keyword neighbor."""
    words = ["".join(rng.choice(list("abc"), size=int(rng.integers(1, 4))))
             for _ in range(6)]

    def phrase(most):
        return " ".join(rng.choice(words, size=int(rng.integers(1, most + 1))))

    bids = {f"a{j}": frozenset(phrase(2) for _ in range(int(rng.integers(1, 4))))
            for j in range(int(rng.integers(1, 4)))}
    return Corpus(bids, {phrase(3): 1.0 for _ in range(int(rng.integers(1, 9)))})


def oracle_sets(corpus, market, theta, pool):
    """Positive sets from the DP-table similarity, not the packed kernel."""
    return {adv: positive_queries(kws & set(market.keywords), pool, theta, sim=dp_similarity)
            for adv, kws in sorted(corpus.bids.items()) if kws & set(market.keywords)}


def linked_queries(market):
    return [q for q in market.queries if market.graph.query_neighbors(q)]


def decoded(market, masks):
    """Query masks as the sets of market queries they hold."""
    return {adv: frozenset(q for i, q in enumerate(market.queries) if m >> i & 1)
            for adv, m in masks.items()}


def test_single_pass_positive_sets_match_oracle():
    rng = np.random.default_rng(31)
    seen = {"tie": 0, "no keyword in market": 0, "no neighbor": 0}
    for _ in range(200):
        corpus = random_corpus(rng)
        for market in extract_micro_markets(corpus):
            linked = linked_queries(market)
            seen["no neighbor"] += len(linked) < len(market.queries)
            seen["no keyword in market"] += any(
                not kws & set(market.keywords) for kws in corpus.bids.values())
            index = _Index(market.graph)
            assert decoded(market, {"": index.linked}) == {"": frozenset(linked)}
            for theta, sets, reachable in _positive_sets(corpus, market, index.linked,
                                                         DEFAULT_THETA_GRID):
                assert list(sets) == sorted(sets) == list(reachable)
                assert decoded(market, sets) == oracle_sets(corpus, market, theta,
                                                            market.queries)
                assert decoded(market, reachable) == oracle_sets(corpus, market, theta,
                                                                 linked)
                # a query whose best similarity is theta itself is not positive
                seen["tie"] += any(
                    max(dp_similarity(q, s) for s in kws & set(market.keywords)) == theta
                    for kws in corpus.bids.values() if kws & set(market.keywords)
                    for q in market.queries)
    assert all(seen.values()), seen


def test_positive_sets_follow_any_theta_order():
    """Bisection on the sorted best similarities serves thetas in any
    order, repeats included."""
    rng = np.random.default_rng(47)
    thetas = (0.3, 0.9, 0.0, 0.55, 0.3, 0.5)
    for _ in range(40):
        corpus = random_corpus(rng)
        for market in extract_micro_markets(corpus):
            linked = _Index(market.graph).linked
            for theta, sets, _ in _positive_sets(corpus, market, linked, thetas):
                assert decoded(market, sets) == oracle_sets(corpus, market, theta,
                                                            market.queries)


def test_sweep_degree_rows_match_oracle():
    rng = np.random.default_rng(37)
    rows = 0
    for _ in range(100):
        corpus = random_corpus(rng)
        want, want_skipped = [], []
        for market in extract_micro_markets(corpus):
            for theta in DEFAULT_THETA_GRID:
                sets = oracle_sets(corpus, market, theta, linked_queries(market))
                try:
                    rep = degree_bound_check(market.graph, sets, 1)
                except TooLarge as exc:
                    want_skipped.append((market.term, str(exc)))
                else:
                    want.append((market.term, theta, rep))
        table = expressiveness_sweep(corpus)
        assert table.degree_rows == tuple(want)
        assert table.degree_skipped == tuple(want_skipped)
        rows += len(want)
    assert rows > 1000


def sweep_cells_oracle(corpus, kappas=None):
    """The sweep's rows and skipped, rebuilt from oracle_sets over all
    market queries, subset_alpha_oracle per advertiser and _beta."""
    cells, skipped = {}, []
    for market in extract_micro_markets(corpus):
        grid = kappas or range(1, market.size + 1)
        for theta in DEFAULT_THETA_GRID:
            sets = oracle_sets(corpus, market, theta, market.queries)
            widest = max((len(market.graph.keywords_meeting(pos))
                          for pos in sets.values()), default=0)
            try:
                new = [(kappa, min((subset_alpha_oracle(market.graph, sets[adv], kappa)[0]
                                    for adv in sorted(sets)), default=1.0))
                       for kappa in grid if 1 <= kappa <= market.size]
            except TooLarge as exc:
                skipped.append((market.term, str(exc)))
                break
            for kappa, alpha in new:
                kb = math.ceil(10 * kappa / market.size) / 10
                cells.setdefault((f"{theta:.1f}", f"{kb:.1f}"), []).append(
                    (alpha, _beta(widest, kappa)))
    rows = {key: (sum(p[0] for p in pairs) / len(pairs),
                  sum(p[1] for p in pairs) / len(pairs), len(pairs))
            for key, pairs in cells.items()}
    return rows, tuple(skipped)


def count_engine_runs(monkeypatch):
    """Spy on _alphas and its engine _m_stars: the structures run, and
    the _alphas calls that reached a structure, run or remembered."""
    runs, reached = [], [0]
    m_stars, alphas = expressiveness._m_stars, expressiveness._alphas

    def run(*key):
        runs.append(key)
        return m_stars(*key)

    def spy(index, classes, n, top, memo):
        out = alphas(index, classes, n, top, memo)
        reached[0] += bool(classes) and 0 not in classes
        return out

    monkeypatch.setattr(expressiveness, "_m_stars", run)
    monkeypatch.setattr(expressiveness, "_alphas", spy)
    return runs, reached


def test_sweep_cells_match_oracle(monkeypatch):
    rng = np.random.default_rng(41)
    corpora = [cap_corpus()] + [random_corpus(rng) for _ in range(60)]
    cells = 0
    runs, reached = count_engine_runs(monkeypatch)
    for corpus in corpora:
        for kappas in (None, (1, 2, 7)):
            table = expressiveness_sweep(corpus, kappas=kappas)
            rows, skipped = sweep_cells_oracle(corpus, kappas)
            assert table.rows == rows
            assert table.skipped == skipped
            cells += sum(n for _, _, n in rows.values())
    assert expressiveness_sweep(corpora[0]).skipped == \
        (("x", "|Q_i| = 26 (exact alpha cap 20)"),)
    assert cells > 1000
    # structures met again, in this market or another, reuse their m* list
    assert reached[0] > len(runs) > 0


def test_sweep_engine_runs_on_the_benchmark_corpus(monkeypatch):
    """The bench corpus's distinct positive sets share 61 class
    structures; the table stays its golden."""
    runs, reached = count_engine_runs(monkeypatch)
    table = expressiveness_sweep(load_corpus(BENCH))
    assert len(runs) == len(set(runs)) == 61
    assert reached[0] > 61
    assert table.to_csv() == (GOLDEN / "expressiveness_bench.csv").read_text()
