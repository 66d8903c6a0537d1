"""Unit and property tests for the word-problem engine."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from coxfold import coxeter
from coxfold.coxeter import (
    INF,
    CoxeterMatrix,
    Indeterminate,
    alternating_word,
    equal_in_group,
    find_almost_relator,
    free_reduce,
    is_identity,
    is_reduced,
    kappa,
    maximal_alternating_runs,
    mod2_rank_bound,
    parse_word,
    petersen_thom_bound,
    reduce_word,
    tits_closure,
)
from coxfold.family import ExampleFamily

from oracles import DihedralOracle


M_ST7 = CoxeterMatrix(("s", "t"), {("s", "t"): 7})
M_RANK3 = CoxeterMatrix(
    ("a", "b", "c"), {("a", "b"): 3, ("a", "c"): 2, ("b", "c"): INF}
)


class TestMatrix:
    def test_text_round_trip(self):
        text = M_RANK3.to_text()
        again = CoxeterMatrix.from_text(text)
        assert again.generators == M_RANK3.generators
        assert again.entry("b", "c") == INF
        assert again.entry("a", "b") == 3

    def test_json_round_trip(self):
        data = M_RANK3.to_json_dict()
        assert data["upper_triangular"][1] == ["inf"]
        again = CoxeterMatrix.from_json_dict(data)
        assert again.entry("c", "b") == INF

    def test_diagonal_and_symmetry(self):
        assert M_RANK3.entry("a", "a") == 1
        assert M_RANK3.entry("b", "a") == M_RANK3.entry("a", "b")

    def test_rejects_bad_entry(self):
        with pytest.raises(ValueError):
            CoxeterMatrix(("s", "t"), {("s", "t"): 1})

    def test_rejects_missing_pair(self):
        with pytest.raises(ValueError):
            CoxeterMatrix(("s", "t", "u"), {("s", "t"): 3})


class TestWords:
    def test_parse_checks_generators(self):
        with pytest.raises(ValueError):
            parse_word("s x", M_ST7)

    def test_alternating_word(self):
        assert alternating_word("s", "t", 5) == ("s", "t", "s", "t", "s")

    def test_free_reduce(self):
        assert free_reduce(("s", "t", "t", "s")) == ()
        assert free_reduce(("s", "t", "s", "s", "t")) == ("s",)


class TestEngine:
    def test_reduce_example(self):
        assert reduce_word(("s", "s", "t"), M_ST7) == ("t",)

    def test_relator_is_identity(self):
        relator = alternating_word("s", "t", 14)
        assert is_identity(relator, M_ST7)

    def test_homotopy_equality(self):
        assert equal_in_group(
            alternating_word("s", "t", 7), alternating_word("t", "s", 7), M_ST7
        )

    def test_infinite_pair_never_collapses(self):
        assert not is_identity(alternating_word("b", "c", 8), M_RANK3)

    def test_budget_exhaustion_raises(self):
        with pytest.raises(Indeterminate):
            is_identity(alternating_word("s", "t", 14), M_ST7, budget=3)

    def test_closure_flags_truncation(self):
        closure = tits_closure(alternating_word("s", "t", 14), M_ST7, budget=3)
        assert closure.budget_exhausted

    def test_canonical_form_is_stable(self):
        w = ("t", "s", "t", "s", "t", "s", "t")
        out = reduce_word(w, M_ST7)
        assert reduce_word(out, M_ST7) == out


class TestReducedAndKappa:
    def test_is_reduced(self):
        assert is_reduced(alternating_word("s", "t", 6), M_ST7)
        assert not is_reduced(alternating_word("s", "t", 8), M_ST7)

    def test_kappa_single_run(self):
        assert kappa(("s", "t", "s"), M_ST7) == 1

    def test_kappa_rejects_non_geodesic(self):
        with pytest.raises(ValueError):
            kappa(alternating_word("s", "t", 10), M_ST7)

    def test_kappa_two_runs(self):
        # b-c alternation broken by the a-b tail forces two covering runs
        w = ("b", "c", "b", "a", "b")
        assert is_reduced(w, M_RANK3)
        assert kappa(w, M_RANK3) == 2

    def test_kappa_empty_word(self):
        assert kappa((), M_ST7) == 0


class TestAlmostRelator:
    def test_finds_long_run(self):
        w = ("b",) + alternating_word("s", "t", 11)
        m = CoxeterMatrix(
            ("s", "t", "b"), {("s", "t"): 7, ("s", "b"): INF, ("t", "b"): INF}
        )
        hit = find_almost_relator(w, m)
        assert hit == (1, 12, frozenset(("s", "t")))

    def test_ignores_infinite_types(self):
        w = alternating_word("b", "c", 9)
        assert find_almost_relator(w, M_RANK3) is None

    def test_short_word_misses(self):
        assert find_almost_relator(alternating_word("s", "t", 10), M_ST7) is None


class TestBounds:
    def test_mod2_all_even(self):
        m = CoxeterMatrix(
            ("a", "b", "c"), {("a", "b"): 2, ("a", "c"): 4, ("b", "c"): 6}
        )
        assert mod2_rank_bound(m) == 3

    def test_mod2_intro_matrix(self):
        m = CoxeterMatrix(
            ("a", "b", "c"), {("a", "b"): 3, ("a", "c"): 2, ("b", "c"): 2}
        )
        assert mod2_rank_bound(m) == 2

    def test_spectral_bound_large_entries(self):
        m = CoxeterMatrix(
            ("a", "b", "c"), {("a", "b"): 384, ("a", "c"): 384, ("b", "c"): 384}
        )
        assert petersen_thom_bound(m) == 2

    def test_spectral_bound_inapplicable(self):
        m = CoxeterMatrix(
            ("a", "b", "c"), {("a", "b"): 3, ("a", "c"): 2, ("b", "c"): 2}
        )
        assert petersen_thom_bound(m) is None

    def test_spectral_bound_rank2(self):
        assert petersen_thom_bound(M_ST7) == 1


words_st = st.lists(st.sampled_from(["s", "t"]), max_size=9).map(tuple)


class TestProperties:
    @settings(max_examples=150, deadline=None)
    @given(words_st, st.integers(min_value=2, max_value=6))
    def test_matches_dihedral_oracle(self, w, m):
        matrix = CoxeterMatrix(("s", "t"), {("s", "t"): m})
        oracle = DihedralOracle(matrix)
        assert is_identity(w, matrix) == oracle.is_identity(w)

    @settings(max_examples=150, deadline=None)
    @given(words_st, st.integers(min_value=2, max_value=6))
    def test_reduce_hits_geodesic_length(self, w, m):
        matrix = CoxeterMatrix(("s", "t"), {("s", "t"): m})
        oracle = DihedralOracle(matrix)
        out = reduce_word(w, matrix)
        assert len(out) == oracle.geodesic_length(w)
        assert oracle.eval(out) == oracle.eval(w)

    @settings(max_examples=100, deadline=None)
    @given(words_st)
    def test_word_times_reverse_is_identity(self, w):
        assert is_identity(w + tuple(reversed(w)), M_ST7)

    @settings(max_examples=100, deadline=None)
    @given(words_st)
    def test_reduce_never_lengthens(self, w):
        assert len(reduce_word(w, M_ST7)) <= len(w)

    @settings(max_examples=60, deadline=None)
    @given(words_st, words_st)
    def test_kappa_subadditive_on_concatenation(self, u, v):
        w = u + v
        if not (
            is_reduced(u, M_ST7) and is_reduced(v, M_ST7) and is_reduced(w, M_ST7)
        ):
            return
        assert kappa(w, M_ST7) <= kappa(u, M_ST7) + kappa(v, M_ST7)


# -- the descent engine against the closure search ----------------------


def closure_reduce(w, matrix, budget=200_000):
    """Shortlex minimum of the Tits closure of the cancelled word: the
    closure-search reduce_word, kept here as the reference."""
    closure = tits_closure(free_reduce(w), matrix, budget)
    assert not closure.budget_exhausted
    return min(closure.members, key=lambda v: (len(v), [matrix.index(x) for x in v]))


EXPONENTS = list(range(2, 13)) + [61, 101, INF]


@st.composite
def matrices_and_words(draw):
    gens = ("a", "b", "c", "d")[: draw(st.integers(min_value=2, max_value=4))]
    entries = {
        (s, t): draw(st.sampled_from(EXPONENTS))
        for i, s in enumerate(gens)
        for t in gens[i + 1:]
    }
    words = st.lists(st.sampled_from(gens), max_size=10).map(tuple)
    return CoxeterMatrix(gens, entries), draw(words), draw(words)


class TestDescentEngine:
    @settings(max_examples=500, deadline=None)
    @given(matrices_and_words())
    def test_matches_closure_search(self, case):
        matrix, w, v = case
        ref_w, ref_v = closure_reduce(w, matrix), closure_reduce(v, matrix)
        assert reduce_word(w, matrix) == ref_w
        assert is_identity(w, matrix) == (ref_w == ())
        assert is_reduced(w, matrix) == (len(ref_w) == len(w))
        assert equal_in_group(w, v, matrix) == (ref_w == ref_v)
        assert equal_in_group(w, ref_w, matrix)

    def test_long_hyperbolic_words_double_the_precision(self, monkeypatch):
        bits_tried = []
        rep = coxeter._GeometricRep

        def recording_rep(matrix, bits):
            bits_tried.append(bits)
            return rep(matrix, bits)

        monkeypatch.setattr(coxeter, "_GeometricRep", recording_rep)
        matrix = ExampleFamily(61).matrix
        rng = random.Random(61)
        for _ in range(4):
            # s3/s4/s5 spacers, each followed by nothing, by s1 or s2, or by
            # an (s1 s2)^4 or (s1 s2)^4 s1 block that m_12 = 8 lets the
            # closure search rewrite; the spacers keep the closure small
            w: list[str] = []
            while len(w) < 150:
                w.append(rng.choice([x for x in ("s3", "s4", "s5") if w[-1:] != [x]]))
                r = rng.random()
                if r < 0.1:
                    w.extend(alternating_word("s1", "s2", rng.choice((8, 9))))
                elif r < 0.6:
                    w.append(rng.choice(("s1", "s2")))
            w = tuple(w)
            bits_tried.clear()
            out = reduce_word(w, matrix)
            assert len(bits_tried) >= 2 and bits_tried[1] == 2 * bits_tried[0]
            assert out == closure_reduce(w, matrix)
            assert is_reduced(out, matrix)
            assert is_identity(w + tuple(reversed(out)), matrix)
            assert not is_identity(w + tuple(reversed(out[1:])), matrix)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.sampled_from(["s1", "s2", "s3", "s4", "s5"]), max_size=60))
    def test_error_bounds_enclose_high_precision_values(self, w):
        # the same reflections at 16 and at 4096 bits: both intervals hold
        # the true coordinate, so they must meet
        matrix = ExampleFamily(61).matrix
        lo, hi = coxeter._GeometricRep(matrix, 16), coxeter._GeometricRep(matrix, 4096)
        for x in w:
            lo.append(matrix.index(x))
            hi.append(matrix.index(x))
        for s in range(matrix.rank):
            lo.strip(s)
            hi.strip(s)
        shift = 4096 - 16
        for i in range(matrix.rank):
            for j in range(matrix.rank):
                gap = abs((lo.x[i][j] << shift) - hi.x[i][j])
                assert gap <= (lo.e[i][j] << shift) + hi.e[i][j]

    def test_budget_counts_updates(self):
        w = alternating_word("s", "t", 6)
        assert reduce_word(w, M_ST7, budget=12) == w
        with pytest.raises(Indeterminate, match="work budget of 11 updates"):
            reduce_word(w, M_ST7, budget=11)


# -- the alternating-run scan against the quadratic search ----------------


def _is_alternating(w, i, j):
    for k in range(i, j - 1):
        if w[k] == w[k + 1]:
            return False
        if k + 2 < j and w[k] != w[k + 2]:
            return False
    return True


def reference_runs(w):
    """Every alternating w[i:j] that extends neither left nor right: the
    quadratic maximal_alternating_runs, kept here as the reference."""
    n = len(w)
    runs = []
    for i in range(n):
        for j in range(i + 1, n + 1):
            if not _is_alternating(w, i, j):
                continue
            if i > 0 and _is_alternating(w, i - 1, j):
                continue
            if j < n and _is_alternating(w, i, j + 1):
                continue
            runs.append((i, j))
    return runs


def reference_almost_relator(w, matrix):
    hits = []
    for (a, b) in reference_runs(w):
        if b - a < 2:
            continue
        s, t = w[a], w[a + 1]
        m = matrix.entry(s, t)
        if m != INF and b - a >= 2 * m - 3:
            hits.append((a, b, frozenset((s, t))))
    return min(hits, key=lambda h: (h[0], h[1])) if hits else None


def reference_kappa(w):
    """Fewest reference runs covering w, by the exhaustive cover DP."""
    n = len(w)
    runs = reference_runs(w)
    best = [math.inf] * (n + 1)
    best[0] = 0
    for covered in range(n):
        for (a, b) in runs:
            if a <= covered < b:
                best[b] = min(best[b], best[covered] + 1)
    return best[n]


@st.composite
def scan_cases(draw):
    gens = ("a", "b", "c", "d")[: draw(st.integers(min_value=1, max_value=4))]
    entries = {
        (s, t): draw(st.sampled_from(list(range(2, 13)) + [INF]))
        for i, s in enumerate(gens)
        for t in gens[i + 1:]
    }
    w = draw(st.lists(st.sampled_from(gens), max_size=40).map(tuple))
    return CoxeterMatrix(gens, entries), w


class TestAlternatingScan:
    @settings(max_examples=500, deadline=None)
    @given(scan_cases())
    def test_matches_quadratic_search(self, case):
        matrix, w = case
        assert maximal_alternating_runs(w) == reference_runs(w)
        assert find_almost_relator(w, matrix) == reference_almost_relator(w, matrix)

    @settings(max_examples=300, deadline=None)
    @given(scan_cases())
    def test_kappa_matches_cover_search(self, case):
        matrix, w = case
        if not is_reduced(w, matrix):
            w = reduce_word(w, matrix)
        assert kappa(w, matrix) == reference_kappa(w)

    def test_long_alternating_word_is_one_run(self):
        w = alternating_word("s", "t", 100_000)
        assert maximal_alternating_runs(w) == [(0, 100_000)]
        assert find_almost_relator(w, M_ST7) == (0, 100_000, frozenset(("s", "t")))
        free = CoxeterMatrix(("s", "t"), {("s", "t"): INF})
        assert find_almost_relator(w, free) is None
        assert kappa(w, free) == 1

    def test_long_word_with_a_repeat_every_seven_letters(self):
        # blocks s t s t s t s: each block ends on s and the next starts on s
        w = alternating_word("s", "t", 7) * (100_000 // 7) + alternating_word("s", "t", 5)
        runs = maximal_alternating_runs(w)
        assert len(runs) == 100_000 // 7 + 1
        assert runs == [(i, min(i + 7, 100_000)) for i in range(0, 100_000, 7)]
        assert find_almost_relator(w, M_ST7) is None
        m5 = CoxeterMatrix(("s", "t"), {("s", "t"): 5})
        assert find_almost_relator(w, m5) == (0, 7, frozenset(("s", "t")))
