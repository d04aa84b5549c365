"""Metric tests: ROUGE, abstraction rate, AUC, coverage, Pearson r."""

import sys
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stagesum.metrics import (MetricError, abstraction_rate, auc, coverage_prf,
                              format_report, normalize_for_rouge, pearson_r,
                              rouge_l, rouge_n, rouge_report)


@lru_cache(maxsize=None)
def brute_lcs(a: tuple, b: tuple) -> int:
    if not a or not b:
        return 0
    if a[-1] == b[-1]:
        return brute_lcs(a[:-1], b[:-1]) + 1
    return max(brute_lcs(a[:-1], b), brute_lcs(a, b[:-1]))


class TestRougeN:
    def test_identical(self):
        assert rouge_n(list("abc"), list("abc"), 1) == (1.0, 1.0, 1.0)
        assert rouge_n(list("abc"), list("abc"), 2) == (1.0, 1.0, 1.0)

    def test_unigram_hand_count(self):
        p, r, f1 = rouge_n(list("abc"), list("ab"), 1)
        assert p == 1.0
        assert abs(r - 2 / 3) < 1e-12
        assert abs(f1 - 0.8) < 1e-12

    def test_bigram_hand_count(self):
        p, r, f1 = rouge_n(list("abcd"), list("abc"), 2)
        assert p == 1.0
        assert abs(r - 2 / 3) < 1e-12
        assert abs(f1 - 0.8) < 1e-12

    def test_clipping(self):
        # hyp repeats "a" three times; ref contains it once -> overlap clipped
        p, r, f1 = rouge_n(list("ab"), list("aaa"), 1)
        assert abs(p - 1 / 3) < 1e-12
        assert abs(r - 1 / 2) < 1e-12

    def test_empty_sides_zero(self):
        assert rouge_n([], list("ab"), 1) == (0.0, 0.0, 0.0)
        assert rouge_n(list("ab"), [], 1) == (0.0, 0.0, 0.0)
        # n longer than both sequences -> no n-grams on either side
        assert rouge_n(list("a"), list("b"), 2) == (0.0, 0.0, 0.0)

    def test_bad_n(self):
        with pytest.raises(MetricError):
            rouge_n(list("ab"), list("ab"), 0)


class TestRougeL:
    def test_identical(self):
        assert rouge_l(list("abcd"), list("abcd")) == (1.0, 1.0, 1.0)

    def test_hand_lcs(self):
        p, r, f1 = rouge_l(list("abc"), list("ac"))
        assert p == 1.0
        assert abs(r - 2 / 3) < 1e-12
        assert abs(f1 - 0.8) < 1e-12

    def test_disjoint(self):
        assert rouge_l(list("abc"), list("xyz")) == (0.0, 0.0, 0.0)

    def test_empty(self):
        assert rouge_l([], list("ab")) == (0.0, 0.0, 0.0)
        assert rouge_l(list("ab"), []) == (0.0, 0.0, 0.0)

    def test_order_sensitivity(self):
        # reversal shares only a single-token subsequence pattern
        p, r, _ = rouge_l(list("abcd"), list("dcba"))
        assert p == r == 0.25

    @given(st.lists(st.integers(0, 3), max_size=10),
           st.lists(st.integers(0, 3), max_size=10))
    @settings(max_examples=300, deadline=None)
    def test_matches_brute_force(self, a, b):
        if not a or not b:
            assert rouge_l(a, b) == (0.0, 0.0, 0.0)
            return
        lcs = brute_lcs(tuple(a), tuple(b))
        p, r, f1 = rouge_l(a, b)
        assert p == lcs / len(b)
        assert r == lcs / len(a)

    @given(st.lists(st.integers(0, 5), min_size=1, max_size=8),
           st.lists(st.integers(0, 5), min_size=1, max_size=8),
           st.permutations(list(range(6))))
    @settings(max_examples=100, deadline=None)
    def test_relabeling_invariance(self, a, b, perm):
        direct = rouge_l(a, b)
        mapped = rouge_l([perm[t] for t in a], [perm[t] for t in b])
        assert direct == mapped

    @given(st.lists(st.integers(0, 5), min_size=1, max_size=6),
           st.lists(st.integers(0, 5), min_size=1, max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_f1_zero_when_p_or_r_zero(self, a, b):
        p, r, f1 = rouge_l(a, b)
        if p == 0.0 or r == 0.0:
            assert f1 == 0.0
        assert 0.0 <= f1 <= 1.0


class TestRougeReport:
    def test_perfect_corpus(self):
        rep = rouge_report([list("abc")], [list("abc")])
        assert rep.rouge1 == (1.0, 1.0, 1.0)
        assert rep.rougeL == (1.0, 1.0, 1.0)
        d = rep.as_dict()
        assert d["rougeL_f1"] == 1.0 and d["rouge2_p"] == 1.0

    def test_corpus_mean(self):
        rep = rouge_report([list("abc"), list("abc")],
                           [list("abc"), list("xyz")])
        assert abs(rep.rouge1[2] - 0.5) < 1e-12

    def test_mismatched_lengths(self):
        with pytest.raises(MetricError):
            rouge_report([list("a")], [])
        with pytest.raises(MetricError):
            rouge_report([], [])


class TestAbstractionRate:
    def test_pure_copy_zero(self):
        assert abstraction_rate(list("abc"), list("ab")) == 0.0

    def test_half_novel(self):
        assert abstraction_rate(list("abc"), list("ad")) == 50.0

    def test_counts_positions_not_types(self):
        assert abstraction_rate(list("abc"), list("ddda")) == 75.0

    def test_empty_summary_rejected(self):
        with pytest.raises(MetricError):
            abstraction_rate(list("abc"), [])


def brute_auc_roc(scores, labels):
    """Mean over positive/negative pairs: 1 if ranked right, 0.5 on ties."""
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    total = 0.0
    for p in pos:
        for n in neg:
            total += 1.0 if p > n else (0.5 if p == n else 0.0)
    return total / (len(pos) * len(neg))


def brute_auc_pr(scores, labels):
    """Step-interpolated area, one step per distinct threshold."""
    scores = np.asarray(scores, float)
    labels = np.asarray(labels, int)
    n_pos = int(labels.sum())
    area = prev_recall = 0.0
    for thr in sorted(set(scores), reverse=True):
        keep = scores >= thr
        tp = int(labels[keep].sum())
        recall = tp / n_pos
        precision = tp / int(keep.sum())
        area += (recall - prev_recall) * precision
        prev_recall = recall
    return area


def loop_auc(scores, labels):
    """`auc` as it was written with hand-made tie loops: the exact oracle
    of the vectorized version."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    n_pos = int((labels == 1).sum())
    n_neg = int((labels == 0).sum())
    order = np.argsort(scores, kind="stable")
    ranks = np.empty(len(scores))
    sorted_scores = scores[order]
    i = 0
    while i < len(scores):
        j = i
        while j + 1 < len(scores) and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        ranks[order[i:j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    auc_roc = (ranks[labels == 1].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)
    desc = np.argsort(-scores, kind="stable")
    tp = fp = 0
    auc_pr = prev_recall = 0.0
    k = 0
    while k < len(desc):
        j = k
        while j + 1 < len(desc) and scores[desc[j + 1]] == scores[desc[k]]:
            j += 1
        for idx in desc[k:j + 1]:
            if labels[idx] == 1:
                tp += 1
            else:
                fp += 1
        recall = tp / n_pos
        auc_pr += (recall - prev_recall) * (tp / (tp + fp))
        prev_recall = recall
        k = j + 1
    return {"auc_roc": float(auc_roc), "auc_pr": float(auc_pr)}


class TestAuc:
    @given(st.lists(st.tuples(st.sampled_from([0.0, -0.0, 0.25, 0.5, 0.75, 1.0, 3.0]),
                              st.integers(0, 1)), min_size=2, max_size=60),
           st.lists(st.floats(-5, 5, width=16), max_size=60))
    @settings(max_examples=300, deadline=None)
    def test_equals_tie_loops_exactly(self, pairs, extra):
        """Tie-heavy scores (a few values, +0 and -0 among them) plus
        arbitrary ones: the same floats as the loop version."""
        scores = [s for s, _ in pairs] + extra
        labels = [y for _, y in pairs] + [i % 2 for i in range(len(extra))]
        if len(set(labels)) < 2:
            return
        assert auc(scores, labels) == loop_auc(scores, labels)

    def test_perfect_ranking(self):
        out = auc([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1])
        assert out["auc_roc"] == 1.0
        assert out["auc_pr"] == 1.0

    def test_inverse_ranking(self):
        assert auc([0.9, 0.8, 0.2, 0.1], [0, 0, 1, 1])["auc_roc"] == 0.0

    def test_all_tied_is_half(self):
        assert auc([0.5] * 6, [0, 1, 0, 1, 0, 1])["auc_roc"] == 0.5

    def test_single_class_rejected(self):
        with pytest.raises(MetricError):
            auc([0.1, 0.9], [1, 1])
        with pytest.raises(MetricError):
            auc([0.1, 0.9], [0, 0])

    def test_matches_brute_force_random_sets(self):
        rng = np.random.default_rng(0)
        for trial in range(20):
            n = 200
            # quantized scores so ties actually occur
            scores = np.round(rng.random(n), 2)
            labels = (rng.random(n) < 0.4).astype(int)
            if labels.sum() in (0, n):
                continue
            out = auc(scores, labels)
            assert abs(out["auc_roc"] - brute_auc_roc(scores, labels)) < 1e-9
            assert abs(out["auc_pr"] - brute_auc_pr(scores, labels)) < 1e-9

    @given(st.lists(st.tuples(st.floats(0, 1, width=16), st.integers(0, 1)),
                    min_size=4, max_size=40))
    @settings(max_examples=150, deadline=None)
    def test_monotone_transform_invariance(self, pairs):
        scores = np.array([s for s, _ in pairs])
        labels = np.array([y for _, y in pairs])
        if labels.sum() in (0, len(labels)):
            return
        base = auc(scores, labels)["auc_roc"]
        warped = auc(np.exp(3.0 * scores), labels)["auc_roc"]
        assert abs(base - warped) < 1e-12


class TestCoveragePrf:
    def test_oracle_mode_perfect_precision(self):
        labels = np.array([1, 0, 1, 1, 0], bool)
        p, r, f1 = coverage_prf(labels, labels)
        assert p == 1.0 and r == 1.0 and f1 == 1.0

    def test_nothing_selected(self):
        labels = np.array([1, 0, 1], bool)
        p, r, f1 = coverage_prf(np.zeros(3, bool), labels)
        assert r == 0.0 and f1 == 0.0

    def test_hand_counts(self):
        selected = np.array([1, 1, 0, 0], bool)
        labels = np.array([1, 0, 1, 0], bool)
        p, r, f1 = coverage_prf(selected, labels)
        assert p == 0.5 and r == 0.5 and f1 == 0.5

    def test_length_mismatch(self):
        with pytest.raises(MetricError):
            coverage_prf(np.zeros(3, bool), np.zeros(4, bool))


class TestPearson:
    def test_perfect_positive(self):
        assert abs(pearson_r([1, 2, 3], [2, 4, 6]) - 1.0) < 1e-12

    def test_perfect_negative(self):
        assert abs(pearson_r([1, 2, 3], [-1, -2, -3]) + 1.0) < 1e-12

    def test_hand_computed_five_points(self):
        xs = [0.0, 1.0, 2.0, 3.0, 4.0]
        ys = [1.0, 0.0, 3.0, 2.0, 5.0]
        # sums about the means: Σxd·yd = 10, Σxd² = 10, Σyd² = 14.8
        expected = 10.0 / np.sqrt(10 * 14.8)
        assert abs(pearson_r(xs, ys) - expected) < 1e-12

    def test_zero_variance_rejected(self):
        with pytest.raises(MetricError):
            pearson_r([1, 1, 1], [1, 2, 3])

    def test_size_checks(self):
        with pytest.raises(MetricError):
            pearson_r([1], [2])
        with pytest.raises(MetricError):
            pearson_r([1, 2], [1, 2, 3])


def per_character_normalize(text):
    """The per-character filter `normalize_for_rouge` replaced: the oracle
    for it."""
    toks = []
    for t in text.lower().split():
        t = "".join(ch for ch in t if ch.isalnum())
        if t:
            toks.append(t)
    return toks


# every character str.isspace accepts; title-case and dotted capitals,
# digits, other numerics, the underscore, and punctuation and symbols
WHITESPACE = [c for c in map(chr, range(sys.maxunicode + 1)) if c.isspace()]
NORMALIZE_COMMON = "aZǅİ09½²_,.-«$+€"


class TestNormalize:
    def test_lowercase_and_punct(self):
        assert normalize_for_rouge("The farmer, visits!") == \
            ["the", "farmer", "visits"]

    def test_punct_only_tokens_dropped(self):
        assert normalize_for_rouge("a . b .") == ["a", "b"]

    def test_empty(self):
        assert normalize_for_rouge("") == []
        assert normalize_for_rouge(" . , ! ") == []

    @settings(deadline=None, max_examples=400)
    @given(st.text(alphabet=st.one_of(st.sampled_from(NORMALIZE_COMMON),
                                      st.sampled_from(WHITESPACE),
                                      st.characters(categories=("L", "M", "N", "P", "S"))),
                   max_size=40))
    def test_matches_per_character_filter(self, text):
        assert normalize_for_rouge(text) == per_character_normalize(text)



class TestFormatReport:
    def test_stable_order_and_repr(self):
        text = format_report({"b": 0.5, "a": 1.0})
        assert text == "a\t1.0\nb\t0.5\n"
