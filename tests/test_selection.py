"""Content-selection tests: labels, selector head, calibration, masking."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stagesum import model as M
from stagesum import selection as sel
from stagesum.autodiff import Tensor
from stagesum.checkpoint import init_random
from stagesum.metrics import coverage_prf

from conftest import assert_grad_matches
from test_model import example_for, small_config


def exhaustive_best_f1(probs, labels):
    """Brute-force oracle: best F1 over every midpoint threshold."""
    distinct = sorted(set(probs))
    best = (-1.0, None)
    for lo, hi in zip(distinct, distinct[1:]):
        eps = (lo + hi) / 2
        pred = np.asarray(probs) > eps
        y = np.asarray(labels)
        tp = int((pred & (y == 1)).sum())
        fp = int((pred & (y == 0)).sum())
        fn = int((~pred & (y == 1)).sum())
        p = tp / (tp + fp) if tp + fp else 0.0
        r = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * p * r / (p + r) if p + r else 0.0
        if f1 > best[0]:
            best = (f1, eps)
    return best


def rescan_labels(source_pieces, summary_pieces):
    """`build_labels` as it rescanned every (segment, start, doc start)
    triple on each round: the oracle for its table form."""
    doc = list(source_pieces)
    y = np.zeros(len(doc), dtype=np.int64)
    remaining = [list(summary_pieces)]
    while True:
        best = None  # (length, doc_start, seg_idx, seg_start)
        for si, seg in enumerate(remaining):
            for start in range(len(seg)):
                for ds in range(len(doc)):
                    n = 0
                    while (start + n < len(seg) and ds + n < len(doc)
                           and seg[start + n] == doc[ds + n]):
                        n += 1
                    if n > 0 and (best is None or n > best[0]
                                  or (n == best[0] and ds < best[1])):
                        best = (n, ds, si, start)
        if best is None:
            break
        n, ds, si, start = best
        y[ds:ds + n] = 1
        seg = remaining.pop(si)
        left, right = seg[:start], seg[start + n:]
        if left:
            remaining.append(left)
        if right:
            remaining.append(right)
    return y


class TestBuildLabels:
    def test_spec_example(self):
        out = sel.build_labels(list("abcd"), list("bce"))
        assert out.tolist() == [0, 1, 1, 0]

    def test_disjoint_all_zero(self):
        assert sel.build_labels(list("abc"), list("xyz")).tolist() == [0, 0, 0]

    def test_identical_all_one(self):
        assert sel.build_labels(list("abc"), list("abc")).tolist() == [1, 1, 1]

    def test_longest_match_preferred(self):
        # "bc" in the summary matches the contiguous pair, not scattered singles
        out = sel.build_labels(list("abcabc"), list("bc"))
        assert out.tolist() == [0, 1, 1, 0, 0, 0]

    def test_leftmost_tie(self):
        out = sel.build_labels(list("abab"), list("ab"))
        assert out.tolist() == [1, 1, 0, 0]

    def test_summary_span_consumed_once(self):
        # one summary "a" marks one document position, not all of them
        out = sel.build_labels(list("aaa"), list("a"))
        assert out.tolist() == [1, 0, 0]

    def test_empty_inputs_rejected(self):
        with pytest.raises(ValueError):
            sel.build_labels([], ["a"])
        with pytest.raises(ValueError):
            sel.build_labels(["a"], [])

    @settings(deadline=None, max_examples=60)
    @given(st.lists(st.sampled_from("abc"), min_size=1, max_size=6),
           st.lists(st.sampled_from("abc"), min_size=1, max_size=4))
    def test_marked_positions_have_summary_tokens(self, doc, summ):
        y = sel.build_labels(doc, summ)
        for i, flag in enumerate(y):
            if flag:
                assert doc[i] in summ

    @settings(deadline=None, max_examples=400)
    @given(st.sampled_from(["ab", "abc"]).flatmap(lambda alphabet: st.tuples(
        st.lists(st.sampled_from(alphabet), min_size=1, max_size=14),
        st.lists(st.sampled_from(alphabet), min_size=1, max_size=10))))
    def test_matches_rescan(self, pair):
        """Over 2- and 3-symbol alphabets, where ties are common."""
        doc, summ = pair
        y = sel.build_labels(doc, summ)
        assert y.dtype == np.int64
        assert np.array_equal(y, rescan_labels(doc, summ))


class TestSelectorHead:
    def test_zero_params_half(self):
        store = {"selector.weight": Tensor(np.zeros(4)),
                 "selector.bias": Tensor(0.0)}
        p = sel.selector_forward(store, Tensor(np.ones((3, 4))))
        assert np.array_equal(p.data, [0.5] * 3)

    def test_saturated_bias(self):
        store = {"selector.weight": Tensor(np.zeros(4)),
                 "selector.bias": Tensor(-20.0)}
        p = sel.selector_forward(store, Tensor(np.ones((2, 4)))).data
        assert (p < 1e-8).all()

    def test_logistic_loss_gradient(self, rng):
        enc = rng.normal(size=(5, 4))
        labels = np.array([1, 0, 1, 1, 0])
        pad = np.zeros(5, bool)
        bias = Tensor(0.1, requires_grad=True)

        def build(w):
            store = {"selector.weight": w, "selector.bias": bias}
            return sel.selector_loss(
                sel.selector_forward(store, Tensor(enc)), labels, pad)

        assert_grad_matches(build, rng.normal(size=4))


class TestSelectorProbs:
    @pytest.mark.parametrize("seed", range(3))
    def test_cut_sources_match_full_length_encode(self, seed, monkeypatch):
        config = small_config(num_layers=2, hidden_size=12, num_heads=3, vocab_size=16,
                              encoder_positions=9)
        store = init_random(config, seed, arch="selector")
        store["selector.weight"].data *= 10.0
        rng = np.random.default_rng(seed)
        examples = [example_for(config, rng.integers(5, 16, n), [5]) for n in (1, 4, 9, 6)]
        lengths, full_encode = [], M.encode

        def encode(store, config, ids, *rest):
            lengths.append(ids.shape[-1])
            return full_encode(store, config, ids, *rest)

        monkeypatch.setattr(M, "encode", encode)
        got = sel.selector_probs(store, config, examples)
        monkeypatch.undo()
        assert lengths == [1, 4, 9, 6]
        for ex, p in zip(examples, got):
            enc = M.encode(store, config, ex.source_ids, ex.source_pad_mask)
            ref = sel.selector_forward(store, enc).data[~ex.source_pad_mask]
            assert p.shape == ref.shape
            assert np.abs(p - ref).max() <= 1e-12


class TestSelectorLoss:
    def test_perfect_prediction_zero_loss(self):
        pred = Tensor(np.array([1.0, 0.0, 1.0]))
        loss = sel.selector_loss(pred, np.array([1, 0, 1]), np.zeros(3, bool))
        assert abs(float(loss.data)) < 1e-10

    def test_uniform_half_is_ln2(self):
        pred = Tensor(np.full(4, 0.5))
        loss = sel.selector_loss(pred, np.array([1, 0, 1, 0]), np.zeros(4, bool))
        assert abs(float(loss.data) - np.log(2)) < 1e-12

    def test_all_pad_rejected(self):
        with pytest.raises(ValueError):
            sel.selector_loss(Tensor(np.full(2, 0.5)), np.array([1, 0]),
                              np.ones(2, bool))

    def test_pad_positions_excluded(self):
        pred = Tensor(np.array([0.5, 0.99]))
        loss = sel.selector_loss(pred, np.array([1, 0]),
                                 np.array([False, True]))
        assert abs(float(loss.data) - np.log(2)) < 1e-12


class TestCalibrateThreshold:
    def test_spec_example(self):
        eps = sel.calibrate_threshold(np.array([0.2, 0.4, 0.9]),
                                      np.array([0, 1, 1]))
        assert abs(eps - 0.3) < 1e-12

    def test_separable_reaches_f1_one(self, rng):
        probs = np.concatenate([rng.uniform(0.0, 0.4, 20),
                                rng.uniform(0.6, 1.0, 20)])
        labels = np.concatenate([np.zeros(20, int), np.ones(20, int)])
        eps = sel.calibrate_threshold(probs, labels)
        _, _, f1 = coverage_prf(probs > eps, labels)
        assert f1 == 1.0

    def test_matches_brute_force(self, rng):
        for _ in range(300):
            n = int(rng.integers(4, 30))
            probs = np.round(rng.random(n), 3)
            labels = rng.integers(0, 2, n)
            if labels.min() == labels.max() or len(np.unique(probs)) < 2:
                continue
            eps = sel.calibrate_threshold(probs, labels)
            best_f1, _ = exhaustive_best_f1(probs, labels)
            _, _, f1 = coverage_prf(probs > eps, labels)
            assert abs(f1 - best_f1) < 1e-12
        # tie-heavy: probabilities on 11 values, many equal F1 midpoints;
        # the sweep picks exactly the oracle's (first) maximizing midpoint
        for _ in range(300):
            n = int(rng.integers(4, 60))
            probs = np.round(rng.random(n), 1)
            labels = rng.integers(0, 2, n)
            if labels.min() == labels.max() or len(np.unique(probs)) < 2:
                continue
            _, best_eps = exhaustive_best_f1(probs, labels)
            assert sel.calibrate_threshold(probs, labels) == best_eps

    def test_tie_breaks_toward_smaller_eps(self):
        # eps=0.2 selects 2 pos + 2 neg (F1 = 2/3); eps=0.8 selects 1 pos,
        # 0 neg, missing 1 pos (F1 = 2/3): an exact tie, resolved low
        probs = np.array([0.1, 0.3, 0.5, 0.7, 0.9])
        labels = np.array([0, 1, 0, 0, 1])
        assert abs(sel.calibrate_threshold(probs, labels) - 0.2) < 1e-12

    def test_single_class_rejected(self):
        with pytest.raises(sel.CalibrationError):
            sel.calibrate_threshold(np.array([0.1, 0.9]), np.array([1, 1]))

    def test_single_distinct_prob_rejected(self):
        with pytest.raises(sel.CalibrationError):
            sel.calibrate_threshold(np.array([0.5, 0.5]), np.array([0, 1]))


class TestSelectionMask:
    def test_oracle_labels_placed_at_nonpad(self):
        pad = np.array([[False, False, False, True, True],
                        [False, False, True, True, True]])
        mask = sel.selection_mask([np.array([1, 0, 1]), np.array([0, 1])], pad)
        assert mask.tolist() == [[True, False, True, False, False],
                                 [False, True, False, False, False]]

    def test_thresholded_prediction(self):
        probs = [np.array([0.9, 0.1]), np.array([0.4, 0.6])]
        mask = sel.selection_mask([p > 0.5 for p in probs], np.zeros((2, 2), bool))
        assert mask.tolist() == [[True, False], [False, True]]

    def test_count_mismatch_rejected(self):
        pad = np.array([[False, False, True], [False, True, True]])
        with pytest.raises(ValueError, match="row 1: 2 values vs 1"):
            sel.selection_mask([np.array([1, 0]), np.array([1, 1])], pad)
        with pytest.raises(ValueError, match="1 selection rows vs 2"):
            sel.selection_mask([np.array([1, 0])], pad)


class TestOraclePrecisionSemantics:
    def test_oracle_precision_exact(self, rng):
        for _ in range(20):
            labels = rng.integers(0, 2, 12)
            if labels.sum() == 0:
                labels[0] = 1
            p, _, _ = coverage_prf(labels.astype(bool), labels)
            assert p == 1.0

    def test_oracle_recall_below_one_with_novel_pieces(self):
        # summary token "e" never appears in the doc: labels cannot cover it,
        # so piece-level recall against the full summary is < 1.  At the
        # label level, oracle recall stays 1 by construction; the deficit is
        # measured against groundtruth summary pieces:
        doc = list("abcd")
        summ = list("bce")
        y = sel.build_labels(doc, summ)
        covered = {doc[i] for i in np.flatnonzero(y)}
        recall_vs_summary = sum(1 for t in summ if t in covered) / len(summ)
        assert recall_vs_summary < 1.0
