"""Synthetic-corpus tests: determinism, abstraction knob, task contrasts."""

import json

import numpy as np
import pytest

from stagesum import corpus as C
from stagesum.metrics import abstraction_rate, normalize_for_rouge
from stagesum.tokenizer import RESERVED, Vocabulary, wordpiece_tokenize


# The recipe's shortform and longform specs: the ranges and abstraction
# rates that tests/test_acceptance.py generates its corpora with.
RECIPE = {"shortform": C.CorpusSpec("shortform", 5000, input_range=(2, 3),
                                    output_range=(1, 1), alpha_abs=0.5),
          "longform": C.CorpusSpec("longform", 1000, input_range=(11, 15),
                                   output_range=(3, 3), alpha_abs=0.2)}


def rates(pairs):
    return [abstraction_rate(normalize_for_rouge(d), normalize_for_rouge(s))
            for d, s in pairs if s]


class TestSpecValidation:
    def test_unknown_kind(self):
        with pytest.raises(C.SpecError):
            C.CorpusSpec("news", 10)

    def test_alpha_out_of_range(self):
        with pytest.raises(C.SpecError):
            C.CorpusSpec("shortform", 10, alpha_abs=1.5)

    def test_vocab_too_small(self):
        with pytest.raises(C.SpecError):
            C.CorpusSpec("shortform", 10, vocab_size=10)


class TestDeterminism:
    def test_identical_specs_identical_output(self):
        spec = C.CorpusSpec("shortform", 50, seed=3)
        assert C.generate(spec) == C.generate(spec)

    def test_seed_changes_output(self):
        a = C.generate(C.CorpusSpec("shortform", 50, seed=3))
        b = C.generate(C.CorpusSpec("shortform", 50, seed=4))
        assert a != b

    def test_prefix_stability(self):
        # per-example streams: a longer corpus starts with the shorter one
        short = C.generate(C.CorpusSpec("shortform", 20, seed=5))
        long = C.generate(C.CorpusSpec("shortform", 40, seed=5))
        assert long[:20] == short

    def test_sidecar_round_trip(self):
        spec = C.CorpusSpec("longform", 7, seed=9, alpha_abs=0.25)
        raw = json.loads(C.spec_sidecar(spec))
        raw["input_range"] = tuple(raw["input_range"])
        raw["output_range"] = tuple(raw["output_range"])
        assert C.CorpusSpec(**raw) == spec


class TestAbstractionKnob:
    def test_alpha_zero_pure_copy(self):
        pairs = C.generate(C.CorpusSpec("shortform", 200, alpha_abs=0.0, seed=0))
        assert all(r == 0.0 for r in rates(pairs))

    def test_alpha_half_near_fifty_percent(self):
        pairs = C.generate(C.CorpusSpec("shortform", 600, alpha_abs=0.5, seed=1))
        assert abs(np.mean(rates(pairs)) - 50.0) < 5.0

    def test_alpha_one_fully_abstractive(self):
        # weight floor: min(1, 1.0 * 0.55) keeps low-weight words copied
        pairs = C.generate(C.CorpusSpec("shortform", 400, alpha_abs=1.0, seed=2))
        assert np.mean(rates(pairs)) > 50.0

    def test_substitution_weights_mean_one(self):
        assert abs(np.mean(list(C.SUB_WEIGHTS.values())) - 1.0) < 1e-12
        assert set(C.SUB_WEIGHTS) == set(C.SYNONYMS)


class TestCorpusShape:
    def test_generic_has_no_summaries(self):
        pairs = C.generate(C.CorpusSpec("generic", 30, output_range=(0, 0),
                                        alpha_abs=0.0, seed=0))
        assert all(s == "" for _, s in pairs)
        assert all(d for d, _ in pairs)

    def test_synonyms_never_in_documents(self):
        for kind, alpha in (("shortform", 0.5), ("longform", 0.2)):
            spec = RECIPE[kind]
            for d, _ in C.generate(C.CorpusSpec(kind, 100,
                                                input_range=spec.input_range,
                                                output_range=spec.output_range,
                                                alpha_abs=alpha, seed=0)):
                doc_words = set(d.split())
                assert not doc_words & set(C.SYNONYMS.values()), d

    def test_summary_tokens_derivable_from_document(self):
        # every summary word is a document word or its fixed synonym
        pairs = C.generate(C.CorpusSpec("longform", 60, input_range=(11, 15),
                                        output_range=(3, 3), alpha_abs=0.2,
                                        seed=7))
        back = {v: k for k, v in C.SYNONYMS.items()}
        for d, s in pairs:
            doc_words = set(d.split())
            for w in s.split():
                if w == ".":
                    continue
                assert w in doc_words or back[w] in doc_words, (w, d, s)

    def test_longform_vs_shortform_contrasts(self):
        sf_spec = RECIPE["shortform"]
        lf_spec = RECIPE["longform"]
        sf = C.generate(C.CorpusSpec("shortform", 300,
                                     input_range=sf_spec.input_range,
                                     output_range=sf_spec.output_range,
                                     alpha_abs=sf_spec.alpha_abs, seed=0))
        lf = C.generate(C.CorpusSpec("longform", 300,
                                     input_range=lf_spec.input_range,
                                     output_range=lf_spec.output_range,
                                     alpha_abs=lf_spec.alpha_abs, seed=0))
        sf_in = np.mean([len(d.split()) for d, _ in sf])
        lf_in = np.mean([len(d.split()) for d, _ in lf])
        sf_out = np.mean([len(s.split()) for _, s in sf])
        lf_out = np.mean([len(s.split()) for _, s in lf])
        assert lf_in >= 5 * sf_in
        assert lf_out >= 3 * sf_out
        assert lf_spec.num_examples < sf_spec.num_examples
        assert np.mean(rates(lf)) < np.mean(rates(sf))


class TestVocabPieces:
    def test_reserved_prefix_and_coverage(self):
        pieces = C.build_vocab_pieces(96)
        assert pieces[: len(RESERVED)] == RESERVED
        assert len(pieces) == 96
        assert set(C.word_inventory()) <= set(pieces)

    def test_too_small_rejected(self):
        with pytest.raises(C.SpecError):
            C.build_vocab_pieces(10)

    def test_no_unknown_pieces_in_corpus(self):
        # every generated word tokenizes to a single known piece (no UNK)
        vocab = Vocabulary(C.build_vocab_pieces(96))
        pairs = C.generate(C.CorpusSpec("shortform", 50, alpha_abs=0.5, seed=0))
        for d, s in pairs:
            for text in (d, s):
                assert "[UNK]" not in wordpiece_tokenize(text, vocab)
