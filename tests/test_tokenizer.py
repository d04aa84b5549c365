"""Tokenizer, vocabulary, and corpus-encoding tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stagesum.tokenizer import (EOS, PAD, RESERVED, UNK, ConfigError, Vocabulary,
                                basic_tokenize, detokenize, encode_pair,
                                read_corpus, wordpiece_tokenize, write_corpus)


def make_vocab(extra):
    return Vocabulary(RESERVED + extra)


class TestVocabulary:
    def test_reserved_prefix_required(self):
        with pytest.raises(ConfigError):
            Vocabulary(["a", "b"])

    def test_duplicates_rejected(self):
        with pytest.raises(ConfigError):
            Vocabulary(RESERVED + ["x", "x"])

    def test_save_load_round_trip(self, tmp_path):
        v = make_vocab(["hello", "##lo", "world"])
        path = tmp_path / "vocab.txt"
        v.save(path)
        loaded = Vocabulary.load(path)
        assert loaded.pieces == v.pieces

    @pytest.mark.parametrize("text, line", [("\n", 7), ("\nb\n", 7), ("b\n\n", 8)])
    def test_load_rejects_a_blank_line(self, tmp_path, text, line):
        """A piece's id is its line number, so a blank line, which would
        shift every later id by one if skipped, is rejected by line."""
        path = tmp_path / "vocab.txt"
        path.write_text("\n".join(RESERVED + ["a"]) + "\n" + text, encoding="utf-8")
        with pytest.raises(ConfigError, match=f"line {line} is blank"):
            Vocabulary.load(path)

    def test_id_of_unknown_is_unk(self):
        v = make_vocab(["a"])
        assert v.id_of("zzz") == UNK
        assert v.id_of("a") == len(RESERVED)


class TestWordpiece:
    def test_greedy_longest_match(self):
        v = make_vocab(["un", "##able", "##a", "##ble", "u"])
        assert wordpiece_tokenize("unable", v) == ["un", "##able"]

    def test_whole_word(self):
        v = make_vocab(["whole", "wh", "##ole"])
        assert wordpiece_tokenize("whole", v) == ["whole"]

    def test_no_split_fallback_to_unk(self):
        v = make_vocab(["a", "b"])
        assert wordpiece_tokenize("zzqq", v) == ["[UNK]"]

    def test_empty_vocab_error(self):
        v = Vocabulary(list(RESERVED))
        with pytest.raises(ConfigError):
            wordpiece_tokenize("hi", v)

    def test_lowercase_and_punct_split(self):
        v = make_vocab(["hello", "world", ","])
        assert wordpiece_tokenize("Hello, WORLD", v) == ["hello", ",", "world"]

    def test_basic_tokenize(self):
        assert basic_tokenize("A b.c") == ["a", "b", ".", "c"]

    @settings(deadline=None, max_examples=50)
    @given(st.lists(st.sampled_from(["alpha", "beta", "gamma", "delta"]),
                    min_size=1, max_size=6))
    def test_round_trip_covered_words(self, words):
        v = make_vocab(["alpha", "beta", "gamma", "delta"])
        text = "  ".join(words)
        pieces = wordpiece_tokenize(text, v)
        assert detokenize(pieces) == " ".join(words)

    def test_detokenize_merges_continuations(self):
        assert detokenize(["un", "##able", "to", "[EOS]"]) == "unable to"


def encode_text(doc, summary, vocab, source_limit, target_limit):
    return encode_pair(wordpiece_tokenize(doc, vocab), wordpiece_tokenize(summary, vocab),
                       vocab, source_limit, target_limit)


class TestEncodePair:
    def setup_method(self):
        self.vocab = make_vocab(["w" + str(i) for i in range(20)] + ["tok"])

    def test_short_doc_padded(self):
        doc = " ".join(["tok"] * 10)
        ex = encode_text(doc, "", self.vocab, 128, 16)
        assert len(ex.source_ids) == 128
        assert (ex.source_ids[:10] == self.vocab.id_of("tok")).all()
        assert (ex.source_ids[10:] == PAD).all()
        assert not ex.source_truncated
        assert np.array_equal(ex.source_pad_mask, np.arange(128) >= 10)

    def test_long_doc_truncated(self):
        doc = " ".join(["tok"] * 700)
        ex = encode_text(doc, "", self.vocab, 640, 16)
        assert len(ex.source_ids) == 640
        assert ex.source_truncated
        assert not ex.source_pad_mask.any()

    def test_long_summary_truncated(self):
        summary = " ".join(["tok"] * 100)
        ex = encode_text("tok", summary, self.vocab, 16, 96)
        assert ex.target_truncated
        assert len(ex.target_ids) == 96

    def test_eos_is_final_nonpad(self):
        ex = encode_text("tok tok", "tok", self.vocab, 8, 8)
        nonpad = ex.target_ids[~ex.target_pad_mask]
        assert nonpad[-1] == EOS
        assert nonpad[0] == self.vocab.id_of("tok")

    def test_empty_strings_all_pad_no_flags(self):
        ex = encode_text("", "", self.vocab, 4, 4)
        assert (ex.source_ids == PAD).all()
        assert (ex.target_ids == PAD).all()
        assert not ex.source_truncated and not ex.target_truncated

    def test_nonpositive_limits_rejected(self):
        with pytest.raises(ConfigError):
            encode_text("tok", "", self.vocab, 0, 4)

    def test_pad_mask_complements_content(self):
        ex = encode_text("tok tok tok", "tok", self.vocab, 6, 6)
        assert np.array_equal(ex.source_ids == PAD, ex.source_pad_mask)
        assert np.array_equal(ex.target_ids == PAD, ex.target_pad_mask)


class TestCorpusIO:
    def test_tsv_round_trip(self, tmp_path):
        pairs = [("doc one", "sum one"), ("doc two", "sum two")]
        path = tmp_path / "corpus.tsv"
        write_corpus(pairs, path)
        assert read_corpus(path) == pairs

    def test_jsonl_accepted(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text('{"document": "a b", "summary": "c"}\n')
        assert read_corpus(path) == [("a b", "c")]
