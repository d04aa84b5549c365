"""Tokenizer, vocabulary, and corpus-encoding tests."""

import sys
import unicodedata

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stagesum import harness
from stagesum.tokenizer import (EOS, PAD, RESERVED, UNK, ConfigError, CorpusError,
                                Vocabulary, basic_tokenize, detokenize, encode_pair,
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


def per_character_words(text):
    """The per-character whitespace and punctuation split that
    `basic_tokenize` replaced: the oracle for it."""
    words = []
    cur = []
    for ch in text.lower():
        if ch.isspace():
            if cur:
                words.append("".join(cur))
                cur = []
        elif unicodedata.category(ch).startswith("P"):
            if cur:
                words.append("".join(cur))
                cur = []
            words.append(ch)
        else:
            cur.append(ch)
    if cur:
        words.append("".join(cur))
    return words


def per_character_pieces(text, vocab):
    """Greedy longest-match-first pieces of `per_character_words`."""
    out = []
    for word in per_character_words(text):
        pieces = []
        start = 0
        while start < len(word):
            end = len(word)
            while end > start:
                cand = ("##" if start > 0 else "") + word[start:end]
                if cand in vocab:
                    break
                end -= 1
            if end == start:
                pieces = ["[UNK]"]
                break
            pieces.append(cand)
            start = end
        out.extend(pieces)
    return out


# every character str.isspace accepts, and letters whose lowercase is
# longer or depends on context
WHITESPACE = [c for c in map(chr, range(sys.maxunicode + 1)) if c.isspace()]
COMMON = "abAB,.-«$+€Σσςİ"
chars = st.one_of(st.sampled_from(COMMON), st.sampled_from(WHITESPACE),
                  st.characters(categories=("L", "P", "S")))
texts = st.text(alphabet=chars, max_size=40)
vocabs = st.lists(st.tuples(st.booleans(), st.text(alphabet="ab,.-«$+€σςi\u0307",
                                                   min_size=1, max_size=3)),
                  max_size=12).map(lambda drawn: make_vocab(list(dict.fromkeys(
                      ["a"] + [("##" if cont else "") + piece for cont, piece in drawn]))))


class TestChunkwiseTokenization:
    """Tokenizing chunk by chunk, and each distinct chunk once per corpus,
    gives the pieces of the per-character split."""

    @settings(deadline=None, max_examples=300)
    @given(texts)
    def test_basic_tokenize(self, text):
        assert basic_tokenize(text) == per_character_words(text)

    @settings(deadline=None, max_examples=300)
    @given(texts, vocabs)
    def test_wordpiece_tokenize(self, text, vocab):
        assert wordpiece_tokenize(text, vocab) == per_character_pieces(text, vocab)

    @settings(deadline=None, max_examples=150)
    @given(st.lists(st.tuples(texts, texts), max_size=6), vocabs)
    def test_tokenize_corpus(self, pairs, vocab):
        assert harness.tokenize_corpus(pairs, vocab) == [
            (per_character_pieces(doc, vocab), per_character_pieces(summary, vocab))
            for doc, summary in pairs]

    def test_each_distinct_chunk_tokenized_once(self, monkeypatch):
        calls = []

        def counted(text, vocab):
            calls.append(text)
            return wordpiece_tokenize(text, vocab)

        monkeypatch.setattr(harness, "wordpiece_tokenize", counted)
        v = make_vocab(["a", "b", ","])
        pieces = harness.tokenize_corpus([("A b, a", "b,"), ("a\tA", "")], v)
        assert pieces == [(["a", "b", ",", "a"], ["b", ","]), (["a", "a"], [])]
        assert calls == ["a", "b,"]


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

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "corpus.tsv"
        path.write_text("\na\tb\n\n{\"document\": \"c\", \"summary\": \"\"}\n")
        assert read_corpus(path) == [("a", "b"), ("c", "")]

    @pytest.mark.parametrize("line, problem", [
        ("no tab here", "no TAB between document and summary"),
        ('{"document": "a b", "summary": "c"', "malformed JSON record"),
        ('{"document": "a b"}', '"document" and "summary"'),
        ('{"summary": "c"}', '"document" and "summary"'),
        ('{"document": "a b", "summary": 3}', '"document" and "summary"'),
    ], ids=["tsv-no-tab", "json-truncated", "json-no-summary", "json-no-document",
            "json-not-a-string"])
    def test_damaged_record_named_by_file_and_line(self, tmp_path, line, problem):
        path = tmp_path / "corpus.tsv"
        path.write_text(f"a\tb\n\n{line}\nc\td\n")
        with pytest.raises(CorpusError, match=problem) as err:
            read_corpus(path)
        assert str(err.value).startswith(f"{path}: line 3: ")
        assert (err.value.path, err.value.line) == (path, 3)
        assert isinstance(err.value, ValueError)

    @pytest.mark.parametrize("summary", ["", " \t "])
    def test_empty_summary_rejected_on_request(self, tmp_path, summary):
        path = tmp_path / "corpus.tsv"
        path.write_text(f"a\tb\nc\t{summary}\n")
        assert read_corpus(path) == [("a", "b"), ("c", summary)]
        with pytest.raises(CorpusError, match="empty summary") as err:
            read_corpus(path, require_summary=True)
        assert err.value.line == 2
