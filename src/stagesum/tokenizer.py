"""WordPiece tokenization, vocabulary management, and corpus encoding."""

from __future__ import annotations

import json
import unicodedata
from dataclasses import dataclass

import numpy as np

PAD, UNK, BOS, EOS, MASK = 0, 1, 2, 3, 4
RESERVED = ["[PAD]", "[UNK]", "[BOS]", "[EOS]", "[MASK]"]


class ConfigError(ValueError):
    pass


class CorpusError(ValueError):
    """A damaged corpus record, named by its file and 1-based line."""

    def __init__(self, path, line: int, problem: str):
        super().__init__(f"{path}: line {line}: {problem}")
        self.path, self.line = path, line


class Vocabulary:
    """Ordered word-piece list; line number in the vocab file is the id."""

    def __init__(self, pieces: list[str]):
        if len(pieces) < len(RESERVED) or pieces[: len(RESERVED)] != RESERVED:
            raise ConfigError("vocabulary must start with the reserved entries "
                              + " ".join(RESERVED))
        if len(set(pieces)) != len(pieces):
            raise ConfigError("vocabulary contains duplicate pieces")
        self.pieces = list(pieces)
        self.index = {p: i for i, p in enumerate(pieces)}

    def __len__(self):
        return len(self.pieces)

    def __contains__(self, piece: str):
        return piece in self.index

    def id_of(self, piece: str) -> int:
        return self.index.get(piece, UNK)

    @classmethod
    def load(cls, path) -> "Vocabulary":
        with open(path, encoding="utf-8") as f:
            pieces = [line.rstrip("\n") for line in f]
        if "" in pieces:
            raise ConfigError(f"{path}: line {pieces.index('') + 1} is blank")
        return cls(pieces)

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for p in self.pieces:
                f.write(p + "\n")


def _is_punct(ch: str) -> bool:
    return unicodedata.category(ch).startswith("P")


def basic_tokenize(text: str) -> list[str]:
    """Lowercase and split on whitespace, with punctuation as its own tokens."""
    words = []
    for chunk in text.lower().split():
        cur = 0
        for i, ch in enumerate(chunk):
            if _is_punct(ch):
                if i > cur:
                    words.append(chunk[cur:i])
                words.append(ch)
                cur = i + 1
        if cur < len(chunk):
            words.append(chunk[cur:])
    return words


def wordpiece_tokenize(text: str, vocab: Vocabulary) -> list[str]:
    """Greedy longest-match-first subword split.

    Continuation pieces carry the "##" prefix; a word with no valid split
    maps to a single [UNK].  No word spans whitespace, so a text's pieces
    are its lowercased, whitespace-separated chunks' pieces in order, and
    `harness.tokenize_corpus` tokenizes each distinct chunk on its own.
    """
    if len(vocab) <= len(RESERVED):
        raise ConfigError("vocabulary has no content pieces")
    out = []
    for word in basic_tokenize(text):
        pieces = []
        start = 0
        ok = True
        while start < len(word):
            end = len(word)
            found = None
            while end > start:
                cand = word[start:end]
                if start > 0:
                    cand = "##" + cand
                if cand in vocab:
                    found = cand
                    break
                end -= 1
            if found is None:
                ok = False
                break
            pieces.append(found)
            start = end
        out.extend(pieces if ok else ["[UNK]"])
    return out


def detokenize(pieces: list[str]) -> str:
    """Merge "##" continuations and join with single spaces; drops reserved."""
    words = []
    for p in pieces:
        if p in RESERVED:
            continue
        if p.startswith("##") and words:
            words[-1] += p[2:]
        else:
            words.append(p)
    return " ".join(words)


@dataclass
class EncodedExample:
    source_ids: np.ndarray
    target_ids: np.ndarray
    source_pad_mask: np.ndarray
    target_pad_mask: np.ndarray
    source_truncated: bool
    target_truncated: bool


def _pad_to(ids: list[int], limit: int) -> tuple[np.ndarray, np.ndarray, bool]:
    truncated = len(ids) > limit
    ids = ids[:limit]
    arr = np.full(limit, PAD, dtype=np.int64)
    arr[: len(ids)] = ids
    pad_mask = np.arange(limit) >= len(ids)
    return arr, pad_mask, truncated


def encode_pair(source_pieces: list[str], summary_pieces: list[str], vocab: Vocabulary,
                source_limit: int, target_limit: int) -> EncodedExample:
    """Map a tokenized (document, summary) pair to ids, tail-truncate to the
    limits, append EOS to the target, pad."""
    if source_limit <= 0 or target_limit <= 0:
        raise ConfigError("sequence limits must be positive")
    src = [vocab.id_of(p) for p in source_pieces]
    tgt = [vocab.id_of(p) for p in summary_pieces]
    if tgt:
        tgt = tgt + [EOS]
    source_ids, source_pad, src_trunc = _pad_to(src, source_limit)
    target_ids, target_pad, tgt_trunc = _pad_to(tgt, target_limit)
    return EncodedExample(source_ids, target_ids, source_pad, target_pad,
                          src_trunc, tgt_trunc)


def read_corpus(path, require_summary: bool = False) -> list[tuple[str, str]]:
    """Read TAB-separated or JSON-record-per-line (document, summary) pairs.

    A TSV line without a TAB, a malformed JSON record, one without string
    "document" and "summary" fields and, under `require_summary`, a summary
    with no non-whitespace character raise `CorpusError` naming the path and
    the line; blank lines are skipped."""
    pairs = []
    with open(path, encoding="utf-8") as f:
        for number, line in enumerate(f, 1):
            line = line.rstrip("\n")
            if not line:
                continue
            if line.startswith("{"):
                try:
                    rec = json.loads(line)
                except json.JSONDecodeError as err:
                    raise CorpusError(path, number, f"malformed JSON record: {err}") from None
                doc, summary = rec.get("document"), rec.get("summary")
                if not (isinstance(doc, str) and isinstance(summary, str)):
                    raise CorpusError(path, number, "a JSON record needs string "
                                      '"document" and "summary" fields')
            else:
                doc, tab, summary = line.partition("\t")
                if not tab:
                    raise CorpusError(path, number, "no TAB between document and summary")
            if require_summary and not summary.strip():
                raise CorpusError(path, number, "empty summary")
            pairs.append((doc, summary))
    return pairs


def write_corpus(pairs: list[tuple[str, str]], path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for doc, summary in pairs:
            f.write(f"{doc}\t{summary}\n")
