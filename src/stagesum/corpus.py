"""Deterministic synthetic corpora for the three training stages.

Documents are templated subject-verb-object sentences over a closed
vocabulary.  Summaries compress the leading sentences to their content
words, substituting each with its synonym with probability `alpha_abs`.
Synonyms never occur in documents, so the corpus abstraction rate tracks
alpha_abs, and every summary token is derivable from the document plus
the fixed synonym table.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, asdict

import numpy as np

from .tokenizer import RESERVED


class SpecError(ValueError):
    pass


SYNONYMS = {
    # subjects
    "farmer": "grower", "pilot": "aviator", "teacher": "mentor",
    "doctor": "medic", "singer": "vocalist", "builder": "mason",
    "sailor": "mariner", "writer": "author",
    # verbs
    "visits": "tours", "paints": "coats", "sells": "trades",
    "builds": "erects", "repairs": "fixes", "guards": "protects",
    "studies": "examines", "cleans": "scrubs",
    # objects
    "barn": "stable", "bridge": "span", "market": "bazaar",
    "tower": "spire", "garden": "plot", "harbor": "port",
    "library": "archive", "engine": "motor",
}

SUBJECTS = ["farmer", "pilot", "teacher", "doctor", "singer", "builder",
            "sailor", "writer"]
VERBS = ["visits", "paints", "sells", "builds", "repairs", "guards",
         "studies", "cleans"]
OBJECTS = ["barn", "bridge", "market", "tower", "garden", "harbor",
           "library", "engine"]
FILLERS = ["quietly", "slowly", "often", "never", "today", "nearby",
           "eagerly", "carefully"]
FUNCTION_WORDS = ["the", "and", "."]

# Per-word substitution weight (mean 1.0 over the synonym table): every
# third pair substitutes far more often than alpha_abs, the rest less
# often, while the corpus-level abstraction rate stays at alpha_abs.  A
# trained greedy decoder therefore substitutes only the high-weight words,
# landing its output abstraction rate strictly below the corpus rate.
SUB_WEIGHTS = {w: (1.9 if i % 3 == 0 else 0.55)
               for i, w in enumerate(sorted(SYNONYMS))}


def word_inventory() -> list[str]:
    words = set(SUBJECTS + VERBS + OBJECTS + FILLERS + FUNCTION_WORDS)
    words.update(SYNONYMS.values())
    return sorted(words)


@dataclass
class CorpusSpec:
    kind: str                      # generic | shortform | longform
    num_examples: int
    vocab_size: int = 96
    input_range: tuple[int, int] = (2, 3)    # sentences per document
    output_range: tuple[int, int] = (1, 1)   # leading sentences summarized
    alpha_abs: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("generic", "shortform", "longform"):
            raise SpecError(f"unknown corpus kind {self.kind!r}")
        if not 0.0 <= self.alpha_abs <= 1.0:
            raise SpecError("alpha_abs must be in [0, 1]")
        needed = len(RESERVED) + len(word_inventory())
        if self.vocab_size < needed:
            raise SpecError(
                f"vocab_size {self.vocab_size} too small for the synonym "
                f"table and word inventory (need >= {needed})")


def build_vocab_pieces(vocab_size: int) -> list[str]:
    """Reserved entries, then the closed word inventory, padded to size."""
    pieces = RESERVED + word_inventory()
    if vocab_size < len(pieces):
        raise SpecError(f"vocab_size {vocab_size} smaller than inventory {len(pieces)}")
    pieces += [f"unused{i:03d}" for i in range(vocab_size - len(pieces))]
    return pieces


def _sentence(rng: np.random.Generator) -> tuple[list[str], tuple[str, str, str]]:
    subj = SUBJECTS[rng.integers(len(SUBJECTS))]
    verb = VERBS[rng.integers(len(VERBS))]
    obj = OBJECTS[rng.integers(len(OBJECTS))]
    tokens = ["the", subj, verb, "the", obj]
    if rng.random() < 0.5:
        tokens.insert(2, FILLERS[rng.integers(len(FILLERS))])
    tokens.append(".")
    return tokens, (subj, verb, obj)


def _compress(content: tuple[str, str, str], alpha: float,
              rng: np.random.Generator) -> list[str]:
    return [SYNONYMS[w] if rng.random() < min(1.0, alpha * SUB_WEIGHTS[w]) else w
            for w in content]


def _example(spec: CorpusSpec, rng: np.random.Generator) -> tuple[str, str]:
    lo, hi = spec.input_range
    n_sent = int(rng.integers(lo, hi + 1))
    sentences = [_sentence(rng) for _ in range(n_sent)]
    doc = " ".join(" ".join(toks) for toks, _ in sentences)
    if spec.kind == "generic":
        return doc, ""
    olo, ohi = spec.output_range
    n_sum = min(int(rng.integers(olo, ohi + 1)), n_sent)
    bullets = [_compress(content, spec.alpha_abs, rng)
               for _, content in sentences[:n_sum]]
    if spec.kind == "shortform":
        summary = " ".join(bullets[0])
    else:
        summary = " ".join(" ".join(b) + " ." for b in bullets).strip()
    return doc, summary


def generate(spec: CorpusSpec) -> list[tuple[str, str]]:
    """Generate the corpus; byte-identical for identical specs."""
    pairs = []
    for i in range(spec.num_examples):
        rng = np.random.default_rng([spec.seed, i])
        pairs.append(_example(spec, rng))
    return pairs


def spec_sidecar(spec: CorpusSpec) -> str:
    return json.dumps(asdict(spec), sort_keys=True) + "\n"
