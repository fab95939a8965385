"""The benchmark's ground truth: inputs' vocabulary, embeddings, chat answers, gold.

Both the endpoint (which serves these answers) and the oracle (which checks the
program's outputs against them) import this module. It imports nothing from
relanno, so a change to the program cannot change what counts as correct.
Every value is a pure function of the workload seed and the id tags that the
generator writes into each query and chunk text.
"""

from __future__ import annotations

import hashlib
import math
import random
import re
from dataclasses import dataclass

import numpy as np

DIM = 384
QUERY_TAG = re.compile(r"\bref-q(\d+)\b")
DOC_TAG = re.compile(r"\bref-d(\d+)\b")
MALFORMED_GUESS = "Perhaps"


def query_tag(index: int) -> str:
    return f"ref-q{index:05d}"


def doc_tag(index: int) -> str:
    return f"ref-d{index:06d}"


def unit(*parts: object) -> float:
    """Deterministic uniform draw in [0, 1) keyed on parts."""
    digest = hashlib.blake2b("|".join(map(str, parts)).encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big") / 2.0 ** 64


def _vocabulary(size: int = 3000) -> list[str]:
    rng = random.Random(20240620)
    onsets = "b c d f g h k l m n p r s t v z".split()
    nuclei = "a e i o u ai ou".split()
    words: set[str] = set()
    while len(words) < size:
        words.add("".join(rng.choice(onsets) + rng.choice(nuclei)
                          for _ in range(rng.randint(2, 3))))
    return sorted(words)


VOCABULARY = _vocabulary()


class Embedder:
    """Continuous bag-of-words embedding: the sum of one fixed random vector per
    word. Every chunk carries a unique tag word, so no two chunks tie."""

    def __init__(self):
        self._words: dict[str, np.ndarray] = {}

    def _word(self, word: str) -> np.ndarray:
        vec = self._words.get(word)
        if vec is None:
            seed = int.from_bytes(hashlib.blake2b(word.encode(), digest_size=8).digest(), "big")
            vec = np.random.default_rng(seed).standard_normal(DIM)
            self._words[word] = vec
        return vec

    def embed(self, text: str) -> np.ndarray:
        vec = np.zeros(DIM)
        for word in text.lower().split():
            vec += self._word(word)
        return vec


@dataclass(frozen=True)
class Gold:
    binary: str  # relevant | partial | irrelevant
    grade: float
    uncertain: bool


def gold_label(seed: int, q: int, d: int) -> Gold:
    u = unit(seed, "gold", q, d)
    binary = "relevant" if u < 0.3 else "partial" if u < 0.5 else "irrelevant"
    grade = {"relevant": 1.0, "partial": 0.5, "irrelevant": 0.0}[binary]
    uncertain = unit(seed, "uncertain", q, d) < (0.6 if binary == "partial" else 0.2)
    return Gold(binary, grade, uncertain)


def cells(rows: list) -> set[tuple[int, object]]:
    """Fault cells from the endpoint spec: [query, doc] rows, doc null for all docs."""
    return {(q, d) for q, d in rows}


def designated(cell_set: set, q: int, d: int) -> bool:
    return (q, d) in cell_set or (q, None) in cell_set


def audit_verdict(seed: int, q: int, d: int) -> str:
    return "model" if unit(seed, "verdict", q, d) < 0.4 else "original"


@dataclass(frozen=True)
class PairAnswer:
    text: str
    guess: str
    confidence_ask: float
    tok_logprob: float
    malformed: bool


def _words(seed: int, n: int, *key: object) -> list[str]:
    return [VOCABULARY[int(unit(seed, *key, i) * len(VOCABULARY))] for i in range(n)]


def pair_answer(seed: int, q: int, d: int, malformed: bool) -> PairAnswer:
    """The completion the endpoint returns for a pointwise prompt of (q, d)."""
    gold_yes = gold_label(seed, q, d).binary != "irrelevant"
    agrees = unit(seed, "agree", q, d) < 0.8
    guess = "Yes" if gold_yes == agrees else "No"
    lo = 0.6 if agrees else 0.5
    confidence = round(lo + (0.99 - lo) * unit(seed, "ask", q, d), 2)
    tok_prob = 0.5 + 0.4999 * unit(seed, "tok", q, d)
    stance = "discusses" if guess == "Yes" else "does not discuss"
    reason = f"The paragraph {stance} {' '.join(_words(seed, 3, 'reason', q, d))}."
    shown = MALFORMED_GUESS if malformed else guess
    text = f"[Reason]: {reason}\n[Guess]: {shown}\n[Confidence]: {confidence:.2f}"
    return PairAnswer(text, guess, float(f"{confidence:.2f}"), math.log(tok_prob), malformed)


def completion_tokens(answer: PairAnswer) -> list[dict]:
    """Tokens whose concatenation is the text; the guess token carries the logprob."""
    pieces = re.findall(r"\s*\S+|\s+$", answer.text)
    guess_at = pieces.index("\n[Guess]:") + 1
    return [{"token": p, "logprob": answer.tok_logprob if i == guess_at else -0.05}
            for i, p in enumerate(pieces)]


def definition_text(seed: int, q: int) -> str:
    topic = " ".join(_words(seed, 4, "meaning", q))
    examples = "\n".join(f"{i}. Disclosures on {' '.join(_words(seed, 5, 'example', q, i))}."
                         for i in range(1, 4))
    return ("Meaning of the question: The question asks which passages describe "
            f"{topic}.\nExamples of information that the question is looking for:\n"
            + examples)
