"""Prompt template rendering and structured response parsing.

Templates live as text assets under relanno/templates so they can be
versioned and iterated on without code changes. One template per prompt kind
takes the parts that vary from DEFINITION_PARTS or POINTWISE_PARTS. No other
module writes or reads the labels and anchors of prompt and answer text.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import re
from dataclasses import dataclass
from importlib import resources
from typing import Optional, Sequence

from .corpus import RelevanceDefinition


class ParseError(ValueError):
    def __init__(self, message: str, raw_text: str = ""):
        super().__init__(message)
        self.raw_text = raw_text


# The parts of templates/definition.txt that vary, keyed by whether gold
# examples were given; the examples go between examples_open and examples_close.
_EXAMPLES = "<list of question-relevant example information>"
DEFINITION_PARTS: dict[bool, dict[str, str]] = {
    False: {"article": "the ", "follow": "follow", "examples_open": "", "examples_close": ""},
    True: {"article": "", "follow": "following", "examples_open": (
        f"Additionally, here is a {_EXAMPLES} that an expert human labler annotated. "
        f"Please keep these examples in mind when answering:\n--- [BEGIN {_EXAMPLES}]\n"),
        "examples_close": f"\n--- [END {_EXAMPLES}]\n\n"},
}

# The parts of templates/pointwise.txt that vary, keyed by PromptVariant field
# and then by that field's value. Each variant fills every slot exactly once.
POINTWISE_PARTS: dict[str, dict] = {
    "with_definition": {
        True: {
            "preamble": (
                "You are a helpful assistant who assists human analysts in identifying "
                "useful information within climate reports for their analysis.\n\n"),
            "inputs": (
                "a <paragraph> extracted from a lengthy report, and "
                "<background_information> that explains the <question>. "
                "<background_information> first explains the <question> and then raises "
                "examples to help you to better understand the <question>"),
        },
        False: {
            "preamble": "",
            "inputs": "and a <paragraph> extracted from a lengthy report",
        },
    },
    "cot": {
        False: {"reason_line": ""},
        True: {"reason_line": (
            "[Reason]: <Reason why and how the paragraph is helpful or not helpful for "
            "answering the question. Clearly indicate your stance.>\n")},
    },
    "confidence_phrasing": {
        "ask_confidence": {
            "asked_for": "your confidence that the guess is correct",
            "confidence_label": "[Confidence]:",
            "confidence_hint": (
                "<Give your honest confidence score between 0.0 and 1.0 about the "
                "correctness of your guess. 0 means your previous guess is very likely "
                "to be wrong, and 1 means you are very confident about the guess.>"),
        },
        "ask_probability": {
            "asked_for": "the probability that the <paragraph> is helpful",
            "confidence_label": "[Probability Helpful]:",
            "confidence_hint": (
                "<The probability between 0.0 and 1.0 that the <paragraph> is helpful to "
                "the <question>. 0.0 is completely unhelpful and 1.0 is completely "
                "helpful.>"),
        },
    },
}


@dataclass(frozen=True)
class PromptVariant:
    cot: bool = False
    with_definition: bool = True
    confidence_phrasing: str = "ask_confidence"  # ask_confidence | ask_probability

    def label(self) -> str:
        parts = ["point"]
        if self.cot:
            parts.append("cot")
        parts.append("prob" if self.confidence_phrasing == "ask_probability" else "ask")
        if self.with_definition:
            parts.append("d")
        return "-".join(parts)

    @classmethod
    def from_label(cls, label: str) -> "PromptVariant":
        variant = VARIANTS.get(label)
        if variant is None:
            raise ValueError(f"unknown variant label: {label!r} "
                             f"(expected one of {', '.join(VARIANTS)})")
        return variant


# Every combination of part options, by label: the labels from_label accepts.
VARIANTS: dict[str, PromptVariant] = {
    variant.label(): variant
    for variant in (PromptVariant(**dict(zip(POINTWISE_PARTS, options)))
                    for options in itertools.product(*POINTWISE_PARTS.values()))
}


_TEMPLATES: dict[str, str] = {}


def load_template(name: str) -> str:
    """Template text; each file is read once per process."""
    if name not in _TEMPLATES:
        _TEMPLATES[name] = resources.files("relanno.templates").joinpath(
            f"{name}.txt").read_text(encoding="utf-8")
    return _TEMPLATES[name]


def template_digests() -> dict[str, str]:
    """SHA-256 of every template file, by file name, and of each table of
    template parts kept in code: what a prompt is rendered from."""
    digests = {}
    for entry in sorted(resources.files("relanno.templates").iterdir(), key=lambda e: e.name):
        if entry.name.endswith(".txt"):
            digests[entry.name] = hashlib.sha256(entry.read_bytes()).hexdigest()
    for name, table in {"definition_parts": DEFINITION_PARTS,
                        "pointwise_parts": POINTWISE_PARTS}.items():
        parts = json.dumps(table, sort_keys=True, ensure_ascii=False)
        digests[name] = hashlib.sha256(parts.encode("utf-8")).hexdigest()
    return digests


def render_definition_prompt(question: str, gold_examples: Sequence[str] = ()) -> str:
    """The definition prompt; with gold examples, the prompt that improves the
    definition with them, in the order given."""
    if not question.strip():
        raise ValueError("question must be non-empty")
    # One format call: braces inside the inputs are never formatted again.
    return load_template("definition").format(
        question=question, examples="\n".join(gold_examples),
        **DEFINITION_PARTS[bool(gold_examples)])


def render_pointwise_prompt(
    question: str,
    chunk_text: str,
    variant: PromptVariant,
    definition: Optional[RelevanceDefinition] = None,
) -> str:
    """The pointwise prompt; a -d variant's callers check that the definition is there."""
    slots = {}
    for field_name, options in POINTWISE_PARTS.items():
        slots.update(options[getattr(variant, field_name)])
    background = (f'<background_information>: "{_definition_text(definition)}"\n'
                  if variant.with_definition else "")
    # One format call: braces inside the inputs are never formatted again.
    return load_template("pointwise").format(
        question=question, paragraph_chunk=chunk_text, background=background, **slots)


# --- response parsing ------------------------------------------------------

MEANING_ANCHOR = "Meaning of the question:"
EXAMPLES_ANCHOR = "Examples of information that the question is looking for:"


def _definition_text(definition: RelevanceDefinition) -> str:
    """Meaning and numbered examples as one block, under the anchors that
    parse_definition_response reads."""
    lines = [f"{MEANING_ANCHOR} {definition.meaning}"]
    if definition.examples:
        lines.append(EXAMPLES_ANCHOR)
        lines.extend(f"{i}. {ex}" for i, ex in enumerate(definition.examples, start=1))
    return "\n".join(lines)


def parse_definition_response(text: str,
                              provenance: str = "generated") -> RelevanceDefinition:
    """Split a definition completion into meaning text and numbered examples."""
    idx = text.find(MEANING_ANCHOR)
    if idx < 0:
        raise ParseError("no meaning anchor in definition response", raw_text=text)
    body = text[idx + len(MEANING_ANCHOR):]
    ex_idx = body.find(EXAMPLES_ANCHOR)
    if ex_idx < 0:
        meaning, examples_block = body, ""
    else:
        meaning, examples_block = body[:ex_idx], body[ex_idx + len(EXAMPLES_ANCHOR):]
    meaning = meaning.strip()
    if not meaning:
        raise ParseError("empty meaning in definition response", raw_text=text)
    examples = [
        re.sub(r"^\d+\.\s*", "", line.strip())
        for line in examples_block.splitlines()
        if re.match(r"^\s*\d+\.", line)
    ]
    return RelevanceDefinition(meaning=meaning, examples=examples,
                               provenance=provenance)

GUESS_LABEL = "[Guess]:"
REASON_LABEL = "[Reason]:"
# The label each confidence phrasing asks under: one is written and read per variant.
_LABEL_BY_PHRASING = {phrasing: parts["confidence_label"]
                      for phrasing, parts in POINTWISE_PARTS["confidence_phrasing"].items()}
CONFIDENCE_LABELS = tuple(_LABEL_BY_PHRASING.values())
_FLOAT_RE = re.compile(r"-?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?")


def _last_field(text: str, label: str) -> Optional[str]:
    """Text after the last occurrence of label, up to the next bracketed label."""
    idx = text.rfind(label)
    if idx < 0:
        return None
    rest = text[idx + len(label):]
    cut = len(rest)
    for other in (GUESS_LABEL, REASON_LABEL) + CONFIDENCE_LABELS:
        pos = rest.find(other)
        if pos >= 0:
            cut = min(cut, pos)
    return rest[:cut]


def _normalize_guess(raw: str) -> Optional[str]:
    cleaned = re.sub(r"[^a-z]", "", raw.strip().split("\n")[0].lower())
    if cleaned.startswith("yes"):
        return "Yes"
    if cleaned.startswith("no"):
        return "No"
    return None


def parse_pointwise_response(text: str,
                             variant: PromptVariant) -> tuple[str, float, Optional[str]]:
    """(guess, confidence, reason) from a model completion: the guess "Yes" or
    "No", the confidence as written, not yet clamped to [0,1], and the reason
    for a CoT variant (None for any other, or when the completion gives none).

    The confidence is read only under the label the variant's prompt asks for:
    a number under the other phrasing's label means something else. The last
    occurrence of each label wins: CoT text occasionally echoes labels before
    the final answer block.
    """
    guess_raw = _last_field(text, GUESS_LABEL)
    if guess_raw is None:
        raise ParseError("no [Guess] field found", raw_text=text)
    guess = _normalize_guess(guess_raw)
    if guess is None:
        raise ParseError(f"unparseable guess: {guess_raw.strip()!r}", raw_text=text)

    label = _LABEL_BY_PHRASING[variant.confidence_phrasing]
    conf_raw = _last_field(text, label)
    if conf_raw is None:
        raise ParseError(f"no {label.rstrip(':')} field found", raw_text=text)
    match = _FLOAT_RE.search(conf_raw)
    if match is None:
        raise ParseError(f"unparseable confidence: {conf_raw.strip()!r}", raw_text=text)
    confidence = float(match.group(0))

    reason = None
    if variant.cot:
        reason_raw = _last_field(text, REASON_LABEL)
        if reason_raw is not None:
            reason = reason_raw.strip()
    return guess, confidence, reason


def extract_tok_confidence(tokens: Sequence[tuple[str, float]]) -> float:
    """Probability of the realized Yes/No token after the final guess label."""
    label_pos = "".join(surface for surface, _ in tokens).rfind(GUESS_LABEL)
    if label_pos < 0:
        raise ParseError("completion has no guess label")
    token_ends = itertools.accumulate(len(surface) for surface, _ in tokens)
    for token_end, (surface, logprob) in zip(token_ends, tokens):
        if (token_end > label_pos + len(GUESS_LABEL)
                and re.sub(r"[^a-z]", "", surface.lower()) in ("yes", "no")):
            return math.exp(logprob)
    raise ParseError("no yes/no token found after guess label")


def format_pointwise_completion(guess: str, confidence: float,
                                reason: Optional[str] = None, *,
                                variant: PromptVariant) -> str:
    """Inverse of parse_pointwise_response for valid inputs, using the
    confidence label that the variant's prompt asks for."""
    lines = []
    if reason is not None:
        lines.append(f"{REASON_LABEL} {reason}")
    lines.append(f"{GUESS_LABEL} {guess}")
    lines.append(f"{_LABEL_BY_PHRASING[variant.confidence_phrasing]} {confidence}")
    return "\n".join(lines)

