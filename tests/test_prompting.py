import hashlib
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relanno.corpus import Query, RelevanceDefinition, RowError
from relanno.prompting import (
    CONFIDENCE_LABELS,
    VARIANTS,
    ParseError,
    PromptVariant,
    format_pointwise_completion,
    load_template,
    parse_definition_response,
    parse_pointwise_response,
    render_definition_prompt,
    render_pointwise_prompt,
)

POINT_ASK_D = PromptVariant()
POINT_COT_ASK_D = PromptVariant(cot=True)
POINT_PROB_D = PromptVariant(confidence_phrasing="ask_probability")
POINT_NODEF = PromptVariant(with_definition=False)
DEFINITION = RelevanceDefinition(
    meaning="The <paragraph> is useful only if it answers the <question>.")


class TestDefinitionPrompts:
    QUESTION = "What is the firm's Scope 3 emission?"

    def test_question_substituted_verbatim(self):
        prompt = render_definition_prompt(self.QUESTION, [])
        assert self.QUESTION in prompt

    def test_template_anchors_present(self):
        prompt = render_definition_prompt(self.QUESTION, [])
        assert "Meaning of the question:" in prompt
        assert "Examples of information that the question is looking for:" in prompt

    def test_empty_question_rejected(self):
        with pytest.raises(RowError, match="field 'text': expected a string that is not blank"):
            Query(id="q1", text="  ")

    def test_improved_examples_between_markers(self):
        prompt = render_definition_prompt(
            self.QUESTION, ["first example", "second example"])
        begin = prompt.index("[BEGIN")
        end = prompt.index("[END")
        assert begin < prompt.index("first example") < end
        assert prompt.index("first example") < prompt.index("second example")

    def test_no_examples_renders_the_generated_prompt(self):
        prompt = render_definition_prompt(self.QUESTION, ())
        assert render_definition_prompt(self.QUESTION, []) == prompt
        assert "[BEGIN" not in prompt


# (question, gold examples) with braces (including the template's own field
# names), non-ASCII text and a multi-line example, and the SHA-256 of the
# prompt rendered without and with the examples. The digests were taken from
# the two definition templates that the single one replaced; prompts are
# hashed into cache keys, so they must never change.
GOLDEN_DEFINITION_CASES = {
    "plain": (
        "What is the firm's Scope 3 emission?",
        ["Total Scope 3 figures.", "Upstream purchased goods."],
        "60e27cdef4c53176ba4da95fb470edccc306f9148ab18b3448ca33e283b8c5e8",
        "b7f4f6d44b8113875a5ac3a15ea1f5c2d3f7da92300d4205e4f63c87e229fc1a"),
    "braces": (
        "Does the {question} plan cover {x} and }{ too?",
        ["A {x} pathway", "{examples} with {0} and }}{{"],
        "9ac7d6e3f1fe1f2f9b9f086dad8ed67f358ed1c4052f89b25f8147f24dda5cd7",
        "8e97f46ad56cc8435a1cf30eb604c5f16ef6adeab0beaa0da47c9dfd87f4a4f4"),
    "non_ascii": (
        "Quelle est l'empreinte CO₂ — scope 3 « amont » ?",
        ["Émissions en tCO₂e\nsur deux lignes", "排放目标 2030"],
        "5bc58701754c26dfdc65632fb2ef45a2b11f3df5de018a9d38768a1e1d5fb9a0",
        "24b15ad05834ca54bb8dbfb65c096091cb4f84b6ca229d93e8c5fb81ce395827"),
}


@pytest.mark.parametrize("case", sorted(GOLDEN_DEFINITION_CASES))
def test_golden_definition_prompts(case):
    question, examples, generated, improved = GOLDEN_DEFINITION_CASES[case]

    def digest(prompt):
        return hashlib.sha256(prompt.encode("utf-8")).hexdigest()

    assert digest(render_definition_prompt(question, [])) == generated
    assert digest(render_definition_prompt(question, examples)) == improved


class TestPointwisePrompt:
    def render(self, variant, definition=None):
        if variant.with_definition and definition is None:
            definition = DEFINITION
        return render_pointwise_prompt(
            question="What is the firm's Scope 3 emission?",
            chunk_text="The firm reports 1.2 Mt CO2e in Scope 3.",
            variant=variant, definition=definition)

    def test_ask_confidence_wording(self):
        prompt = self.render(POINT_ASK_D)
        assert "Give your honest confidence score between 0.0 and 1.0" in prompt

    def test_ask_probability_wording(self):
        prompt = self.render(POINT_PROB_D)
        assert "[Probability Helpful]" in prompt

    def test_non_cot_has_no_reason_line(self):
        assert "[Reason]" not in self.render(POINT_ASK_D)

    def test_cot_has_reason_line(self):
        assert "[Reason]:" in self.render(POINT_COT_ASK_D)

    def test_no_definition_variant_omits_background(self):
        prompt = self.render(POINT_NODEF)
        assert "<background_information>" not in prompt

    def test_inputs_appear_exactly_once(self):
        question = "UNIQUEQUESTIONTOKEN?"
        chunk = "UNIQUECHUNKTOKEN paragraph"
        prompt = render_pointwise_prompt(question, chunk, POINT_NODEF)
        assert prompt.count(question) == 1
        assert prompt.count(chunk) == 1


class TestParsePointwise:
    def test_plain(self):
        assert parse_pointwise_response("[Guess]: Yes\n[Confidence]: 0.85",
                                        POINT_ASK_D) == ("Yes", 0.85, None)

    def test_cot_reason_captured(self):
        guess, confidence, reason = parse_pointwise_response(
            "[Reason]: cites Scope 3 table\n[Guess]: No\n[Confidence]: 0.7",
            POINT_COT_ASK_D)
        assert reason == "cites Scope 3 table"
        assert (guess, confidence) == ("No", 0.7)

    def test_invalid_guess(self):
        with pytest.raises(ParseError):
            parse_pointwise_response("[Guess]: maybe\n[Confidence]: 0.7", POINT_ASK_D)

    def test_missing_confidence_carries_raw_text(self):
        text = "[Guess]: Yes"
        with pytest.raises(ParseError) as err:
            parse_pointwise_response(text, POINT_ASK_D)
        assert err.value.raw_text == text

    def test_last_occurrence_wins(self):
        text = ("[Guess]: No\n[Confidence]: 0.2\n"
                "Final answer:\n[Guess]: Yes\n[Confidence]: 0.9")
        guess, confidence, _ = parse_pointwise_response(text, POINT_ASK_D)
        assert (guess, confidence) == ("Yes", 0.9)

    def test_probability_label_accepted(self):
        _, confidence, _ = parse_pointwise_response(
            "[Guess]: Yes\n[Probability Helpful]: 0.8", POINT_PROB_D)
        assert confidence == 0.8

    @pytest.mark.parametrize("text, variant, missing", [
        ("[Guess]: No\n[Probability Helpful]: 0.1", POINT_ASK_D, "[Confidence]"),
        ("[Guess]: No\n[Confidence]: 0.9", POINT_PROB_D, "[Probability Helpful]"),
    ], ids=["ask, answered P(helpful)", "prob, answered confidence"])
    def test_confidence_is_read_only_under_the_variants_label(self, text, variant, missing):
        """A number under the other phrasing's label means something else."""
        with pytest.raises(ParseError, match=re.escape(f"no {missing} field found")):
            parse_pointwise_response(text, variant)

    def test_the_other_label_still_ends_the_field(self):
        _, confidence, _ = parse_pointwise_response(
            "[Guess]: No\n[Confidence]: 0.9 [Probability Helpful]: 0.1", POINT_ASK_D)
        assert confidence == 0.9

    @given(
        st.sampled_from(["Yes", "No"]),
        st.floats(min_value=0, max_value=1).map(lambda c: round(c, 6)),
        st.one_of(st.none(), st.text(
            alphabet=st.characters(whitelist_categories=("L", "N", "Zs")),
            min_size=1, max_size=60).map(str.strip).filter(bool)),
    )
    @settings(max_examples=300)
    def test_format_parse_round_trip(self, guess, confidence, reason):
        variant = PromptVariant(cot=reason is not None)
        text = format_pointwise_completion(guess, confidence, reason, variant=variant)
        parsed_guess, parsed_confidence, parsed_reason = parse_pointwise_response(text, variant)
        assert parsed_guess == guess
        assert parsed_confidence == pytest.approx(confidence)
        assert parsed_reason == reason


class TestParseDefinitionResponse:
    def test_meaning_and_examples(self):
        text = ("Meaning of the question: It asks about Scope 3 emissions.\n"
                "Examples of information that the question is looking for:\n"
                "1. Total Scope 3 figures.\n2. Upstream categories.")
        definition = parse_definition_response(text, "generated")
        assert definition.meaning == "It asks about Scope 3 emissions."
        assert definition.examples == ["Total Scope 3 figures.",
                                       "Upstream categories."]

    def test_missing_anchor(self):
        with pytest.raises(ParseError):
            parse_definition_response("no structure at all", "generated")


class TestVariantLabels:
    @pytest.mark.parametrize("variant", [
        PromptVariant(), PromptVariant(cot=True),
        PromptVariant(with_definition=False),
        PromptVariant(confidence_phrasing="ask_probability"),
    ])
    def test_label_round_trip(self, variant):
        assert PromptVariant.from_label(variant.label()) == variant

    # Listwise labels stay rejected: relanno annotates pointwise only.
    @pytest.mark.parametrize("label", [
        "list-d", "list", "bogus", "point-foo", "point-ask-d-x", "POINT-ASK-D",
        "point-d-ask", "point-ask-cot-d", "",
    ])
    def test_unrendered_labels_rejected(self, label):
        with pytest.raises(ValueError, match="unknown variant label"):
            PromptVariant.from_label(label)

    def test_accepted_labels(self):
        accepted = {f"point{cot}-{conf}{d}" for cot in ("", "-cot")
                    for conf in ("ask", "prob") for d in ("", "-d")}
        assert set(VARIANTS) == accepted
        assert len(accepted) == 8


# Fixed inputs with braces (including the template's own field names), quotes
# and newlines, so a second format pass or a lost character changes the digest.
GOLDEN_QUESTION = 'Does the {question} plan cover "scope 3"?\nAnd {0} }{ too?'
GOLDEN_CHUNK = ('Emissions fell by {paragraph_chunk} 5% ("net")\n'
                'under {background_information} }}.')
GOLDEN_DEFINITION = RelevanceDefinition(
    meaning='Targets named {question} or "net zero"\nacross years',
    examples=["A {} pathway", 'A quoted "goal"\non two lines'])

# SHA-256 of each prompt as rendered by the six per-variant template files
# that the single pointwise template replaced. Prompts are hashed into cache
# keys, so these must never change.
GOLDEN_PROMPT_DIGESTS = {
    "point-ask-d": "2dcf579810e4672ec19cbca34d73a4d527f8988c30f778a486cce124b7a2320e",
    "point-cot-ask-d": "96d0b3842e264e82e822e597577697f2fabdd4883294f649a6a8f3adad05f755",
    "point-prob-d": "5babd8b5e9534e5e01ed8aacb4efad4bcf2777e95e0d6d4fc8040f0348fc1760",
    "point-cot-prob-d": "0a7a0ae880d98c6d7c86ecf097bc0d9c44efa522462cd7b6893d87fb722a49e8",
    "point-ask": "2505179ee645a2caca85ebe91943be8e518160fc7de92008a5da559412701066",
    "point-cot-ask": "20a10a7c26a5d8c7e93de9f1d109c63b1aff0c72961a622025408edc0bf6c48f",
}


def render_golden(variant):
    definition = GOLDEN_DEFINITION if variant.with_definition else None
    return render_pointwise_prompt(GOLDEN_QUESTION, GOLDEN_CHUNK, variant, definition)


class TestPointwiseTemplate:
    @pytest.mark.parametrize("label", sorted(GOLDEN_PROMPT_DIGESTS))
    def test_golden_prompt(self, label):
        prompt = render_golden(PromptVariant.from_label(label))
        digest = hashlib.sha256(prompt.encode("utf-8")).hexdigest()
        assert digest == GOLDEN_PROMPT_DIGESTS[label]

    def test_template_read_once(self):
        assert load_template("pointwise") is load_template("pointwise")

    @given(
        st.sampled_from(sorted(VARIANTS)),
        st.sampled_from(["Yes", "No"]),
        st.floats(min_value=0, max_value=1).map(lambda c: round(c, 6)),
        st.text(alphabet=st.characters(whitelist_categories=("L", "N", "Zs")),
                min_size=1, max_size=40).map(str.strip).filter(bool),
    )
    @settings(max_examples=200)
    def test_every_variant(self, label, guess, confidence, reason):
        variant = PromptVariant.from_label(label)
        assert variant.label() == label
        prompt = render_golden(variant)
        assert ("[Reason]" in prompt) == ("-cot-" in label)
        assert ("<background_information>" in prompt) == label.endswith("-d")
        expected_label = ("[Probability Helpful]:" if "-prob" in label
                          else "[Confidence]:")
        assert [c for c in CONFIDENCE_LABELS if c in prompt] == [expected_label]
        assert prompt.count(expected_label) == 1
        assert prompt.count(GOLDEN_QUESTION) == 1
        assert prompt.count(GOLDEN_CHUNK) == 1

        text = format_pointwise_completion(
            guess, confidence, reason if variant.cot else None, variant=variant)
        assert [c for c in CONFIDENCE_LABELS if c in text] == [expected_label]
        parsed_guess, parsed_confidence, parsed_reason = parse_pointwise_response(text, variant)
        assert parsed_guess == guess
        assert parsed_confidence == pytest.approx(confidence)
        assert parsed_reason == (reason if variant.cot else None)
