"""The labels and anchors of prompt and answer text are written and read in
`prompting` only; templates may hold them too."""

from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "relanno"
FORMAT_LITERALS = ("[Guess]", "[Reason]", "[Confidence]", "[Probability Helpful]",
                   "Meaning of the question", "Examples of information",
                   # prompting's names for them: importing one reads the label too
                   "GUESS_LABEL", "REASON_LABEL", "CONFIDENCE_LABELS", "MEANING_ANCHOR",
                   "EXAMPLES_ANCHOR")


def format_literals_outside_prompting(package: Path) -> list[str]:
    """`file: literal` for each format literal, or prompting's name for one, in
    a module other than prompting."""
    return [f"{path.name}: {literal}" for path in sorted(package.glob("*.py"))
            if path.name != "prompting.py"
            for literal in FORMAT_LITERALS
            if literal in path.read_text(encoding="utf-8")]


def test_only_prompting_holds_prompt_format_literals():
    assert (PACKAGE / "prompting.py").is_file()
    assert format_literals_outside_prompting(PACKAGE) == []


def test_scan_flags_a_literal_in_another_module(tmp_path):
    (tmp_path / "prompting.py").write_text('GUESS = "[Guess]:"\n', encoding="utf-8")
    (tmp_path / "distill.py").write_text('yes = "[Guess]: Yes" in text\n', encoding="utf-8")
    (tmp_path / "annotator.py").write_text("from .prompting import GUESS_LABEL\n",
                                           encoding="utf-8")
    assert format_literals_outside_prompting(tmp_path) == ["annotator.py: GUESS_LABEL",
                                                           "distill.py: [Guess]"]
