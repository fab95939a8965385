"""Which number a confidence phrasing asks for is decided in `prompting`,
which defines the phrasings, and `annotator`, which converts between them;
no other module reads a phrasing."""

from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "relanno"
OWNERS = ("prompting.py", "annotator.py")
PHRASING_LITERALS = ("confidence_phrasing", '"ask_probability"', '"ask_confidence"',
                     "'ask_probability'", "'ask_confidence'")


def phrasing_reads_outside_owners(package: Path) -> list[str]:
    """`file: literal` for each phrasing read or literal in a module other
    than the two owners."""
    return [f"{path.name}: {literal}" for path in sorted(package.glob("*.py"))
            if path.name not in OWNERS
            for literal in PHRASING_LITERALS
            if literal in path.read_text(encoding="utf-8")]


def test_only_prompting_and_annotator_read_a_confidence_phrasing():
    assert all((PACKAGE / owner).is_file() for owner in OWNERS)
    assert phrasing_reads_outside_owners(PACKAGE) == []


def test_scan_flags_a_phrasing_in_another_module(tmp_path):
    (tmp_path / "annotator.py").write_text('HELPFUL = "ask_probability"\n', encoding="utf-8")
    (tmp_path / "distill.py").write_text(
        "flip = variant.confidence_phrasing == 'ask_confidence'\n", encoding="utf-8")
    (tmp_path / "metrics.py").write_text('prob = phrasing == "ask_probability"\n',
                                         encoding="utf-8")
    assert phrasing_reads_outside_owners(tmp_path) == ["distill.py: confidence_phrasing",
                                                       "distill.py: 'ask_confidence'",
                                                       "metrics.py: \"ask_probability\""]
