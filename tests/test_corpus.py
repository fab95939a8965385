import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relanno.corpus import (
    DocumentChunk,
    GoldLabel,
    Query,
    QueryDocPair,
    RelevanceDefinition,
    RowError,
    RowWriter,
    Split,
    from_row,
    merge_short_chunks,
    read_jsonl,
    split_train_test,
    to_row,
    validate_corpus,
    whitespace_token_count,
    write_json,
    write_jsonl,
)
from relanno.distill import ExportManifest
from relanno.retrieval import Ranking


def chunk(i, n_tokens, report="r1"):
    return DocumentChunk(id=f"c{i}", report_id=report,
                         text=" ".join(f"w{j}" for j in range(n_tokens)))


class TestMergeShortChunks:
    def test_all_above_threshold_unchanged(self):
        chunks = [chunk(0, 150), chunk(1, 200)]
        merged, _, _ = merge_short_chunks(chunks, 120)
        assert [c.token_count for c in merged] == [150, 200]
        assert [c.text for c in merged] == [chunks[0].text, chunks[1].text]

    def test_greedy_accumulation(self):
        chunks = [chunk(0, 50), chunk(1, 60), chunk(2, 40), chunk(3, 200)]
        merged, _, merged_into = merge_short_chunks(chunks, 120)
        assert [c.token_count for c in merged] == [150, 200]
        assert merged[0].id == "c0"
        assert merged_into == {"c1": "c0", "c2": "c0"}

    def test_single_short_chunk_warns(self):
        merged, warnings, _ = merge_short_chunks([chunk(0, 80)], 120)
        assert [c.token_count for c in merged] == [80]
        assert len(warnings) == 1

    def test_empty_input(self):
        assert merge_short_chunks([], 120) == ([], [], {})

    def test_restarts_per_report(self):
        chunks = [chunk(0, 50, "r1"), chunk(1, 50, "r2")]
        merged, warnings, _ = merge_short_chunks(chunks, 60)
        assert len(merged) == 2
        assert len(warnings) == 2

    @given(st.lists(st.integers(min_value=1, max_value=200), min_size=0, max_size=20),
           st.integers(min_value=1, max_value=150))
    @settings(max_examples=100)
    def test_preserves_text_and_idempotent(self, sizes, min_tokens):
        chunks = [chunk(i, n) for i, n in enumerate(sizes)]
        merged, _, merged_into = merge_short_chunks(chunks, min_tokens)
        # no text lost or duplicated
        merged_words = " ".join(c.text for c in merged).split()
        assert merged_words == " ".join(c.text for c in chunks).split()
        # all but the last chunk reach the threshold
        for c in merged[:-1]:
            assert c.token_count >= min_tokens
        # every id given is kept, or names the kept chunk it merged into
        kept = [c.id for c in merged]
        assert sorted(kept + list(merged_into)) == sorted(c.id for c in chunks)
        assert set(merged_into.values()) <= set(kept)
        again, _, _ = merge_short_chunks(merged, min_tokens)
        assert [c.text for c in again] == [c.text for c in merged]


class TestSplitTrainTest:
    def test_sizes_match_rounded_fractions(self):
        queries = [f"q{i}" for i in range(31)]
        reports = [f"r{i}" for i in range(80)]
        split = split_train_test(queries, reports, 11 / 31, 30 / 80, seed=40)
        assert len(split.test_queries) == 11
        assert len(split.train_queries) == 20
        assert len(split.test_reports) == 30
        assert len(split.train_reports) == 50

    def test_deterministic(self):
        args = ([f"q{i}" for i in range(10)], [f"r{i}" for i in range(6)], 0.3, 0.5, 7)
        assert split_train_test(*args) == split_train_test(*args)

    def test_too_small_corpus(self):
        with pytest.raises(ValueError, match="split impossible"):
            split_train_test(["q1"], ["r1", "r2"], 0.5, 0.5, 1)

    @given(st.integers(min_value=2, max_value=40), st.integers(min_value=2, max_value=40),
           st.floats(min_value=0.01, max_value=0.99),
           st.floats(min_value=0.01, max_value=0.99),
           st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=200)
    def test_disjoint_and_covering(self, nq, nr, fq, fr, seed):
        queries = [f"q{i}" for i in range(nq)]
        reports = [f"r{i}" for i in range(nr)]
        split = split_train_test(queries, reports, fq, fr, seed)
        assert not split.train_queries & split.test_queries
        assert not split.train_reports & split.test_reports
        assert split.train_queries | split.test_queries == set(queries)
        assert split.train_reports | split.test_reports == set(reports)
        assert split.test_queries and split.train_queries


class TestValidateCorpus:
    def test_well_formed(self, fixture_queries, fixture_chunks, fixture_gold):
        assert validate_corpus(fixture_queries, fixture_chunks, fixture_gold) == []

    def test_dangling_gold_reference(self, fixture_queries, fixture_chunks):
        gold = [GoldLabel("q1", "nope", grade=1.0, binary="relevant")]
        findings = validate_corpus(fixture_queries, fixture_chunks, gold)
        assert len(findings) == 1
        assert "unknown doc id" in findings[0]

    def test_duplicate_query_id(self, fixture_chunks):
        queries = [Query(id="q1", text="a"), Query(id="q1", text="b")]
        findings = validate_corpus(queries, fixture_chunks)
        assert any("duplicate query id" in f for f in findings)


def test_jsonl_round_trip(tmp_path, fixture_queries, fixture_chunks):
    qpath = tmp_path / "queries.jsonl"
    dpath = tmp_path / "documents.jsonl"
    write_jsonl(qpath, fixture_queries)
    write_jsonl(dpath, fixture_chunks)
    assert read_jsonl(qpath, Query) == fixture_queries
    assert read_jsonl(dpath, DocumentChunk) == fixture_chunks


def test_row_writer_writes_each_row_through(tmp_path, fixture_queries):
    streamed, batch = tmp_path / "streamed.jsonl", tmp_path / "batch.jsonl"
    with RowWriter(streamed) as writer:
        for n, query in enumerate(fixture_queries, start=1):
            writer.write(query)
            assert read_jsonl(streamed, Query) == fixture_queries[:n]  # before close
    write_jsonl(batch, fixture_queries)
    assert streamed.read_bytes() == batch.read_bytes()


@pytest.mark.parametrize("form", ["/dev/fd/{}", "/proc/self/fd/{}", "symlink"])
def test_a_path_naming_an_open_descriptor_is_written_through_it(tmp_path, fixture_queries,
                                                                 form):
    """Both writers write where the descriptor's offset is and keep its file,
    as writing to /dev/stdout redirected to a file must."""
    out = tmp_path / "out.txt"
    with open(out, "wb") as f:
        f.write(b"before\n")
        f.flush()
        path = form.format(f.fileno())
        if form == "symlink":
            path = tmp_path / "link"
            path.symlink_to(f"/dev/fd/{f.fileno()}")
        write_jsonl(path, fixture_queries[:1])
        with RowWriter(path) as writer:
            writer.write(fixture_queries[1])
        f.write(b"after\n")
    first, *rows, last = out.read_text(encoding="utf-8").splitlines()
    assert (first, last) == ("before", "after")
    assert [from_row(Query, json.loads(row)) for row in rows] == fixture_queries[:2]
    assert not list(tmp_path.glob("*.partial"))


def rows_that_fail_after(n):
    for i in range(n):
        yield {"i": i}
    raise RuntimeError("the rows ran out")


@pytest.mark.parametrize("earlier", [b'{"i": "earlier"}\n', None], ids=["over a file", "no file"])
def test_a_write_that_fails_leaves_the_earlier_file_and_no_partial(tmp_path, earlier):
    path = tmp_path / "out.jsonl"
    if earlier is not None:
        path.write_bytes(earlier)
    with pytest.raises(RuntimeError, match="the rows ran out"):
        write_jsonl(path, rows_that_fail_after(2))
    assert (path.read_bytes() if path.exists() else None) == earlier
    assert [p.name for p in tmp_path.iterdir()] == (["out.jsonl"] if earlier else [])


def test_token_count_defaults_to_whitespace():
    c = DocumentChunk(id="x", report_id="r", text="one two three")
    assert c.token_count == whitespace_token_count(c.text) == 3


class TestRowCodec:
    @pytest.mark.parametrize("row,field,fragment", [
        ({"id": "q1"}, "text", "missing"),
        ({"id": 1, "text": "t"}, "id", "expected a string, got 1"),
        ({"id": "q1", "text": None}, "text", "expected a string, got null"),
        ({"id": "q1", "text": "t", "definition": []}, "definition", "expected an object"),
        ({"id": "q1", "text": "t", "definition": {"meaning": "m", "examples": ["a", 2]}},
         "definition.examples[1]", "expected a string, got 2"),
    ])
    def test_bad_query_row_names_the_field(self, row, field, fragment):
        with pytest.raises(RowError) as info:
            from_row(Query, row)
        assert info.value.field == field
        assert fragment in str(info.value)

    @pytest.mark.parametrize("grade", ["0.5", True, None, [0.5]])
    def test_number_field_takes_only_a_number(self, grade):
        with pytest.raises(RowError, match="field 'grade': expected a number"):
            from_row(GoldLabel, {"query_id": "q", "doc_id": "d", "grade": grade})

    @pytest.mark.parametrize("flag", ["false", 0, 1, None])
    def test_bool_field_takes_only_a_bool(self, flag):
        with pytest.raises(RowError, match="field 'uncertain': expected true or false"):
            from_row(GoldLabel, {"query_id": "q", "doc_id": "d", "grade": 0, "uncertain": flag})

    @pytest.mark.parametrize("literal, shown", [
        ("NaN", "nan"), ("Infinity", "inf"), ("-Infinity", "-inf"), ("1e400", "inf")])
    def test_number_field_takes_only_a_finite_number(self, tmp_path, literal, shown):
        path = tmp_path / "gold.jsonl"
        path.write_text('{"query_id": "q", "doc_id": "d", "grade": %s}\n' % literal,
                        encoding="utf-8")
        with pytest.raises(RowError, match=f"gold.jsonl:1: field 'grade': "
                                           f"expected a finite number, got {shown}$"):
            read_jsonl(path, GoldLabel)

    def test_grade_range_violation(self):
        for grade in (1.5, -0.1):
            with pytest.raises(RowError, match=r"field 'grade': expected a number in \[0,1\]"):
                from_row(GoldLabel, {"query_id": "q", "doc_id": "d", "grade": grade})

    def test_string_field_takes_no_lone_surrogate(self):
        assert from_row(Query, {"id": "q1", "text": "Ä \U0001f600"}).text == "Ä \U0001f600"
        with pytest.raises(RowError, match="field 'text': expected a string, "
                                           "got a lone surrogate at index 4$"):
            from_row(Query, {"id": "q1", "text": "bad \ud800 text"})

    def test_int_for_float_extra_keys_and_defaults(self):
        gold = from_row(GoldLabel, {"query_id": "q", "doc_id": "d", "grade": 1, "note": "x"})
        assert gold == GoldLabel("q", "d", 1.0)
        assert type(gold.grade) is float

    def test_to_row_leaves_out_every_none_field(self, tmp_path):
        assert to_row(Query("q1", "t")) == {"id": "q1", "text": "t"}
        assert to_row(QueryDocPair("q1", "d1")) == {"query_id": "q1", "doc_id": "d1"}
        split = Split({"b", "a"}, {"c"}, set(), {"r"}, seed=3)
        assert to_row(split) == {"train_queries": ["a", "b"], "test_queries": ["c"],
                                 "train_reports": [], "test_reports": ["r"], "seed": 3}
        assert from_row(Split, to_row(split)) == split
        # A present Optional dataclass.
        query = Query("q1", "t", RelevanceDefinition("m", ["e"]))
        assert to_row(query) == {"id": "q1", "text": "t", "definition": {
            "meaning": "m", "examples": ["e"], "provenance": "generated"}}
        assert from_row(Query, to_row(query)) == query
        # Tuples inside a list are written as JSON lists and read back as tuples.
        ranking = Ranking("q1", [("d2", 0.9), ("d1", 0.5)])
        assert to_row(ranking) == {"query_id": "q1", "entries": [("d2", 0.9), ("d1", 0.5)]}
        assert from_row(Ranking, json.loads(json.dumps(to_row(ranking)))) == ranking
        # A dataclass whose fields hold dicts and lists.
        balance = {"yes_count": 1, "no_count": 0, "yes_fraction": 1.0, "flagged": True,
                   "per_query": {"q1": {"yes": 1, "no": 0}}, "empty_queries": ["q2"]}
        manifest = ExportManifest(1, 0, "point-ask", "teacher", {"a.txt": "0f"}, balance)
        assert to_row(manifest) == {
            "count": 1, "skipped": 0, "variant": "point-ask", "teacher_model": "teacher",
            "template_hashes": {"a.txt": "0f"},
            "balance": {"yes_count": 1, "no_count": 0, "yes_fraction": 1.0, "flagged": True,
                        "per_query": {"q1": {"yes": 1, "no": 0}}, "empty_queries": ["q2"]}}
        # write_json takes the object and writes the bytes it wrote for to_row(obj).
        for obj in (split, manifest):
            write_json(tmp_path / "obj.json", obj)
            assert (tmp_path / "obj.json").read_text(encoding="utf-8") == \
                json.dumps(to_row(obj), indent=2, sort_keys=True) + "\n"

    def test_broken_line_is_reported_before_an_earlier_bad_row(self, tmp_path):
        path = tmp_path / "gold.jsonl"
        path.write_text('{"query_id": "q", "doc_id": "d", "grade": "high"}\n\n'
                        '{"query_id": \n', encoding="utf-8")
        with pytest.raises(RowError, match=r"gold.jsonl:3: not valid JSON"):
            read_jsonl(path, GoldLabel)

    def test_read_rows_names_the_line_past_blank_lines(self, tmp_path):
        path = tmp_path / "gold.jsonl"
        path.write_text('{"query_id": "q", "doc_id": "d", "grade": 1}\n\n'
                        '{"query_id": "q", "doc_id": "d", "grade": "high"}\n', encoding="utf-8")
        with pytest.raises(RowError, match=r"gold.jsonl:3: field 'grade'"):
            read_jsonl(path, GoldLabel)
