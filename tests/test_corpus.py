import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aekit.corpus import (
    CorpusEntry,
    DuplicatePaperId,
    GroundTruthRecord,
    MissingRoot,
    STAGE_ASSESS,
    STAGE_PREPARE,
    STAGE_RATE,
    filter_for_stage,
    load_corpus,
    load_ground_truth,
    seeded_split,
)
from aekit.jsonio import ConfigError


def write_corpus(root, papers, csv_rows=None):
    for pid, files in papers.items():
        d = root / pid
        d.mkdir(parents=True)
        for name, content in files.items():
            if isinstance(content, bytes):
                (d / name).write_bytes(content)
            else:
                (d / name).write_text(content, encoding="utf-8")
    if csv_rows is not None:
        (root / "ground_truth.csv").write_text("\n".join(csv_rows) + "\n", encoding="utf-8")


BASIC_CSV = [
    "paper_id,code_available,readme_present,manually_runnable,P1,P2",
    "a,true,true,true,present,absent",
    "b,true,false,false,,",
    "c,false,false,,unclear,partial",
]


class TestLoadCorpus:
    def test_three_directories_one_without_readme(self, tmp_path):
        write_corpus(
            tmp_path,
            {
                "a": {"paper.txt": "paper a", "readme.txt": "readme a", "source.ref": "url-a"},
                "b": {"paper.txt": "paper b", "source.ref": "url-b"},
                "c": {"paper.txt": "paper c", "readme.txt": "readme c"},
            },
            BASIC_CSV,
        )
        loaded = load_corpus(tmp_path)
        assert len(loaded.entries) == 3
        by_id = loaded.by_id()
        assert by_id["b"].readme_text is None
        assert by_id["a"].readme_text == "readme a"
        assert by_id["c"].source_ref is None
        assert by_id["a"].ground_truth.manually_runnable is True
        assert loaded.errors == ()

    def test_missing_root_raises(self, tmp_path):
        with pytest.raises(MissingRoot):
            load_corpus(tmp_path / "nope")

    def test_duplicate_csv_annotation_raises(self, tmp_path):
        write_corpus(
            tmp_path,
            {"a": {"paper.txt": "x"}},
            ["paper_id,code_available,readme_present,manually_runnable", "a,true,true,true", "a,true,true,false"],
        )
        with pytest.raises(DuplicatePaperId):
            load_corpus(tmp_path)

    def test_annotation_without_directory_reported(self, tmp_path):
        write_corpus(
            tmp_path,
            {"a": {"paper.txt": "x"}},
            ["paper_id,code_available,readme_present,manually_runnable", "a,true,true,true", "ghost,true,true,false"],
        )
        loaded = load_corpus(tmp_path)
        assert len(loaded.entries) == 1
        assert any("ghost" in e for e in loaded.errors)

    def test_malformed_utf8_collected_not_fatal(self, tmp_path):
        write_corpus(
            tmp_path,
            {
                "bad": {"paper.txt": b"\xff\xfe broken"},
                "good": {"paper.txt": "fine"},
            },
        )
        loaded = load_corpus(tmp_path)
        assert [e.paper_id for e in loaded.entries] == ["good"]
        assert any("bad" in e and "UTF-8" in e for e in loaded.errors)

    def test_loading_is_idempotent(self, tmp_path):
        write_corpus(
            tmp_path,
            {"a": {"paper.txt": "pa", "readme.txt": "ra"}, "b": {"paper.txt": "pb"}},
            BASIC_CSV[:2],
        )
        assert load_corpus(tmp_path) == load_corpus(tmp_path)

    def test_missing_paper_txt_reported(self, tmp_path):
        write_corpus(tmp_path, {"a": {"readme.txt": "only readme"}})
        loaded = load_corpus(tmp_path)
        assert loaded.entries == ()
        assert any("paper.txt" in e for e in loaded.errors)


class TestPaperFiles:
    """What ``load_corpus`` makes of files that are absent, odd or not UTF-8."""

    @staticmethod
    def load(tmp_path, make):
        write_corpus(tmp_path, {"a": {"paper.txt": "paper a", "source.ref": " url-a \n"},
                                "b": {"paper.txt": "paper b"}})
        make(tmp_path / "a")
        loaded = load_corpus(tmp_path)
        return [(e.paper_id, e.readme_text, e.source_ref) for e in loaded.entries], list(loaded.errors)

    def test_readme_that_is_a_directory_reads_as_absent(self, tmp_path):
        entries, errors = self.load(tmp_path, lambda d: (d / "readme.txt").mkdir())
        assert entries == [("a", None, "url-a"), ("b", None, None)] and errors == []

    def test_source_ref_that_is_a_directory_reads_as_absent(self, tmp_path):
        def make(d):
            (d / "source.ref").unlink()
            (d / "source.ref").mkdir()

        entries, errors = self.load(tmp_path, make)
        assert entries == [("a", None, None), ("b", None, None)] and errors == []

    def test_broken_readme_symlink_reads_as_absent(self, tmp_path):
        entries, errors = self.load(tmp_path, lambda d: (d / "readme.txt").symlink_to(d / "nowhere"))
        assert entries == [("a", None, "url-a"), ("b", None, None)] and errors == []

    def test_readme_symlink_to_a_file_is_read(self, tmp_path):
        def make(d):
            (d / "elsewhere.txt").write_text("linked readme", encoding="utf-8")
            (d / "readme.txt").symlink_to(d / "elsewhere.txt")

        entries, errors = self.load(tmp_path, make)
        assert entries == [("a", "linked readme", "url-a"), ("b", None, None)] and errors == []

    @pytest.mark.parametrize("how", ["directory", "broken-symlink"])
    def test_paper_that_is_not_a_file_is_reported_missing(self, tmp_path, how):
        def make(d):
            (d / "paper.txt").unlink()
            if how == "directory":
                (d / "paper.txt").mkdir()
            else:
                (d / "paper.txt").symlink_to(d / "nowhere")

        entries, errors = self.load(tmp_path, make)
        assert entries == [("b", None, None)] and errors == ["a: missing paper.txt"]

    def test_non_utf8_readme_is_reported(self, tmp_path):
        entries, errors = self.load(tmp_path, lambda d: (d / "readme.txt").write_bytes(b"ok \xff"))
        assert entries == [("b", None, None)]
        assert errors == ["a: malformed UTF-8: 'utf-8' codec can't decode byte 0xff in position 3: "
                          "invalid start byte"]

    def test_only_directories_are_papers_and_symlinked_ones_count(self, tmp_path):
        def make(d):
            (tmp_path / "notes.txt").write_text("not a paper", encoding="utf-8")
            (tmp_path / "c").symlink_to(d, target_is_directory=True)
            (tmp_path / "dangling").symlink_to(tmp_path / "nowhere")

        entries, errors = self.load(tmp_path, make)
        assert entries == [("a", None, "url-a"), ("b", None, None), ("c", None, "url-a")]
        assert errors == []


class TestGroundTruth:
    def test_readme_implies_code(self):
        with pytest.raises(ValueError):
            GroundTruthRecord("x", code_available=False, readme_present=True)

    def test_unknown_pitfall_value_rejected(self):
        with pytest.raises(ValueError):
            GroundTruthRecord("x", pitfalls={"P1": "maybe"})

    def test_bad_boolean_cell_raises(self, tmp_path):
        path = tmp_path / "gt.csv"
        path.write_text(
            "paper_id,code_available,readme_present,manually_runnable\na,definitely,true,true\n"
        )
        with pytest.raises(ValueError):
            load_ground_truth(path)


    @pytest.mark.parametrize(
        "content, message",
        [
            (b"paper_id,code_available\na,definitely\n", "a: column code_available: cannot parse boolean"),
            (b"paper_id,code_available\na,tru\xe9\n", "can't decode byte 0xe9"),
            (b"id,code_available\na,true\n", "header row with paper_id column is mandatory"),
            (b"paper_id,code_available\n,true\n", "row with empty paper_id"),
            (b"paper_id,code_available,readme_present\na,false,true\n", "a readme implies available code"),
            (b"paper_id,P1\na,maybe\n", "pitfall P1: unknown annotation 'maybe'"),
            (b'paper_id,P1\na,"' + b"x" * 200_000 + b'"\n', "malformed CSV: field larger than field limit"),
            (b"paper_id,code_available,P1\na,true\n",
             "the row ending on line 2 does not have one cell for each of the header's 3 columns"),
            (b"paper_id,code_available,P1\na,true,present,extra\n",
             "the row ending on line 2 does not have one cell for each of the header's 3 columns"),
            # An unbalanced quote swallows the rest of the file into one cell.
            (b'paper_id,code_available,P1\n"a,true,present\nb,true,absent\n',
             "the row ending on line 3 does not have one cell for each of the header's 3 columns"),
            (b"paper_id,code_available,P1,P1\na,true,present,absent\n", "header column 4 is a second 'P1'"),
            (b"paper_id,code_available,,P2\na,true,present,absent\n", "header column 3 is blank"),
            (b"paper_id, ,P2\na,present,absent\n", "header column 2 is blank"),
        ],
        ids=["boolean", "utf8", "header", "empty-id", "record", "pitfall", "csv", "short-row",
             "long-row", "unbalanced-quote", "repeated-column", "blank-column", "space-column"],
    )
    def test_malformed_file_raises_config_error_naming_it(self, tmp_path, content, message):
        path = tmp_path / "gt.csv"
        path.write_bytes(content)
        with pytest.raises(ConfigError) as raised:
            load_ground_truth(path)
        assert str(raised.value).startswith(f"{path}: ") and message in str(raised.value)

    def test_a_leading_byte_order_mark_is_ignored(self, tmp_path):
        # Excel's "CSV UTF-8" starts the file with one.
        text = b"paper_id,code_available,manually_runnable,P1\na,true,false,present\nb,false,,\n"
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_bytes(text)
        marked.write_bytes(b"\xef\xbb\xbf" + text)
        assert load_ground_truth(marked) == load_ground_truth(plain)
        assert load_ground_truth(plain)["a"].pitfalls == {"P1": "present"}

    def test_duplicate_paper_id_names_the_file(self, tmp_path):
        path = tmp_path / "gt.csv"
        path.write_text("paper_id,code_available\na,true\na,false\n")
        with pytest.raises(DuplicatePaperId, match="duplicate annotation for 'a'") as raised:
            load_ground_truth(path)
        assert isinstance(raised.value, ConfigError) and str(raised.value).startswith(f"{path}: ")


def entry(pid, code=None, readme=None, runnable=None, pitfalls=None, with_gt=True):
    gt = None
    if with_gt:
        gt = GroundTruthRecord(
            pid,
            code_available=code,
            readme_present=readme,
            manually_runnable=runnable,
            pitfalls=pitfalls or {},
        )
    return CorpusEntry(paper_id=pid, paper_text="text", ground_truth=gt)


class TestFilterForStage:
    def test_code_without_readme_is_prepare_only(self):
        e = entry("x", code=True, readme=False)
        assert filter_for_stage([e], STAGE_PREPARE) == [e]
        assert filter_for_stage([e], STAGE_RATE) == []

    def test_no_code_excluded_from_both(self):
        e = entry("x", code=False, readme=False)
        assert filter_for_stage([e], STAGE_PREPARE) == []
        assert filter_for_stage([e], STAGE_RATE) == []

    def test_all_annotated_with_pitfalls_pass_assess_filter(self):
        entries = [entry(f"p{i}", pitfalls={"P1": "present"}) for i in range(4)]
        assert filter_for_stage(entries, STAGE_ASSESS) == entries

    def test_rate_subset_is_contained_in_prepare_subset(self):
        import random

        rng = random.Random(5)
        entries = []
        for i in range(50):
            code = rng.random() < 0.7
            readme = code and rng.random() < 0.6
            entries.append(entry(f"p{i}", code=code, readme=readme))
        rate_ids = {e.paper_id for e in filter_for_stage(entries, STAGE_RATE)}
        prepare_ids = {e.paper_id for e in filter_for_stage(entries, STAGE_PREPARE)}
        assert rate_ids <= prepare_ids

    def test_missing_ground_truth_excluded(self):
        e = entry("x", with_gt=False)
        assert filter_for_stage([e], STAGE_PREPARE) == []


class TestSeededSplit:
    def test_deterministic(self):
        entries = [entry(f"p{i:03d}") for i in range(30)]
        assert seeded_split(entries, 10, seed=4) == seeded_split(entries, 10, seed=4)

    def test_sample_sizes(self):
        entries = [entry(f"p{i:03d}") for i in range(130)]
        split = seeded_split(entries, 12, seed=0)
        assert len(split.train_ids) == 12
        assert len(split.test_ids) == 118

    def test_n_train_must_be_smaller_than_corpus(self):
        entries = [entry(f"p{i}") for i in range(5)]
        with pytest.raises(ValueError):
            seeded_split(entries, 5, seed=1)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_property_disjoint_and_complete(self, seed):
        entries = [entry(f"p{i:02d}") for i in range(17)]
        split = seeded_split(entries, 6, seed=seed)
        train, test = set(split.train_ids), set(split.test_ids)
        assert not (train & test)
        assert train | test == {e.paper_id for e in entries}
        assert seeded_split(entries, 6, seed=seed) == split
