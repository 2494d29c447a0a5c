"""Corpus ingestion, ground-truth annotations, filtering, and splits.

Expected layout::

    <root>/<paper_id>/paper.txt      required, UTF-8 plain text
    <root>/<paper_id>/readme.txt     optional
    <root>/<paper_id>/source.ref     optional, URL or path to the code
    <root>/ground_truth.csv          optional annotations, one row per paper

The CSV header is mandatory: paper_id, code_available, readme_present,
manually_runnable, then one column per pitfall (P1..Pm) with values
present / partial / absent / unclear.  Empty cells mean "not annotated".
"""

from __future__ import annotations

import csv
import errno
import os
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from .jsonio import ConfigError, checked_input

STAGE_RATE = "rate"
STAGE_PREPARE = "prepare"
STAGE_ASSESS = "assess"

_BOOL_VALUES = {
    "true": True, "false": False,
    "yes": True, "no": False,
    "1": True, "0": False,
}

_PITFALL_VALUES = ("present", "partial", "absent", "unclear")

_RUNNABILITY_COLUMNS = ("code_available", "readme_present", "manually_runnable")

# The error for a paper annotated with a readme that has no readme text.
README_MISSING = "readme_present is true but readme.txt is missing or empty"

# Bytes per os.read once a file has outgrown its os.fstat size.
_READ_CHUNK = 1 << 16


class MissingRoot(FileNotFoundError):
    pass


class DuplicatePaperId(ConfigError):
    """Two rows of the annotation CSV name one paper."""


@dataclass(frozen=True)
class GroundTruthRecord:
    """Expert annotation of one paper; runnability flags may be absent."""

    paper_id: str
    code_available: bool | None = None
    readme_present: bool | None = None
    manually_runnable: bool | None = None
    pitfalls: dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.readme_present and not self.code_available:
            raise ValueError("a readme implies available code")
        for pid, value in self.pitfalls.items():
            if value not in _PITFALL_VALUES:
                raise ValueError(f"pitfall {pid}: unknown annotation {value!r}")


@dataclass(frozen=True)
class CorpusEntry:
    paper_id: str
    paper_text: str
    readme_text: str | None = None
    source_ref: str | None = None
    ground_truth: GroundTruthRecord | None = None

    def __post_init__(self) -> None:
        if not self.paper_text:
            raise ValueError("paper_text must be nonempty")


@dataclass(frozen=True)
class LoadedCorpus:
    entries: tuple[CorpusEntry, ...]
    errors: tuple[str, ...]

    def by_id(self) -> dict[str, CorpusEntry]:
        return {e.paper_id: e for e in self.entries}


def _parse_bool(raw: str, column: str, paper_id: str) -> bool | None:
    raw = raw.strip().lower()
    if raw == "":
        return None
    if raw not in _BOOL_VALUES:
        raise ValueError(f"{paper_id}: column {column}: cannot parse boolean {raw!r}")
    return _BOOL_VALUES[raw]


def load_ground_truth(csv_path: Path) -> dict[str, GroundTruthRecord]:
    """Parse the annotation CSV; a leading UTF-8 byte-order mark is ignored.

    A malformed file (not UTF-8, no paper_id header, a blank or repeated
    column name, an unparsable cell, an invalid record or a row whose cells
    do not match the header's columns one for one) raises ConfigError naming
    it; a duplicate paper id raises its subclass DuplicatePaperId.  A row's
    cells are checked before its width, which is named by the line it ends on.
    """
    records: dict[str, GroundTruthRecord] = {}
    with checked_input(csv_path), open(csv_path, "r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.DictReader(fh)
        try:
            fieldnames = reader.fieldnames
            rows = [(reader.line_num, row) for row in reader]
        except csv.Error as exc:
            raise ValueError(f"malformed CSV: {exc}") from exc
        if fieldnames is None or "paper_id" not in fieldnames:
            raise ValueError("header row with paper_id column is mandatory")
        for i, column in enumerate(fieldnames):
            if not column.strip() or column in fieldnames[:i]:
                problem = "blank" if not column.strip() else f"a second {column!r}"
                raise ValueError(f"header column {i + 1} is {problem}")
        pitfall_columns = [
            c for c in fieldnames
            if c not in ("paper_id",) + _RUNNABILITY_COLUMNS
        ]
        for line, row in rows:
            paper_id = (row.get("paper_id") or "").strip()
            if not paper_id:
                raise ValueError("row with empty paper_id")
            if paper_id in records:
                raise DuplicatePaperId(f"{csv_path}: duplicate annotation for {paper_id!r}")
            pitfalls = {}
            for col in pitfall_columns:
                value = (row.get(col) or "").strip().lower()
                if value:
                    pitfalls[col] = value
            record = GroundTruthRecord(
                paper_id=paper_id,
                **{col: _parse_bool(row.get(col) or "", col, paper_id) for col in _RUNNABILITY_COLUMNS},
                pitfalls=pitfalls,
            )
            # DictReader fills a short row's cells with None and keeps a long row's rest under None.
            if None in row or None in row.values():
                raise ValueError(
                    f"the row ending on line {line} does not have one cell for each of "
                    f"the header's {len(fieldnames)} columns"
                )
            records[paper_id] = record
    return records


def _read_utf8(path: str) -> str | None:
    """The file's text, or None when there is no file at ``path``.

    One ``os.open`` stands in for an ``is_file`` check: a missing file and
    a broken symlink fail to open, and a directory opens but fails to
    read, so all three read as absent.  The file is read with ``os.read``
    until EOF, the first read sized by ``os.fstat``, with no buffered file
    object in between.
    """
    try:
        fd = os.open(path, os.O_RDONLY)
    except FileNotFoundError:
        return None
    try:
        chunks = [os.read(fd, os.fstat(fd).st_size + 1)]
        while chunks[-1]:
            chunks.append(os.read(fd, _READ_CHUNK))
    except IsADirectoryError:
        return None
    finally:
        os.close(fd)
    return b"".join(chunks).decode("utf-8")


def _read_paper_dir(
    paper_dir: str | Path, ground_truth: GroundTruthRecord | None = None
) -> CorpusEntry:
    """One paper directory as an entry, named after the directory.

    Raises ValueError when paper.txt is missing, a file is not UTF-8 or
    the entry is invalid.  A whitespace-only source.ref reads as None.
    """
    paper_dir = os.fspath(paper_dir)
    try:
        paper_text = _read_utf8(os.path.join(paper_dir, "paper.txt"))
        if paper_text is None:
            raise ValueError("missing paper.txt")
        readme_text = _read_utf8(os.path.join(paper_dir, "readme.txt"))
        source_ref = _read_utf8(os.path.join(paper_dir, "source.ref"))
    except UnicodeDecodeError as exc:
        raise ValueError(f"malformed UTF-8: {exc}") from exc
    return CorpusEntry(
        paper_id=os.path.basename(paper_dir),
        paper_text=paper_text,
        readme_text=readme_text,
        source_ref=(source_ref or "").strip() or None,
        ground_truth=ground_truth,
    )


def load_corpus(root: str | Path) -> LoadedCorpus:
    """Load every paper directory under root, collecting per-entry errors.

    Malformed entries (missing paper.txt, bad UTF-8, an invalid entry)
    are skipped and reported in the error list, and so are annotations
    without a matching directory.  A malformed ``ground_truth.csv``,
    including an invalid annotation or a duplicate paper id, raises
    ConfigError naming the file (see :func:`load_ground_truth`).
    """
    root = Path(root)
    if not root.is_dir():
        raise MissingRoot(errno.ENOENT, "corpus root not found", str(root))

    gt_path = root / "ground_truth.csv"
    ground_truth = load_ground_truth(gt_path) if gt_path.is_file() else {}

    with os.scandir(root) as listing:
        paper_ids = sorted(e.name for e in listing if e.is_dir())
    entries: list[CorpusEntry] = []
    errors: list[str] = []
    for paper_id in paper_ids:
        try:
            entries.append(
                _read_paper_dir(os.path.join(root, paper_id), ground_truth.get(paper_id))
            )
        except ValueError as exc:
            errors.append(f"{paper_id}: {exc}")

    for paper_id in sorted(set(ground_truth) - set(paper_ids)):
        errors.append(f"{paper_id}: annotation has no matching paper directory")

    return LoadedCorpus(entries=tuple(entries), errors=tuple(errors))


def wants_rating(entry: CorpusEntry) -> bool:
    """Whether the rate stage takes the entry: it has readme text, or it is
    annotated ``readme_present`` (and then lacks a readme, see
    :data:`README_MISSING`).  Unannotated papers with a readme are rated."""
    gt = entry.ground_truth
    return bool(entry.readme_text) or (gt is not None and bool(gt.readme_present))


def filter_for_stage(
    entries: Sequence[CorpusEntry], stage: str
) -> list[CorpusEntry]:
    """Stage eligibility: rate needs code and a readme, prepare needs
    code, assess needs pitfall annotations.  Entries without ground truth
    are excluded (eligibility is an annotation-level fact)."""
    if stage == STAGE_RATE:
        keep = lambda gt: bool(gt.code_available) and bool(gt.readme_present)
    elif stage == STAGE_PREPARE:
        keep = lambda gt: bool(gt.code_available)
    elif stage == STAGE_ASSESS:
        keep = lambda gt: bool(gt.pitfalls)
    else:
        raise ValueError(f"unknown stage: {stage!r}")
    return [e for e in entries if e.ground_truth is not None and keep(e.ground_truth)]


@dataclass(frozen=True)
class Split:
    train_ids: tuple[str, ...]
    test_ids: tuple[str, ...]
    seed: int

    def __post_init__(self) -> None:
        if set(self.train_ids) & set(self.test_ids):
            raise ValueError("train and test ids must be disjoint")


def seeded_split(entries: Sequence[CorpusEntry], n_train: int, seed: int) -> Split:
    """Deterministic shuffle of the sorted ids; first n_train go to train."""
    ids = sorted(e.paper_id for e in entries)
    if n_train >= len(ids):
        raise ValueError(f"n_train={n_train} must be smaller than the corpus ({len(ids)})")
    if n_train < 0:
        raise ValueError("n_train must be nonnegative")
    rng = random.Random(seed)
    rng.shuffle(ids)
    return Split(train_ids=tuple(ids[:n_train]), test_ids=tuple(ids[n_train:]), seed=seed)
