"""Parsing of participatory-budgeting ballot files and a native instance
format for cardinal elections.

The ballot files follow the established section layout: META, PROJECTS and
VOTES headers, semicolon-separated records with a column-header row per
section, and comma-separated approval lists in the `vote` column. Project
costs are parsed but ignored (the rules here have unit prices). Only
approval ballots are accepted.

The native format is line-oriented and value-exact under round-trips:

    n m k
    order: i1 i2 ... im     (optional, 1-based candidate ids)
    u;u;...;u               (n rows of m utilities)

Ids in files, on the command line and in printed output are 1-based, and
`read_ids` and `write_ids` own that convention. An id list is separated by
blanks or commas; `read_ids` refuses, by name, a token that is not an
integer, a candidate id outside 1..m and an id listed twice. `read_order`
reads an arrival order, in a file or on the command line, as such a list
of all m candidates.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources

import numpy as np

from .core import ArrivalOrder, Election, check_size


class ParseError(ValueError):
    """Malformed input file; the message names the offending line."""


@dataclass(frozen=True)
class PabulibInstance:
    """One parsed ballot file: metadata, project ids in file order, and the
    approval votes as an ordered (voter id -> approved project ids) map."""

    meta: dict
    projects: tuple
    votes: dict


# The columns each data section's header must hold, the row's id first.
COLUMNS = {"PROJECTS": ("project_id",), "VOTES": ("voter_id", "vote")}
SECTIONS = ("META", *COLUMNS)


def parse_pabulib(text):
    """Parse a ballot file into a PabulibInstance.

    Raises
    ------
    ParseError
        On a missing section, a row with fewer fields than its section's
        header, duplicate project or voter id, a vote naming an unknown
        project, a non-approval vote_type, or a count that contradicts the
        metadata. Messages start with the 1-based number of the offending
        line: for a whole-file problem, the section header or META row at
        fault, or one past the last line when a section is missing.
    """
    lines = text.splitlines()
    meta = {}
    meta_lines = {}
    section_lines = {}
    # Each data section's rows: id -> the project ids its other columns list.
    rows = {name: {} for name in COLUMNS}
    section = None
    header = None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        if line in SECTIONS:
            section = line
            section_lines[section] = lineno
            header = None
            continue
        if section is None:
            raise ParseError(f"line {lineno}: content before any section header")
        fields = [f.strip() for f in line.split(";")]
        if section == "META":
            if len(fields) < 2:
                raise ParseError(f"line {lineno}: META rows need key;value")
            if header is None and fields[0] == "key":
                header = fields
                continue
            meta[fields[0]] = fields[1]
            meta_lines[fields[0]] = lineno
            continue
        columns = COLUMNS[section]
        if header is None:
            for needed in columns:
                if needed not in fields:
                    raise ParseError(f"line {lineno}: {section} header lacks {needed}")
            header = fields
            continue
        if len(fields) < len(header):
            raise ParseError(
                f"line {lineno}: expected {len(header)} fields as in the header, found {len(fields)}"
            )
        row_id, *lists = (fields[header.index(column)] for column in columns)
        if row_id in rows[section]:
            kind = columns[0].removesuffix("_id")
            raise ParseError(f"line {lineno}: duplicate {kind} id {row_id!r}")
        approved = tuple(p.strip() for ids in lists for p in ids.split(",") if p.strip())
        for pid in approved:
            if pid not in rows["PROJECTS"]:
                raise ParseError(f"line {lineno}: vote names unknown project {pid!r}")
        rows[section][row_id] = approved
    for name, content in {"META": meta, **rows}.items():
        if not content:
            lineno = section_lines.get(name, len(lines) + 1)
            raise ParseError(f"line {lineno}: missing or empty section {name}")
    vote_type = meta.get("vote_type", "approval")
    if vote_type != "approval":
        raise ParseError(
            f"line {meta_lines['vote_type']}: unsupported vote_type {vote_type!r};"
            " only approval ballots are handled"
        )
    projects, votes = rows["PROJECTS"], rows["VOTES"]
    for key, count in (("num_projects", len(projects)), ("num_votes", len(votes))):
        if key not in meta:
            continue
        try:
            declared = int(meta[key])
        except ValueError:
            raise ParseError(
                f"line {meta_lines[key]}: meta {key}={meta[key]!r} is not an integer"
            ) from None
        if declared != count:
            raise ParseError(f"line {meta_lines[key]}: meta {key}={meta[key]} but file has {count}")
    return PabulibInstance(meta=meta, projects=tuple(projects), votes=votes)


def to_election(instance, k):
    """Approval election from a parsed ballot file: voters in file order,
    candidates in PROJECTS order, 0/1 utilities."""
    index = {pid: j for j, pid in enumerate(instance.projects)}
    matrix = np.zeros((len(instance.votes), len(instance.projects)))
    for i, approved in enumerate(instance.votes.values()):
        for pid in approved:
            matrix[i, index[pid]] = 1.0
    return Election(matrix, k)


def divisor_committee_size(m, divisor):
    """Committee size for a divisor rule: max(2, floor(m/divisor)), clamped
    below m."""
    if m < 3:
        raise ValueError(f"need at least 3 candidates, got {m}")
    return min(max(2, m // divisor), m - 1)


def read_ids(text, num_candidates):
    """The 0-based ids of a list of distinct 1-based candidate ids, naming
    the first bad token, or else the first id out of range or repeated."""
    ids = []
    for token in text.replace(",", " ").split():
        try:
            ids.append(int(token))
        except ValueError:
            raise ValueError(f"expected an integer, got {token!r}") from None
    seen = set()
    for c in ids:
        if not 1 <= c <= num_candidates:
            raise ValueError(f"candidate {c} out of range 1..{num_candidates}")
        if c in seen:
            raise ValueError(f"candidate {c} is listed twice")
        seen.add(c)
    return tuple(c - 1 for c in ids)


def read_order(text, num_candidates):
    """The ArrivalOrder of a list of all m 1-based candidate ids, read with
    `read_ids`."""
    ids = read_ids(text, num_candidates)
    if len(ids) != num_candidates:
        raise ValueError(f"order lists {len(ids)} of {num_candidates} candidates")
    return ArrivalOrder(ids)


def write_ids(ids):
    """Blank-separated 1-based ids of 0-based candidates or voters."""
    return " ".join(str(c + 1) for c in ids)


def write_native(election, order=None):
    """Serialize an election (and optionally an arrival order) to the native
    text format; utilities use shortest round-trip decimal notation."""
    lines = [f"{election.num_voters} {election.num_candidates} {election.committee_size}"]
    if order is not None:
        lines.append("order: " + write_ids(order.permutation))
    for row in election.utilities:
        lines.append(";".join(repr(float(v)) for v in row))
    return "\n".join(lines) + "\n"


def read_native(text):
    """Parse the native format.

    Returns
    -------
    (Election, ArrivalOrder or None)
    """
    lines = text.splitlines()
    entries = [(i, line.strip()) for i, line in enumerate(lines, start=1) if line.strip()]
    if not entries:
        raise ParseError("line 1: empty instance")
    lineno, head = entries[0]
    parts = head.split()
    if len(parts) != 3:
        raise ParseError(f"line {lineno}: header must be 'n m k', got {head!r}")
    try:
        n, m, k = (int(p) for p in parts)
    except ValueError:
        raise ParseError(f"line {lineno}: malformed header {head!r}") from None
    try:
        check_size(n, m, k)
    except ValueError as exc:
        raise ParseError(f"line {lineno}: {exc}") from None
    body = entries[1:]
    order = None
    if body and body[0][1].startswith("order:"):
        lineno, order_line = body[0]
        try:
            order = read_order(order_line[len("order:"):], m)
        except ValueError as exc:
            raise ParseError(f"line {lineno}: bad order ({exc})") from None
        body = body[1:]
    if len(body) != n:
        # A short body is missing the row after its last line; a long one
        # names its first extra row.
        lineno = body[n][0] if len(body) > n else entries[-1][0] + 1
        raise ParseError(f"line {lineno}: expected {n} utility rows, found {len(body)}")
    # Rows are checked before the matrix exists, so a header with a huge m
    # fails on its first short row instead of allocating n x m floats.
    rows = []
    for lineno, line in body:
        fields = line.split(";")
        if len(fields) != m:
            raise ParseError(f"line {lineno}: expected {m} values, found {len(fields)}")
        try:
            rows.append([float(f) for f in fields])
        except ValueError:
            raise ParseError(f"line {lineno}: malformed number") from None
    matrix = np.array(rows)
    checks = ((matrix < 0, "negative utility"), (~np.isfinite(matrix), "non-finite utility"))
    for invalid, problem in checks:
        if invalid.any():
            bad = int(np.nonzero(invalid.any(axis=1))[0][0])
            raise ParseError(f"line {body[bad][0]}: {problem}")
    return Election(matrix, k), order


def bundled_ballot_files():
    """Names and texts of the ballot files shipped with the package, sorted
    by name."""
    package = resources.files(__package__) / "data"
    out = []
    for entry in sorted(package.iterdir(), key=lambda e: e.name):
        if entry.name.endswith(".pb"):
            out.append((entry.name, entry.read_text(encoding="utf-8")))
    return out
