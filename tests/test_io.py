"""Ballot file parsing, the native format, and the bundled data."""

import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from streamelect import (
    ArrivalOrder,
    Election,
    ParseError,
    bundled_ballot_files,
    divisor_committee_size,
    parse_pabulib,
    read_native,
    to_election,
    write_native,
)

MINIMAL = """META
key;value
description;tiny
vote_type;approval
PROJECTS
project_id;cost
p1;100
p2;100
p3;100
VOTES
voter_id;vote
v1;p1,p2
v2;p3
"""


class TestParsePabulib:
    def test_minimal_file(self):
        instance = parse_pabulib(MINIMAL)
        assert instance.meta["description"] == "tiny"
        assert instance.projects == ("p1", "p2", "p3")
        assert instance.votes == {"v1": ("p1", "p2"), "v2": ("p3",)}

    def test_vote_type_defaults_to_approval(self):
        text = MINIMAL.replace("vote_type;approval\n", "")
        assert parse_pabulib(text).projects == ("p1", "p2", "p3")

    def test_content_before_section(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_pabulib("key;value\n" + MINIMAL)

    def test_duplicate_project(self):
        text = MINIMAL.replace("p2;100", "p1;100")
        with pytest.raises(ParseError, match="line 8.*duplicate project"):
            parse_pabulib(text)

    def test_duplicate_voter(self):
        text = MINIMAL.replace("v2;p3", "v1;p3")
        with pytest.raises(ParseError, match="line 13.*duplicate voter"):
            parse_pabulib(text)

    def test_unknown_project_in_vote(self):
        text = MINIMAL.replace("v2;p3", "v2;p9")
        with pytest.raises(ParseError, match="line 13.*unknown project 'p9'"):
            parse_pabulib(text)

    def test_missing_section(self):
        text = MINIMAL[: MINIMAL.index("VOTES")]
        with pytest.raises(ParseError, match="missing or empty section VOTES"):
            parse_pabulib(text)

    def test_non_approval_rejected(self):
        text = MINIMAL.replace("vote_type;approval", "vote_type;ordinal")
        with pytest.raises(ParseError, match="vote_type 'ordinal'"):
            parse_pabulib(text)

    def test_count_mismatch(self):
        text = MINIMAL.replace("description;tiny", "num_projects;7")
        with pytest.raises(ParseError, match="num_projects=7 but file has 3"):
            parse_pabulib(text)

    def test_count_not_integer(self):
        text = MINIMAL.replace("description;tiny", "num_votes;lots")
        with pytest.raises(ParseError, match="num_votes='lots' is not an integer"):
            parse_pabulib(text)

    def test_projects_header_needs_id(self):
        text = MINIMAL.replace("project_id;cost", "name;cost")
        with pytest.raises(ParseError, match="line 6.*project_id"):
            parse_pabulib(text)

    @pytest.mark.parametrize(
        "old, new, lineno",
        [
            ("v2;p3", "30", 13),
            ("project_id;cost\np1;100", "cost;project_id\n1", 7),
        ],
        ids=["votes", "projects"],
    )
    def test_row_shorter_than_header(self, old, new, lineno):
        text = MINIMAL.replace(old, new)
        with pytest.raises(ParseError, match=f"line {lineno}: expected 2 fields.*found 1"):
            parse_pabulib(text)

    @pytest.mark.parametrize(
        "edits, message",
        [
            ((("META\n", "x\nMETA\n"),), "line 1: content before any section header"),
            ((("description;tiny", "description"),), "line 3: META rows need key;value"),
            ((("project_id;cost", "name;cost"),), "line 6: PROJECTS header lacks project_id"),
            ((("p2;100", "p2"),), "line 8: expected 2 fields as in the header, found 1"),
            ((("p2;100", "p1;100"),), "line 8: duplicate project id 'p1'"),
            ((("voter_id;vote", "voter;vote"),), "line 11: VOTES header lacks voter_id"),
            ((("voter_id;vote", "voter_id;ballot"),), "line 11: VOTES header lacks vote"),
            ((("voter_id;vote", "id;ballot"),), "line 11: VOTES header lacks voter_id"),
            ((("v2;p3", "v2"),), "line 13: expected 2 fields as in the header, found 1"),
            ((("v2;p3", "v1;p3"),), "line 13: duplicate voter id 'v1'"),
            ((("v2;p3", "v2;p9"),), "line 13: vote names unknown project 'p9'"),
            ((("v2;p3", "v1;p9"),), "line 13: duplicate voter id 'v1'"),
            ((("v2;p3", "v2;p3,p1,p9"),), "line 13: vote names unknown project 'p9'"),
            (
                (("description;tiny\nvote_type;approval\n", ""),),
                "line 1: missing or empty section META",
            ),
            (
                (("p1;100\np2;100\np3;100\n", ""), ("v1;p1,p2\nv2;p3\n", "")),
                "line 5: missing or empty section PROJECTS",
            ),
            (
                (("VOTES\nvoter_id;vote\nv1;p1,p2\nv2;p3\n", ""),),
                "line 10: missing or empty section VOTES",
            ),
            (
                (("vote_type;approval", "vote_type;ordinal"),),
                "line 4: unsupported vote_type 'ordinal'; only approval ballots are handled",
            ),
            (
                (("description;tiny", "num_votes;lots"),),
                "line 3: meta num_votes='lots' is not an integer",
            ),
            (
                (("description;tiny", "num_projects;7"),),
                "line 3: meta num_projects=7 but file has 3",
            ),
        ],
    )
    def test_every_error_message(self, edits, message):
        """Each ParseError of the parser, with its full message, in the
        order the checks fire."""
        text = MINIMAL
        for old, new in edits:
            text = text.replace(old, new)
        with pytest.raises(ParseError) as info:
            parse_pabulib(text)
        assert str(info.value) == message


class TestToElection:
    def test_matrix_layout(self):
        e = to_election(parse_pabulib(MINIMAL), 2)
        assert (e.num_voters, e.num_candidates, e.committee_size) == (2, 3, 2)
        assert np.array_equal(e.utilities, [[1, 1, 0], [0, 0, 1]])

    @pytest.mark.parametrize("k", [1, 3])
    def test_committee_bounds(self, k):
        with pytest.raises(ValueError):
            to_election(parse_pabulib(MINIMAL), k)


class TestDivisorCommitteeSize:
    def test_values(self):
        assert divisor_committee_size(24, 20) == 2
        assert divisor_committee_size(24, 4) == 6
        assert divisor_committee_size(40, 4) == 10
        assert divisor_committee_size(3, 1) == 2
        assert divisor_committee_size(100, 1) == 99

    def test_too_few_candidates(self):
        with pytest.raises(ValueError):
            divisor_committee_size(2, 4)


class TestNativeFormat:
    def test_roundtrip_with_order(self):
        e = Election([[0.25, 1.5, 0.0], [3.125, 0.0, 2.0]], 2)
        order = ArrivalOrder((2, 0, 1))
        text = write_native(e, order)
        back, back_order = read_native(text)
        assert np.array_equal(back.utilities, e.utilities)
        assert back.committee_size == 2
        assert back_order == order

    def test_roundtrip_without_extras(self, showcase):
        text = write_native(showcase)
        back, order = read_native(text)
        assert np.array_equal(back.utilities, showcase.utilities)
        assert order is None

    def test_order_shares_the_command_line_id_grammar(self):
        _, order = read_native("2 3 2\norder: 2,1, 3\n1;0;0\n0;1;1\n")
        assert order.permutation == (1, 0, 2)

    def test_order_is_one_based_in_file(self):
        e, order = read_native("2 3 2\norder: 2 1 3\n1;0;0\n0;1;1\n")
        assert order.permutation == (1, 0, 2)
        assert "order: 3 1 2" in write_native(e, ArrivalOrder((2, 0, 1)))

    @pytest.mark.parametrize(
        "text, match",
        [
            ("", "empty instance"),
            ("1 2\n1;1\n", "header must be"),
            ("a b c\n1;1\n", "malformed header"),
            ("2 3 2\norder: 1 2\n1;0;0\n0;1;1\n", "order lists 2 of 3"),
            (
                "2 3 2\norder: 3 1\n1;0;0\n0;1;1\n",
                r"^line 2: bad order \(order lists 2 of 3 candidates\)$",
            ),
            ("2 3 2\norder: 1 x 3\n1;0;0\n0;1;1\n", "bad order"),
            ("2 4 2\norder: 1 x 3 4\n1;0;0;1\n0;1;1;0\n", "^line 2: .*got 'x'"),
            ("2 4 2\norder: 1 1 3 4\n1;0;0;1\n0;1;1;0\n", "^line 2: .*candidate 1 is listed twice"),
            ("2 4 2\norder: 1 2 3 9\n1;0;0;1\n0;1;1;0\n", "^line 2: .*candidate 9 out of range 1..4"),
            ("2 4 2\norder: 0 1 2 3\n1;0;0;1\n0;1;1;0\n", "^line 2: .*candidate 0 out of range 1..4"),
            ("2 3 2\n1;0;0\n", "line 3: expected 2 utility rows, found 1"),
            ("2 3 2\n1;0;0\n0;1;1\n\n1;1;1\n", "line 5: expected 2 utility rows, found 3"),
            ("2 3 2\n1;0\n0;1;1\n", "line 2: expected 3 values, found 2"),
            ("2 3 2\n1;0;zap\n0;1;1\n", "line 2: malformed number"),
            ("2 3 2\n1;0;0\n0;-1;1\n", "line 3: negative utility"),
            ("2 3 3\n1;0;0\n0;1;1\n", "line 1"),
            ("2 3 2 1.5\n1;2;0\n0;1;1\n", "^line 1: header must be 'n m k', got '2 3 2 1.5'$"),
            ("2 -3 2\n1;2;3\n4;5;6\n", "line 1: counts must be positive"),
            ("-1 3 2\n", "line 1: counts must be positive"),
            ("2 3 2\n1;nan;3\n4;5;6\n", "line 2: non-finite utility"),
            ("2 3 2\n1;2;3\n4;5;inf\n", "line 3: non-finite utility"),
        ],
    )
    def test_parse_errors(self, text, match):
        with pytest.raises(ParseError, match=match):
            read_native(text)

    def test_blank_lines_ignored(self):
        e, _ = read_native("\n2 3 2\n\n1;0;0\n\n0;1;1\n\n")
        assert e.num_voters == 2


class TestBundledBallots:
    DIMENSIONS = {
        "hillcrest-2025.pb": (90, 20),
        "lakeview-2023.pb": (150, 40),
        "midtown-2024.pb": (75, 30),
        "riverside-2024.pb": (120, 24),
    }

    def test_four_files_sorted(self):
        names = [name for name, _ in bundled_ballot_files()]
        assert names == sorted(self.DIMENSIONS)

    def test_dimensions(self):
        for name, text in bundled_ballot_files():
            instance = parse_pabulib(text)
            votes, projects = self.DIMENSIONS[name]
            assert len(instance.votes) == votes
            assert len(instance.projects) == projects
            assert instance.meta["vote_type"] == "approval"

    def test_usable_at_divisor_sizes(self):
        for name, text in bundled_ballot_files():
            instance = parse_pabulib(text)
            m = len(instance.projects)
            for divisor in (20, 4):
                e = to_election(instance, divisor_committee_size(m, divisor))
                assert 2 <= e.committee_size < m
                assert set(np.unique(e.utilities)) <= {0.0, 1.0}


NATIVE = "3 4 2 5.0\norder: 2 4 1 3\n1.0;0.0;2.5;5.0\n0;1;1;0\n4.0;0.0;0.0;3.0\n"

# Fragments that each parser treats specially, so that mutations reach its
# checks and not only the first one that rejects noise.
FRAGMENTS = (
    "", "0", "1", "-1", "-0", "99999999999", "1e308", "nan", "inf", ".", "e",
    ";", ",", " ", "\n", "\r", "\t", "x", "order:", "META", "PROJECTS", "VOTES",
    "key", "value", "vote", "voter_id", "project_id", "vote_type", "approval",
    "num_projects", "num_votes", "p1", "v1",
)


@st.composite
def mutated(draw, text):
    """`text` after one to four random edits: a span replaced by a fragment
    or by random characters, or a line deleted, duplicated, swapped with
    another, or cut off with the rest of the file."""
    for _ in range(draw(st.integers(1, 4))):
        lines = text.splitlines(keepends=True) or [""]
        i = draw(st.integers(0, len(lines) - 1))
        j = draw(st.integers(0, len(lines) - 1))
        edit = draw(st.sampled_from(("replace", "delete", "duplicate", "swap", "truncate")))
        if edit == "replace":
            start = draw(st.integers(0, len(text)))
            end = start + draw(st.integers(0, 3))
            new = draw(st.one_of(st.sampled_from(FRAGMENTS), st.text(max_size=3)))
            text = text[:start] + new + text[end:]
        elif edit == "delete":
            text = "".join(lines[:i] + lines[i + 1 :])
        elif edit == "duplicate":
            text = "".join(lines[: i + 1] + lines[i:])
        elif edit == "swap":
            lines[i], lines[j] = lines[j], lines[i]
            text = "".join(lines)
        else:
            text = "".join(lines[:i]) + lines[i][: draw(st.integers(0, len(lines[i])))]
    return text


def assert_parses_or_names_line(parse, text):
    """`parse(text)` returns, or raises ParseError starting `line N:` with N
    at most one past the file's last line."""
    try:
        parse(text)
    except ParseError as exc:
        found = re.match(r"line (\d+): ", str(exc))
        assert found, f"no line number in {str(exc)!r}"
        assert 1 <= int(found.group(1)) <= len(text.splitlines()) + 1


class TestParserFuzz:
    @given(mutated(MINIMAL))
    @example(MINIMAL[: MINIMAL.index("VOTES")])
    @example(MINIMAL.replace("vote_type;approval", "vote_type;ordinal"))
    @example(MINIMAL.replace("description;tiny", "num_votes;lots"))
    @settings(max_examples=500, deadline=None)
    def test_pabulib(self, text):
        assert_parses_or_names_line(parse_pabulib, text)

    @given(mutated(NATIVE))
    @example(NATIVE.replace("3 4 2", "3 99999999999 2"))
    @example("1 99999999999 2\n1;0\n")
    @settings(max_examples=500, deadline=None)
    def test_native(self, text):
        assert_parses_or_names_line(read_native, text)
