import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import streamelect
from streamelect import (
    ORDER_GENERATOR,
    ArrivalOrder,
    Committee,
    Election,
    InvalidCommitteeError,
    random_order,
    satisfaction,
    seeded_rng,
    stream,
)

from conftest import showcase_election


class TestElection:
    def test_valid_construction(self, showcase):
        assert showcase.num_voters == 2
        assert showcase.num_candidates == 6
        assert showcase.committee_size == 3
        assert showcase.utilities.dtype == np.float64

    def test_matrix_is_read_only(self, showcase):
        with pytest.raises(ValueError):
            showcase.utilities[0, 0] = 5.0

    @pytest.mark.parametrize("k", [0, 1, 6, 7, 2.5, 2.0, True, None])
    def test_committee_size_bounds(self, k):
        rows = [[1.0] * 6, [1.0] * 6]
        with pytest.raises(ValueError):
            Election(rows, k)

    def test_minimum_viable_size(self):
        Election([[1.0, 0.0, 1.0]], 2)
        Election([[1.0, 0.0, 1.0]], np.int64(2))

    def test_rejects_negative_utilities(self):
        with pytest.raises(ValueError):
            Election([[1.0, -0.1, 0.0], [0.0, 1.0, 1.0]], 2)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Election([[1.0, float("inf"), 0.0], [0.0, 1.0, 1.0]], 2)

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            Election(np.ones(3), 2)

    def test_compares_and_hashes_by_identity(self):
        a = Election([[1, 0, 1], [0, 1, 1]], 2)
        b = Election([[1, 0, 1], [0, 1, 1]], 2)
        assert a == a and a != b and not a == b
        assert hash(a) == hash(a)
        assert {a: "a", b: "b"}[b] == "b"
        scoped = dataclasses.replace(a, committee_size=2)
        assert scoped != a and scoped.utilities.tolist() == a.utilities.tolist()
        assert a.is_approval and "is_approval" in vars(a)


class TestIsApproval:
    def test_detection(self, showcase):
        assert not showcase.is_approval
        assert Election([[1, 0, 1], [0, 1, 0]], 2).is_approval

    def test_one_half_entry(self):
        assert not Election([[1, 0, 1], [0, 0.5, 0]], 2).is_approval

    def test_all_zero_column(self):
        assert Election([[1, 0, 0], [0, 0, 1]], 2).is_approval

    def test_replace_recomputes(self):
        # exp2 rescopes each election with dataclasses.replace; the copy must
        # read its own matrix, not a value cached on the original.
        e = Election([[1, 0, 1, 0], [0, 1, 0, 1]], 2)
        assert e.is_approval
        scoped = dataclasses.replace(e, committee_size=3)
        assert scoped.committee_size == 3
        assert scoped.is_approval
        halved = dataclasses.replace(e, utilities=e.utilities / 2)
        assert not halved.is_approval
        assert e.is_approval


class TestArrivalOrder:
    def test_identity(self):
        assert ArrivalOrder.identity(4).permutation == (0, 1, 2, 3)

    def test_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            ArrivalOrder((0, 0, 1))
        with pytest.raises(ValueError):
            ArrivalOrder((1, 2, 3))

    def test_refuses_a_float_id_by_name(self):
        # Truncating 1.7 to 1 would accept the order (0, 1, 2).
        with pytest.raises(ValueError, match="^candidate id 1.7 is not an integer$"):
            ArrivalOrder([0, 1.7, 2])
        # Reading True as 1 would accept the order (1, 0).
        with pytest.raises(ValueError, match="^candidate id True is not an integer$"):
            ArrivalOrder([True, False])
        assert ArrivalOrder([np.int64(1), 0]).permutation == (1, 0)

    def test_length(self):
        assert len(ArrivalOrder.identity(5)) == 5


class TestRandomOrder:
    def test_generator_tag(self):
        assert ORDER_GENERATOR == "philox4x64/fisher-yates/v1"

    def test_deterministic(self):
        assert random_order(10, 7).permutation == random_order(10, 7).permutation

    def test_seed_sensitivity(self):
        assert random_order(10, 7).permutation != random_order(10, 8).permutation

    def test_frozen_draw(self):
        # Pinned stream: any change to the generator contract must show here.
        assert random_order(8, 2026).permutation == (7, 4, 0, 5, 1, 6, 2, 3)

    def test_rejects_an_empty_order(self):
        with pytest.raises(ValueError, match="^cannot draw an order over 0 candidates$"):
            random_order(0, 5)

    def test_rejects_negative_seed(self):
        with pytest.raises(ValueError):
            random_order(5, -1)
        with pytest.raises(ValueError):
            random_order(1, -1)
        with pytest.raises(ValueError):
            seeded_rng(-3)

    @pytest.mark.parametrize("seed", [2.9, 2.0, True])
    def test_refuses_a_seed_that_is_not_an_integer(self, seed):
        # Truncating 2.9 or reading True as 1 would repeat the orders of
        # seeds 2 and 1.
        with pytest.raises(ValueError, match=f"^seed must be an integer, got {seed}$"):
            random_order(12, seed)
        with pytest.raises(ValueError, match=f"^seed must be an integer, got {seed}$"):
            seeded_rng(seed)
        assert random_order(12, np.int64(2)) == random_order(12, 2)

    @given(m=st.integers(2, 40), seed=st.integers(0, 2**32))
    @settings(max_examples=200, deadline=None)
    def test_always_a_permutation(self, m, seed):
        assert sorted(random_order(m, seed).permutation) == list(range(m))

    @given(m=st.one_of(st.integers(1, 60), st.just(400)), seed=st.integers(0, 2**64 - 1))
    @settings(max_examples=300, deadline=None)
    def test_matches_one_scalar_draw_per_swap(self, m, seed):
        """The vector draw of all m-1 swap indices gives the same order as
        the textbook loop with one scalar draw per swap on the same stream."""
        assert random_order(m, seed).permutation == reference_random_order(m, seed)


def reference_random_order(m, seed):
    """Fisher-Yates with one scalar `integers` call per swap: the reference
    for `random_order`'s vector draw."""
    rng = seeded_rng(seed)
    perm = list(range(m))
    for i in range(m - 1, 0, -1):
        j = int(rng.integers(0, i + 1))
        perm[i], perm[j] = perm[j], perm[i]
    return tuple(perm)


class TestSatisfaction:
    def test_showcase_values(self, showcase):
        sat = satisfaction(showcase, Committee(frozenset({2, 3, 5})))
        assert sat.dtype == np.float64
        assert sat.tolist() == [2.0, 6.0]

    def test_accepts_iterables(self, showcase):
        assert satisfaction(showcase, [2, 3, 5]).tolist() == [2.0, 6.0]

    def test_empty_committee(self, showcase):
        sat = satisfaction(showcase, [])
        assert sat.dtype == np.float64
        assert sat.flags.writeable and sat.flags.owndata
        assert sat.tolist() == [0.0, 0.0]

    def test_rejects_out_of_range(self, showcase):
        with pytest.raises(InvalidCommitteeError):
            satisfaction(showcase, [0, 6])

    def test_rejects_oversized(self, showcase):
        with pytest.raises(InvalidCommitteeError):
            satisfaction(showcase, [0, 1, 2, 3])

    def test_rejects_a_float_id(self, showcase):
        with pytest.raises(InvalidCommitteeError, match="^candidate id 0.5 is not an integer$"):
            satisfaction(showcase, [0.5, 2.2])
        with pytest.raises(InvalidCommitteeError, match="^candidate id False is not an integer$"):
            satisfaction(showcase, [2, False])

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_additive(self, seed):
        rng = seeded_rng(seed)
        e = showcase_election()
        members = sorted(
            int(c) for c in rng.choice(6, size=int(rng.integers(1, 4)), replace=False)
        )
        sat = satisfaction(e, members)
        manual = e.utilities[:, members].sum(axis=1)
        assert np.allclose(sat, manual)


class TestStream:
    def test_positions_and_columns(self, showcase):
        order = ArrivalOrder((2, 0, 1, 5, 4, 3))
        seen = list(stream(showcase, order))
        assert [p for p, _, _ in seen] == [1, 2, 3, 4, 5, 6]
        assert [c for _, c, _ in seen] == [2, 0, 1, 5, 4, 3]
        assert np.array_equal(seen[0][2], showcase.utilities[:, 2])

    def test_rejects_length_mismatch(self, showcase):
        with pytest.raises(ValueError):
            list(stream(showcase, ArrivalOrder.identity(5)))


class TestCommittee:
    def test_members_normalized(self):
        c = Committee({np.int64(3), 1})
        assert c.members == frozenset({1, 3})
        assert c.sorted_members() == (1, 3)

    def test_refuses_a_float_id(self):
        # Truncating the ids would elect {0, 1}.
        with pytest.raises(InvalidCommitteeError, match="^candidate id 0.5 is not an integer$"):
            Committee([0.5, 1.9])
        # Reading True as 1 would elect {1}.
        with pytest.raises(InvalidCommitteeError, match="^candidate id True is not an integer$"):
            Committee([True])

    def test_audit_not_compared(self):
        assert Committee(frozenset({1}), ("x",)) == Committee(frozenset({1}), ("y",))


def test_every_public_name_resolves():
    assert [name for name in streamelect.__all__ if not hasattr(streamelect, name)] == []
