"""Synthetic culture samplers and their seeding contract."""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamelect import (
    SampleSpec,
    dispersion_from_normalized,
    expected_swap_distance,
    proportional_quota,
    sample,
)
from streamelect.samplers import CULTURES
from streamelect.core import seeded_rng


def ic_spec(**overrides):
    base = dict(
        culture="ic", num_voters=6, num_candidates=10, committee_size=3,
        seed=42, p=0.5,
    )
    base.update(overrides)
    return SampleSpec(**base)


class TestSampleSpec:
    def test_unknown_culture(self):
        with pytest.raises(ValueError):
            ic_spec(culture="urn")

    @pytest.mark.parametrize(
        "overrides",
        [
            {"p": None},
            {"p": 1.5},
            {"culture": "mallows", "p": None},
            {"culture": "mallows", "p": None, "phi": 0.0},
            {"culture": "normalized-mallows", "p": None, "phi": 1.2},
            {"culture": "polarized", "p": None, "x": 0.0, "q": 0.5},
            {"culture": "polarized", "p": None, "x": 0.5},
            # a parameter the culture does not read
            {"phi": 0.6},
            {"noise": False},
            {"culture": "mallows", "phi": 0.6},
            {"culture": "normalized-mallows", "p": None, "phi": 0.6, "x": 0.3},
            {"culture": "polarized", "p": None, "x": 0.5, "q": 0.5, "phi": 0.6},
            {"culture": "polarized", "p": None, "x": 0.5, "q": 0.5, "noise": False},
        ],
    )
    def test_missing_or_out_of_range_parameters(self, overrides):
        with pytest.raises(ValueError):
            ic_spec(**overrides)

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"p": None}, "ic needs approval probability p in [0, 1], got None"),
            ({"p": -0.1}, "ic needs approval probability p in [0, 1], got -0.1"),
            (
                {"culture": "normalized-mallows", "p": None, "phi": 0.0},
                "normalized-mallows needs dispersion phi in (0, 1], got 0.0",
            ),
            (
                {"culture": "polarized", "p": None, "x": 0.0, "q": 0.5},
                "polarized needs group-A share x in (0, 1], got 0.0",
            ),
            (
                {"culture": "polarized", "p": None, "x": 0.5, "q": 1.5},
                "polarized needs approval rate q in (0, 1], got 1.5",
            ),
            ({"q": 0.5}, "ic does not read q"),
            ({"noise": False}, "ic does not read noise"),
            (
                {"culture": "polarized", "p": None, "x": 0.5, "q": 0.5, "noise": False},
                "polarized does not read noise",
            ),
            ({"committee_size": 2.5}, "k must be an integer, got 2.5"),
            ({"num_voters": 5.5}, "n must be an integer, got 5.5"),
            ({"num_candidates": True}, "m must be an integer, got True"),
            # A truncated seed would sample seed 1's election under id ...-s1.5.
            ({"seed": 1.5}, "seed must be an integer, got 1.5"),
            ({"seed": True}, "seed must be an integer, got True"),
        ],
    )
    def test_refusal_names_the_field(self, overrides, message):
        with pytest.raises(ValueError) as excinfo:
            ic_spec(**overrides)
        assert str(excinfo.value) == message

    @pytest.mark.parametrize("culture", CULTURES)
    def test_size_refused_before_drawing(self, culture):
        # Refused by the spec before any draw; drawing 4000 x 2000 Mallows
        # utilities would take minutes, and m = 1 divides by m - 1.
        params = {"ic": {"p": 0.5}, "polarized": {"x": 0.5, "q": 0.5}}.get(culture, {"phi": 0.5})
        with pytest.raises(ValueError, match="committee size must satisfy"):
            SampleSpec(culture, 4000, 2000, 5000, 1, **params)
        with pytest.raises(ValueError, match="committee size must satisfy"):
            SampleSpec(culture, 3, 1, 2, 1, **params)

    def test_memory_cap(self):
        with pytest.raises(ValueError):
            ic_spec(num_voters=20_000, num_candidates=2_000)

    def test_instance_id_lists_set_parameters(self):
        assert ic_spec(seed=7).instance_id() == "ic-n6-m10-k3-p0.5-s7"
        spec = SampleSpec(
            culture="polarized", num_voters=8, num_candidates=6,
            committee_size=2, seed=0, x=1.0, q=0.25,
        )
        assert spec.instance_id() == "polarized-n8-m6-k2-x1-q0.25-s0"
        noiseless = SampleSpec("mallows", 5, 6, 2, seed=3, phi=0.6, noise=False)
        assert noiseless.instance_id() == "mallows-n5-m6-k2-phi0.6-nonoise-s3"


class TestDeterminism:
    @pytest.mark.parametrize("culture", CULTURES)
    def test_same_spec_same_election(self, culture):
        kwargs = dict(
            culture=culture, num_voters=7, num_candidates=9,
            committee_size=3, seed=123, p=None,
        )
        if culture == "ic":
            kwargs["p"] = 0.4
        elif culture == "polarized":
            kwargs.update(x=0.5, q=0.7)
        else:
            kwargs["phi"] = 0.6
        a = sample(SampleSpec(**kwargs))
        b = sample(SampleSpec(**kwargs))
        assert np.array_equal(a.utilities, b.utilities)
        c = sample(SampleSpec(**{**kwargs, "seed": 124}))
        assert not np.array_equal(a.utilities, c.utilities)


# A fixed grid over every culture, both noise settings of the Mallows
# cultures, and the parameter extremes p = 0, p = 1, phi = 1 and x = 1.
GOLDEN_SPECS = (
    SampleSpec("ic", 7, 9, 3, seed=11, p=0.4),
    SampleSpec("ic", 5, 6, 2, seed=3, p=0.0),
    SampleSpec("ic", 5, 6, 2, seed=3, p=1.0),
    SampleSpec("mallows", 7, 9, 3, seed=11, phi=0.6),
    SampleSpec("mallows", 7, 9, 3, seed=11, phi=0.6, noise=False),
    SampleSpec("mallows", 5, 6, 2, seed=3, phi=1.0),
    SampleSpec("normalized-mallows", 7, 9, 3, seed=11, phi=0.4),
    SampleSpec("normalized-mallows", 7, 9, 3, seed=11, phi=0.4, noise=False),
    SampleSpec("normalized-mallows", 5, 6, 2, seed=3, phi=1.0),
    SampleSpec("polarized", 7, 9, 3, seed=11, x=0.5, q=0.7),
    SampleSpec("polarized", 5, 6, 2, seed=3, x=1.0, q=0.5),
    SampleSpec("polarized", 8, 10, 4, seed=5, x=0.3, q=1.0),
)


def sample_digest(spec):
    """The sha256 of the drawn matrix's bytes."""
    election = sample(spec)
    return {"sha256": hashlib.sha256(election.utilities.tobytes()).hexdigest()}


@pytest.mark.parametrize("spec", GOLDEN_SPECS, ids=SampleSpec.instance_id)
def test_draw_matches_golden(spec):
    """Every culture draws the same matrix, byte for byte, as the committed
    tests/data/golden_samples.json."""
    golden = json.loads((Path(__file__).parent / "data" / "golden_samples.json").read_text())
    assert sample_digest(spec) == golden[spec.instance_id()]


class TestIc:
    def test_shape_and_cap(self):
        e = sample(ic_spec())
        assert (e.num_voters, e.num_candidates) == (6, 10)
        assert e.committee_size == 3
        assert e.utilities.max() <= 200.0

    def test_scores_are_clamped_integers(self):
        e = sample(ic_spec(num_voters=40, seed=5))
        values = e.utilities[e.utilities > 0]
        assert np.array_equal(values, np.rint(values))
        assert values.min() >= 1.0
        assert values.max() <= 200.0

    def test_p_extremes(self):
        full = sample(ic_spec(p=1.0))
        assert (full.utilities >= 1.0).all()
        empty = sample(ic_spec(p=0.0))
        assert (empty.utilities == 0.0).all()


class TestMallows:
    def spec(self, **overrides):
        base = dict(
            culture="mallows", num_voters=5, num_candidates=6,
            committee_size=2, seed=9, phi=0.5,
        )
        base.update(overrides)
        return SampleSpec(**base)

    def test_noiseless_rows_are_linear_scales(self):
        e = sample(self.spec(noise=False))
        expected = np.linspace(0.0, 200.0, 6)
        for row in e.utilities:
            assert np.allclose(np.sort(row), expected)

    def test_noise_stays_in_range(self):
        e = sample(self.spec(num_voters=30))
        assert e.utilities.min() >= 0.0
        assert e.utilities.max() <= 200.0

    def test_tiny_dispersion_recovers_central_order(self):
        e = sample(self.spec(phi=1e-9, noise=False))
        expected = np.linspace(200.0, 0.0, 6)
        for row in e.utilities:
            assert np.allclose(row, expected)

    def test_expected_swap_distance_closed_forms(self):
        assert expected_swap_distance(1.0, 7) == 7 * 6 / 4
        # two items: one inversion with probability phi / (1 + phi)
        assert expected_swap_distance(0.5, 2) == pytest.approx(1 / 3)

    def test_expected_swap_distance_matches_sampling(self):
        phi, m = 0.5, 5
        rows = sample(SampleSpec("mallows", 4000, m, 2, seed=77, phi=phi, noise=False)).utilities
        total = 0
        for row in rows:
            ranking = list(np.argsort(-row))
            total += sum(
                1
                for a in range(m)
                for b in range(a + 1, m)
                if ranking.index(a) > ranking.index(b)
            )
        assert total / len(rows) == pytest.approx(expected_swap_distance(phi, m), abs=0.15)

    def test_normalized_dispersion_inverts(self):
        for norm in (0.2, 0.6):
            phi = dispersion_from_normalized(norm, 12)
            assert expected_swap_distance(phi, 12) == pytest.approx(
                norm * 12 * 11 / 4, abs=1e-6
            )
        assert dispersion_from_normalized(1.0, 12) == 1.0
        assert dispersion_from_normalized(0.2, 12) < dispersion_from_normalized(0.6, 12)

    def test_normalized_culture_uses_mapped_phi(self):
        kwargs = dict(
            num_voters=4, num_candidates=8, committee_size=2, seed=3, noise=False,
        )
        normed = sample(SampleSpec(culture="normalized-mallows", phi=0.4, **kwargs))
        raw = sample(
            SampleSpec(
                culture="mallows", phi=dispersion_from_normalized(0.4, 8), **kwargs
            )
        )
        assert np.array_equal(normed.utilities, raw.utilities)


def reference_insertion_ranking(rng, m, phi):
    """One Mallows ranking (best first) around the identity order, item j
    inserted at position p with odds phi^(j-p), which are rebuilt for every
    item of every voter and scanned left to right."""
    ranking = [0]
    for j in range(1, m):
        weights = phi ** (j - np.arange(j + 1))
        total = weights.sum()
        draw = rng.random() * total
        acc = 0.0
        position = j
        for p in range(j + 1):
            acc += weights[p]
            if draw < acc:
                position = p
                break
        ranking.insert(position, j)
    return ranking


def reference_mallows(spec):
    """The utility matrix of a Mallows spec, one scalar draw and one entry
    at a time."""
    rng = seeded_rng(spec.seed)
    n, m = spec.num_voters, spec.num_candidates
    phi = spec.phi
    if spec.culture == "normalized-mallows":
        phi = dispersion_from_normalized(phi, m)
    matrix = np.zeros((n, m))
    for i in range(n):
        ranking = reference_insertion_ranking(rng, m, phi)
        for idx, c in enumerate(ranking):
            matrix[i, c] = 200.0 * (m - 1 - idx) / (m - 1)
        if spec.noise:
            matrix[i] = np.clip(matrix[i] + rng.uniform(-10.0, 10.0, size=m), 0.0, 200.0)
    return matrix


@st.composite
def mallows_specs(draw):
    m = draw(st.integers(3, 40))
    return SampleSpec(
        draw(st.sampled_from(["mallows", "normalized-mallows"])),
        draw(st.integers(1, 6)),
        m,
        2,
        seed=draw(st.integers(0, 2**32)),
        phi=draw(st.one_of(st.sampled_from([1e-300, 1e-9]), st.floats(0.0, 1.0, exclude_min=True))),
        noise=draw(st.booleans()),
    )


@given(mallows_specs())
@settings(max_examples=200, deadline=None)
def test_mallows_matches_reference_bit_for_bit(spec):
    """The sampler, which builds the insertion odds once per election and
    places a voter's items from one vector of draws, draws the reference's
    matrix byte for byte."""
    assert sample(spec).utilities.tobytes() == reference_mallows(spec).tobytes()


class TestPolarized:
    def spec(self, **overrides):
        base = dict(
            culture="polarized", num_voters=10, num_candidates=8,
            committee_size=4, seed=2, x=0.5, q=1.0,
        )
        base.update(overrides)
        return SampleSpec(**base)

    def test_block_structure(self):
        e = sample(self.spec())
        assert np.array_equal(e.utilities[:5, :4], np.ones((5, 4)))
        assert np.array_equal(e.utilities[:5, 4:], np.zeros((5, 4)))
        assert np.array_equal(e.utilities[5:, 4:], np.ones((5, 4)))
        assert np.array_equal(e.utilities[5:, :4], np.zeros((5, 4)))

    def test_group_size_rounds_up(self):
        e = sample(self.spec(num_voters=3, x=0.34))
        assert np.array_equal(e.utilities[:2, :4], np.ones((2, 4)))
        assert (e.utilities[2, :4] == 0.0).all()
        exact_third = sample(self.spec(num_voters=3, x=1 / 3))
        assert (exact_third.utilities[1, :4] == 0.0).all()

    def test_q_rate(self):
        e = sample(self.spec(num_voters=400, q=0.3, seed=11))
        rate = e.utilities[200:, 4:].mean()
        assert rate == pytest.approx(0.3, abs=0.05)

    def test_proportional_quota(self):
        spec = self.spec(num_voters=20, num_candidates=10, committee_size=5, x=0.4)

        class Stub:
            members = frozenset({0, 1, 7, 8, 9})

        assert proportional_quota(spec, Stub()) == (2, 2)
        floor_spec = self.spec(committee_size=3, x=0.5)

        class Small:
            members = frozenset({0, 5, 6})

        assert proportional_quota(floor_spec, Small()) == (1, 1)

    def test_quota_requires_polarized(self):
        class Stub:
            members = frozenset()

        with pytest.raises(ValueError):
            proportional_quota(ic_spec(), Stub())
