"""Experiment harness: seeding, configs, records, aggregates, theorem checks."""

import collections
import dataclasses
import itertools
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamelect import (
    CULTURES,
    Election,
    EngineCache,
    ExperimentConfig,
    MetricBundle,
    RunRecord,
    check_ejr_plus_approval,
    check_jr,
    compute_metrics,
    derive_seed,
    mes,
    nash_optimum_bruteforce,
    nash_welfare,
    online_mes,
    parse_config,
    proportional_quota,
    random_order,
    run_experiment,
    run_rule,
    sample,
    satisfaction,
    verify_thm_mes,
    verify_thm_nash,
    write_native,
)
from streamelect.harness import (
    AGGREGATES,
    ALL_RULE_IDS,
    SETTINGS,
    single_approval_election,
    CSV_FIELDS,
    _culture_of,
    _instances,
    _run_instance,
    aggregate_best_counts,
    aggregate_exp1,
    aggregate_exp4,
    aggregate_relative,
    records_to_csv,
)
from streamelect import harness, rules_online
from streamelect.metrics import HIGHER_BETTER, LOWER_BETTER
from streamelect.rules_online import ONLINE_RULE_IDS
from streamelect.samplers import CULTURE_TABLE, SampleSpec


class TestDeriveSeed:
    def test_frozen_values(self):
        assert derive_seed(1, "x", 2, 3) == 13347912827654154349
        assert derive_seed(2026, "riverside-2024.pb/m20", 2, 1) == 12773353589809975904

    def test_sensitivity_to_every_component(self):
        base = derive_seed(5, "a", 2, 1)
        assert derive_seed(6, "a", 2, 1) != base
        assert derive_seed(5, "b", 2, 1) != base
        assert derive_seed(5, "a", 3, 1) != base
        assert derive_seed(5, "a", 2, 2) != base


# A value away from the default for every ExperimentConfig field, and the
# config line that sets it.
NON_DEFAULT = {
    "sources": (("a.txt",), "source = a.txt"),
    "divisors": ((3,), "divisors = 3"),
    "iterations": (2, "iterations = 2"),
    "base_seed": (1, "base_seed = 1"),
    "output": ("out.csv", "output = out.csv"),
    "instances": (2, "instances = 2"),
    "orders": (2, "orders = 2"),
    "p": (1, "p = 1"),
}
UNREAD = [
    (experiment, field)
    for experiment, read in SETTINGS.items()
    for field in NON_DEFAULT
    if field not in read
]


class TestSettings:
    def test_every_field_in_the_table(self):
        fields = {f.name for f in dataclasses.fields(ExperimentConfig)} - {"experiment"}
        assert fields == set(NON_DEFAULT) == set().union(*SETTINGS.values())
        assert len(UNREAD) == 24

    @pytest.mark.parametrize("experiment", sorted(SETTINGS))
    def test_accepts_what_it_reads(self, experiment):
        values = {field: NON_DEFAULT[field][0] for field in SETTINGS[experiment]}
        cfg = ExperimentConfig(experiment, **values)
        assert all(getattr(cfg, field) == value for field, value in values.items())

    @pytest.mark.parametrize("experiment, field", UNREAD)
    def test_config_refuses_unread_field(self, experiment, field):
        with pytest.raises(ValueError, match=f"^{experiment} does not read {field}$"):
            ExperimentConfig(experiment, **{field: NON_DEFAULT[field][0]})

    @pytest.mark.parametrize("experiment, field", UNREAD)
    def test_parse_refuses_unread_key(self, experiment, field):
        key = NON_DEFAULT[field][1].split(" = ")[0]
        text = f"# settings\n{NON_DEFAULT[field][1]}\nexperiment = {experiment}\n"
        with pytest.raises(ValueError, match=f"^config line 2: {experiment} does not read {key}$"):
            parse_config(text)

    def test_readme_table_matches(self):
        """The settings table under the README's "## CLI" heading lists
        SETTINGS, with the config key `source` standing for the field
        `sources`."""
        table = {
            experiment: tuple("sources" if name == "source" else name for name in settings)
            for experiment, settings in readme_table("CLI").items()
        }
        assert table == SETTINGS

    def test_parse_refuses_unread_key_at_its_default(self):
        with pytest.raises(ValueError, match="config line 3: exp4 does not read p"):
            parse_config("experiment=exp4\ninstances=2\np=2\n")


def readme_table(heading):
    """The two-column table under the README's "## <heading>": each row's
    backticked experiments mapped to the backticked names of its second
    cell."""
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    table = {}
    for row in section.splitlines():
        cells = row.split("|")[1:-1]
        if len(cells) != 2 or not cells[0].strip().startswith("`"):
            continue
        experiments, names = (re.findall(r"`([^`]+)`", cell) for cell in cells)
        table.update(dict.fromkeys(experiments, tuple(names)))
    return table


def test_readme_aggregates_match():
    """The README lists each evaluation experiment's tables: AGGREGATES'
    names, in order, then timing."""
    expected = {experiment: (*tables, "timing") for experiment, tables in AGGREGATES.items()}
    assert readme_table("Aggregate tables") == expected


class TestParseConfig:
    def test_full_file(self):
        """One file per group of experiments that read the same settings;
        together they set every field."""
        exp2 = parse_config(
            """
            # native instances
            experiment = exp2
            source = a.pb
            source = b.pb
            divisors = 10, 2
            iterations = 3
            base_seed = 7
            output = out.csv
            """
        )
        assert exp2.experiment == "exp2"
        assert exp2.sources == ("a.pb", "b.pb")
        assert exp2.divisors == (10, 2)
        assert exp2.iterations == 3
        assert exp2.base_seed == 7
        assert exp2.output == "out.csv"
        exp4 = parse_config("experiment = exp4\ninstances = 4\n")
        assert exp4.instances == 4
        thm_mes = parse_config("experiment = thm-mes\norders = 100\np = 1\n")
        assert (thm_mes.orders, thm_mes.p) == (100, 1)

    def test_defaults(self):
        cfg = parse_config("experiment=exp1\n")
        assert cfg.divisors == (20, 4)
        assert cfg.iterations == 5
        assert cfg.base_seed == 2026
        assert cfg.sources == ()

    @pytest.mark.parametrize(
        "text, match",
        [
            ("iterations=3\n", "must set experiment"),
            ("experiment=exp1\nwhat=3\n", "unknown key 'what'"),
            ("experiment=exp1\njust a line\n", "expected key=value"),
            ("experiment=exp9\n", "unknown experiment"),
            ("experiment=exp1\niterations=0\n", "iterations"),
            ("experiment=exp4\ninstances=-3\n", "instances must be at least 1"),
            ("experiment=thm-nash\norders=0\n", "orders must be at least 1"),
            ("experiment=exp1\ndivisors=0\n", "divisors must be at least 1"),
            ("experiment=exp1\ndivisors=\n", "divisors must be at least 1, got \\(\\)"),
            ("experiment=exp2\ndivisors=4, -2\n", "divisors must be at least 1"),
            ("experiment=thm-mes\np=-1\n", "p must be at least 0, got -1"),
            ("experiment=exp1\niterations=abc\n", "config line 2: expected an integer, got 'abc'"),
            ("experiment=exp1\n\ndivisors=4, x\n", "config line 3: expected an integer, got 'x'"),
            ("experiment=thm-mes\nexploration=2\n", "config line 2: unknown key 'exploration'"),
            ("# exp\nexperiment=exp9\n", "config line 2: unknown experiment: 'exp9'"),
            ("experiment=exp4\nexperiment=exp3\n", "config line 2: repeated key 'experiment'"),
            ("experiment=exp1\niterations=3\niterations=7\n", "config line 3: repeated key"),
            ("experiment=exp1\ndivisors=4, 20, 4\n", "^repeated divisor 4$"),
            (
                "experiment=exp2\nsource=d1/a.txt\nsource=b.txt\nsource=d2/a.txt\n",
                "^repeated source name 'a.txt'$",
            ),
        ],
    )
    def test_rejects(self, text, match):
        with pytest.raises(ValueError, match=match):
            parse_config(text)

    @pytest.mark.parametrize(
        "experiment, name, value, bad",
        [
            # Refused before any run: p = 0.5 would give thm-mes a negative
            # joint threshold, a fractional count would fail mid-run, and
            # orders=True would run one order.
            ("thm-mes", "p", 0.5, 0.5),
            ("exp4", "iterations", 1.5, 1.5),
            ("exp3", "instances", 1.5, 1.5),
            ("thm-nash", "orders", True, True),
            ("thm-nash", "base_seed", 7.0, 7.0),
            ("exp1", "divisors", (4, 2.5), 2.5),
        ],
    )
    def test_constructor_rejects_a_non_integer_setting(self, experiment, name, value, bad):
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got {bad!r}$"):
            ExperimentConfig(experiment, **{name: value})

    def test_constructor_rejects_an_unknown_experiment(self):
        with pytest.raises(ValueError, match="^unknown experiment: 'exp9'$"):
            ExperimentConfig("exp9")


class TestRunRecordCsv:
    def record(self, **overrides):
        base = dict(
            instance="tiny",
            rule="greedy",
            seed=9,
            k=2,
            committee=(0, 2),
            metrics=MetricBundle(1.5, 0.0, 1.0, 0.25, 2.0),
            jr_satisfied=True,
        )
        base.update(overrides)
        return RunRecord(**base)

    def test_formatting(self):
        row = self.record().csv_row()
        assert row == "tiny,greedy,9,2,1 3,1.5,0.0,1.0,0.25,2.0,1,,,,,"

    def test_optional_fields(self):
        row = self.record(
            jr_satisfied=False,
            ejr_plus_share=0.5,
            ejr_plus_shortfall=1.0,
            ejr_plus_witnesses=2,
            quota_deserved=3,
            quota_received=1,
        ).csv_row()
        assert row.endswith(",0,0.5,1.0,2,3,1")

    def test_header(self):
        text = records_to_csv([self.record()])
        lines = text.splitlines()
        assert lines[0] == ",".join(CSV_FIELDS)
        assert len(lines) == 2
        assert len(lines[1].split(",")) == len(CSV_FIELDS)

    def test_duration_not_in_csv(self):
        a = self.record(duration=0.1).csv_row()
        b = self.record(duration=9.9).csv_row()
        assert a == b


class TestRunCell:
    def test_canonical_rule_order(self, showcase):
        records = _run_instance("demo", showcase, (3,), None)
        assert tuple(r.rule for r in records) == ALL_RULE_IDS
        assert all(r.instance == "demo" and r.seed == 3 for r in records)
        assert all(len(r.committee) == 3 for r in records)
        offline = records[-1]
        assert offline.rule == "offline-mes"
        assert offline.committee == (2, 3, 5)
        # cardinal ballots: the approval-only columns stay empty
        assert all(r.ejr_plus_share is None for r in records)
        assert all(r.quota_deserved is None for r in records)

    def test_approval_columns_filled(self):
        e = Election(
            [[1, 0, 0], [1, 0, 0], [0, 1, 0], [0, 1, 0]], 2
        )
        records = _run_instance("camps", e, (1,), None)
        assert all(r.ejr_plus_share is not None for r in records)
        assert all(r.ejr_plus_witnesses is not None for r in records)

    def test_polarized_quota_columns(self):
        spec = SampleSpec(
            culture="polarized", num_voters=10, num_candidates=8,
            committee_size=4, seed=2, x=0.5, q=1.0,
        )
        from streamelect import sample

        records = _run_instance(spec.instance_id(), sample(spec), (4,), spec)
        assert all(r.quota_deserved == 2 for r in records)
        assert all(r.quota_received is not None for r in records)


def fresh_records(instance_id, election, seeds, spec=None):
    """The records of one instance, each rule called and each committee
    evaluated anew, with durations left at 0."""
    records = []
    for seed in seeds:
        order = random_order(election.num_candidates, seed)
        for rule in ALL_RULE_IDS:
            if rule == "offline-mes":
                committee, _ = mes(election)
            else:
                committee = run_rule(rule, election, order)
            fields = {}
            if election.is_approval:
                report = check_ejr_plus_approval(election, committee)
                fields["ejr_plus_share"] = report.violating_voter_share
                fields["ejr_plus_shortfall"] = report.shortfall
                fields["ejr_plus_witnesses"] = len({w.candidates[0] for w in report.witnesses})
            if spec is not None and spec.culture == "polarized":
                fields["quota_deserved"], fields["quota_received"] = proportional_quota(
                    spec, committee
                )
            records.append(
                RunRecord(
                    instance=instance_id,
                    rule=rule,
                    seed=seed,
                    k=election.committee_size,
                    committee=committee.sorted_members(),
                    metrics=compute_metrics(satisfaction(election, committee)),
                    jr_satisfied=check_jr(election, committee).satisfied,
                    **fields,
                )
            )
    return records


def without_durations(records):
    return [dataclasses.replace(r, duration=0.0) for r in records]


class TestEvaluationMemo:
    """Evaluating each distinct committee once per instance changes no field
    but `duration`."""

    @given(
        experiment=st.sampled_from(("exp3", "exp4")),
        instances=st.integers(1, 3),
        iterations=st.integers(1, 4),
        base_seed=st.integers(0, 2**32),
    )
    @settings(max_examples=15, deadline=None)
    def test_experiment_records_equal_fresh_evaluations(
        self, experiment, instances, iterations, base_seed
    ):
        cfg = ExperimentConfig(
            experiment, instances=instances, iterations=iterations, base_seed=base_seed
        )
        records, _, _ = run_experiment(cfg)
        expected = []
        for instance_id, election, spec in _instances(cfg, []):
            seeds = [
                derive_seed(base_seed, instance_id, election.committee_size, i)
                for i in range(1, iterations + 1)
            ]
            expected.extend(fresh_records(instance_id, election, seeds, spec))
        assert without_durations(records) == expected
        assert all(r.duration > 0.0 for r in records)

    def test_one_engine_cache_per_instance_and_rule(self, monkeypatch):
        """Every order of an instance hands online-mes, online-bos and
        online-nash one cache each, bound to that instance's election and
        that rule; no cache serves two instances, and greedy gets none."""
        calls = []

        def recording(rule_id, election, order, exploration=None, cache=None):
            calls.append((election, rule_id, cache))
            return run_rule(rule_id, election, order, exploration, cache)

        monkeypatch.setattr(harness, "run_rule", recording)
        run_experiment(ExperimentConfig("exp4", instances=3, iterations=4))
        given = {}
        for election, rule_id, cache in calls:
            given.setdefault((id(election), rule_id), []).append(cache)
        assert len(given) == 3 * len(ONLINE_RULE_IDS)
        served = {
            "online-mes": "equal-shares",
            "online-bos": "bounded-overspending",
            "online-nash": "online-nash",
        }
        shared = []
        for (election_id, rule_id), caches in given.items():
            assert len(caches) == 4
            if rule_id == "greedy":
                assert caches == [None] * 4
            else:
                assert all(cache is caches[0] for cache in caches)
                assert id(caches[0].election) == election_id
                assert caches[0].rule == served[rule_id]
                shared.append(caches[0])
        assert len({id(cache) for cache in shared}) == 3 * 3

    @given(culture=st.sampled_from(CULTURES), seed=st.integers(0, 2**32))
    @settings(max_examples=15, deadline=None)
    def test_cell_records_equal_fresh_evaluations(self, culture, seed):
        """Every culture, cardinal ballots included, on one seed."""
        parameters = CULTURE_TABLE[culture][1]
        spec = SampleSpec(culture, 12, 8, 3, seed, **{p: 0.5 for p in parameters if parameters[p]})
        election = sample(spec)
        records = _run_instance(spec.instance_id(), election, (seed,), spec)
        assert without_durations(records) == fresh_records(
            spec.instance_id(), election, (seed,), spec
        )


class TestDispatchThroughModuleAttributes:
    """The benchmark's tracer (perfbench/tracing.py) counts calls by
    replacing module attributes, so `run_rule` and the harness must look each
    rule up in its module when they call it. A table of function objects
    built at import would bypass the tracer and read zero arrivals."""

    RULE_FUNCTIONS = ("greedy_budgeting", "online_mes", "online_bos", "online_nash")

    def counting(self, monkeypatch):
        calls = collections.Counter()

        def wrap(module, name):
            original = getattr(module, name)

            def counted(*args, **kwargs):
                calls[f"{module.__name__}.{name}"] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)

        for name in self.RULE_FUNCTIONS:
            wrap(rules_online, name)
        wrap(harness, "mes")
        wrap(harness, "run_rule")
        return calls

    def test_run_rule(self, monkeypatch, showcase):
        calls = self.counting(monkeypatch)
        for rule_id in ONLINE_RULE_IDS:
            rules_online.run_rule(rule_id, showcase, random_order(6, 0))
        assert calls == {f"streamelect.rules_online.{f}": 1 for f in self.RULE_FUNCTIONS}

    def test_run_instance(self, monkeypatch, showcase):
        calls = self.counting(monkeypatch)
        _run_instance("demo", showcase, (3, 4), None)
        expected = {f"streamelect.rules_online.{f}": 2 for f in self.RULE_FUNCTIONS}
        expected["streamelect.harness.run_rule"] = 8
        expected["streamelect.harness.mes"] = 1
        assert calls == expected

    def test_offline_mes_once_per_instance(self, monkeypatch):
        """Offline `mes` does not see the order: each instance calls it once,
        and all its `offline-mes` records share that call's committee and
        duration."""
        calls = self.counting(monkeypatch)
        records, _, _ = run_experiment(ExperimentConfig("exp4", instances=2, iterations=3))
        assert calls["streamelect.harness.mes"] == 2
        offline = collections.defaultdict(set)
        for record in records:
            if record.rule == "offline-mes":
                offline[record.instance].add((record.committee, record.duration))
        assert len(offline) == 2
        for shared in offline.values():
            ((_committee, duration),) = shared
            assert duration > 0.0


class TestCultureOf:
    def test_prefix_matching(self):
        assert _culture_of("ic-n5-m12-k3-p0.5-s1") == "ic"
        assert _culture_of("normalized-mallows-n5-m8-k2-phi0.6-s1") == "normalized-mallows"
        assert _culture_of("mallows-n5-m8-k2-phi0.6-s1") == "mallows"
        assert _culture_of("riverside-2024.pb/m20") == "riverside"


class TestExperiments:
    def test_exp1_over_bundled_files(self):
        cfg = ExperimentConfig("exp1", iterations=1)
        records, aggregates, skipped = run_experiment(cfg)
        assert skipped == []
        # 4 ballot files x 2 divisors x 1 iteration x 5 rules
        assert len(records) == 40
        assert set(aggregates) == {"ejr_plus", "best_counts", "timing"}
        assert {row["rule"] for row in aggregates["ejr_plus"]} == set(ALL_RULE_IDS)

    def test_exp1_rerun_is_byte_identical(self, tmp_path):
        out = tmp_path / "exp1.csv"
        cfg = ExperimentConfig(
            "exp1", iterations=1, divisors=(20,), output=str(out)
        )
        run_experiment(cfg)
        first = out.read_bytes()
        run_experiment(cfg)
        assert out.read_bytes() == first

    def test_exp2_needs_sources(self):
        with pytest.raises(ValueError, match="source="):
            ExperimentConfig("exp2", iterations=1)

    def test_exp2_native_source(self, tmp_path, showcase):
        from streamelect import write_native

        path = tmp_path / "tiny.txt"
        path.write_text(write_native(showcase))
        cfg = ExperimentConfig(
            "exp2", sources=(str(path),), divisors=(2,), iterations=2
        )
        records, aggregates, skipped = run_experiment(cfg)
        assert skipped == []
        assert len(records) == 10
        assert all(r.instance == "tiny.txt/m2" for r in records)
        assert all(r.k == 3 for r in records)
        assert "best_counts" in aggregates

    def test_exp3_sampled_grid(self):
        cfg = ExperimentConfig("exp3", instances=2, iterations=1)
        records, aggregates, skipped = run_experiment(cfg)
        assert len(records) == 10
        assert all(r.instance.startswith("ic-") for r in records)
        rows = aggregates["relative"]
        assert {row["culture"] for row in rows} == {"ic"}
        assert all(row["runs"] == 2 for row in rows)

    def test_exp4_polarized_draws(self):
        cfg = ExperimentConfig("exp4", instances=2, iterations=2)
        records, aggregates, skipped = run_experiment(cfg)
        assert len(records) == 20
        online = [r for r in records if r.rule != "offline-mes"]
        assert all(r.quota_deserved is not None for r in online)
        rows = aggregates["quota"]
        assert len(rows) == 4
        assert all(row["runs"] == 4 for row in rows)

    def test_theorem_experiments_not_runnable_here(self):
        with pytest.raises(ValueError, match="theorem check"):
            run_experiment(ExperimentConfig("thm-mes"))


GOLDEN_DIR = Path(__file__).parent / "data"

# Native instances of the exp2 golden run. Their file names are fixed because
# a file's name is part of every instance id in the CSV.
EXP2_GOLDEN_SPECS = (
    ("ic.txt", SampleSpec("ic", 12, 24, 3, seed=11, p=0.4)),
    ("mallows.txt", SampleSpec("mallows", 10, 16, 3, seed=12, phi=0.6)),
)


def golden_config(experiment, directory):
    """The config behind tests/data/golden_<experiment>.csv; exp2 writes its
    instances into `directory`."""
    if experiment == "exp1":
        return ExperimentConfig("exp1", iterations=1)
    if experiment == "exp2":
        paths = []
        for name, spec in EXP2_GOLDEN_SPECS:
            path = Path(directory) / name
            path.write_text(write_native(sample(spec)), encoding="utf-8")
            paths.append(str(path))
        return ExperimentConfig("exp2", sources=tuple(paths), iterations=2)
    if experiment == "exp3":
        return ExperimentConfig("exp3", instances=12, iterations=2)
    return ExperimentConfig("exp4", instances=6, iterations=2)


@pytest.mark.parametrize("experiment", ("exp1", "exp2", "exp3", "exp4"))
def test_csv_matches_golden(experiment, tmp_path):
    """The CSV of each experiment equals the committed golden byte for byte,
    so a change to any rule, metric, seed or loop order shows here."""
    records, _, _ = run_experiment(golden_config(experiment, tmp_path))
    expected = (GOLDEN_DIR / f"golden_{experiment}.csv").read_bytes()
    assert records_to_csv(records).encode("utf-8") == expected


@pytest.mark.parametrize("experiment", ("exp1", "exp2", "exp3", "exp4"))
def test_aggregates_match_golden(experiment, tmp_path):
    """The aggregate tables, timing aside, equal the committed ones in row
    and column order, with every value to a relative 1e-12 (so counts and
    strings exactly), since sum() of floats is compensated from Python 3.12
    on."""
    _, aggregates, _ = run_experiment(golden_config(experiment, tmp_path))
    del aggregates["timing"]
    golden = json.loads((GOLDEN_DIR / "golden_aggregates.json").read_text(encoding="utf-8"))
    expected = golden[experiment]
    assert list(aggregates) == list(expected)
    for name, rows in aggregates.items():
        assert_table(rows, expected[name])


def assert_table(rows, expected):
    """Rows, their keys and key order equal; values to a relative 1e-12."""
    assert [list(row) for row in rows] == [list(row) for row in expected]
    for row, want in zip(rows, expected):
        assert row == pytest.approx(want, rel=1e-12)


class TestAggregates:
    def bundle(self, avg, gini=0.5):
        return MetricBundle(avg, 0.0, avg, gini, avg)

    def records_one_cell(self):
        rules = ("greedy", "online-mes", "online-bos", "online-nash")
        return [
            RunRecord(
                instance="i", rule=rule, seed=1, k=2, committee=(0, 1),
                metrics=self.bundle(avg), jr_satisfied=True,
            )
            for rule, avg in zip(rules, (4.0, 3.0, 2.0, 1.0))
        ]

    def test_best_counts_orders_and_ties(self):
        rows = aggregate_best_counts(self.records_one_cell())
        table = {(r["metric"], r["rule"]): r for r in rows}
        avg = "average_satisfaction"
        assert table[(avg, "greedy")]["best"] == 1.0
        assert table[(avg, "greedy")]["top2"] == 1.0
        assert table[(avg, "online-mes")]["best"] == 0.0
        assert table[(avg, "online-mes")]["top2"] == 1.0
        assert table[(avg, "online-nash")]["worst"] == 1.0
        # gini ties credit every rule in every slot
        assert table[("gini", "online-bos")]["best"] == 1.0
        assert table[("gini", "online-bos")]["worst"] == 1.0

    def test_best_counts_skips_incomplete_cells(self):
        assert aggregate_best_counts(self.records_one_cell()[:3]) == []

    def test_relative_against_baseline(self):
        records = self.records_one_cell() + [
            RunRecord(
                instance="i", rule="offline-mes", seed=1, k=2, committee=(0, 1),
                metrics=self.bundle(2.0, gini=0.25), jr_satisfied=True,
            )
        ]
        rows = aggregate_relative(records)
        table = {row["rule"]: row for row in rows}
        assert table["greedy"]["avg_ratio"] == 2.0
        assert table["online-bos"]["avg_ratio"] == 1.0
        assert table["online-nash"]["quartile_ratio"] == 0.5
        assert table["greedy"]["gini_diff"] == 0.25
        assert all(row["culture"] == "i" for row in rows)

    def test_relative_skips_cells_without_baseline(self):
        assert aggregate_relative(self.records_one_cell()) == []

    def test_exp1_table(self):
        records = [
            RunRecord(
                instance="i", rule="greedy", seed=s, k=2, committee=(0, 1),
                metrics=self.bundle(1.0), jr_satisfied=True,
                ejr_plus_share=share, ejr_plus_shortfall=short, ejr_plus_witnesses=w,
            )
            for s, share, short, w in ((1, 0.0, 0.0, 0), (2, 0.5, 2.0, 4))
        ]
        rows = aggregate_exp1(records)
        assert rows == [
            {
                "rule": "greedy",
                "mean_share": 0.25,
                "mean_shortfall": 1.0,
                "mean_witnesses": 2.0,
                "runs": 2,
            }
        ]

    def test_exp4_table(self):
        def rec(instance, seed, rule, deserved, received):
            return RunRecord(
                instance=instance, rule=rule, seed=seed, k=2, committee=(0, 1),
                metrics=self.bundle(1.0), jr_satisfied=True,
                quota_deserved=deserved, quota_received=received,
            )

        records = [
            rec("a", 1, "greedy", 2, 2),
            rec("a", 2, "greedy", 2, 0),
            rec("b", 1, "greedy", 1, 1),
            rec("b", 2, "greedy", 1, 3),
        ]
        rows = aggregate_exp4(records)
        assert len(rows) == 1
        row = rows[0]
        assert row["rule"] == "greedy"
        assert row["underperformance"] == 0.25
        assert row["mean_deficit"] == 2.0
        assert row["max_deficit"] == 1.0
        assert row["runs"] == 4


# A small value grid, so that ties between rules and zero baselines occur.
GRID = (0.0, 0.5, 1.0, 2.0)


@st.composite
def record_lists(draw):
    """Records of 1-4 instances x 1-3 seeds, in any order; each (instance,
    seed) cell holds a random subset of the rules, with metrics from GRID
    and the EJR+ and quota columns each either filled or empty."""
    names = ("ic-a", "ic-b", "mallows-a", "polarized-a", "riverside.pb/m4")
    instances = draw(st.lists(st.sampled_from(names), min_size=1, max_size=4, unique=True))
    seeds = draw(st.lists(st.integers(0, 9), min_size=1, max_size=3, unique=True))
    columns = st.tuples(
        st.sampled_from(list(itertools.product(GRID, repeat=5))),
        st.sampled_from([None, *itertools.product(GRID, GRID, range(3))]),
        st.sampled_from([None, *itertools.product(range(3), range(3))]),
    )
    records = []
    for instance in instances:
        for seed in seeds:
            rules = draw(st.just(ALL_RULE_IDS) | st.sets(st.sampled_from(ALL_RULE_IDS)))
            for rule in rules:
                metrics, ejr, quota = draw(columns)
                records.append(
                    RunRecord(
                        instance=instance, rule=rule, seed=seed, k=2, committee=(0, 1),
                        metrics=MetricBundle(*metrics),
                        jr_satisfied=True,
                        ejr_plus_share=ejr and ejr[0],
                        ejr_plus_shortfall=ejr and ejr[1],
                        ejr_plus_witnesses=ejr and ejr[2],
                        quota_deserved=quota and quota[0],
                        quota_received=quota and quota[1],
                    )
                )
    return draw(st.permutations(records))


def naive_best_counts(records):
    """Over the (instance, seed) cells holding all four online rules: the
    share where a rule has no better rule, at most one better value, and no
    worse rule, per metric."""
    cells = {}
    for r in records:
        cells.setdefault((r.instance, r.seed), {})[r.rule] = r.metrics
    complete = [c for c in cells.values() if all(rule in c for rule in ONLINE_RULE_IDS)]
    rows = []
    for metric in HIGHER_BETTER + LOWER_BETTER:
        for rule in ONLINE_RULE_IDS:
            best = top2 = worst = 0
            for cell in complete:
                sign = 1 if metric in HIGHER_BETTER else -1
                mine = sign * getattr(cell[rule], metric)
                scores = [sign * getattr(cell[other], metric) for other in ONLINE_RULE_IDS]
                better = {s for s in scores if s > mine}
                best += not better
                top2 += len(better) <= 1
                worst += all(s >= mine for s in scores)
            if complete:
                n = len(complete)
                row = {"metric": metric, "rule": rule, "best": best / n, "top2": top2 / n}
                rows.append({**row, "worst": worst / n, "cells": n})
    return rows


def naive_relative(records):
    """Per (culture, online rule), sorted: the mean ratio to the cell's
    offline-mes value of the satisfaction metrics (0/0 = 1, x/0 = inf) and
    the mean difference of the bounded ones, over cells with a baseline."""
    def ratio(value, base):
        return value / base if base else (1.0 if value == 0.0 else math.inf)

    base = {(r.instance, r.seed): r.metrics for r in records if r.rule == "offline-mes"}
    groups = {}
    for r in records:
        b = base.get((r.instance, r.seed))
        if r.rule != "offline-mes" and b is not None:
            groups.setdefault((_culture_of(r.instance), r.rule), []).append((r.metrics, b))
    rows = []
    for (culture, rule), pairs in sorted(groups.items()):
        n = len(pairs)
        avg = sum(ratio(m.average_satisfaction, b.average_satisfaction) for m, b in pairs)
        quartile = sum(ratio(m.bottom_quartile_mean, b.bottom_quartile_mean) for m, b in pairs)
        gini = sum(m.gini - b.gini for m, b in pairs)
        exclusion = sum(m.exclusion_ratio - b.exclusion_ratio for m, b in pairs)
        rows.append(
            {
                "culture": culture,
                "rule": rule,
                "avg_ratio": avg / n,
                "quartile_ratio": quartile / n,
                "gini_diff": gini / n,
                "exclusion_diff": exclusion / n,
                "runs": n,
            }
        )
    return rows


def naive_exp1(records):
    """Per rule with EJR+ columns, in rule order: their means and count."""
    rows = []
    for rule in ALL_RULE_IDS:
        mine = [r for r in records if r.rule == rule and r.ejr_plus_share is not None]
        if mine:
            n = len(mine)
            rows.append(
                {
                    "rule": rule,
                    "mean_share": sum(r.ejr_plus_share for r in mine) / n,
                    "mean_shortfall": sum(r.ejr_plus_shortfall for r in mine) / n,
                    "mean_witnesses": sum(r.ejr_plus_witnesses for r in mine) / n,
                    "runs": n,
                }
            )
    return rows


def naive_exp4(records):
    """Per online rule with quota columns, in rule order: the share of runs
    below quota, the mean deficit of those runs (0 when none), and the
    largest mean deficit of one instance."""
    rows = []
    for rule in ONLINE_RULE_IDS:
        mine = [r for r in records if r.rule == rule and r.quota_deserved is not None]
        if not mine:
            continue
        deficit = {id(r): max(0, r.quota_deserved - r.quota_received) for r in mine}
        failing = [d for d in deficit.values() if d > 0]
        per_instance = []
        for instance in {r.instance for r in mine}:
            ds = [deficit[id(r)] for r in mine if r.instance == instance]
            per_instance.append(sum(ds) / len(ds))
        rows.append(
            {
                "rule": rule,
                "underperformance": len(failing) / len(mine),
                "mean_deficit": sum(failing) / len(failing) if failing else 0.0,
                "max_deficit": max(per_instance),
                "runs": len(mine),
            }
        )
    return rows


class TestAggregateProperty:
    """Each aggregate table equals a naive reference written from its
    docstring, on random record lists with ties and missing rules."""

    @given(record_lists())
    @settings(max_examples=40, deadline=None)
    def test_tables_match_naive_references(self, records):
        assert_table(aggregate_best_counts(records), naive_best_counts(records))
        assert_table(aggregate_relative(records), naive_relative(records))
        assert_table(aggregate_exp1(records), naive_exp1(records))
        assert_table(aggregate_exp4(records), naive_exp4(records))


def naive_thm_mes(cfg):
    """verify_thm_mes's winner and joint hire frequencies, with every order
    run through `online_mes` afresh."""
    election = single_approval_election()
    k = election.committee_size
    winners = sorted(mes(election)[0].members)
    hires = collections.Counter()
    joint = 0
    for iteration in range(1, cfg.orders + 1):
        seed = derive_seed(cfg.base_seed, "thm-mes", k, iteration)
        members = online_mes(election, random_order(election.num_candidates, seed)).members
        hires.update(c for c in winners if c in members)
        joint += len(members & set(winners)) >= k - cfg.p
    return {c: hires[c] / cfg.orders for c in winners}, joint / cfg.orders


def naive_thm_nash(cfg):
    """verify_thm_nash's per-instance means and pooled mean, with the Nash
    welfare of every order's committee computed afresh."""
    means = []
    pooled = []
    for index in range(cfg.instances):
        seed = derive_seed(cfg.base_seed, f"thm-nash-{index}", 3, 0)
        spec = SampleSpec("ic", 5, 12, 3, seed, p=0.5)
        election = sample(spec)
        _, optimum = nash_optimum_bruteforce(election)
        ratios = []
        for iteration in range(1, cfg.orders + 1):
            seed = derive_seed(cfg.base_seed, spec.instance_id(), 3, iteration)
            committee = run_rule("online-nash", election, random_order(12, seed))
            ratios.append(math.exp(nash_welfare(election, committee) - optimum))
        means.append(sum(ratios) / len(ratios))
        pooled.extend(ratios)
    return tuple(means), sum(pooled) / len(pooled)


class TestTheoremChecks:
    def test_single_approval_instance(self):
        e = single_approval_election()
        assert (e.num_voters, e.num_candidates, e.committee_size) == (30, 40, 3)
        assert e.utilities[:, :3].sum() == 30.0
        assert e.utilities[:, 3:].sum() == 0.0
        committee, trace = mes(e)
        assert committee.sorted_members() == (0, 1, 2)
        assert not trace.completion_added

    def test_mes_bound_small_run(self):
        report = verify_thm_mes(ExperimentConfig("thm-mes", orders=200))
        assert not report.vacuous
        assert report.orders == 200
        assert sorted(report.winner_frequencies) == [0, 1, 2]
        assert report.relaxation == 2
        assert report.per_winner_threshold == pytest.approx(
            1 / math.e - 3 * math.sqrt((1 / math.e) * (1 - 1 / math.e) / 200)
        )
        assert report.passed

    @pytest.mark.parametrize("p", [0, 1])
    def test_mes_winners_memo_matches_fresh_runs(self, p):
        """The winners memo shared across orders changes no frequency."""
        cfg = ExperimentConfig("thm-mes", orders=300, p=p)
        report = verify_thm_mes(cfg)
        assert (report.winner_frequencies, report.joint_frequency) == naive_thm_mes(cfg)

    def test_mes_solves_each_candidate_set_once(self, monkeypatch):
        """Every order shares the winners cache of one `winners_memo` rule,
        so the subset rule is called once per distinct candidate set."""
        calls = []
        original = harness.equal_shares_subset

        def counted(election, candidates, cache=None):
            calls.append(frozenset(candidates))
            return original(election, candidates, cache)

        monkeypatch.setattr(harness, "equal_shares_subset", counted)
        verify_thm_mes(ExperimentConfig("thm-mes", orders=300))
        assert calls and len(calls) == len(set(calls))

    def test_mes_builds_no_engine_cache_per_order(self, monkeypatch):
        """`winners_memo` keeps only winners, so its runs build no
        `EngineCache`; the online rules build one only when they run the
        engine without a caller's cache."""
        built = []

        class Counted(EngineCache):
            def __init__(self):
                built.append(self)
                super().__init__()

        monkeypatch.setattr(rules_online, "EngineCache", Counted)
        verify_thm_mes(ExperimentConfig("thm-mes", orders=200))
        assert built == []
        online_mes(single_approval_election(), random_order(40, 0))
        assert len(built) == 1

    def test_nash_shares_one_cache_per_instance(self, monkeypatch):
        """Every order of an instance hands online-nash the same cache, bound
        to that instance's election; no cache serves two instances."""
        calls = []

        def recording(rule_id, election, order, exploration=None, cache=None):
            calls.append((election, cache))
            return run_rule(rule_id, election, order, exploration, cache)

        monkeypatch.setattr(harness, "run_rule", recording)
        verify_thm_nash(ExperimentConfig("thm-nash", instances=3, orders=20))
        assert len(calls) == 60
        caches = [cache for _, cache in calls]
        assert len({id(cache) for cache in caches}) == 3
        for election, cache in calls:
            assert cache.election is election and cache.rule == "online-nash"

    @pytest.mark.parametrize("base_seed", [0, 1, 2])
    def test_nash_welfare_memo_matches_fresh_welfare(self, base_seed):
        """Scoring each distinct committee once changes no ratio's bits."""
        cfg = ExperimentConfig("thm-nash", instances=2, orders=200, base_seed=base_seed)
        report = verify_thm_nash(cfg)
        assert (report.instance_means, report.mean_ratio) == naive_thm_nash(cfg)

    def test_mes_bound_vacuous_relaxation(self):
        report = verify_thm_mes(ExperimentConfig("thm-mes", p=3))
        assert report.vacuous
        assert report.passed
        assert report.winner_frequencies == {}

    def test_nash_bound_small_run(self):
        report = verify_thm_nash(
            ExperimentConfig("thm-nash", instances=2, orders=50)
        )
        assert len(report.instance_means) == 2
        assert report.orders == 50
        assert report.bound == pytest.approx((1 - 1 / math.e) / 7)
        assert 0.0 < report.mean_ratio <= 1.0
        assert report.passed
