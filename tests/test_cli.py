"""Command line interface: exit codes and printed contracts."""

import numpy as np
import pytest

from streamelect import Election, SampleSpec, read_native, sample, write_native
from streamelect.cli import main
from streamelect.samplers import CULTURES


@pytest.fixture
def instance_file(tmp_path, showcase):
    path = tmp_path / "showcase.txt"
    path.write_text(write_native(showcase))
    return str(path)


@pytest.fixture
def camps_file(tmp_path):
    e = Election([[1, 0, 0], [1, 0, 0], [0, 1, 0], [0, 1, 0]], 2)
    path = tmp_path / "camps.txt"
    path.write_text(write_native(e))
    return str(path)


class TestRun:
    def test_identity_order_by_default(self, instance_file, capsys):
        assert main(["run", "online-mes", "--instance", instance_file]) == 0
        assert capsys.readouterr().out == "committee: 3 4 6\n"

    def test_greedy(self, instance_file, capsys):
        assert main(["run", "greedy", "--instance", instance_file]) == 0
        assert capsys.readouterr().out == "committee: 1 2 6\n"

    def test_trace(self, instance_file, capsys):
        code = main(
            ["run", "online-mes", "--instance", instance_file, "--trace"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "t=1 candidate 1: pass (exploration)" in out
        assert "hire" in out

    def test_order_as_seed(self, instance_file, capsys):
        assert main(
            ["run", "online-nash", "--instance", instance_file, "--order", "7"]
        ) == 0
        out = capsys.readouterr().out
        assert out.startswith("committee: ")
        assert len(out.split()) == 4

    def test_order_as_list(self, instance_file, capsys):
        assert main(
            ["run", "greedy", "--instance", instance_file, "--order", "6 5 4 3 2 1"]
        ) == 0
        capsys.readouterr()

    def test_order_length_mismatch(self, instance_file, capsys):
        assert main(
            ["run", "greedy", "--instance", instance_file, "--order", "1 2 3"]
        ) == 2
        assert capsys.readouterr().err == "error: order lists 3 of 6 candidates\n"

    @pytest.mark.parametrize(
        "order, error",
        [
            ("x", "expected an integer, got 'x'"),
            ("1 2 3 4 5 6x", "expected an integer, got '6x'"),
            ("1 2 3 4 5 7", "candidate 7 out of range 1..6"),
            ("1 2 3 4 5 0", "candidate 0 out of range 1..6"),
            ("1 2 3 4 2 6", "candidate 2 is listed twice"),
        ],
    )
    def test_bad_order_names_its_token(self, instance_file, capsys, order, error):
        assert main(["run", "greedy", "--instance", instance_file, "--order", order]) == 2
        assert capsys.readouterr().err == f"error: {error}\n"

    def test_embedded_order_used(self, tmp_path, showcase, capsys):
        from streamelect import ArrivalOrder

        path = tmp_path / "ordered.txt"
        path.write_text(write_native(showcase, ArrivalOrder((5, 4, 3, 2, 1, 0))))
        assert main(["run", "greedy", "--instance", str(path)]) == 0
        # reversed arrivals: each voter buys their best seat immediately and
        # the safeguard takes the final arrival, unlike the identity outcome
        assert capsys.readouterr().out == "committee: 1 3 6\n"

    def test_missing_file(self, capsys):
        assert main(["run", "greedy", "--instance", "/nope/missing.txt"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_rule_is_usage_error(self, instance_file):
        with pytest.raises(SystemExit):
            main(["run", "borda", "--instance", instance_file])

    def test_exploration_override(self, instance_file, capsys):
        assert main(
            ["run", "online-mes", "--instance", instance_file, "--exploration", "0"]
        ) == 0
        capsys.readouterr()

    def test_exploration_out_of_range(self, instance_file, capsys):
        assert main(
            ["run", "online-mes", "--instance", instance_file, "--exploration", "9"]
        ) == 2
        assert "exploration" in capsys.readouterr().err

    @pytest.mark.parametrize("rule", ["greedy", "online-nash"])
    def test_exploration_rejected_without_exploration_phase(self, instance_file, capsys, rule):
        assert main(
            ["run", rule, "--instance", instance_file, "--exploration", "2"]
        ) == 2
        assert capsys.readouterr().err == f"error: {rule} has no exploration phase\n"


class TestCheck:
    def test_satisfied_exits_zero(self, camps_file, capsys):
        code = main(
            ["check", "jr", "--instance", camps_file, "--committee", "1 2"]
        )
        assert code == 0
        assert capsys.readouterr().out == "jr: satisfied\n"

    def test_violation_exits_one(self, camps_file, capsys):
        code = main(
            ["check", "jr", "--instance", camps_file, "--committee", "2 3"]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "jr: violated" in out
        assert "violating voter share: 0.5000" in out
        assert "witness: voters [1 2] candidates [1]" in out

    def test_ejr_plus_needs_approval(self, instance_file, capsys):
        code = main(
            ["check", "ejr-plus", "--instance", instance_file, "--committee", "3 4 6"]
        )
        assert code == 2
        assert "approval" in capsys.readouterr().err

    def test_ejr_with_relaxation(self, camps_file, capsys):
        code = main(
            [
                "check", "ejr", "--instance", camps_file,
                "--committee", "2 3", "--beta", "1.0",
            ]
        )
        assert code == 1
        assert "ejr-beta: violated" in capsys.readouterr().out

    def test_bad_relaxation_value(self, camps_file, capsys):
        code = main(
            [
                "check", "ejr", "--instance", camps_file,
                "--committee", "1 2", "--beta", "0.5",
            ]
        )
        assert code == 2
        assert "beta" in capsys.readouterr().err

    @pytest.mark.parametrize("axiom", ["jr", "ejr-plus"])
    @pytest.mark.parametrize("member", ["99", "0"])
    def test_member_out_of_range_names_typed_id(self, camps_file, capsys, axiom, member):
        code = main(
            ["check", axiom, "--instance", camps_file, "--committee", f"1 {member}"]
        )
        assert code == 2
        assert capsys.readouterr().err == f"error: candidate {member} out of range 1..3\n"

    @pytest.mark.parametrize(
        "committee, error",
        [
            ("1 x", "expected an integer, got 'x'"),
            ("1,2.5", "expected an integer, got '2.5'"),
            ("1 1 3", "candidate 1 is listed twice"),
        ],
    )
    def test_bad_committee_names_its_token(self, camps_file, capsys, committee, error):
        assert main(["check", "jr", "--instance", camps_file, "--committee", committee]) == 2
        assert capsys.readouterr().err == f"error: {error}\n"

    @pytest.mark.parametrize(
        "axiom, flag", [("jr", "--beta"), ("strong-jr", "--gamma"), ("ejr-plus", "--delta")]
    )
    def test_relaxation_only_for_ejr(self, camps_file, capsys, axiom, flag):
        code = main(
            ["check", axiom, "--instance", camps_file, "--committee", "1 2", flag, "2"]
        )
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {flag} relaxes only the ejr check, not {axiom}\n"
        )

    def test_strong_jr(self, instance_file, capsys):
        code = main(
            ["check", "strong-jr", "--instance", instance_file, "--committee", "3 4 6"]
        )
        assert code == 0
        assert capsys.readouterr().out == "strong-jr: satisfied\n"


class TestSample:
    def test_stdout_is_native_format(self, capsys):
        code = main(
            [
                "sample", "ic", "--voters", "4", "--candidates", "6",
                "--committee", "2", "--seed", "5", "--p", "0.5",
            ]
        )
        assert code == 0
        election, order = read_native(capsys.readouterr().out)
        assert (election.num_voters, election.num_candidates) == (4, 6)
        assert order is None

    def test_output_file(self, tmp_path, capsys):
        out = tmp_path / "drawn.txt"
        code = main(
            [
                "sample", "polarized", "--voters", "6", "--candidates", "8",
                "--committee", "3", "--seed", "1", "--x", "0.5", "--q", "0.9",
                "--output", str(out),
            ]
        )
        assert code == 0
        assert "wrote polarized-n6-m8-k3-x0.5-q0.9-s1" in capsys.readouterr().out
        election, _ = read_native(out.read_text())
        assert election.is_approval

    def test_missing_culture_parameter(self, capsys):
        code = main(
            [
                "sample", "ic", "--voters", "4", "--candidates", "6",
                "--committee", "2", "--seed", "5",
            ]
        )
        assert code == 2
        assert "p in [0, 1]" in capsys.readouterr().err

    def test_impossible_size_is_a_usage_error(self, capsys):
        code = main(
            [
                "sample", "mallows", "--voters", "3", "--candidates", "1",
                "--committee", "2", "--seed", "1", "--phi", "0.5",
            ]
        )
        assert code == 2
        assert "error: committee size must satisfy" in capsys.readouterr().err

    def test_no_noise_flag(self, capsys):
        code = main(
            [
                "sample", "mallows", "--voters", "2", "--candidates", "5",
                "--committee", "2", "--seed", "3", "--phi", "0.5", "--no-noise",
            ]
        )
        assert code == 0
        election, _ = read_native(capsys.readouterr().out)
        assert np.allclose(np.sort(election.utilities[0]), np.linspace(0, 200, 5))


    # Each culture's flags and the SampleSpec parameters they stand for.
    CULTURE_FLAGS = {
        "ic": (["--p", "0.4"], {"p": 0.4}),
        "mallows": (["--phi", "0.6", "--no-noise"], {"phi": 0.6, "noise": False}),
        "normalized-mallows": (["--phi", "0.3"], {"phi": 0.3}),
        "polarized": (["--x", "0.5", "--q", "0.7"], {"x": 0.5, "q": 0.7}),
    }

    @pytest.mark.parametrize("culture", CULTURES)
    def test_writes_the_spec_drawn(self, capsys, culture):
        flags, params = self.CULTURE_FLAGS[culture]
        size = ["--voters", "5", "--candidates", "7", "--committee", "3", "--seed", "9"]
        assert main(["sample", culture, *size, *flags]) == 0
        spec = SampleSpec(culture, 5, 7, 3, 9, **params)
        assert capsys.readouterr().out == write_native(sample(spec))


class TestExperiment:
    def test_sampled_experiment(self, tmp_path, capsys):
        csv_path = tmp_path / "grid.csv"
        config = tmp_path / "exp3.cfg"
        config.write_text(
            f"experiment=exp3\ninstances=1\niterations=1\noutput={csv_path}\n"
        )
        assert main(["experiment", str(config)]) == 0
        out = capsys.readouterr().out
        assert "exp3: 5 records" in out
        assert "[relative]" in out
        assert "[timing]" in out
        assert f"wrote CSV to {csv_path}" in out
        header = csv_path.read_text().splitlines()[0]
        assert header.startswith("instance,rule,seed,k,committee")

    def test_thm_mes_report(self, tmp_path, capsys):
        config = tmp_path / "mes.cfg"
        config.write_text("experiment=thm-mes\norders=100\n")
        assert main(["experiment", str(config)]) == 0
        out = capsys.readouterr().out
        assert "winner 1: frequency" in out
        assert "thm-mes: passed" in out

    def test_thm_mes_vacuous_relaxation(self, tmp_path, capsys):
        config = tmp_path / "mes.cfg"
        config.write_text("experiment=thm-mes\np=3\n")
        assert main(["experiment", str(config)]) == 0
        assert capsys.readouterr().out == "thm-mes: vacuous at relaxation p=3 (passed)\n"

    def test_skipped_divisor_is_reported(self, tmp_path, capsys):
        # Two projects are too few for divisor 4, so exp1 skips the file.
        ballots = tmp_path / "tiny.pb"
        ballots.write_text(
            "META\nkey;value\nvote_type;approval\nPROJECTS\nproject_id;cost\np1;100\np2;100\n"
            "VOTES\nvoter_id;vote\nv1;p1\nv2;p2\n"
        )
        config = tmp_path / "exp1.cfg"
        config.write_text(f"experiment=exp1\nsource={ballots}\ndivisors=4\niterations=1\n")
        assert main(["experiment", str(config)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[:2] == [
            "exp1: 0 records",
            "  skipped: tiny.pb divisor 4: need at least 3 candidates, got 2",
        ]

    def test_thm_nash_report(self, tmp_path, capsys):
        config = tmp_path / "nash.cfg"
        config.write_text("experiment=thm-nash\ninstances=1\norders=20\n")
        assert main(["experiment", str(config)]) == 0
        out = capsys.readouterr().out
        assert "mean ratio" in out
        assert "thm-nash: passed" in out

    @pytest.mark.parametrize(
        "unread, error",
        [
            ("exploration=0\np=5\norders=3\ndivisors=7\n", "config line 4: unknown key 'exploration'"),
            ("p=5\norders=3\ndivisors=7\n", "config line 4: exp4 does not read p"),
        ],
    )
    def test_unread_settings_refused(self, tmp_path, capsys, unread, error):
        config = tmp_path / "grid.cfg"
        config.write_text("experiment=exp4\ninstances=2\niterations=1\n" + unread)
        assert main(["experiment", str(config)]) == 2
        assert capsys.readouterr().err == f"error: {error}\n"

    def test_bad_config(self, tmp_path, capsys):
        config = tmp_path / "bad.cfg"
        config.write_text("experiment=exp9\n")
        assert main(["experiment", str(config)]) == 2
        assert "unknown experiment" in capsys.readouterr().err


class TestCounterexample:
    def test_stdout(self, capsys):
        assert main(["counterexample", "beta-ejr", "--committee", "3"]) == 0
        election, order = read_native(capsys.readouterr().out)
        assert (election.num_voters, election.num_candidates) == (3, 6)
        assert order is not None
        assert order.permutation == (3, 4, 0, 5, 1, 2)

    def test_output_file(self, tmp_path, capsys):
        out = tmp_path / "hard.txt"
        code = main(
            ["counterexample", "delta-ejr", "--output", str(out)]
        )
        assert code == 0
        assert "wrote delta-ejr instance" in capsys.readouterr().out
        election, order = read_native(out.read_text())
        assert election.num_voters == 1
        assert order.permutation == (1, 0, 2, 3)

    def test_invalid_parameters(self, capsys):
        assert main(["counterexample", "beta-ejr", "--epsilon", "2.0"]) == 2
        assert "epsilon" in capsys.readouterr().err

    def test_beta_only_for_beta_ejr(self, capsys):
        assert main(["counterexample", "delta-ejr", "--beta", "2"]) == 2
        assert "beta" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--gamma", "--delta"])
    def test_checker_relaxations_are_not_flags(self, flag):
        with pytest.raises(SystemExit) as exc:
            main(["counterexample", "ejr-gamma", flag, "1"])
        assert exc.value.code == 2
