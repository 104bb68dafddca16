"""The repository's pytest settings, run on a throwaway test tree."""

from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_failing_property_does_not_abort_the_session(pytester):
    """A failing Hypothesis test is reported as one failure, and the test
    files after it still run, under the warning filters of pyproject.toml."""
    pytester.makepyprojecttoml(PYPROJECT.read_text(encoding="utf-8"))
    pytester.makepyfile(
        test_a_property="""
            from hypothesis import given, strategies as st

            @given(st.integers())
            def test_fails(x):
                assert x != x
        """,
        test_b_plain="""
            def test_passes():
                pass
        """,
    )
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider")
    assert "INTERNALERROR" not in result.stdout.str() + result.stderr.str()
    result.assert_outcomes(failed=1, passed=1)
