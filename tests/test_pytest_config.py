"""The project's pytest configuration, run in a child pytest session."""

from pathlib import Path

pytest_plugins = ["pytester"]

PYPROJECT = Path(__file__).parents[1] / "pyproject.toml"


def test_a_failing_property_reports_its_example_and_the_session_goes_on(pytester):
    # with every warning an error, hypothesis' failure report used to raise a
    # DeprecationWarning that ended the session with an INTERNALERROR
    pytester.makefile(".toml", pyproject=PYPROJECT.read_text())
    pytester.makepyfile(
        test_inner="""
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_fails(n):
            assert n < 5

        def test_passes():
            pass
        """
    )
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider", "test_inner.py")
    result.assert_outcomes(failed=1, passed=1)
    result.stdout.fnmatch_lines(["*Falsifying example*"])
    result.stdout.no_fnmatch_line("*INTERNALERROR*")
