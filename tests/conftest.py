import pytest
from hypothesis import settings

# a deeper property search, chosen with --hypothesis-profile=deep;
# the default profile stays in force otherwise
settings.register_profile("deep", max_examples=1000, deadline=None)

_ACCEPTANCE_LINES = []


@pytest.fixture
def acceptance():
    """Recorder for acceptance criteria: prints, logs and asserts."""
    def record(name: str, ok: bool, detail: str) -> None:
        line = f"[ACCEPTANCE] {name}: {'PASS' if ok else 'FAIL'} ({detail})"
        print(line)
        _ACCEPTANCE_LINES.append(line)
        assert ok, line
    return record


def pytest_terminal_summary(terminalreporter):
    # repeat the acceptance verdicts where captured stdout cannot hide them
    if _ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in _ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
