"""Every definition file of tests/fixtures/ states its own verdict.

Each file opens with `#` comment lines that say what the system is and
which ROADMAP item it serves.  Then comes `# exit: N`, and either
`# fail: <check>, ...`, the checks that write a failing row, or, for
exit 2, `# error: <stderr>`.  `verify --depths 2..3` must exit with that
code, and the checks with a failing row must be the `fail:` set exactly,
so every row of every other check passes.  A change that moves a verdict
edits the header, and its diff shows the move.
"""

import csv
import re

import pytest

from ifslab.cli import main

from conftest import FIXTURES

PATHS = sorted(FIXTURES.glob("*.ifs"))


def stated_verdict(path):
    """{"exit": ..., "fail": ... or "error": ...} of a fixture's opening comment."""
    stated = {}
    for line in path.read_text().splitlines():
        if not line.startswith("#"):
            break
        match = re.fullmatch(r"# (exit|fail|error):(.*)", line)
        if match:
            stated[match[1]] = match[2].strip()
    return stated


@pytest.mark.parametrize("path", PATHS, ids=[path.stem for path in PATHS])
def test_fixture_verdict_is_its_header(tmp_path, capsys, path):
    stated = stated_verdict(path)
    out = tmp_path / "out"
    code = main(["verify", "--system", str(path), "--depths", "2..3", "--out", str(out)])
    err = capsys.readouterr().err
    assert code == int(stated["exit"]), err
    if code == 2:
        assert err == stated["error"] + "\n"
        return
    failing = {row["check"] for table in sorted(out.glob("verify_*.csv"))
               for row in csv.DictReader(table.read_text().splitlines())
               if row["status"] == "fail"}
    assert failing == {name.strip() for name in stated["fail"].split(",") if name.strip()}
