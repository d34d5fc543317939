"""Every `$ deltacalc ...` example in README.md, run in-process: its shown
output, with `...` standing for any text, and its exit code, where the
README states one (else 0)."""

import io
import re
import shlex
from pathlib import Path

import pytest

from deltacalc.cli import run_command

README = Path(__file__).resolve().parents[1] / "README.md"


def _examples():
    """(command line, shown output lines, exit code) per example."""
    lines = README.read_text(encoding="utf-8").splitlines()
    out = []
    for i, line in enumerate(lines):
        if not line.startswith("$ deltacalc "):
            continue
        command = line[len("$ deltacalc "):]
        # A trailing comment, outside the quotes, may state the exit code.
        m = re.fullmatch(r"(.*?)\s+#([^\"']*)", command)
        status = 0
        if m:
            command = m.group(1)
            code = re.search(r"exit (\d+)", m.group(2))
            status = int(code.group(1)) if code else 0
        shown = []
        for nxt in lines[i + 1:]:
            if not nxt.strip() or nxt.startswith(("$ ", "```")):
                break
            shown.append(nxt)
        out.append(pytest.param(command, shown, status, id=command))
    return out


def test_readme_has_examples():
    assert len(_examples()) >= 10


@pytest.mark.parametrize("command, shown, status", _examples())
def test_readme_example(command, shown, status, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # for files an example writes
    out, err = io.StringIO(), io.StringIO()
    assert run_command(shlex.split(command), out=out, err=err) == status, err.getvalue()
    got = out.getvalue().splitlines()
    assert len(got) == len(shown), got
    for want, line in zip(shown, got):
        pattern = ".*".join(re.escape(part) for part in want.split("..."))
        assert re.fullmatch(pattern, line), (want, line)
