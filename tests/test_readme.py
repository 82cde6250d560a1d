"""The README's examples, run as written: each printed line must equal the
comment beside it, so the README cannot drift from the program."""

import contextlib
import io
import re
from pathlib import Path

import pytest

from lefschetz.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(
    encoding="utf-8")


def test_library_example_prints_its_comments():
    code = re.search(r"```python\n(.*?)```", README, re.S).group(1)
    expected = re.findall(r"^print\(.*\)\s+# (.*)$", code, re.M)
    assert expected == ["(6, 2)", "True", "4 -4", "Z + Z"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(code, {})
    assert out.getvalue().splitlines() == expected


@pytest.mark.parametrize("command", ["check catalog:chakiris-gamma",
                                     "type catalog:baykur-korkmaz-43"])
def test_command_line_example_prints_its_comment(command, capsys):
    line = re.search(rf"^lefschetz {command}\s+# (.*)$", README, re.M)
    assert main(command.split()) == 0
    assert capsys.readouterr().out == line.group(1) + "\n"
