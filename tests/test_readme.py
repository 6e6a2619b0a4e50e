"""The README's library example runs as written, so a renamed or removed
public name cannot leave it stale."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _quick_start() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Quick start (library)", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_readme_quick_start_runs(capsys):
    exec(compile(_quick_start(), str(README), "exec"), {"__name__": "readme"})
    printed = capsys.readouterr().out.splitlines()
    # one line for the single run, one for the several methods on one trial
    assert len(printed) == 2
