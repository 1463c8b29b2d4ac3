"""README's library example runs as written, so a renamed or retired name fails here."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs(capsys):
    section = README.read_text(encoding="utf-8").split("## Library example", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(code, f"{README}:Library example", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2 and all(" vs " in line for line in lines)
