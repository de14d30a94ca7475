"""The README's Library example runs against the real API."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def library_example() -> str:
    section = README.read_text(encoding="utf-8").split("## Library", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_runs_and_its_comments_hold(capsys):
    namespace: dict = {}
    exec(compile(library_example(), str(README), "exec"), namespace)
    assert namespace["r"].is_unsat
    assert capsys.readouterr().out.startswith("{}  [")
    assert len(namespace["report"].states) == 32
    verdict = namespace["verdict"]
    assert verdict.is_unsat
    assert [m.rule for m in verdict.witness.moves] == ["GB"] * 5
