"""The README's examples run against the real API and CLI."""

import io
import re
import sys
from pathlib import Path

from strandprover import cli, fixtures

README = Path(__file__).resolve().parent.parent / "README.md"


def first_block(heading: str, language: str) -> str:
    section = README.read_text(encoding="utf-8").split(f"## {heading}", 1)[1]
    return re.search(rf"```{language}\n(.*?)```", section, re.S).group(1)


def test_library_example_runs_and_its_comments_hold(capsys):
    namespace: dict = {}
    exec(compile(first_block("Library", "python"), str(README), "exec"), namespace)
    assert namespace["r"].is_unsat
    assert capsys.readouterr().out.startswith("{}  [")
    assert len(namespace["report"].states) == 32
    verdict = namespace["verdict"]
    assert verdict.is_unsat
    assert [m.rule for m in verdict.witness.moves] == ["GB"] * 5
    assert namespace["compiled"][0].bases == "ACGTAGTCACGAATTGACTGTCAGTCGAAT"


def test_quick_start_prove_example_is_the_cli_output(monkeypatch, capsys):
    command, *lines = first_block("Quick start", "sh").splitlines()
    stdin = re.fullmatch(r"\$ printf '(.*)' \| strandprover prove --input -", command).group(1)
    assert stdin.replace("\\n", "\n") == fixtures.CLAUSES_S
    end = lines.index("$ echo $?")
    monkeypatch.setattr(sys, "stdin", io.StringIO(fixtures.CLAUSES_S))
    code = cli.main(["prove", "--input", "-"])
    assert capsys.readouterr().out.splitlines() == lines[:end]
    assert [str(code)] == lines[end + 1:]
