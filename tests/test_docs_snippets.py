"""docs-check: every ```python snippet in the docs actually executes.

Documentation rots when its examples drift from the API. This module
extracts every fenced ```python block from ``README.md`` and
``docs/*.md`` and executes it in a fresh namespace, chdir'd to a temp
directory (so snippets may freely write artifact files).

Conventions for doc authors:

* a block fenced as ```python is a *standalone, runnable* example —
  it must import everything it uses and run in a few seconds;
* non-runnable material (pseudo-code, shell, JSON, ASCII diagrams)
  belongs in a differently-tagged fence (```text, ```bash, ```json, ...).

Every ``python -m repro ...`` command in a ```bash fence of the same
files, and every ``$(PYTHON) -m repro ...`` line of the Makefile, must
also parse with the real argument parser (nothing is run), so a renamed
flag or a missing operand fails here rather than in a reader's shell.

Run just this check with ``make docs-check``; it also runs as part of
the tier-1 suite.
"""

from __future__ import annotations

import re
import shlex
from pathlib import Path

import pytest

from repro.cli import build_parser

ROOT = Path(__file__).resolve().parent.parent
DOC_FILES = [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md"))]

_FENCE = re.compile(r"^```python\n(.*?)^```", re.DOTALL | re.MULTILINE)


def snippets():
    for path in DOC_FILES:
        if not path.exists():
            continue
        text = path.read_text(encoding="utf-8")
        for index, match in enumerate(_FENCE.finditer(text), start=1):
            line = text[: match.start()].count("\n") + 2
            yield pytest.param(
                path,
                line,
                match.group(1),
                id=f"{path.name}:{index}",
            )


@pytest.mark.docs
@pytest.mark.parametrize("path,line,code", list(snippets()))
def test_doc_snippet_executes(path, line, code, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # snippet file output lands in tmp
    source = f"{path.relative_to(ROOT)}:{line}"
    namespace = {"__name__": "__docs__"}
    try:
        exec(compile(code, source, "exec"), namespace)
    except Exception as exc:  # pragma: no cover - failure path
        pytest.fail(f"snippet at {source} raised {type(exc).__name__}: {exc}")


def test_docs_have_snippets():
    """The check is live: the documented examples were actually found."""
    found = list(snippets())
    assert len(found) >= 10, [p.name for p, *_ in (s.values for s in found)]
    covered = {s.values[0].name for s in found}
    # The network/transport page must stay executable documentation.
    assert "NETWORK.md" in covered, covered


#: Where CLI invocations are documented, and how each spells the command.
COMMAND_SOURCES = [(path, "python -m repro") for path in DOC_FILES] + [
    (ROOT / "Makefile", "$(PYTHON) -m repro")
]


def repro_commands():
    """The argv of every documented ``repro`` invocation: backslash
    continuations joined, shell operators and comments cut off."""
    for path, prefix in COMMAND_SOURCES:
        if not path.exists():
            continue
        in_bash = path.suffix != ".md"  # the whole Makefile counts
        pending, start = "", 0
        lines = path.read_text(encoding="utf-8").splitlines()
        for number, line in enumerate(lines, start=1):
            if path.suffix == ".md" and line.startswith("```"):
                in_bash = line == "```bash"
                continue
            if not in_bash:
                continue
            start = start if pending else number
            if line.endswith("\\"):
                pending += line[:-1]
                continue
            line, pending = pending + line, ""
            for index, tail in enumerate(line.split(prefix)[1:]):
                lexer = shlex.shlex(tail, posix=True, punctuation_chars=True)
                lexer.whitespace_split = True
                argv = []
                for token in lexer:
                    if token.strip(lexer.punctuation_chars) == "":
                        break
                    argv.append(token)
                suffix = f"[{index}]" if index else ""
                yield pytest.param(argv, id=f"{path.name}:{start}{suffix}")


@pytest.mark.docs
@pytest.mark.parametrize("argv", list(repro_commands()))
def test_doc_command_parses(argv, capsys):
    try:
        build_parser().parse_args(argv)
    except SystemExit:
        pytest.fail(
            f"`repro {' '.join(argv)}` does not parse: "
            f"{capsys.readouterr().err.strip()}"
        )


def test_docs_have_commands():
    """The command check is live: README, the docs and the Makefile all
    contributed invocations."""
    ids = [param.id for param in repro_commands()]
    covered = {name.split(":")[0] for name in ids}
    assert {"README.md", "NET.md", "SHARDING.md", "Makefile"} <= covered, covered
    assert len(ids) >= 40, ids
