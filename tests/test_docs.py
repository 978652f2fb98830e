"""Consistency checks for the documentation site.

``mkdocs build --strict`` runs in CI (the ``docs`` job); these tests catch
its most common failure modes — nav entries pointing at missing files and
broken relative links between pages — without requiring mkdocs locally, and
assert the generated API pages stay in sync with the docstrings.  Every
documented ``malleable-repro`` command must also parse with the real CLI
parser, so a removed or renamed flag cannot leave a stale example behind.
"""

from __future__ import annotations

import ast
import pathlib
import re
import shlex
import subprocess
import sys

import pytest

from repro.cli import build_parser

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
DOCS_DIR = REPO_ROOT / "docs"

_NAV_FILE = re.compile(r":\s*([\w/.-]+\.md)\s*$", re.MULTILINE)
_MD_LINK = re.compile(r"\]\(([^)#]+)(?:#[^)]*)?\)")


def test_nav_entries_exist():
    config = (REPO_ROOT / "mkdocs.yml").read_text(encoding="utf-8")
    files = _NAV_FILE.findall(config)
    assert files, "mkdocs.yml nav parsed to zero pages"
    for name in files:
        assert (DOCS_DIR / name).is_file(), f"mkdocs.yml nav references missing docs/{name}"


def test_relative_links_resolve():
    for page in DOCS_DIR.rglob("*.md"):
        text = page.read_text(encoding="utf-8")
        for target in _MD_LINK.findall(text):
            if "://" in target or target.startswith("mailto:"):
                continue
            resolved = (page.parent / target).resolve()
            assert resolved.exists(), f"{page.relative_to(REPO_ROOT)} links to missing {target}"


def test_every_docs_page_is_in_nav():
    config = (REPO_ROOT / "mkdocs.yml").read_text(encoding="utf-8")
    in_nav = set(_NAV_FILE.findall(config))
    on_disk = {str(p.relative_to(DOCS_DIR)) for p in DOCS_DIR.rglob("*.md")}
    assert on_disk == in_nav, f"nav/page drift: {on_disk ^ in_nav}"


def test_generated_api_pages_in_sync():
    result = subprocess.run(
        [sys.executable, str(REPO_ROOT / "tools" / "gen_api_docs.py"), "--check"],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
    )
    assert result.returncode == 0, result.stderr or result.stdout


_COMMAND = "malleable-repro "


def _join_continuations(lines):
    """Yield logical lines, folding trailing-backslash continuations."""
    pending = ""
    for line in lines:
        stripped = line.strip()
        if stripped.endswith("\\"):
            pending += stripped[:-1] + " "
            continue
        yield pending + stripped
        pending = ""
    if pending:
        yield pending


def _fenced_commands(path):
    """Commands in the fenced ``bash`` blocks (and ``$``-prompted console lines)."""
    commands, block, language = [], None, None
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.startswith("```"):
            if block is None:
                block, language = [], line[3:].strip()
            else:
                for logical in _join_continuations(block):
                    if language == "console":
                        if not logical.startswith("$ "):
                            continue
                        logical = logical[2:]
                    if logical.startswith(_COMMAND):
                        commands.append(logical)
                block = None
            continue
        if block is not None and language in ("bash", "console"):
            block.append(line)
    return commands


def _toml_comment_commands(path):
    return [
        line.lstrip("#").strip()
        for line in path.read_text(encoding="utf-8").splitlines()
        if re.match(r"#\s+" + _COMMAND, line)
    ]


def _cli_docstring_commands():
    """Commands in the ``::`` literal blocks of the ``repro.cli`` module docstring."""
    source = (REPO_ROOT / "src" / "repro" / "cli.py").read_text(encoding="utf-8")
    docstring = ast.get_docstring(ast.parse(source))
    commands, block = [], None
    for line in docstring.splitlines() + [""]:
        if block is not None and (line.startswith("    ") or not line.strip()):
            block.append(line)
            continue
        if block is not None:
            commands.extend(c for c in _join_continuations(block) if c.startswith(_COMMAND))
            block = None
        if line.rstrip().endswith("::"):
            block = []
    if block:
        commands.extend(c for c in _join_continuations(block) if c.startswith(_COMMAND))
    return commands


def _documented_commands():
    found = []
    for path in [REPO_ROOT / "README.md", *sorted(DOCS_DIR.glob("*.md"))]:
        found += [(path.relative_to(REPO_ROOT), c) for c in _fenced_commands(path)]
    for path in sorted((REPO_ROOT / "scenarios").glob("*.toml")):
        found += [(path.relative_to(REPO_ROOT), c) for c in _toml_comment_commands(path)]
    found += [("src/repro/cli.py", c) for c in _cli_docstring_commands()]
    return found


def test_documented_commands_are_found():
    # Guards the extractor itself: an empty harvest would pass vacuously.
    sources = {str(source) for source, _ in _documented_commands()}
    assert {"README.md", "docs/tutorial.md", "src/repro/cli.py"} <= sources
    assert any(source.startswith("scenarios/") for source in sources)


@pytest.mark.parametrize("source,command", _documented_commands())
def test_documented_command_parses(source, command):
    argv = shlex.split(command, comments=True)[1:]
    try:
        build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse reports the error on stderr
        pytest.fail(f"{source}: `{command}` does not parse (exit {exc.code})")
