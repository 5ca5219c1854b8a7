"""Golden snapshot: the checker's complete output over the paper's program.

The snapshot pins the *entire* user-visible message stream — text,
ordering, locations, follow-up lines — for every annotation stage of the
``examples/db`` program, plus the CLI run (with ``-stats``) over the
on-disk final stage. Any change to message wording, ordering or
rendering shows up as a byte-level diff against the committed file.

A second snapshot pins ``-trace`` (the per-point states and alias sets
of section 5) for every function of the on-disk program, one SHA-256
digest per function; print a trace with ``pylclint -trace NAME
examples/db/*.c examples/db/*.h``.

When a change is intentional, regenerate with::

    PYTHONPATH=src python -m pytest tests/integration/test_golden_db.py \
        --update-golden
"""

import hashlib
import os

import pytest

from repro.bench.dbexample import FINAL_STAGE, db_sources
from repro.core.api import Checker
from repro.driver.cli import run

GOLDEN = os.path.join(os.path.dirname(__file__), "..", "golden")
GOLDEN_FILE = os.path.abspath(os.path.join(GOLDEN, "examples_db.golden"))
TRACE_GOLDEN_FILE = os.path.abspath(
    os.path.join(GOLDEN, "examples_db_trace.sha256")
)
REPO_ROOT = os.path.abspath(
    os.path.join(os.path.dirname(__file__), "..", "..")
)


def _render_stage(stage: int) -> str:
    result = Checker().check_sources(db_sources(stage))
    lines = [f"== stage {stage} =="]
    lines.extend(m.render() for m in result.messages)
    lines.append(f"{len(result.messages)} code warning(s)")
    return "\n".join(lines)


def _db_paths() -> list[str]:
    return sorted(
        os.path.join("examples", "db", name)
        for name in os.listdir(os.path.join(REPO_ROOT, "examples", "db"))
        if name.endswith((".c", ".h"))
    )


def _render_cli() -> str:
    paths = _db_paths()
    cwd = os.getcwd()
    os.chdir(REPO_ROOT)          # golden must not embed absolute paths
    try:
        status, output = run(["-stats"] + paths)
    finally:
        os.chdir(cwd)
    return "\n".join([f"== cli -stats (exit {status}) ==", output])


def _current_output() -> str:
    sections = [_render_stage(s) for s in range(FINAL_STAGE + 1)]
    sections.append(_render_cli())
    return "\n\n".join(sections) + "\n"


def _trace_digests() -> str:
    """One line per function: the digest of its ``-trace`` output."""
    paths = _db_paths()
    sources = {}
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            sources[path] = handle.read()
    result = Checker().check_sources(sources)
    names = sorted({f.name for u in result.units for f in u.functions()})
    lines = []
    for name in names:
        status, output = run(["-quiet", "-trace", name] + paths)
        digest = hashlib.sha256(output.encode("utf-8")).hexdigest()
        lines.append(f"{digest}  {name} (exit {status})")
    return "\n".join(lines) + "\n"


def _check_golden(request, path: str, actual: str) -> None:
    if request.config.getoption("--update-golden"):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(actual)
        pytest.skip("golden file updated")
    assert os.path.exists(path), (
        "no golden file committed; run with --update-golden once"
    )
    with open(path, "r", encoding="utf-8") as handle:
        expected = handle.read()
    assert actual.splitlines() == expected.splitlines(), (
        "examples/db output diverged from the golden snapshot; if the "
        "change is intentional, regenerate with --update-golden"
    )
    assert actual == expected


def test_examples_db_output_matches_golden(request):
    _check_golden(request, GOLDEN_FILE, _current_output())


def test_examples_db_traces_match_golden(request, monkeypatch):
    monkeypatch.chdir(REPO_ROOT)  # traces name files by relative path
    _check_golden(request, TRACE_GOLDEN_FILE, _trace_digests())
