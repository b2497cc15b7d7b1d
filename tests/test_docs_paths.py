"""Every repository path the docs and CI name exists.

A deleted script leaves its commands behind in prose and workflow steps,
where nothing fails until a reader pastes one.  This reads the front
page, the per-layer docs, the CI workflow and the verify skill, and holds
every ``benchmarks/…``, ``examples/…``, ``tests/…``, ``docs/…`` and
``src/…`` path written there against the checkout (a ``*`` is a glob that
must match something).
"""

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

DOCUMENTS = sorted(
    [ROOT / "README.md", ROOT / ".github" / "workflows" / "ci.yml"]
    + list((ROOT / "docs").glob("*.md"))
    + list((ROOT / ".claude" / "skills" / "verify").glob("SKILL.md"))
)

#: A path starting at one of the five top-level directories, not the tail
#: of a longer path (``A/tests/…``) or word.
PATH = re.compile(r"(?<![\w./-])(?:benchmarks|examples|tests|docs|src)/[\w./*-]*")


def named_paths(text: str) -> set[str]:
    return {match.rstrip(".") for match in PATH.findall(text)}


def test_the_scan_sees_paths():
    assert named_paths("run `tests/a/test_b.py::TestC`, then src/repro/*/x.py.") == {
        "tests/a/test_b.py",
        "src/repro/*/x.py",
    }
    assert ROOT / "README.md" in DOCUMENTS and len(DOCUMENTS) > 5


@pytest.mark.parametrize(
    "document", DOCUMENTS, ids=[str(d.relative_to(ROOT)) for d in DOCUMENTS]
)
def test_named_paths_exist(document):
    missing = sorted(
        path
        for path in named_paths(document.read_text())
        if not any(ROOT.glob(path.rstrip("/")))
    )
    assert not missing, f"{document.relative_to(ROOT)} names paths that do not exist: {missing}"
