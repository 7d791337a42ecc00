"""CI driver for the filecheck suite: collection-guarded.

Runs ``tests/test_filecheck.py`` as a separate step and fails if any
``tests/filecheck/*.mlir`` fixture on disk is not collected by pytest
(guarding against silent test-discovery regressions).

Usage (from the repo root, locally or in CI)::

    python tests/support/filecheck_ci.py
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent.parent
FIXTURE_DIR = REPO / "tests" / "filecheck"


def _pytest(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    src = str(REPO / "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return subprocess.run(
        [sys.executable, "-m", "pytest", "tests/test_filecheck.py", *args],
        capture_output=True, text=True, cwd=str(REPO), env=env,
    )


def main() -> int:
    fixtures = sorted(FIXTURE_DIR.glob("*.mlir"))
    if not fixtures:
        print(f"error: no fixtures found under {FIXTURE_DIR}",
              file=sys.stderr)
        return 1

    # Collection guard: every fixture on disk must become a test item.
    collected = _pytest("--collect-only", "-q")
    if collected.returncode != 0:
        print(collected.stdout + collected.stderr, file=sys.stderr)
        return collected.returncode
    missing = [
        fixture.name for fixture in fixtures
        if f"test_fixture[{fixture.stem}]" not in collected.stdout
    ]
    if missing:
        print(f"error: fixtures on disk but not collected: {missing}",
              file=sys.stderr)
        return 1

    run = _pytest("-q")
    print(run.stdout, end="")
    if run.returncode != 0:
        print(run.stderr, file=sys.stderr)
        return run.returncode
    print(f"filecheck suite: {len(fixtures)} fixtures")
    return 0


if __name__ == "__main__":
    sys.exit(main())
