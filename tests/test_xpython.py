"""The cross-interpreter byte gate, ``tools/xpython.py``, under each other supported Python that runs here."""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "xpython.py"


def find_python(version: str) -> str | None:
    """A working interpreter of ``version``: ``python<version>`` on PATH, else one under pyenv's versions.

    Each candidate is run before it is used, because a pyenv shim exists for every installed version but
    fails for a version that pyenv does not select.
    """
    pyenv_versions = Path(os.environ.get("PYENV_ROOT", Path.home() / ".pyenv")) / "versions"
    candidates = [shutil.which(f"python{version}"), *sorted(pyenv_versions.glob(f"{version}.*/bin/python"))]
    for candidate in filter(None, candidates):
        try:
            proc = subprocess.run(
                [str(candidate), "-c", "import sys; print('%d.%d' % sys.version_info[:2])"],
                capture_output=True, text=True, encoding="utf-8", timeout=60,
            )
        except (OSError, subprocess.TimeoutExpired):
            continue
        if proc.returncode == 0 and proc.stdout.strip() == version:
            return str(candidate)
    return None


@pytest.mark.parametrize("version", ["3.10", "3.12", "3.13"])
def test_score_vtr_and_rank_write_the_same_bytes_under_another_python(version):
    python = find_python(version)
    if python is None:
        pytest.skip(f"no working python{version} found")
    proc = subprocess.run(
        [sys.executable, str(TOOL), python], capture_output=True, text=True, encoding="utf-8", timeout=600
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.endswith(" files match\n")
