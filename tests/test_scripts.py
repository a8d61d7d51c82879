"""The experiment scripts run end to end as subprocesses.

residual_sweep.py must print the table stored in
tests/golden/residual_sweep.txt; staircase_demo.py must write its image
and its SVG overlay into the directory it is given.
"""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent


def run_script(name: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_residual_sweep_prints_the_golden_table():
    proc = run_script("residual_sweep.py")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (HERE / "golden" / "residual_sweep.txt").read_text()


def test_staircase_demo_writes_image_and_svg(tmp_path):
    out = tmp_path / "demo"
    proc = run_script("staircase_demo.py", str(out))
    assert proc.returncode == 0, proc.stderr
    pgm = (out / "staircase.pgm").read_text()
    assert pgm.startswith("P2")
    assert (out / "staircase.svg").read_text().lstrip().startswith("<svg")
