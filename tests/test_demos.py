"""The demos that write no files print the committed text of
``demos/output/<demo>.txt`` byte for byte; the fast demos that write SVGs
reproduce the committed ones byte for byte.  Every demo is seeded."""
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = [
    "04_symmetric_processes.py",
    "05_plancherel.py",
    "06_partition_functions.py",
    "07_entropy_and_exactness.py",
]
# demo -> the SVGs it writes to output/
SVG_DEMOS = {
    "01_aztec_diamond.py": ["aztec_24.svg"],
    "02_plane_partitions.py": ["plane_partition_40.svg"],
    "03_pyramid_partitions.py": ["pyramid_tiling.svg", "pyramid_particles.svg"],
}


def run_demo(path: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(path)], capture_output=True, text=True, env=env, timeout=300
    )


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo):
    proc = run_demo(ROOT / "demos" / demo)
    assert proc.returncode == 0, proc.stderr
    expected = (ROOT / "demos" / "output" / demo).with_suffix(".txt").read_text()
    assert proc.stdout == expected


@pytest.mark.parametrize("demo", sorted(SVG_DEMOS))
def test_demo_svgs_byte_identical(demo, tmp_path):
    # run a copy, so the demo writes into tmp_path/output
    shutil.copy(ROOT / "demos" / demo, tmp_path / demo)
    proc = run_demo(tmp_path / demo)
    assert proc.returncode == 0, proc.stderr
    for name in SVG_DEMOS[demo]:
        got = (tmp_path / "output" / name).read_bytes()
        assert got == (ROOT / "demos" / "output" / name).read_bytes(), name
