import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args], env=env,
                          capture_output=True, text=True, timeout=120)


def test_verify_all_quick():
    result = run_script("verify_all.py")
    assert result.returncode == 0, result.stdout + result.stderr
    assert result.stdout.rstrip().endswith("0 failure(s)")

