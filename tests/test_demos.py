"""Each demo script and the README's Python example run to completion as
a user would run them."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_every_demo_is_found():
    assert [demo.name for demo in DEMOS] == [
        "01_feature_walkthrough.py", "02_train_and_evaluate.py", "03_corpus_comparison.py"]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda demo: demo.stem)
def test_demo_exits_zero(demo, tmp_path):
    # 02 calls evaluate from a script with no __main__ guard, so a start
    # method that re-imports the script in its workers would break it
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_readme_python_example_runs(tmp_path):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    [example] = re.findall(r"```python\n(.*?)```", readme, re.DOTALL)
    (tmp_path / "example.py").write_text("def add(a, b):\n    return a + b  # the sum\n",
                                         encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-c", example], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "'pf.halstead_volume'" in proc.stdout
