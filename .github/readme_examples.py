"""Run the README's CLI examples and its library quick start as documented.

Its run and sweep JSON blocks are written to run.json and sweep.json in the
working directory, then the four commands of its sh block run there, roots
on the run config: each must exit 0, and verify must pass all four checks.
Then its python block, the library quick start, runs and must exit 0.

    mkdir readme-examples && cd readme-examples && python ../.github/readme_examples.py
"""

import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

root = Path(__file__).resolve().parents[1]
readme = (root / "README.md").read_text(encoding="utf-8")
blocks = [json.loads(b) for b in re.findall(r"^```json\n(.*?)^```", readme, re.M | re.S)]
json.dump(next(b for b in blocks if "t_end" in b), open("run.json", "w"))
json.dump(next(b for b in blocks if "tau_grid" in b), open("sweep.json", "w"))
sh = re.findall(r"^```sh\n(.*?)^```", readme, re.M | re.S)
commands = next(b for b in sh if b.startswith("atompair ")).splitlines()
assert len(commands) == 4, commands
env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [
    str(root / "src"), os.environ.get("PYTHONPATH")]))}
for line in commands:
    argv = shlex.split(line.replace("params.json", "run.json"))
    assert argv[0] == "atompair", line
    proc = subprocess.run([sys.executable, "-m", "atompair", *argv[1:]],
                          capture_output=True, text=True, env=env)
    print(f"{line} -> exit {proc.returncode}")
    assert proc.returncode == 0, (line, proc.stdout, proc.stderr)
    if argv[1] == "verify":
        passed = [ln for ln in proc.stdout.splitlines() if ln.startswith("[PASS] ")]
        assert len(passed) == 4, proc.stdout
(quick_start,) = re.findall(r"^```python\n(.*?)^```", readme, re.M | re.S)
proc = subprocess.run([sys.executable, "-c", quick_start], capture_output=True, text=True, env=env)
print(f"library quick start -> exit {proc.returncode}")
assert proc.returncode == 0, (proc.stdout, proc.stderr)
