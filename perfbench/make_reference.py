"""Write reference.json: the checked output values of every workload.

Usage, from the repository root, at a commit whose outputs are trusted::

    python3 perfbench/make_reference.py

Workloads whose inputs depend on the seed get one entry per seed in
``0 .. SEEDS-1``; the others get one entry, ``"any"``, that holds at every
seed.  A change that alters results must not regenerate this file: the
output checks exist to catch such changes.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import checks
from run import REFERENCE, ROOT, WORK, WORKLOADS

SEEDS = 64


def outputs(workload, seed: int, env: dict) -> dict:
    out = WORK / "reference"
    if out.exists():
        shutil.rmtree(out)
    cmd = [sys.executable, "-m", "tokenwalk.cli", *workload.args,
           workload.seed_flag, str(seed), "--out", str(out)]
    subprocess.run(cmd, cwd=ROOT, env=env, check=True, stdout=subprocess.DEVNULL)
    problems = checks.check_outputs(workload.kind, out, seed, workload.graph["n"], None)
    if problems:
        raise SystemExit(f"seed {seed}: outputs fail the invariants: {problems}")
    return checks.KINDS[workload.kind][0](out, seed)


def main() -> None:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    WORK.mkdir(exist_ok=True)
    reference = {}
    for name, workload in WORKLOADS.items():
        if workload.seeded:
            reference[name] = {str(s): outputs(workload, s, env) for s in range(SEEDS)}
        else:
            first, second = outputs(workload, 0, env), outputs(workload, 1, env)
            if first != second:
                raise SystemExit(f"{name}: outputs depend on the seed; mark it seeded")
            reference[name] = {"any": first}
        print(f"{name}: {len(reference[name])} reference entries", file=sys.stderr)
    shutil.rmtree(WORK)
    # One line per (workload, seed) entry keeps the file reviewable.
    blocks = []
    for name, entries in reference.items():
        lines = ",\n".join(f"  {json.dumps(k)}: {json.dumps(v, sort_keys=True)}" for k, v in entries.items())
        blocks.append(f" {json.dumps(name)}: {{\n{lines}\n }}")
    REFERENCE.write_text("{\n" + ",\n".join(blocks) + "\n}\n", encoding="utf-8")


if __name__ == "__main__":
    main()
