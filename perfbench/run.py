"""gclab benchmark: one workload, timed through the entry points the CLI uses.

Run from the root of a checkout (it measures ``src/gclab`` of that checkout):

    python3 perfbench/run.py --workload near-critical --seed 1 --seconds 50 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run. The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}. See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 4  # before the workload, and as many again after it
BUDGET_S = 170  # the whole run, setup included, must end within this
PINNED = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "BLIS_NUM_THREADS",
    )
}
# A user's first cost: a fresh interpreter imports gclab and loads a law spec.
SETUP_PROBE = """
import sys, time
sys.path.insert(0, sys.argv[1])
import gclab
from gclab import distributions
distributions.from_json_doc({"masses": [[1, 0.5], [3, 0.5]]})
print(time.monotonic())
"""


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update(PINNED)
    return env


def setup_probe(deadline: float) -> float:
    """Seconds from starting a fresh interpreter to gclab imported + spec loaded."""
    start = time.monotonic()
    out = subprocess.run(
        [sys.executable, "-c", SETUP_PROBE, str(ROOT / "src")],
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=max(1.0, deadline - start),
        check=True,
    )
    return float(out.stdout.strip()) - start


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    """sha256 over src/gclab/*.py: names the code measured when git is absent."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "gclab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("need --seed >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "gclab" / "__init__.py").is_file():
        print(f"error: no gclab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + BUDGET_S

    # Set-up is probed before and after the workload, so that its median
    # spans the run rather than one moment of the machine. One unmeasured
    # probe first writes the bytecode cache, as an installed package has it.
    setup = []
    if not args.trace:
        setup_probe(deadline)
        setup = [setup_probe(deadline) for _ in range(SETUP_REPEATS)]
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        str(ROOT),
        args.workload,
        str(args.seed),
        str(args.seconds),
        str(args.trace),
    ]
    worker = subprocess.Popen(cmd, env=child_env(), stdout=subprocess.PIPE, text=True)
    try:
        out, _ = worker.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        worker.kill()
        worker.wait()
        print(f"error: {args.workload} did not finish within {BUDGET_S} s", file=sys.stderr)
        return 3
    lines = out.strip().splitlines()
    if worker.returncode != 0 or not lines:
        print(f"error: worker exited with code {worker.returncode}", file=sys.stderr)
        return 4
    result = json.loads(lines[-1])
    metrics = {}
    if setup:
        setup += [setup_probe(deadline) for _ in range(SETUP_REPEATS)]
        metrics["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
    metrics.update(result["metrics"])
    notes = result["notes"]
    env = result["environment"]
    env.update({"git_commit": git_commit(), "source_sha256": source_digest()})

    print(f"gclab benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("environment " + json.dumps(env, sort_keys=True))
    for name, metric in metrics.items():
        note = notes.get(name, "")
        print(f"  {name:<44} {metric['value']:>14.6g} {metric['unit']:<6} {note}".rstrip())
    for name, note in notes.items():
        if name not in metrics:
            print(f"  {name}: {note}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
