"""Run tests/test_cad.py under fixed hypothesis seeds, one seed at a
time, each under a time limit, and print one line per seed.

    python3 tools/seed_sweep.py [--timeout SECONDS] [SEED ...]
        (default: 117 119 153 1014 1019 12345, 200 s per seed)

Each line gives the seed, the outcome (``ok``, ``failed`` or
``stopped`` at the time limit), pytest's summary line and the wall-clock
seconds.  esdec is imported from this checkout's ``src``.  Standard
library only; the exit status is 1 when any seed did not pass.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (117, 119, 153, 1014, 1019, 12345)


def _summary(output: str) -> str:
    """pytest's last non-empty line, with the '=' rule trimmed."""
    lines = [line.strip(" =") for line in output.splitlines() if line.strip(" =")]
    return lines[-1] if lines else ""


def run_seed(seed: int, timeout: float) -> tuple:
    """(outcome, pytest's summary, seconds) for one seed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env["PYTHONUNBUFFERED"] = "1"  # the progress dots reach the pipe before a stop
    cmd = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
           "tests/test_cad.py", "--hypothesis-seed", str(seed)]
    start = time.perf_counter()
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        out = exc.stdout.decode() if isinstance(exc.stdout, bytes) else exc.stdout or ""
        return "stopped", f"{out.count('.')} passed before the limit", timeout
    seconds = time.perf_counter() - start
    return ("ok" if done.returncode == 0 else "failed"), _summary(done.stdout), seconds


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("seeds", nargs="*", type=int, default=list(SEEDS))
    ap.add_argument("--timeout", type=float, default=200.0)
    args = ap.parse_args(argv)
    all_ok = True
    for seed in args.seeds:
        outcome, summary, seconds = run_seed(seed, args.timeout)
        all_ok = all_ok and outcome == "ok"
        print(f"seed {seed}: {outcome}, {summary}, {seconds:.1f} s", flush=True)
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
