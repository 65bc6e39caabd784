"""Time the operations of the ROADMAP baseline table the workloads share.

    python3 perfbench/crosscheck.py

Each row runs in a fresh interpreter with BLAS threads pinned to 1,
``REPEATS`` times; the median is printed beside the ROADMAP figure, which was a
single run (so +-20 %).  The rows are the default ``qledger example1``
and ``example2`` runs, ``qledger audit --count 1000``, the oracle at
R = 30 and one d = 4 ``first_law_ledger`` (median of 200 calls).
``in-process`` times the operation alone; ``process`` is the wall time of
the whole worker, interpreter start and imports included, as a user
running the CLI command sees it.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REPEATS = 3

# row -> ROADMAP figure in seconds
ROADMAP = {
    "example1": 0.93,
    "example2-case1": 0.84,
    "example2-case2": 1.06,
    "audit-1000": 3.85,
    "oracle-R30": 10.9,
    "ledger-d4": 1.4e-3,
}


def _row(name: str) -> float:
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np
    from qledger import cli, models, thermo

    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        out = os.path.join(tmp, "out.csv")
        argv = {
            "example1": ["example1", "--out", out],
            "example2-case1": ["example2", "--out", out],
            "example2-case2": ["example2", "--override", "case=2", "--out", out],
            "audit-1000": ["audit", "--count", "1000"],
        }.get(name)
        if argv is not None:
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(io.StringIO()):
                rc = cli.main(argv)
            dt = time.perf_counter() - t0
            if rc != 0:
                raise SystemExit(f"{name}: exit code {rc}")
            return dt
    if name == "oracle-R30":
        t0 = time.perf_counter()
        models.example1_pseudomode_oracle(models.Example1Params(R=30.0))
        return time.perf_counter() - t0
    rng = np.random.default_rng(4)
    g = rng.normal(size=(4, 4, 4)) + 1j * rng.normal(size=(4, 4, 4))
    h0, h1 = (0.5 * (m + m.conj().T) for m in g[:2])
    r0, r1 = (m @ m.conj().T / np.trace(m @ m.conj().T).real for m in g[2:])
    times = []
    for _ in range(200):
        t0 = time.perf_counter()
        thermo.first_law_ledger(r0, h0, r1, h1, 1.0)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--row", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.row:
        print(repr(_row(args.row)))
        return 0
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update({k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")})
    print(f"{'row':<16} {'ROADMAP':>10} {'in-process':>10} {'ratio':>7} {'process':>10}  in-process runs")
    for name, ref in ROADMAP.items():
        runs, walls = [], []
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            out = subprocess.run([sys.executable, __file__, "--row", name], env=env, check=True,
                                 capture_output=True, text=True, cwd=ROOT).stdout
            walls.append(time.perf_counter() - t0)
            runs.append(float(out))
        med = statistics.median(runs)
        print(f"{name:<16} {ref:>10.4g} {med:>10.4g} {med / ref:>7.2f} {statistics.median(walls):>10.4g}  "
              + " ".join(f"{r:.4g}" for r in runs))
    return 0


if __name__ == "__main__":
    sys.exit(main())
