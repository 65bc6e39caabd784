"""Write the charge reference: SHA-256 and sampled rows of each CSV.

    python3 perfbench/make_reference.py

Runs one untimed charge pass on ``workloads.REFERENCE_SEED`` with the
qledger in ``src`` and stores ``workloads.REFERENCE``.  The charge check compares every pass
on that seed against it: values within ``workloads.REF_RTOL``/``REF_ATOL``,
and byte identity counted, not required.  Regenerate it only when a
change to the program's output is intended and explained.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import qledger.cli  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    workdir = ROOT / ".perfbench_work" / "reference"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        doc = workloads.prepare("charge", workloads.REFERENCE_SEED, workdir)
        results = workloads.run_pass(qledger, doc, workdir)
        errors = [err or (None if res[0] == 0 else f"exit code {res[0]}") for res, err in results]
        if any(errors):
            print(f"charge pass failed: {errors}", file=sys.stderr)
            return 1
        ref = workloads.charge_reference(qledger, doc, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    workloads.REFERENCE.write_text(json.dumps(ref) + "\n")
    print(f"wrote {workloads.REFERENCE.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
