"""Record the reference digests that the build workload checks against.

    python3 perfbench/make_reference.py

For every job in the build pool, runs the job in a fresh interpreter and
stores the digest of `str(h_i)` for each generator, so that later commits
must produce byte-identical matrices.  The committed file was recorded from
the commit that introduced the benchmark; rerun this only to add pool
entries, never to absorb a change in the program's output.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import pools  # noqa: E402
import worker  # noqa: E402


def digests(key: str) -> list[str]:
    sys.path.insert(0, str(worker.ROOT / "src"))
    import qspecht as Q

    job = worker.build_input(Q, *pools.parse_key(key))
    return [worker.matrix_digest(m) for m in worker.build_run(Q, job)]


def main(argv: list[str]) -> int:
    if argv:
        print(json.dumps(digests(argv[0])))
        return 0
    reference = {}
    for key in pools.pool_keys("build"):
        out = subprocess.run([sys.executable, __file__, key], check=True,
                             capture_output=True, text=True).stdout
        reference[key] = json.loads(out)
        print(key, file=sys.stderr)
    worker.REFERENCE.parent.mkdir(exist_ok=True)
    worker.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
