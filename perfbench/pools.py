"""Job pools of the three workloads, and the seeded draw of a run's jobs.

A job key is "<shape>@<domain>": "5,3,1@p3" is the shape (5,3,1) at a
primitive cube root of unity, "4,3,1@generic" is the generic domain.

Each pool is cut into size classes of jobs that cost about the same, in
order of cost; the comment after each class gives its range of job times
at the commit that introduced the benchmark (2-CPU Xeon VM, Python 3.11).
A class is (take, jobs): a run draws `take` of its jobs without
replacement, so the total work and the job-latency quantiles stay close
from seed to seed, and no (shape, domain) appears twice in a run.
"""

from __future__ import annotations

import random

# build: every h_i of each shape of n = 9, 10 with three or more rows and dim
# 105-768, in the generic domain and at p = 3 and p = 5.  Straightening
# writes the memo here, one miss after another, and no elimination runs.
# (4,3,2,1) at p = 3 and p = 5 (4-8 s, plus as long again to check) are
# left out: either alone would be a third of a run.  (4,3,2,1) generic, the
# largest memo and matrices, is in every run, so that peak memory does not
# hang on whether the draw picks it.
BUILD = [
    (1, ["3,2,1,1,1,1@generic", "3,3,1,1,1@generic", "3,2,1,1,1,1@p3", "6,2,1@generic", "3,2,1,1,1,1,1@generic"]),  # 0.09-0.18 s
    (1, ["5,2,2@generic", "6,1,1,1,1@generic", "5,1,1,1,1,1@generic", "3,2,2,1,1@generic", "3,2,1,1,1,1@p5"]),  # 0.19-0.22 s
    (1, ["5,2,1,1@generic", "6,2,1@p3", "4,2,1,1,1@generic", "6,2,1@p5", "3,3,1,1,1@p3"]),  # 0.23-0.26 s
    (1, ["3,3,2,1@generic", "4,3,2@generic", "7,2,1@generic", "5,2,2@p3", "5,3,1@generic"]),  # 0.28-0.33 s
    (1, ["3,2,1,1,1,1,1@p3", "5,1,1,1,1,1@p3", "3,2,1,1,1,1,1@p5", "4,2,2,1@generic", "3,3,1,1,1,1@generic"]),  # 0.33-0.36 s
    (1, ["5,2,2@p5", "6,1,1,1,1@p3", "3,3,1,1,1@p5", "5,1,1,1,1,1@p5", "3,2,2,1,1@p3"]),  # 0.36-0.37 s
    (1, ["6,1,1,1,1@p5", "4,3,1,1@generic", "4,3,3@generic", "3,3,3,1@generic", "3,2,2,1,1@p5"]),  # 0.39-0.42 s
    (1, ["5,2,1,1@p3", "3,3,2,2@generic", "4,2,1,1,1@p3", "4,2,1,1,1,1@generic", "7,2,1@p3"]),  # 0.44-0.54 s
    (1, ["4,2,2,2@generic", "3,2,2,1,1,1@generic", "5,2,1,1@p5", "6,2,2@generic", "3,3,2,1@p3"]),  # 0.54-0.59 s
    (1, ["4,2,1,1,1@p5", "3,2,2,2,1@generic", "3,3,2,1@p5", "5,3,1@p3", "4,2,2,1@p3"]),  # 0.60-0.66 s
    (1, ["4,3,1,1@p3", "7,2,1@p5", "3,3,1,1,1,1@p5", "4,3,2@p3", "3,3,3,1@p3"]),  # 0.70-0.80 s
    (1, ["3,3,1,1,1,1@p3", "6,2,1,1@generic", "5,3,1@p5", "4,4,2@generic", "4,4,1,1@generic"]),  # 0.80-0.86 s
    (1, ["5,4,1@generic", "4,2,2,1@p5", "4,3,3@p3", "4,3,1,1@p5", "6,3,1@generic"]),  # 0.89-0.98 s
    (1, ["4,3,2@p5", "4,2,2,2@p3", "3,2,2,1,1,1@p5", "6,2,2@p3", "3,2,2,1,1,1@p3"]),  # 0.98-1.07 s
    (1, ["4,2,1,1,1,1@p3", "3,3,2,1,1@generic", "3,3,2,2@p3", "3,3,3,1@p5", "5,2,1,1,1@generic"]),  # 1.10-1.16 s
    (1, ["6,2,2@p5", "4,3,1,1,1@generic", "3,2,2,2,1@p3", "4,2,1,1,1,1@p5", "3,3,2,2@p5"]),  # 1.20-1.32 s
    (1, ["3,2,2,2,1@p5", "4,3,3@p5", "6,2,1,1@p3", "4,2,2,1,1@generic", "4,4,2@p3"]),  # 1.32-1.53 s
    (1, ["5,2,2,1@generic", "6,2,1,1@p5", "4,2,2,2@p5", "4,4,1,1@p3", "5,3,2@generic"]),  # 1.54-1.66 s
    (1, ["4,4,1,1@p5", "6,3,1@p5", "5,2,1,1,1@p3", "6,3,1@p3", "3,3,2,1,1@p3"]),  # 1.81-2.05 s
    (1, ["5,2,1,1,1@p5", "5,4,1@p3", "5,3,1,1@generic", "4,2,2,1,1@p3", "5,4,1@p5"]),  # 2.09-2.31 s
    (1, ["3,3,2,1,1@p5", "4,4,2@p5", "4,3,1,1,1@p3", "5,2,2,1@p3", "4,3,1,1,1@p5"]),  # 2.54-3.26 s
    (1, ["4,2,2,1,1@p5", "5,3,1,1@p3", "5,2,2,1@p5", "5,3,2@p3", "5,3,1,1@p5", "5,3,2@p5"]),  # 3.35-4.67 s
    (1, ["4,3,2,1@generic"]),  # 2.72-2.72 s
]

# verify: `qspecht verify --shape S --json` on every generic shape of n <= 10
# with dim 14-70, all in relation-mode matrix: dense Laurent products and
# matrix equality in linalg, little straightening, no root-of-unity arithmetic.
VERIFY = [
    (3, ["4,3@generic", "3,2,1@generic", "5,2@generic"]),  # 0.05-0.05 s
    (3, ["2,2,1,1,1@generic", "3,1,1,1,1@generic", "2,2,2,2@generic", "2,2,2,1@generic"]),  # 0.07-0.07 s
    (3, ["5,1,1@generic", "4,4@generic", "4,1,1,1@generic", "2,2,1,1,1,1@generic"]),  # 0.07-0.11 s
    (3, ["3,1,1,1,1,1@generic", "3,3,1@generic", "3,2,2@generic", "6,1,1@generic"]),  # 0.12-0.18 s
    (3, ["6,2@generic", "2,2,1,1,1,1,1@generic", "2,2,2,1,1@generic", "7,1,1@generic"]),  # 0.23-0.32 s
    (3, ["4,2,1@generic", "3,1,1,1,1,1,1@generic", "7,2@generic", "4,1,1,1,1@generic"]),  # 0.34-0.37 s
    (3, ["5,3@generic", "3,2,1,1@generic", "5,1,1,1@generic", "8,2@generic"]),  # 0.39-0.58 s
    (3, ["3,1,1,1,1,1,1,1@generic", "3,3,2@generic", "8,1,1@generic", "2,2,1,1,1,1,1,1@generic"]),  # 0.64-0.84 s
    (3, ["2,2,2,2,1@generic", "5,4@generic", "3,3,3@generic", "2,2,2,2,2@generic"]),  # 0.94-1.14 s
    (3, ["6,3@generic", "2,2,2,1,1,1@generic", "5,5@generic", "4,1,1,1,1,1@generic"]),  # 1.17-1.55 s
    (3, ["3,3,1,1@generic", "4,2,2@generic", "6,1,1,1@generic", "3,2,1,1,1@generic"]),  # 1.65-2.50 s
    (3, ["5,2,1@generic", "4,3,1@generic", "3,2,2,1@generic", "5,1,1,1,1@generic"]),  # 3.02-3.24 s
]

# oracle: full two-row analysis of (lambda, p) for 5 <= n <= 9, p in {3, 5}:
# kernels of stacked annihilator matrices and the submodule closure, all in
# Q(zeta_p), with the memo mostly read.  (6,3) and (5,4) at p = 3 and 5 and
# (5,3) at p = 5 (3.5-12 s) are left out: those few jobs would be most of a
# pass, and the noise in their times would be the noise of the whole run.
# n < 5 takes milliseconds and measures only call overhead.  Job costs fall
# off geometrically, so the eleven longest jobs and the median job are always
# run, with a gap in cost below each: otherwise the tail (the eleventh-longest
# job) and the median would jump between classes from seed to seed.
ORACLE = [
    (2, ["6@p5", "5@p3", "5@p5"]),  # 0.00-0.01 s
    (1, ["7@p3", "6@p3"]),  # 0.01-0.01 s
    (1, ["8@p3", "7@p5"]),  # 0.01-0.01 s
    (1, ["9@p5", "8@p5"]),  # 0.01-0.02 s
    (1, ["9@p3", "4,1@p3"]),  # 0.02-0.02 s
    (1, ["3,2@p3", "4,1@p5"]),  # 0.03-0.04 s
    (1, ["5,1@p5", "3,2@p5"]),  # 0.04-0.05 s
    (1, ["6,1@p3", "5,1@p3"]),  # 0.06-0.06 s
    (1, ["3,3@p5", "3,3@p3"]),  # 0.06-0.07 s
    (1, ["7,1@p3", "6,1@p5"]),  # 0.09-0.10 s
    (1, ["7,1@p5", "4,2@p3"]),  # 0.12-0.14 s
    (1, ["8,1@p3"]),  # 0.17 s, the median job
    (1, ["4,2@p5", "8,1@p5"]),  # 0.20-0.23 s
    (3, ["5,2@p3", "4,3@p3", "4,3@p5"]),  # 0.31-0.38 s
    (4, ["5,2@p5", "4,4@p3", "6,2@p3", "4,4@p5"]),  # 0.51-0.72 s
    (4, ["6,2@p5", "7,2@p3", "7,2@p5", "5,3@p3"]),  # 1.18-1.45 s
]

POOLS = {"build": BUILD, "verify": VERIFY, "oracle": ORACLE}


def parse_key(key: str) -> tuple[str, int | None]:
    shape, domain = key.split("@")
    return shape, None if domain == "generic" else int(domain[1:])


def shape_size(key: str) -> int:
    return sum(int(part) for part in parse_key(key)[0].split(","))


def pool_keys(workload: str) -> list[str]:
    return [key for _, size_class in POOLS[workload] for key in size_class]


def jobs_per_run(workload: str) -> int:
    return sum(take for take, _ in POOLS[workload])


def draw(workload: str, seed: int) -> list[str]:
    """The run's jobs, in the order they run: class by class, cheapest first,
    so that each job finds about the same heap left by the jobs before it."""
    rng = random.Random(f"{workload}/{seed}")
    return [key for take, size_class in POOLS[workload] for key in rng.sample(size_class, take)]


def tail_percentile(workload: str) -> int:
    """The highest whole percentile with at least ten of a pass's jobs beyond it."""
    jobs = jobs_per_run(workload)
    return (100 * (jobs - 10)) // jobs
