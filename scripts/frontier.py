#!/usr/bin/env python3
"""The search frontier: query families where an immersion exists but can
be hard to reach, and how many of them the search answers within a step
budget.

    python3 scripts/frontier.py                  # every family
    python3 scripts/frontier.py --planted 0      # the random families only

Each random family is one pattern in the hosts `gen_random_multigraph(n,
m, 2, seed)` over a range of seeds, searched at --budget steps (1,200,000
by default).  The planted family is --planted pairs from `tests/planted.py`
(hosts that hold a strong immersion of their pattern by design), both
strengths, at --planted-budget steps; an "absent" answer there is wrong.
Each query is one `find_immersion` call.  Each family prints its answers
by status, and the total and median of the steps the calls report, a
query out of budget counting budget + 1.  Every found certificate is
verified.  Only the standard library is used.
"""

import argparse
import random
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from immtools import gen_complete, gen_random_multigraph, verify_immersion  # noqa: E402
from immtools.immersion import ABSENT, BUDGET, FOUND, find_immersion  # noqa: E402

# name, pattern size, strong, host vertices, host edges, seeds
FAMILIES = (
    ("weak K5 in random(8, 30, 2, s)", 5, False, 8, 30, range(40)),
    ("strong K5 in random(10, 30, 2, s)", 5, True, 10, 30, range(20)),
    ("weak K5 in random(10, 30, 2, s)", 5, False, 10, 30, range(20)),
    ("weak K4 in random(6, 16, 2, s)", 4, False, 6, 16, range(40)),
    ("weak K6 in random(12, 36, 2, s)", 6, False, 12, 36, range(8)),
)


def search(G, H, strong, budget):
    """The status and the steps of `find_immersion(G, H, strong, budget)`,
    its certificate verified."""
    result = find_immersion(G, H, strong, budget)
    if result.certificate and verify_immersion(G, H, result.certificate, strong):
        raise AssertionError("the search emitted a bad certificate")
    return result.status, result.steps


def report(name, answers, seconds):
    statuses = [s for s, _ in answers]
    steps = [n for _, n in answers]
    print(
        f"{name}: {len(answers)} queries, {len(answers) - statuses.count(BUDGET)} answered"
        f" ({statuses.count(FOUND)} found, {statuses.count(ABSENT)} absent),"
        f" {statuses.count(BUDGET)} budget; steps total {sum(steps):,},"
        f" median {statistics.median(steps):,.1f}"
        f" ({seconds:.1f} s)",
        flush=True,
    )


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--budget", type=int, default=1_200_000)
    parser.add_argument("--planted", type=int, default=600, help="planted pairs (0: none)")
    parser.add_argument("--planted-budget", type=int, default=100_000)
    parser.add_argument("--planted-seed", type=int, default=1)
    args = parser.parse_args(argv)

    for name, k, strong, n, m, seeds in FAMILIES:
        start = time.perf_counter()
        H = gen_complete(k)
        answers = [search(gen_random_multigraph(n, m, 2, s), H, strong, args.budget)
                   for s in seeds]
        report(f"{name}, s = {seeds.start}..{seeds.stop - 1}, budget {args.budget:,}",
               answers, time.perf_counter() - start)
    if args.planted:
        from planted import planted_pair

        start = time.perf_counter()
        rng = random.Random(args.planted_seed)
        answers = []
        for _ in range(args.planted):
            G, H, _cert = planted_pair(rng)
            answers += [search(G, H, strong, args.planted_budget) for strong in (True, False)]
        report(f"planted, {args.planted} pairs x 2 strengths, seed {args.planted_seed},"
               f" budget {args.planted_budget:,}", answers, time.perf_counter() - start)
        if any(status == ABSENT for status, _ in answers):
            print("a planted query answered absent")
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
