#!/usr/bin/env python3
"""Replay every op of the benchmark's decompose_cli workload once and print
a digest of the answers, so that two checkouts can be compared byte for
byte.

    PYTHONHASHSEED=0 python3 scripts/replay_decompose.py

The ops are the ones `DecomposeCli` in bench/workload.py sets up: its
passes of README pipelines on inputs drawn from its fixed input seed.  Each
runs once, in set-up order, through `immtools.cli.main` in this process:
`decompose structure` or `decompose linear`, then the matching `verify`
when the decomposition succeeds.  The script prints the op count, the mix
of the decompose commands' exit codes, and one SHA-256 over every op's
decompose stdout and its decompose and verify exit codes.  Compare runs
made under the same PYTHONHASHSEED, so that the order in which sets
iterate cannot differ between them.  The benchmark's inputs and workload
are read, never changed; only the standard library is used.
"""

import hashlib
import json
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

import workload  # noqa: E402  (puts the checkout's src first on the path)


def main() -> int:
    digest = hashlib.sha256()
    codes = Counter()
    with tempfile.TemporaryDirectory() as workdir:
        wl = workload.DecomposeCli(1, workdir)  # the seed orders passes only
        wl.setup()
        for i in range(len(wl.specs)):
            code, text, verify_code = wl.call(*wl.op_args(i))
            codes[code] += 1
            digest.update((json.dumps([code, text, verify_code]) + "\n").encode())
    print(f"ops {sum(codes.values())}")
    print(f"exit codes {dict(sorted(codes.items()))}")
    print(f"sha256 {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
