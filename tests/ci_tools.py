"""Small helpers for the CI jobs, standard library only.

    python3 tests/ci_tools.py coins POLYTOPE NUM DEN OUT [CYCLE NUM DEN ...]
        Write to OUT the coin file with every edge of the polytope file
        POLYTOPE at bias NUM/DEN, except that each further CYCLE NUM DEN
        puts the edges of the directed cycle CYCLE (comma-separated nodes,
        closed back to the first) at NUM/DEN.
    python3 tests/ci_tools.py peak-rss LIMIT_MB COMMAND [ARG ...]
        Run COMMAND, print its peak resident set size, and exit with its
        exit code, or 1 when it exits 0 but its peak RSS is above LIMIT_MB.
"""

from __future__ import annotations

import json
import resource
import subprocess
import sys


def coins(polytope: str, num: str, den: str, out: str, *cycles: str) -> int:
    with open(polytope, encoding="utf-8") as fh:
        records = json.load(fh)["edges"]
    ids = {(e["from"], e["to"]): e["id"] for e in records}
    biases = [(int(num), int(den))] * len(records)
    for cycle, cnum, cden in zip(cycles[::3], cycles[1::3], cycles[2::3]):
        nodes = [int(v) for v in cycle.split(",")]
        for arc in zip(nodes, nodes[1:] + nodes[:1]):
            biases[ids[arc]] = (int(cnum), int(cden))
    with open(out, "w", encoding="utf-8") as fh:
        json.dump({"coins": [{"edge": i, "num": n, "den": d} for i, (n, d) in enumerate(biases)]}, fh)
    return 0


def peak_rss(limit_mb: str, *command: str) -> int:
    code = subprocess.call(command)
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024  # KiB on Linux
    print(f"{' '.join(command[:2])} peak RSS: {peak:.0f} MB")
    return code or int(peak > float(limit_mb))


if __name__ == "__main__":
    commands = {"coins": coins, "peak-rss": peak_rss}
    if len(sys.argv) < 2 or sys.argv[1] not in commands:
        sys.exit(__doc__)
    sys.exit(commands[sys.argv[1]](*sys.argv[2:]))
