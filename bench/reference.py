"""A fixed pure-Python job that measures how fast the host runs right now.

    python3 bench/reference.py

The runner times this process between txf commands. Its work never
changes and imports nothing from txf, so its wall time moves only with
the host's speed (shared cores, frequency, neighbours), which drifts by
tens of percent over minutes on a small VM. The job mixes the kinds of
work txf does in pure Python: a dynamic-programming alignment over lists,
tokenising strings with a regular expression, and dict and set updates.
It prints one checksum, which the runner checks.
"""

from __future__ import annotations

import random
import re

TOKEN = re.compile(r"\[[^\]]+\]|Br|Cl|[BCNOPSFI]|[bcnops]|\d|[()=#]")
ROUNDS = 6


def align(a: str, b: str) -> int:
    """Needleman-Wunsch score with unit costs, one row at a time."""
    prev = list(range(0, -len(b) - 1, -1))
    for i, ca in enumerate(a, 1):
        row = [-i]
        for j, cb in enumerate(b, 1):
            row.append(max(prev[j - 1] + (1 if ca == cb else -1), prev[j] - 1, row[j - 1] - 1))
        prev = row
    return prev[-1]


def job() -> int:
    rng = random.Random(7)
    seqs = ["".join(rng.choice("ACDEFGHIKLMNPQRSTVWY") for _ in range(64)) for _ in range(6)]
    smiles = ["".join(rng.choice(("C", "c", "N", "O", "(", ")", "=", "1", "Cl", "[nH]"))
                      for _ in range(40)) for _ in range(400)]
    total = 0
    for _ in range(ROUNDS):
        for i in range(len(seqs)):
            total += align(seqs[i], seqs[i - 1])
        counts: dict[str, int] = {}
        seen = set()
        for s in smiles:
            tokens = TOKEN.findall(s)
            for t in tokens:
                counts[t] = counts.get(t, 0) + 1
            seen.add(tuple(sorted(set(tokens))))
        total += sum(counts.values()) + len(seen)
    return total


if __name__ == "__main__":
    print(job())
