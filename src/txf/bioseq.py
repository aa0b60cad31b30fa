"""Percent sequence identity for protein and nucleotide features.

Identity is computed from a pairwise global alignment (match +1, mismatch -1,
gap -2, linear gap cost) as matches / alignment length * 100. Traceback ties
prefer diagonal, then the gap in the first sequence, so results are
deterministic.
"""

from __future__ import annotations

from typing import Sequence

from .value import Frozen, set_fields

__all__ = [
    "BioSequence",
    "AMINO_ACID",
    "NUCLEOTIDE",
    "identity_bound",
    "percent_identity",
    "top_k_identity",
]

AMINO_ACID = "amino_acid"
NUCLEOTIDE = "nucleotide"

_ALPHABETS = {
    AMINO_ACID: set("ACDEFGHIKLMNPQRSTVWYX"),
    NUCLEOTIDE: set("ACGTUN"),
}

MATCH_SCORE = 1
MISMATCH_SCORE = -1
GAP_SCORE = -2


class BioSequence(Frozen):
    __slots__ = ("residues", "kind")

    def __init__(self, residues: str, kind: str = AMINO_ACID):
        if kind not in _ALPHABETS:
            raise ValueError(f"unknown sequence kind {kind!r}")
        if not residues:
            raise ValueError("empty sequence")
        residues = residues.upper()
        bad = set(residues) - _ALPHABETS[kind]
        if bad:
            raise ValueError(f"characters {sorted(bad)} not in the {kind} alphabet")
        set_fields(self, (residues, kind))

    def __len__(self) -> int:
        return len(self.residues)


def _align(a: str, b: str) -> tuple[int, int]:
    """Needleman-Wunsch; returns (matches, alignment_length)."""
    n, m = len(a), len(b)
    # score rows plus a traceback matrix (0 diag, 1 up/gap-in-b, 2 left/gap-in-a)
    prev = [j * GAP_SCORE for j in range(m + 1)]
    trace = [bytearray(m + 1) for _ in range(n + 1)]
    for j in range(1, m + 1):
        trace[0][j] = 2
    for i in range(1, n + 1):
        cur = [i * GAP_SCORE] + [0] * m
        trace[i][0] = 1
        ai = a[i - 1]
        row_trace = trace[i]
        for j in range(1, m + 1):
            diag = prev[j - 1] + (MATCH_SCORE if ai == b[j - 1] else MISMATCH_SCORE)
            up = prev[j] + GAP_SCORE
            left = cur[j - 1] + GAP_SCORE
            best = diag
            t = 0
            if up > best:
                best, t = up, 1
            if left > best:
                best, t = left, 2
            cur[j] = best
            row_trace[j] = t
        prev = cur

    i, j = n, m
    matches = 0
    length = 0
    while i > 0 or j > 0:
        t = trace[i][j]
        if i > 0 and j > 0 and t == 0:
            if a[i - 1] == b[j - 1]:
                matches += 1
            i -= 1
            j -= 1
        elif i > 0 and (t == 1 or j == 0):
            i -= 1
        else:
            j -= 1
        length += 1
    return matches, length


def percent_identity(a: BioSequence, b: BioSequence) -> float:
    """Identity of the optimal global alignment, in [0, 100]."""
    if a.kind != b.kind:
        raise ValueError(f"sequence kinds differ: {a.kind} vs {b.kind}")
    matches, length = _align(a.residues, b.residues)
    return 100.0 * matches / length


def _lcs_length(a: str, b: str) -> int:
    """Longest common subsequence length, bit-parallel over the residues of a
    (Allison & Dix 1986; Hyyrö 2004): one pass over b, with the length read
    off as the zero bits of V."""
    masks: dict[str, int] = {}
    for i, c in enumerate(a):
        masks[c] = masks.get(c, 0) | 1 << i
    full = (1 << len(a)) - 1
    v = full
    for c in b:
        u = v & masks.get(c, 0)
        v = ((v + u) | (v - u)) & full
    return len(a) - v.bit_count()


def identity_bound(a: BioSequence, b: BioSequence) -> float:
    """An upper bound on ``percent_identity(a, b)`` that needs no alignment.

    An alignment's matches form a common subsequence, and the alignment is at
    least as long as the longer sequence, so identity <= 100 * LCS / max(n, m).
    The floats keep that order: both are ``100.0 * i / j`` over integers below
    2**53, with matches <= LCS and alignment length >= max(n, m), and every
    step rounds correctly, so monotonely.
    """
    return 100.0 * _lcs_length(a.residues, b.residues) / max(len(a), len(b))


def top_k_identity(
    query: BioSequence, pool: Sequence[BioSequence], k: int
) -> list[tuple[int, float]]:
    """The k highest-identity pool entries, descending, ties by index."""
    if not pool:
        raise ValueError("empty sequence pool")
    if k <= 0:
        raise ValueError("k must be positive")
    scored = sorted(
        ((i, percent_identity(query, s)) for i, s in enumerate(pool)),
        key=lambda item: (-item[1], item[0]),
    )
    return scored[: min(k, len(pool))]
