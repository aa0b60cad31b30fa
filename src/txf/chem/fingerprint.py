"""Hashed circular fingerprints and bit-vector similarity search.

Every atom environment up to radius 2 is hashed with a fixed 64-bit mixing
function (splitmix64 finalizer constants) into 2048 bits, so fingerprints
are stable across platforms and builds. The finalizer is written inline in
``_hash_ints``'s loop, and the radius-0 hashes of the most recent 4096 atom
types are kept; the hash and the bit positions are those of the plain form,
pinned by ``tests/fixtures/fingerprint_golden.json``.
"""

from __future__ import annotations

import heapq
from functools import lru_cache
from typing import Iterable, Sequence

from ..value import Frozen, set_fields
from .smiles import Molecule

__all__ = [
    "Fingerprint",
    "morgan_fingerprint",
    "tanimoto",
    "top_k_tanimoto",
]

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_RADIUS = 2
_NBITS = 2048


def _hash_ints(values: Iterable[int]) -> int:
    # Folds each value in, then applies the splitmix64 finalizer, written
    # inline: a call per value cost more than the arithmetic.
    h = _GOLDEN
    for v in values:
        h ^= (v + _GOLDEN) & _MASK64
        h ^= h >> 30
        h = (h * 0xBF58476D1CE4E5B9) & _MASK64
        h ^= h >> 27
        h = (h * 0x94D049BB133111EB) & _MASK64
        h ^= h >> 31
    return h


class Fingerprint(Frozen):
    """2048-bit vector with a cached popcount."""

    __slots__ = ("bits", "popcount")

    def __init__(self, bits: int):
        if bits < 0 or bits >> _NBITS:
            raise ValueError(f"bits exceed {_NBITS}-bit width")
        set_fields(self, (bits, bits.bit_count()))


# A pure function of the atom type, which a corpus repeats thousands of
# times; kept for a bounded set of types, it takes about a fifth off
# morgan_fingerprint.
@lru_cache(maxsize=4096)
def _atom_invariant(symbol: str, charge: int, degree: int, hcount: int, aromatic: bool) -> int:
    symbol_code = int.from_bytes(symbol.encode("ascii"), "little")
    return _hash_ints((symbol_code, charge + 512, degree, hcount, 1 if aromatic else 0))


def morgan_fingerprint(mol: Molecule) -> Fingerprint:
    """Hash every atom's r-neighborhood for r in 0..2 into a 2048-bit vector.

    The invariant feeding the hash is (element, charge, degree, H count,
    aromatic flag) plus the bond orders of each shell; atom maps, isotopes
    and stereo annotations are ignored, so mapped and unmapped spellings of
    the same molecule collide by design.
    """
    adj = mol.neighbors()
    inv = [
        _atom_invariant(atom.symbol, atom.charge, len(adj[i]), atom.hcount, atom.aromatic)
        for i, atom in enumerate(mol.atoms)
    ]
    bits = 0
    for v in inv:
        bits |= 1 << (v % _NBITS)
    for r in range(1, _RADIUS + 1):
        new_inv = []
        for i in range(len(mol.atoms)):
            shell = sorted((bond.order, inv[j]) for j, bond in adj[i])
            stream = [r, inv[i]]
            for order, nb in shell:
                stream.append(order)
                stream.append(nb)
            new_inv.append(_hash_ints(stream))
        inv = new_inv
        for v in inv:
            bits |= 1 << (v % _NBITS)
    return Fingerprint(bits)


def tanimoto(a: Fingerprint, b: Fingerprint) -> float:
    """|A∩B| / |A∪B| over set bits; 1.0 when both vectors are empty."""
    inter = (a.bits & b.bits).bit_count()
    union = a.popcount + b.popcount - inter
    if union == 0:
        return 1.0
    return inter / union


def top_k_tanimoto(
    query: Fingerprint, pool: Sequence[Fingerprint], k: int
) -> list[tuple[int, float]]:
    """The k most similar pool entries, descending, ties broken by index."""
    if not pool:
        raise ValueError("empty fingerprint pool")
    if k <= 0:
        raise ValueError("k must be positive")
    k = min(k, len(pool))
    scored = ((-tanimoto(query, fp), i) for i, fp in enumerate(pool))
    best = heapq.nsmallest(k, scored)
    return [(i, -neg) for neg, i in best]
