"""Naive nearest-neighbour reference for the index tests: every similarity
is computed from scratch, with no caching, and the pool is ranked by a full
sort on (-similarity, pool index)."""

from txf.bioseq import BioSequence, percent_identity
from txf.chem import SmilesParseError, morgan_fingerprint, parse_smiles, tanimoto


def naive_similarity(manifest, query, candidate) -> float:
    """Tanimoto on the first smiles role, else percent identity averaged over
    the same-kind sequence roles that are valid on both sides; 0.0 when
    nothing parses."""
    kind, roles = manifest.similarity_roles()
    if kind == "smiles":
        name = roles[0].name
        try:
            a = morgan_fingerprint(parse_smiles(query.features[name]))
            b = morgan_fingerprint(parse_smiles(candidate.features[name]))
        except SmilesParseError:
            return 0.0
        return tanimoto(a, b)
    total, count = 0.0, 0
    for role in roles:
        try:
            a = BioSequence(query.features[role.name], kind)
            b = BioSequence(candidate.features[role.name], kind)
        except ValueError:
            continue
        total += percent_identity(a, b)
        count += 1
    return total / count if count else 0.0


def naive_nearest(manifest, query, pool, k, exclude_id=None):
    scored = sorted(
        (
            (i, naive_similarity(manifest, query, r))
            for i, r in enumerate(pool)
            if exclude_id is None or r.record_id != exclude_id
        ),
        key=lambda item: (-item[1], item[0]),
    )
    return scored[:k]
