"""References for canonical SMILES: the unpruned canonical search,
exhaustive cis/trans orientation, and rank refinement round by round.

``write_canonical`` orients each direction-token cluster as it writes it:
the cluster's first written token is "/". That is meant to be the least of
all 2^k respellings, where a respelling flips every token of some subset of
the k clusters. This reference builds each of the 2^k respelled molecules,
writes each one and keeps the least string.

The writer always orients, so the reference hands it a single cluster over
every directional bond: it then writes a respelling as stored or with every
token flipped, which is another respelling, and picks the smaller of the
two by their first direction token. Over all 2^k inputs the least string
written is thus the least respelling as stored.
"""

from rebuild import replace

from txf.chem.smiles import (
    _dense_ranks,
    _direction_clusters,
    _emit,
    _rank_component,
    _refine,
)

_FLIP = {"/": "\\", "\\": "/"}


def unpruned_search(mol, adj, comp, ranks, clusters) -> str:
    """The canonical search as ``_canonical_search`` once wrote it: every
    member of the first tied class is tried at every node, with no orbit
    pruning, so its cost is the product of the tie-class sizes."""
    by_rank = {}
    for a in comp:
        by_rank.setdefault(ranks[a], []).append(a)
    tied = [r for r, members in by_rank.items() if len(members) > 1]
    if not tied:
        return _emit(mol, adj, comp, ranks, clusters)[0]
    best = None
    for chosen in by_rank[min(tied)]:
        promoted = _dense_ranks({a: 2 * r - (a == chosen) for a, r in ranks.items()})
        candidate = unpruned_search(mol, adj, comp, _refine(adj, promoted), clusters)
        if best is None or candidate < best:
            best = candidate
    return best


def unpruned_canonical(mol) -> str:
    """``write_canonical`` through the unpruned search."""
    adj = mol.neighbors()
    parts = [
        unpruned_search(mol, adj, comp, _rank_component(mol, adj, comp), _direction_clusters(mol, comp))
        for comp in mol.components()
    ]
    return ".".join(sorted(parts))


def exhaustive_canonical(mol) -> str:
    adj = mol.neighbors()
    parts = []
    for comp in mol.components():
        clusters = _direction_clusters(mol, comp)
        ids = sorted(set(clusters.values()))
        one = dict.fromkeys(clusters, 0)
        ranks = _rank_component(mol, adj, comp)  # directions do not rank
        best = None
        for mask in range(1 << len(ids)):
            flipped = {c for bit, c in enumerate(ids) if mask >> bit & 1}
            respelled = replace(
                mol,
                bonds=tuple(
                    replace(b, direction=_FLIP[b.direction])
                    if clusters.get((b.a, b.b)) in flipped
                    else b
                    for b in mol.bonds
                ),
            )
            text = unpruned_search(respelled, respelled.neighbors(), comp, ranks, one)
            if best is None or text < best:
                best = text
        parts.append(best)
    return ".".join(sorted(parts))


def cluster_count(mol) -> int:
    return sum(len(set(_direction_clusters(mol, comp).values())) for comp in mol.components())


def round_refine(adj, ranks):
    """Refinement as ``_refine`` once wrote it: every round re-keys every atom
    by its rank and its sorted (bond order, neighbour rank) pairs, and the
    rounds stop when the number of classes stops growing."""
    classes = len(set(ranks.values()))
    while True:
        new_ranks = _dense_ranks({
            a: (r, tuple(sorted((b.order, ranks[v]) for v, b in adj[a])))
            for a, r in ranks.items()
        })
        new_classes = len(set(new_ranks.values()))
        if new_classes == classes:
            return new_ranks
        ranks, classes = new_ranks, new_classes
