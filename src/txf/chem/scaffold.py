"""Ring-system scaffolds used for scaffold-based data splits."""

from __future__ import annotations

from .smiles import Bond, Molecule, _refill_hydrogens, write_canonical

__all__ = ["murcko_scaffold", "scaffold_key"]


def murcko_scaffold(mol: Molecule) -> Molecule | None:
    """Strip side chains down to rings plus the paths linking them.

    Atoms of degree <= 1 are deleted iteratively until a fixpoint; ring and
    linker atoms always keep degree >= 2 and survive. Acyclic molecules
    reduce to nothing and yield None. Hydrogen counts of bare atoms are
    recomputed for the remaining subgraph.
    """
    adj = mol.neighbors()
    alive = set(range(len(mol.atoms)))
    degree = {i: len(adj[i]) for i in alive}
    frontier = [i for i in alive if degree[i] <= 1]
    while frontier:
        nxt = []
        for i in frontier:
            if i not in alive:
                continue
            alive.discard(i)
            for j, _ in adj[i]:
                if j in alive:
                    degree[j] -= 1
                    if degree[j] <= 1:
                        nxt.append(j)
        frontier = nxt
    if not alive:
        return None

    keep = sorted(alive)
    remap = {old: new for new, old in enumerate(keep)}
    bonds = tuple(
        Bond(a=remap[b.a], b=remap[b.b], order=b.order, direction=b.direction)
        for b in mol.bonds
        if b.a in alive and b.b in alive
    )
    atoms = _refill_hydrogens([mol.atoms[old] for old in keep], bonds)
    order = tuple(
        tuple(
            remap[x] if isinstance(x, int) else x
            for x in mol.written_order[old]
            if not isinstance(x, int) or x in alive
        )
        for old in keep
    )
    return Molecule(atoms=atoms, bonds=bonds, written_order=order)


def scaffold_key(mol: Molecule) -> str:
    """Canonical string of the scaffold; empty string for acyclic input."""
    scaffold = murcko_scaffold(mol)
    return "" if scaffold is None else write_canonical(scaffold)
