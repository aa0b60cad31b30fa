"""Per-component reactant sets, the reference for the canonical_reactant_set
tests: the molecule is cut into one Molecule per connected component, and
each component is map-stripped and written canonically on its own."""

from rebuild import replace

from txf.chem import Molecule, SmilesParseError, parse_smiles, strip_atom_maps, write_canonical


def split_components(mol: Molecule) -> list[Molecule]:
    """One molecule per connected component, atoms and written order
    renumbered from 0."""
    out = []
    for comp in mol.components():
        remap = {old: new for new, old in enumerate(comp)}
        atoms = tuple(mol.atoms[i] for i in comp)
        bonds = tuple(
            replace(b, a=remap[b.a], b=remap[b.b])
            for b in mol.bonds
            if b.a in remap and b.b in remap
        )
        order = tuple(
            tuple(remap[x] if isinstance(x, int) else x for x in mol.written_order[i])
            for i in comp
        )
        out.append(Molecule(atoms=atoms, bonds=bonds, written_order=order))
    return out


def canonical_reactant_set(text: str) -> frozenset[str] | None:
    try:
        mol = parse_smiles(text)
    except SmilesParseError:
        return None
    return frozenset(write_canonical(strip_atom_maps(m)) for m in split_components(mol))
