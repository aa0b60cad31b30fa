"""Cheminformatics kernel: SMILES graphs, fingerprints, scaffolds, reactions."""

from .fingerprint import (
    Fingerprint,
    morgan_fingerprint,
    tanimoto,
    top_k_tanimoto,
)
from .reaction import (
    Reactants,
    score_reactant_prediction,
)
from .scaffold import murcko_scaffold, scaffold_key
from .smiles import (
    Atom,
    Bond,
    Molecule,
    SmilesParseError,
    parse_smiles,
    strip_atom_maps,
    write_canonical,
)

__all__ = [
    "Atom",
    "Bond",
    "Molecule",
    "SmilesParseError",
    "Fingerprint",
    "parse_smiles",
    "strip_atom_maps",
    "write_canonical",
    "morgan_fingerprint",
    "tanimoto",
    "top_k_tanimoto",
    "murcko_scaffold",
    "scaffold_key",
    "Reactants",
    "score_reactant_prediction",
]
