"""Reactant-set comparison for reaction-prediction scoring."""

from __future__ import annotations

from .smiles import Molecule, SmilesParseError, parse_smiles, strip_atom_maps, write_canonical

__all__ = ["Reactants", "score_reactant_prediction"]


class Reactants:
    """A parsed reactant string, compared without its atom maps.

    ``compositions`` holds each component's composition: the multiset of
    its atoms' (symbol, aromatic, charge, isotope, H count). A component's
    canonical string spells every one of those, so two sets with different
    compositions cannot have equal canonical component sets. The canonical
    set is written on the first call to ``canonical`` and kept; that call
    is not locked, so one thread scores with a given instance. The strings
    come from ``write_canonical``'s process-wide memo, so a component that
    recurs in one atom order across answers and truths, atom-mapped or
    not, is searched once.
    """

    def __init__(self, molecule: Molecule):
        self.molecule = molecule
        atoms = molecule.atoms
        self.compositions = frozenset(
            tuple(sorted(
                (a.symbol, a.aromatic, a.charge, a.isotope or 0, a.hcount)
                for a in map(atoms.__getitem__, comp)
            ))
            for comp in molecule.components()
        )
        self._canonical: frozenset[str] | None = None

    @classmethod
    def parse(cls, text: str) -> Reactants:
        """Raises SmilesParseError when ``text`` does not parse."""
        return cls(parse_smiles(text))

    def canonical(self) -> frozenset[str]:
        """The canonical SMILES of each component. ``write_canonical``
        writes each component on its own and joins them with '.', so
        splitting its output gives the components."""
        if self._canonical is None:
            self._canonical = frozenset(write_canonical(strip_atom_maps(self.molecule)).split("."))
        return self._canonical


def score_reactant_prediction(predicted: str, truth: Reactants) -> tuple[int, bool]:
    """Score a predicted reactant string against the parsed ground truth.

    Returns (score, predicted_valid): score 1 only when the prediction
    parses to the truth's canonical component set; an unparseable
    prediction scores 0 and is flagged invalid.

    Scoring many answers against one ``Reactants`` parses the truth once
    and writes it canonically at most once. Canonical strings are written
    only when the answer's component compositions equal the truth's, since
    equal canonical sets need equal compositions.
    """
    try:
        answer = Reactants.parse(predicted)
    except SmilesParseError:
        return 0, False
    if answer.compositions != truth.compositions:
        return 0, True
    return (1 if answer.canonical() == truth.canonical() else 0), True
