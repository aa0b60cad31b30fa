"""Reactant-set comparison for reaction-prediction scoring."""

from __future__ import annotations

from .smiles import SmilesParseError, parse_smiles, strip_atom_maps, write_canonical

__all__ = ["canonical_reactant_set", "score_reactant_prediction"]


def canonical_reactant_set(text: str) -> frozenset[str] | None:
    """Canonicalize a dot-separated SMILES into a set of canonical,
    map-stripped component serializations.

    Atom maps are stripped before canonicalization so mapped and unmapped
    spellings compare equal. ``write_canonical`` writes each component on its
    own and joins them with '.', so splitting its output gives the
    components. Returns None when the string does not parse.
    """
    try:
        molecule = parse_smiles(text)
    except SmilesParseError:
        return None
    return frozenset(write_canonical(strip_atom_maps(molecule)).split("."))


def score_reactant_prediction(predicted: str, truth: str) -> tuple[int, bool]:
    """Score a predicted reactant string against the ground truth.

    Returns (score, predicted_valid): score 1 only when both sides parse to
    identical component sets; an unparseable prediction scores 0 and is
    flagged invalid. An unparseable truth string is a data error.
    """
    truth_set = canonical_reactant_set(truth)
    if truth_set is None:
        raise ValueError(f"ground-truth SMILES does not parse: {truth!r}")
    predicted_set = canonical_reactant_set(predicted)
    if predicted_set is None:
        return 0, False
    return (1 if predicted_set == truth_set else 0), True

