"""Write tests/fixtures/smiles_golden.json, the byte-exact pins of the SMILES kernel.

The fixture holds:
- ``canonical``: ``[smiles, write_canonical, scaffold_key]`` for every
  ``MOLECULE_CORPUS`` SMILES and for a seeded sample of token runs that parse,
  with ring-closure bonds written as ``=``, ``/`` and ``\\``;
- ``errors``: ``[text, message, offset]`` for one malformed input per parser
  error branch.

Regenerate only when a change to the canonical form is intended:

    PYTHONPATH=src python tests/make_smiles_golden.py
"""

import json
import random

from conftest import FIXTURES, MOLECULE_CORPUS
from txf.chem import SmilesParseError, parse_smiles, scaffold_key, write_canonical

GOLDEN = FIXTURES / "smiles_golden.json"

TOKENS = [
    "C", "C", "c", "N", "n", "O", "S", "Cl", "(C)", "(O)", "(=O)", "=", "1", "1", "2",
    "[nH]", "[O-]", "[N+]", "[C@H]", "[C@@H]", "[C@]", "[C@@]", "/", "\\", "c1ccccc1",
    "=1", "/1", "\\1", "=2", "/2", "\\2", "%10", "=%10", "(/C)", "(\\C)", "C=C",
    "[13CH3]", "[CH2:3]", ".",
]
# Ring-closure bonds written with "=", "/" and "\\" at either end.
RING_BONDS = [
    "C=1CCCCC1", "C1CCCCC=1", "C=1CCCCC=1", "F/C=C/1CCCC1", "C/1=C/CCCCC1",
    "C\\1=C/CCCCC1", "C1CCCC/C=C\\1", "C/1=C\\CCCCCC/1", "O=C1CC/C1=C/C",
    "C/C=C1/CCCC1", "C(/F)=C1\\CCCCC/1", "[C@@H]12CC/C=C/CC1CCC=2",
]
SAMPLE_SEED = 15
SAMPLE_SIZE = 400

# One malformed input per parser error branch.
ERROR_INPUTS = [
    "",  # empty SMILES
    "(C)",  # branch before any atom
    "C=(C)",  # bond symbol before '('
    "C)",  # unmatched ')'
    "C(C=)C",  # dangling bond symbol before ')'
    "C=.C",  # bond symbol before '.'
    "C(C.C)",  # '.' inside a branch
    "CC(C(C",  # unclosed '('
    "C2CC1",  # unmatched ring closure
    "CC=",  # dangling bond symbol
    "..",  # no atoms
    "=C",  # bond symbol before any atom
    "C=#C",  # two bond symbols in a row
    "CC%1C",  # '%' needs two digits
    "1CC",  # ring closure before any atom
    "CC11",  # ring bond to the same atom
    "C=1CC#1",  # conflicting bond orders
    "CC1C1",  # duplicate ring bond
    "CCX",  # unknown bare element
    "CCK",  # bare atom that needs brackets
    "CC$",  # unexpected character
    "CC[CH2",  # unclosed '['
    "CC[x]",  # unknown aromatic element
    "C[Xq]",  # unknown bracket element
    "C[13]",  # bracket atom missing element
    "C[N+-]",  # mixed charge signs
    "C[N++2]",  # malformed charge
    "C[CH3:]",  # atom map ':' needs digits
    "C[C$]",  # malformed bracket atom
]


def token_runs(seed: int = SAMPLE_SEED, size: int = SAMPLE_SIZE) -> list[str]:
    """The first ``size`` distinct seeded token runs that parse."""
    rng = random.Random(seed)
    runs: list[str] = []
    while len(runs) < size:
        text = "".join(rng.choices(TOKENS, k=rng.randint(1, 20)))
        if text in runs:
            continue
        try:
            parse_smiles(text)
        except SmilesParseError:
            continue
        runs.append(text)
    return runs


def golden() -> dict:
    canonical = []
    for smiles in MOLECULE_CORPUS + RING_BONDS + token_runs():
        mol = parse_smiles(smiles)
        canonical.append([smiles, write_canonical(mol), scaffold_key(mol)])
    errors = []
    for text in ERROR_INPUTS:
        try:
            parse_smiles(text)
        except SmilesParseError as err:
            errors.append([text, str(err), err.offset])
        else:
            raise AssertionError(f"{text!r} parses")
    return {"canonical": canonical, "errors": errors}


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(golden(), indent=1, ensure_ascii=False) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN}")
