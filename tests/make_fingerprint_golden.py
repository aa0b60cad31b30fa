"""Write tests/fixtures/fingerprint_golden.json, the bit-exact pins of the Morgan hash.

The fixture holds ``bits``: ``[smiles, positions]`` pairs, one a line, where
``positions`` are the set bits of ``morgan_fingerprint`` in ascending order.
It covers every ``MOLECULE_CORPUS`` SMILES, mapped and charged spellings, and
the seeded token runs of ``make_smiles_golden.py`` (isotopes, atom maps,
charges, stereo marks and ring-closure bonds among them).

Regenerate only when a change to the fingerprint bits is intended:

    PYTHONPATH=src python tests/make_fingerprint_golden.py
"""

import json

from conftest import FIXTURES, MOLECULE_CORPUS
from make_smiles_golden import token_runs
from txf.chem import morgan_fingerprint, parse_smiles

GOLDEN = FIXTURES / "fingerprint_golden.json"

# Atom-mapped spellings, which hash as their unmapped forms, and charged ones.
MAPPED = [
    "[CH3:1][OH:2]",
    "[CH3:1][CH2:2][OH:3]",
    "[cH:1]1[cH:2][cH:3][cH:4][cH:5][cH:6]1",
    "[CH3:1][C:2](=[O:3])[O:4][c:5]1[cH:6][cH:7][cH:8][cH:9][c:10]1[C:11](=[O:12])[OH:13]",
    "[NH2:1][CH2:2][C:3](=[O:4])[OH:5]",
    "[Cl:1][c:2]1[cH:3][cH:4][cH:5][cH:6][c:7]1[Cl:8]",
]
CHARGED = [
    "[O-]C(=O)C",
    "C[N+](C)(C)C",
    "[NH3+]CC([O-])=O",
    "[N-]=[N+]=N",
    "C[S+](C)C",
    "[Cl-]",
    "[Fe+3]",
    "[O-2]",
    "c1cc[nH+]cc1",
    "[O-][N+](=O)c1ccc([N+](=O)[O-])cc1",
    "[CH2-]C",
    "C[O+]=C",
]


def golden() -> dict:
    bits = []
    for smiles in MOLECULE_CORPUS + MAPPED + CHARGED + token_runs():
        fp = morgan_fingerprint(parse_smiles(smiles))
        bits.append([smiles, [i for i in range(fp.bits.bit_length()) if fp.bits >> i & 1]])
    return {"bits": bits}


if __name__ == "__main__":
    rows = ",\n".join(json.dumps(row, ensure_ascii=False) for row in golden()["bits"])
    GOLDEN.write_text('{"bits": [\n' + rows + "\n]}\n", encoding="utf-8")
    print(f"wrote {GOLDEN}")
