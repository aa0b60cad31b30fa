"""Walk through the cheminformatics kernel: parsing SMILES into graphs,
canonical serialization, hashed circular fingerprints, Tanimoto search,
ring-system scaffolds, and reaction set equality.

Run from the repo root:  python demos/01_molecules_and_similarity.py
"""

from txf.chem import (
    Reactants,
    morgan_fingerprint,
    murcko_scaffold,
    parse_smiles,
    scaffold_key,
    score_reactant_prediction,
    strip_atom_maps,
    tanimoto,
    top_k_tanimoto,
    write_canonical,
)

print("=== Parsing ===")
mol = parse_smiles("CN1C(=O)CN=C(C2=CCCCC2)c2cc(Cl)ccc21")
print(f"atoms: {len(mol.atoms)}, bonds: {len(mol.bonds)}")
print("element counts:", {s: sum(a.symbol == s for a in mol.atoms) for s in ("C", "N", "O", "Cl")})

print("\n=== Canonical forms ===")
spellings = ["CCO", "OCC", "C(O)C"]
for s in spellings:
    print(f"{s!r:10} -> {write_canonical(parse_smiles(s))!r}")
print("all spellings agree:", len({write_canonical(parse_smiles(s)) for s in spellings}) == 1)

print("\n=== Fingerprints and Tanimoto ===")
library = [
    "CCO",                      # ethanol
    "CCCO",                     # propanol
    "CC(=O)O",                  # acetic acid
    "c1ccccc1",                 # benzene
    "c1ccccc1O",                # phenol
    "CC(C)Cc1ccc(cc1)C(C)C(=O)O",  # ibuprofen
]
fps = [morgan_fingerprint(parse_smiles(s)) for s in library]
query = morgan_fingerprint(parse_smiles("CCCCO"))  # butanol
print(f"query popcount: {query.popcount}")
for i, sim in top_k_tanimoto(query, fps, 3):
    print(f"  {sim:.3f}  {library[i]}")
print("ethanol vs propanol:", round(tanimoto(fps[0], fps[1]), 3))
print("ethanol vs benzene: ", round(tanimoto(fps[0], fps[3]), 3))

print("\n=== Scaffolds ===")
for s in ("CCc1ccccc1", "c1ccccc1CCCCc1ccccc1", "CCCCO"):
    scaffold = murcko_scaffold(parse_smiles(s))
    shown = write_canonical(scaffold) if scaffold else "(acyclic, none)"
    print(f"{s:24} -> {shown}")
print("ethyl- and butylbenzene share a scaffold key:",
      scaffold_key(parse_smiles("CCc1ccccc1")) == scaffold_key(parse_smiles("CCCCc1ccccc1")))

print("\n=== Atom maps and reaction sets ===")
mapped = "[CH3:1][OH:2]"
print(f"{mapped} stripped ->", write_canonical(strip_atom_maps(parse_smiles(mapped))))
print("order-invariant:", score_reactant_prediction("CCO.CC", Reactants.parse("CC.CCO"))[0])
print("missing member: ", score_reactant_prediction("CCO", Reactants.parse("CCO.CC"))[0])
print("maps ignored:   ", score_reactant_prediction("[CH3:1][OH:2]", Reactants.parse("CO"))[0])
print("garbage guess:  ", score_reactant_prediction("C((", Reactants.parse("CO"))[0])
