"""Manifests and records for the golden example prompts, shared by the
prompt tests and the acceptance suite."""

from txf.corpus import DataRecord, RoleSpec, TaskManifest

BBB_MANIFEST = TaskManifest(
    task_id="bbb_martins",
    task_kind="binary",
    roles=(RoleSpec("drug", "smiles", "Drug", "Drug SMILES"),),
    instruction="Answer the following question about drug properties.",
    context=(
        "As a membrane separating circulating blood and brain extracellular "
        "fluid, the blood-brain barrier (BBB) is the protection layer that "
        "blocks most foreign drugs. Thus the ability of a drug to penetrate "
        "the barrier to deliver to the site of action forms a crucial "
        "challenge in development of drugs for central nervous system."
    ),
    question=(
        "Given a drug SMILES string, predict whether it\n\n"
        "(A) does not cross the BBB (B) crosses the BBB"
    ),
    label_column="Y",
    metric="auroc",
    split_method="scaffold",
)

BBB_QUERY = DataRecord("q", {"drug": "CN1C(=O)CN=C(C2=CCCCC2)c2cc(Cl)ccc21"}, True, split="test")

BBB_SHOTS = [
    DataRecord(f"s{i}", {"drug": smiles}, True, split="train")
    for i, smiles in enumerate(
        [
            "CN1C(=O)CN=C(c2ccccc2)c2cc(Cl)ccc21",
            "CN1C(=O)CN=C(c2ccccc2F)c2cc(Cl)ccc21",
            "CN1C(=S)CN=C(c2ccccc2)c2cc(Cl)ccc21",
            "CP(C)(=O)CN1C(=O)CN=C(c2ccccc2)c2cc(Cl)ccc21",
            "CN1C(=O)CN=C(c2ccccc2)c2cc([N+](=O)[O-])ccc21",
            "CCN(CC)CCN1C(=O)CN=C(c2ccccc2F)c2cc(Cl)ccc21",
            "O=C1CN=C(c2ccccc2)c2cc(Cl)ccc2N1CC1CC1",
            "C#CCN1C(=O)CN=C(c2ccccc2)c2cc(Cl)ccc21",
            "O=C1CN=C(c2ccccc2)c2cc(Cl)ccc2N1CC(F)(F)F",
            "CCS(=O)(=O)CCN1C(=O)CN=C(c2ccccc2F)c2cc(Cl)ccc21",
        ]
    )
]

MHC1_MANIFEST = TaskManifest(
    task_id="mhc1_iedb",
    task_kind="binary",
    roles=(
        RoleSpec("peptide", "amino_acid", "Peptide", "Peptide amino acid sequence"),
        RoleSpec("mhc", "amino_acid", "MHC", "Possible MHC pseudosequences"),
    ),
    instruction="Answer the following question about peptide-MHC binding.",
    context=(
        "In the human body, T cells monitor the existing peptides and trigger "
        "an immune response if the peptide is foreign. To decide whether or "
        "not if the peptide is not foreign, the peptide must bind to a major "
        "histocompatibility complex (MHC) molecule. Therefore, predicting "
        "peptide-MHC binding affinity is pivotal for determining "
        "immunogenicity. In some experiments, the peptide binding is measured "
        "against cells that express multiple MHCs, so the peptide could be "
        "binding any one of the possible MHCs. Class 1 MHC molecules bind to "
        "peptides that are usually 8-14 amino acids long and activate CD8 T "
        "cells."
    ),
    question=(
        "Given the amino acid sequence of the peptide and possible pseudo "
        "amino acid sequences of MHC 1, predict whether the peptide\n\n"
        "(A) does not bind to any of the MHCs (B) binds to any of the MHCs"
    ),
    label_column="Y",
    metric="auroc",
    split_method="random",
)

MHC1_QUERY = DataRecord(
    "q",
    {"peptide": "QLADETLLKV", "mhc": "YFAMYGEKVAHTHVDTLYVRYHYYTWAEWAYTWY"},
    True,
    split="test",
)

MIRTARBASE_MANIFEST = TaskManifest(
    task_id="mirtarbase",
    task_kind="binary",
    roles=(
        RoleSpec("mirna", "nucleotide", "miRNA", "miRNA sequence"),
        RoleSpec("target", "amino_acid", "Target", "Target amino acid sequence"),
    ),
    instruction="Answer the following question about miRNA protein interactions.",
    context=(
        "MicroRNAs (miRNAs) are, small non-coding RNAs with 18–25 "
        "nucleotides, which are central regulators at the post-transcriptional "
        "level in both animals and plants. Perfect or near-perfect "
        "complementary binding of miRNAs and their target mRNA negatively "
        "regulates gene expression by accelerating mRNA degradation or "
        "suppressing mRNA translation."
    ),
    question=(
        "Given the miRNA mature sequence and target amino acid sequence, "
        "predict whether\n\n"
        "(A) the miRNA and target do not interact (B) the miRNA and target interact"
    ),
    label_column="Y",
    metric="accuracy",
    split_method="random",
)

MIRTARBASE_QUERY = DataRecord(
    "q",
    {
        "mirna": "UUCCUGUCAGCCGUGGGUGCC",
        "target": (
            "MSVNMDELRHQVMINQFVLAAGCAADQAKQLLQAAHWQFETALSTFFQETNIPNSHHHHQMMC"
            "TPSNTPATPPNFPDALAMFSKLRASEGLQSSNSPMTAAACSPPANFSPFWASSPPSHQAPWIP"
            "PSSPTTFHHLHRPQPTWPPGAQQGGAQQKAMAAMDGQR"
        ),
    },
    False,
    split="test",
)

PHASE1_MANIFEST = TaskManifest(
    task_id="phase1",
    task_kind="binary",
    roles=(
        RoleSpec("drug", "smiles", "Drug", "Drug SMILES"),
        RoleSpec("disease", "text", "Disease", "Disease"),
    ),
    instruction="Answer the following question about clinical trials.",
    context=(
        "Clinical trial is the most time and cost-consuming step in the drug "
        "discovery process. Phase 1 clinical trials test the safety and basic "
        "properties of a new drug or treatment in a small group of people for "
        "the first time. Optimizing and designing trials with machine "
        "learning could drastically lead to the speedup of delivery of "
        "life-saving therapeutics to patients. Clinical trial outcome "
        "prediction is a machine learning task that aims to forecast the "
        "outcome of clinical trials, such as the approval rate of a drug or "
        "treatment. It utilizes various clinical trial features, including "
        "the drug's molecular structure and patient disease."
    ),
    question=(
        "Given a drug SMILES string and disease, predict if the phase 1 trial"
        "\n\n(A) would not be approved (B) would be approved"
    ),
    label_column="Y",
    metric="auroc",
    split_method="cold_start",
    cold_start_role="disease",
)

PHASE1_QUERY = DataRecord(
    "q",
    {
        "drug": "COC1=NC(N)=NC2=C1N=CN2[C@@H]1O[C@H](CO)[C@@H](O)[C@@H]1O",
        "disease": "Chronic myeloproliferative disease",
    },
    False,
    split="test",
)

CACO2_MANIFEST = TaskManifest(
    task_id="caco2_wang",
    task_kind="regression",
    roles=(RoleSpec("drug", "smiles", "Drug", "Drug SMILES"),),
    instruction="Answer the following question about drug properties.",
    context=(
        "The human colon epithelial cancer cell line, Caco-2, is used as an "
        "in vitro model to simulate the human intestinal tissue. The "
        "experimental result on the rate of drug passing through the Caco-2 "
        "cells can approximate the rate at which the drug permeates through "
        "the human intestinal tissue."
    ),
    question=(
        "Given a drug SMILES string, predict its normalized Caco-2 cell "
        "effective permeability from 000 to 1000, where 000 is minimum "
        "permeability and 1000 is maximum permeability."
    ),
    label_column="Y",
    metric="mae",
    split_method="scaffold",
    label_range=(0.0, 1000.0),
)

CACO2_QUERY = DataRecord(
    "q", {"drug": "O=C(O)COC(=O)Cc1ccccc1Nc1c(Cl)cccc1Cl"}, 788.0, split="test"
)

GDSC_MANIFEST = TaskManifest(
    task_id="gdsc",
    task_kind="regression",
    roles=(
        RoleSpec("drug", "smiles", "Drug", "Drug SMILES"),
        RoleSpec("cell_line", "text", "CellLine", "Cell line description"),
    ),
    instruction="Answer the following question about drug responses.",
    context=(
        "The same drug compound could have various levels of responses in "
        "different patients. To design drug for individual or a group with "
        "certain characteristics is the central goal of precision medicine. "
        "In experiments, IC50s of drugs were measured against cancer cell "
        "lines."
    ),
    question=(
        "Given a drug SMILES string and a cell line description, predict the "
        "normalized drug sensitivity from 000 to 1000, where 000 is minimum "
        "drug sensitivity and 1000 is maximum drug sensitivity."
    ),
    label_column="Y",
    metric="pearson",
    split_method="random",
    label_range=(0.0, 1000.0),
)

GDSC_QUERY = DataRecord(
    "q",
    {
        "drug": "CN1C=C(C2=CC=CC=C21)/C=C\\3/C4=C(C=CC=N4)NC3=O",
        "cell_line": "SNU-1, stomach cell sourced from cancer",
    },
    615.0,
    split="test",
)

BINDINGDB_KD_MANIFEST = TaskManifest(
    task_id="bindingdb_kd",
    task_kind="regression",
    roles=(
        RoleSpec("drug", "smiles", "Drug", "Drug SMILES"),
        RoleSpec("target", "amino_acid", "Target", "Target amino acid sequence"),
    ),
    instruction="Answer the following question about drug target interactions.",
    context=(
        "Drug-target binding is the physical interaction between a drug and "
        "a specific biological molecule, such as a protein or enzyme. This "
        "interaction is essential for the drug to exert its pharmacological "
        "effect. The strength of the drug-target binding is determined by "
        "the binding affinity, which is a measure of how tightly the drug "
        "binds to the target. Kd is the dissociation constant of a "
        "drug-target complex. It is the concentration of drug at which half "
        "of the drug-target complexes have dissociated. A lower Kd value "
        "indicates a stronger binding affinity."
    ),
    question=(
        "Given the target amino acid sequence and compound SMILES string, "
        "predict their normalized binding affinity Kd from 000 to 1000, "
        "where 000 is minimum Kd and 1000 is maximum Kd."
    ),
    label_column="Y",
    metric="pearson",
    split_method="cold_start",
    cold_start_role="target",
    label_range=(0.0, 1000.0),
)

BINDINGDB_KD_QUERY = DataRecord(
    "q",
    {
        "drug": "O=S(=O)(O)c1cccc2cccc(Nc3ccccc3)c12",
        "target": (
            "MATVQQLEGRWRLVDSKGFDEYMKELGVGIALRKMGAMAKPDCIITCDGKNLTIKTESTLKTT"
            "QFSCTLGEKFEETTADGRKTQTVCNFTDGALVQHQEWDGKESTITRKLKDGKLVVECVMNNVT"
            "CTRIYEKVE"
        ),
    },
    397.0,
    split="test",
)

USPTO_MANIFEST = TaskManifest(
    task_id="uspto",
    task_kind="generation",
    roles=(RoleSpec("product", "smiles", "Product", "Product SMILES"),),
    instruction="Answer the following question about reactions.",
    context=(
        "Retrosynthesis is the process of finding a set of reactants that "
        "can synthesize a target molecule, i.e., product, which is a "
        "fundamental task in drug manufacturing. The target is recursively "
        'transformed into simpler precursor molecules until commercially '
        'available "starting" molecules are identified. In a data sample, '
        "there is only one product molecule, reactants can be one or "
        "multiple molecules."
    ),
    question="Given a product SMILES string, predict the reactant SMILES string.",
    label_column="Y",
    metric="set_accuracy",
    split_method="random",
)

USPTO_QUERY = DataRecord(
    "q",
    {
        "product": (
            "[CH2:12]1[C:7]2([CH2:6][CH2:5][O:15][CH2:1][CH2:8]2)"
            "[CH2:13][CH2:14][O:10][C:11]1=[O:17]"
        )
    },
    (
        "[CH:1]12B[CH:5]([CH2:6][CH2:7][CH2:8]1)CCC2."
        "[O:10]1[CH2:14][CH2:13][CH2:12][CH2:11]1.[OH-:15].[Na+].[OH:17]O.Cl"
    ),
    split="test",
)

GOLDEN_CASES = [
    ("binary_bbb.txt", BBB_MANIFEST, BBB_QUERY, ()),
    ("binary_mhc1.txt", MHC1_MANIFEST, MHC1_QUERY, ()),
    ("binary_mirtarbase.txt", MIRTARBASE_MANIFEST, MIRTARBASE_QUERY, ()),
    ("binary_phase1.txt", PHASE1_MANIFEST, PHASE1_QUERY, ()),
    ("regression_caco2.txt", CACO2_MANIFEST, CACO2_QUERY, ()),
    ("regression_gdsc.txt", GDSC_MANIFEST, GDSC_QUERY, ()),
    ("regression_bindingdb_kd.txt", BINDINGDB_KD_MANIFEST, BINDINGDB_KD_QUERY, ()),
    ("generation_uspto.txt", USPTO_MANIFEST, USPTO_QUERY, ()),
    ("fewshot_bbb.txt", BBB_MANIFEST, BBB_QUERY, tuple(BBB_SHOTS)),
]
