"""txf: turn tabular therapeutics datasets into instruction-tuning prompts,
evaluate text-generation models over a simple HTTP contract, and reproduce
benchmark scoreboards and paired statistical comparisons.

Subpackages and modules:

- ``txf.chem``          SMILES graphs, canonical forms, fingerprints, scaffolds
- ``txf.bioseq``        sequence identity for protein / nucleotide features
- ``txf.corpus``        task manifests, table ingestion, split assignment
- ``txf.promptgen``     prompt rendering, label binning, shots, mixtures
- ``txf.evalharness``   model stubs, answer parsing, metrics, task evaluation
- ``txf.transport``     the HTTP/1.1 model client, loaded only for ``--model-url``
- ``txf.analysis``      scoreboards, signed-rank comparisons
- ``txf.contamination`` the contamination scan, re-exported by ``txf.analysis``
- ``txf.atomic``        atomic output files, shared by every writer
- ``txf.ranks``         average ranks, shared by the metrics and the signed-rank test
- ``txf.value``         value classes: equality, hash and repr by field, shared by the records
- ``txf.cli``           the ``txf`` command-line entry point
"""

__version__ = "0.1.0"
