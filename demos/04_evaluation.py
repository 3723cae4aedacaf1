"""Strict vs lenient evaluation.

A model may emit label sequences that break the scheme's rules, e.g.
"O I-PER" under BIO. Strict decoding ignores such labels; the popular
evaluation libraries instead recover an entity from them. Both numbers
are computed so results stay comparable either way.
"""

import tempfile
from pathlib import Path

from seqlab import (
    AnnotationScheme,
    LabelSequence,
    LexiconTagger,
    evaluate_on_dataset,
    extract_entities,
    set_up,
)
from seqlab.ingest import load_split

BIO = AnnotationScheme.BIO

# =============================================================================
# The disagreement in a nutshell
# =============================================================================

inconsistent = LabelSequence.from_raw(["O", "I-PER"], BIO)
print(f"strict : {extract_entities(inconsistent, 'strict')}")
print(f"lenient: {extract_entities(inconsistent, 'lenient')}")

# =============================================================================
# Full dataset evaluation: strict entity + word level, lenient entity
# =============================================================================

with tempfile.TemporaryDirectory(prefix="seqlab_demo_") as workdir:
    set_up("BI", name="mini-conll", data_dir=workdir)
    split = load_split(Path(workdir) / "mini-conll", "test")

lexicon = LexiconTagger({
    "United": "ORG", "Nations": "ORG", "Geneva": "LOC",
    "Anna": "PER", "Schmidt": "PER", "Acme": "ORG",
    "Brazil": "LOC", "World": "MISC", "Cup": "MISC",
    "spring": "LOC",  # a deliberate false positive
})
results = evaluate_on_dataset(lexicon, split, BIO)

# the result is addressable like its JSON form; the default block is strict
print(f"\nstrict entity micro F1 : {results['micro']['entity']['f1']:.4f}")
print(f"lenient entity micro F1: {results['lenient']['micro']['entity']['f1']:.4f}")
print(f"word-level micro F1    : {results['strict']['micro']['word']['f1']:.4f}")

print("\nper-class entity metrics (strict):")
for cls, row in results["per_class"].items():
    metrics = row["entity"]
    print(f"  {cls:5s} P={metrics['precision']:.2f} R={metrics['recall']:.2f} "
          f"F1={metrics['f1']:.2f} support={metrics['support']}")

print("\nword-level confusion (gold x predicted):")
confusion = results["confusion"]
classes = list(confusion)
print("        " + " ".join(f"{c:>5s}" for c in classes))
for gold_class in classes:
    row = " ".join(f"{confusion[gold_class][p]:5d}" for p in classes)
    print(f"  {gold_class:5s} {row}")
