"""Dataset set-up: normalize any source into the canonical format.

Four source kinds are supported: local files (LF), pretokenized JSONL
exports (HF), annotation-tool exports (AT), and small built-in corpora
(BI). Whatever goes in, what comes out is always the same: canonical
{train,val,test}.jsonl plus analysis.json, whose tree `set_up` also
returns as a plain dict.
"""

import json
import tempfile
from pathlib import Path

from seqlab import prune, set_up

with tempfile.TemporaryDirectory(prefix="seqlab_demo_") as tmp:
    workdir = Path(tmp)

    # =========================================================================
    # Built-in corpus: pre-split, ships with the package
    # =========================================================================

    splits, analysis = set_up("BI", name="mini-conll", data_dir=workdir)
    train, val, test = splits

    print(f"split sizes: train={len(train)} val={len(val)} test={len(test)}")
    print(f"detected scheme: {analysis['scheme_detected']}")
    print(f"entity counts (train): {analysis['entity_counts']['train']}")
    print(f"files written under {workdir / 'mini-conll'}:")
    for path in sorted((workdir / "mini-conll").iterdir()):
        print(f"  {path.name}")

    # =========================================================================
    # Unsplit local file: deterministic seeded shuffle, floor/floor/remainder
    # =========================================================================

    column_file = workdir / "toy.conll"
    column_file.write_text("".join(f"word{i} B-X\n\n" for i in range(10)))

    splits, analysis = set_up(
        "LF", name="toy", path=column_file, split_ratio=(0.8, 0.1, 0.1),
        seed=42, data_dir=workdir,
    )
    print(f"\n10 documents at 0.8/0.1/0.1 -> {[len(s) for s in splits]}")
    print(f"seed recorded in the analysis: {analysis['seed']}")

    # same seed, same shuffle: set-up is reproducible
    again, _ = set_up("LF", name="toy2", path=column_file, seed=42, data_dir=workdir)
    assert [s.documents for s in again] == [s.documents for s in splits]
    print("same input + same seed -> identical splits")

    # =========================================================================
    # Pruning: keep the first ceil(fraction * n) documents
    # =========================================================================

    train = splits[0]
    print(f"\nprune(train, 0.5): {len(train)} -> {len(prune(train, 0.5))} documents")

    # =========================================================================
    # The canonical format itself
    # =========================================================================

    first_line = (workdir / "mini-conll" / "test.jsonl").read_text().splitlines()[0]
    record = json.loads(first_line)
    print(f"\ncanonical record keys: {sorted(record)}")
    print(f"text: {record['text']!r}")
    print(f"first word: {record['words'][0]}")
