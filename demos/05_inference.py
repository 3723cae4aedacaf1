"""Inference post-processing: single text, batch, and file mode.

Any tagger that maps words to (label, probability) pairs plugs in. Raw
text is split on whitespace with exact character offsets, so every
emitted span satisfies text[char_start:char_end] == surface.
"""

import json
import tempfile
from pathlib import Path

from seqlab import LexiconTagger, predict, predict_batch, predict_file
from seqlab.inference import prediction_record

tagger = LexiconTagger({"United": "ORG", "Nations": "ORG", "Geneva": "LOC"})

# =============================================================================
# Entity level: strict decoding, char-offset merging
# =============================================================================

spans = predict(tagger, "The United Nations")
for span in spans:
    print(prediction_record(span))
# offsets are end-exclusive: text[4:18] == "United Nations"

# =============================================================================
# Word level, with probabilities (useful for active learning)
# =============================================================================

for word in predict(tagger, "The United Nations", level="word",
                    with_probabilities=True):
    print(f"{word.word:8s} [{word.char_start:2d},{word.char_end:2d}) "
          f"{word.label.serialize():6s} p={word.probability}")

# =============================================================================
# Batch inference: per-item isolation, nothing fails the whole batch
# =============================================================================

items = predict_batch(tagger, ["United Nations", "   ", "fine text"])
for item in items:
    status = "ok" if item.ok else f"failed ({item.error})"
    print(f"item {item.index}: {status}")

# =============================================================================
# File mode: streaming, line-aligned output
# =============================================================================

with tempfile.TemporaryDirectory(prefix="seqlab_demo_") as tmp:
    source = Path(tmp) / "in.jsonl"
    sink = Path(tmp) / "out.jsonl"
    source.write_text("".join(
        json.dumps({"text": text}) + "\n"
        for text in ["The United Nations", "Geneva hosts talks", "nothing here"]
    ))

    summary = predict_file(tagger, source, sink)
    print(f"\nprocessed={summary.processed} failed={summary.failed}")
    for line in sink.read_text().splitlines():
        print(line)
