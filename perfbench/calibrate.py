"""Fixed stdlib work that gauges how fast the machine runs right now.

The benchmark runs this as a child process, in the same loop as the seqlab
commands. It parses and writes JSON, splits words with a regex and splits
labels on hyphens, which is the same kind of work the CLI does. It never
changes, so its wall time measures only the machine. On a shared VM,
slowdowns come from the neighbours and last from seconds to minutes. They
stretch this program and the CLI alike, so dividing by it removes them.
"""

import json
import re

WORD = re.compile(r"\S+")
RECORDS = [
    {"text": " ".join(f"w{i}x{j}" for j in range(20)), "labels": ["O", "B-X", "I-X", "L-Y"] * 5}
    for i in range(1500)
]

if __name__ == "__main__":
    blob = json.dumps(RECORDS)
    out = []
    for record in json.loads(blob):
        words = [(m.group(), m.start(), m.end()) for m in WORD.finditer(record["text"])]
        labels = [label.partition("-") for label in record["labels"]]
        out.append(json.dumps({"words": words, "labels": labels}))
