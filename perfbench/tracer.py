"""Run one seqlab CLI command with spans around each layer's public functions.

    python tracer.py OUT.json COMMAND_ID -- <seqlab arguments>

The functions are wrapped from outside the program: each wrapper replaces
the function on every seqlab module that binds the name (``cli`` imports
``evaluate_on_dataset`` by name, for example), then ``seqlab.cli.main``
runs as usual. Spans stay in memory and are written to OUT.json when the
command ends, together with per-name aggregates:

    {"command": id, "exit": code, "names": [...],
     "spans": [[name index, start, end, parent index or -1, command id], ...],
     "layers": {name: {"calls": n, "self_s": s}}, "counters": {...}}

Self time is a span's duration minus the part of it its child spans cover.
``core.parse_label`` runs once per label, so it is aggregated (calls and
total time, charged to the enclosing span) instead of recorded per call.
"""

from __future__ import annotations

import functools
import gc
import json
import sys
from time import perf_counter

SPANS = {
    "cli": ("main",),
    "ingest": (
        "read_canonical_jsonl", "load_split", "set_up", "parse_file", "parse_conll",
        "parse_annotation_tool_export", "split_documents", "analyze", "save_canonical_jsonl",
    ),
    "inference": (
        "load_tagger", "tagged_labels", "predict_file", "predict", "split_words",
        "prediction_record",
    ),
    "core": ("validate_sequence",),
    "schemes": ("convert_scheme", "detect_scheme"),
    "evaluation": ("evaluate_on_dataset", "extract_entities"),
    "runs": ("load_runs", "aggregate", "save_aggregate"),
}
TAGGER_CLASSES = ("LexiconTagger", "EchoTagger")
COUNTERS = (
    "ingest.read.docs", "ingest.read.words", "core.parse_label.distinct",
    "evaluation.pred_strict_chunks", "evaluation.pred_lenient_chunks",
    "inference.lines_ok", "inference.lines_failed", "gc.collections", "gc.pause_s",
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_index: dict[str, int] = {}
        self.spans: list[list] = []  # [name index, start, end, parent]
        self.stack: list[int] = []
        self.folded: dict[int, float] = {}  # span index -> aggregated child time
        self.aggregated: dict[str, list] = {}  # name -> [calls, total_s]
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.distinct: set = set()
        self.last_tagged = None
        self.gc_start = 0.0

    def _index(self, name: str) -> int:
        if name not in self.name_index:
            self.name_index[name] = len(self.names)
            self.names.append(name)
        return self.name_index[name]

    def wrap(self, name, fn, after=None, name_of=None):
        """A span around fn; `name_of(args, kwargs)` picks a name per call and
        `after(result, args, kwargs)` records counters outside the span."""
        fixed = self._index(name) if name_of is None else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = fixed if name_of is None else self._index(name_of(args, kwargs))
            span = [index, perf_counter(), 0.0, self.stack[-1] if self.stack else -1]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                self.stack.pop()
            if after is not None:
                after(result, args, kwargs)
            return result

        return wrapper

    def fold(self, name, fn):
        """Calls and total time only, charged to the enclosing span."""
        totals = self.aggregated.setdefault(name, [0, 0.0])
        distinct = self.distinct

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                totals[0] += 1
                totals[1] += elapsed
                distinct.add(args)
                if self.stack:
                    parent = self.stack[-1]
                    self.folded[parent] = self.folded.get(parent, 0.0) + elapsed

        return wrapper

    def on_gc(self, phase, info):
        if phase == "start":
            self.gc_start = perf_counter()
        else:
            self.counters["gc.collections"] += 1
            self.counters["gc.pause_s"] += perf_counter() - self.gc_start

    # counters recorded after a wrapped call returns

    def count_read(self, documents, args, kwargs):
        self.counters["ingest.read.docs"] += len(documents)
        self.counters["ingest.read.words"] += sum(len(d.words) for d in documents if d.words)

    def remember_tagged(self, seq, args, kwargs):
        self.last_tagged = seq

    def count_chunks(self, chunks, args, kwargs):
        if args and args[0] is self.last_tagged:
            mode = args[1] if len(args) > 1 else kwargs.get("mode", "strict")
            self.counters[f"evaluation.pred_{mode}_chunks"] += len(chunks)

    def count_lines(self, summary, args, kwargs):
        self.counters["inference.lines_ok"] += summary.processed
        self.counters["inference.lines_failed"] += summary.failed

    def layers(self) -> dict:
        """Per-name calls and self time."""
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span[3] >= 0:
                covered[span[3]] += span[2] - span[1]
        for index, extra in self.folded.items():
            covered[index] += extra
        out = {}
        for i, span in enumerate(self.spans):
            entry = out.setdefault(self.names[span[0]], {"calls": 0, "self_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += span[2] - span[1] - covered[i]
        for name, (calls, total) in self.aggregated.items():
            out[name] = {"calls": calls, "self_s": total}
        return out


def install(tracer: Tracer):
    """Wrap the traced functions on every seqlab module that binds them."""
    import seqlab.cli  # noqa: F401  (the package imports every other module)
    from seqlab import core, inference

    modules = [m for n, m in list(sys.modules.items()) if n == "seqlab" or n.startswith("seqlab.")]
    after = {
        "ingest.read_canonical_jsonl": tracer.count_read,
        "inference.tagged_labels": tracer.remember_tagged,
        "evaluation.extract_entities": tracer.count_chunks,
        "inference.predict_file": tracer.count_lines,
    }

    def extract_name(args, kwargs):
        mode = args[1] if len(args) > 1 else kwargs.get("mode", "strict")
        return f"evaluation.extract_entities.{mode}"

    def replace(original, wrapper):
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)

    for module_name, functions in SPANS.items():
        module = sys.modules[f"seqlab.{module_name}"]
        for fn_name in functions:
            name = f"{module_name}.{fn_name}"
            original = getattr(module, fn_name)
            name_of = extract_name if name == "evaluation.extract_entities" else None
            replace(original, tracer.wrap(name, original, after.get(name), name_of))
    original = core.parse_label
    replace(original, tracer.fold("core.parse_label", original))
    for cls_name in TAGGER_CLASSES:
        cls = getattr(inference, cls_name)
        cls.tag = tracer.wrap("inference.tagger_tag", cls.tag)
    gc.callbacks.append(tracer.on_gc)


def main(argv: list[str]) -> int:
    out_path, command_id, sep, *cli_args = argv
    if sep != "--":
        print("usage: tracer.py OUT.json COMMAND_ID -- <seqlab arguments>", file=sys.stderr)
        return 2
    tracer = Tracer()
    install(tracer)
    from seqlab import cli

    code = 1
    try:
        code = cli.main(cli_args)
    finally:
        gc.callbacks.remove(tracer.on_gc)
        tracer.counters["core.parse_label.distinct"] = len(tracer.distinct)
        command = int(command_id)
        payload = {
            "command": command,
            "exit": code,
            "names": tracer.names,
            "spans": [s + [command] for s in tracer.spans],
            "layers": tracer.layers(),
            "counters": tracer.counters,
        }
        with open(out_path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
