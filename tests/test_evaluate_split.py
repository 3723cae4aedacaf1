"""`evaluate` counts a large split across processes through `ranges`; the
split must not show. With the minimum range size made tiny, 1, 2 and 3
processes must give the same report bytes (or no report), stdout, stderr,
exit code and error line, with and without `--verbose` and with and
without a scheme named in analysis.json, whatever sits at a cut: a good
record, a bad one, a blank line, a line longer than a range, a record the
tagger fails on or tags with a class name no UTF-8 holds, or ranges whose
labels are in different schemes.
"""

import contextlib
import io
import json
import os
import signal
import tempfile
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from seqlab import cli, evaluation, inference, ranges
from seqlab.core import AnnotationScheme
from seqlab.inference import load_tagger as load_named_tagger
from seqlab.schemes import chunk_prefixes

pytestmark = pytest.mark.forks

#: words the JSON escaper treats specially, and some it leaves alone; the
#: tagger below tags some of them
WORDS = st.sampled_from(["Ann", "Lee", "Rome", "été", "中", "\U0001f600", 'q"', "a\\b"])
CLASSES = st.sampled_from(["PER", "LOC", "é-x"])


class WordTagger:
    """Tags by word: a BIO chunk per known word, a class name holding a
    lone surrogate for "sur"; raises on "boom" and drops a label on "short"."""

    scheme = AnnotationScheme.BIO
    classes = {"Ann": "B-PER", "Lee": "I-PER", "Rome": "B-LOC", "中": "B-é-x", "sur": "B-\udc80"}

    def tag(self, words):
        if "boom" in words:
            raise RuntimeError("the tagger fails")
        labels = [(self.classes.get(word, "O"), 1.0) for word in words]
        return labels[1:] if "short" in words else labels


def load_tagger(uri):
    return WordTagger() if uri == "words" else load_named_tagger(uri)


@st.composite
def good_lines(draw, scheme):
    """A record whose labels are consistent in ``scheme``, as a words array
    or as text with word objects; or a record with entities only."""
    labels = []
    for cls, length in draw(st.lists(st.tuples(CLASSES | st.none(), st.integers(1, 3)),
                                     min_size=1, max_size=4)):
        if cls is None:
            labels += ["O"] * length
        else:
            labels += [f"{p}-{cls}" for p in chunk_prefixes(length, scheme)]
            labels.append("O")  # so that no two chunks of a class merge under IO
    words = draw(st.lists(WORDS, min_size=len(labels), max_size=len(labels)))
    text = " ".join(words)
    shape = draw(st.sampled_from(["words", "objects", "entities"]))
    if shape == "words":
        return json.dumps({"words": words, "labels": labels}, ensure_ascii=False).encode()
    starts = [sum(len(w) + 1 for w in words[:i]) for i in range(len(words))]
    if shape == "objects":
        objects = [{"surface": w, "start": s, "end": s + len(w)} for w, s in zip(words, starts)]
        return json.dumps({"text": text, "words": objects, "labels": labels}).encode()
    entities = [{"start": s, "end": s + len(w), "label": label[2:]}
                for w, s, label in zip(words, starts, labels) if label != "O"][::2]
    return json.dumps({"text": text, "entities": entities}).encode()


#: lines that fail to read, to label or to tag under some scheme: malformed
#: JSON, a JSON value that is no object, bytes that are not UTF-8, a lone
#: surrogate, a label that does not parse or whose prefix is not in the
#: scheme, fewer labels than words, no gold at all, and words on which the
#: tagger raises or drops a label; and blank lines, which are skipped
BAD_LINES = st.sampled_from([
    b'{"words": ["Ann"], "labels": ["O"]',
    b"[]",
    b'{"words": ["Ann\xff"], "labels": ["O"]}',
    b'{"words": ["\\ud800"], "labels": ["O"]}',
    b'{"words": ["Ann"], "labels": ["Z-PER"]}',
    b'{"words": ["Ann"], "labels": ["U-PER"]}',
    b'{"words": ["Ann"], "labels": ["B-PER"]}',
    b'{"words": ["Ann", "Lee"], "labels": ["B-PER"]}',
    b'{"text": "Ann Lee"}',
    b'{"words": ["boom"], "labels": ["O"]}',
    b'{"words": ["short", "Ann"], "labels": ["O", "O"]}',
    b"",
    b"  \t",
])
#: a record the tagger tags with a class name that UTF-8 cannot hold: it
#: counts, and then the report fails to be written
SURROGATE_LINE = st.just(b'{"words": ["sur", "Ann"], "labels": ["O", "B-PER"]}')
#: the shortest line that pads a block, {"words": ["p"], "labels": ["O"]}
PAD = 34


def pad_line(size):
    return b'{"words": ["' + b"p" * (size - PAD + 1) + b'"], "labels": ["O"]}\n'


@st.composite
def split_inputs(draw):
    """(the scheme analysis.json names or None, split file bytes,
    processes, the byte offsets where the file is cut or None). The file is
    one block per process, each padded to one width, so each block starts
    right at a cut and its first line, of any kind, sits there. The blocks'
    labels are in one scheme, or in a scheme each, so that ranges may read
    different ones. Most files hold no bad line at all; some also hold a
    line longer than any range, or end without a newline."""
    processes = draw(st.sampled_from([2, 3]))
    schemes = draw(st.lists(st.sampled_from(list(AnnotationScheme)),
                            min_size=processes, max_size=processes))
    if draw(st.booleans()):
        schemes = schemes[:1] * processes
    extra = draw(st.sampled_from([None, None, BAD_LINES, SURROGATE_LINE]))
    blocks = []
    for scheme in schemes:
        lines = good_lines(scheme) if extra is None else good_lines(scheme) | extra
        lines = draw(st.lists(lines, min_size=1, max_size=4))
        blocks.append(b"".join(line + b"\n" for line in lines))
    width = max(map(len, blocks)) + PAD
    blocks = [block + pad_line(width - len(block)) for block in blocks]
    cuts = [width * k for k in range(1, processes)]
    if draw(st.booleans()):  # a line longer than any range, in front of one block
        at = draw(st.integers(0, processes - 1))
        count = width * processes // 8
        long = json.dumps({"words": ["w"] * count, "labels": ["O"] * count}).encode()
        blocks[at] = long + b"\n" + blocks[at]
        cuts = None
    data = b"".join(blocks)
    if draw(st.booleans()):
        data = data[:-1]
    named = draw(st.sampled_from([schemes[0].value, None]))
    return named, data, processes, cuts


def cut_offsets(data, processes):
    """Where `ranges._ranges` cuts ``data`` for ``processes``."""
    with tempfile.TemporaryFile() as src:
        src.write(data)
        src.seek(0)
        cuts = ranges._ranges(src, processes, ranges._EVALUATE_MIN_RANGE_BYTES)
        return [start for start, _ in cuts][1:]


def make_dataset(tmp, data, scheme="BIO"):
    """A dataset directory ``tmp``/set with ``data`` as its test split and,
    unless ``scheme`` is None, an analysis.json naming ``scheme``."""
    dataset = tmp / "set"
    dataset.mkdir()
    (dataset / "test.jsonl").write_bytes(data)
    if scheme is not None:
        (dataset / "analysis.json").write_text(json.dumps({"scheme_detected": scheme}))
    return dataset


def evaluate(tmp, processes, patch, verbose=False):
    """(exit code, stdout, stderr, report bytes or None, what main raised)
    of one `evaluate` of ``tmp``/set by `WordTagger`, run with ``processes``
    CPUs."""
    report = tmp / "report.json"
    report.unlink(missing_ok=True)
    patch.setattr(cli, "_cpu_count", lambda: processes)
    argv = [*(["--verbose"] if verbose else []), "evaluate", "--tagger", "words",
            "--dataset", str(tmp / "set"), "--output", str(report)]
    out, err = io.StringIO(), io.StringIO()
    code = raised = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except Exception as exc:  # a report that UTF-8 cannot hold fails to be written
            raised = (type(exc), str(exc))
    written = report.read_bytes() if report.exists() else None
    return code, out.getvalue(), err.getvalue(), written, raised


@pytest.fixture
def words_tagger(monkeypatch):
    monkeypatch.setattr(inference, "load_tagger", load_tagger)


@settings(max_examples=120, deadline=None)
@given(split=split_inputs(), verbose=st.booleans())
def test_split_evaluates_write_what_one_process_writes(split, verbose):
    scheme, data, processes, cuts = split
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
        tmp = Path(tmp)
        make_dataset(tmp, data, scheme)
        patch.setattr(inference, "load_tagger", load_tagger)
        patch.setattr(ranges, "_EVALUATE_MIN_RANGE_BYTES", 1)
        found = cut_offsets(data, processes)
        assert found and (cuts is None or found == cuts)
        one = evaluate(tmp, 1, patch, verbose=verbose)
        assert evaluate(tmp, 2, patch, verbose=verbose) == one
        assert evaluate(tmp, 3, patch, verbose=verbose) == one
        assert sorted(path.name for path in tmp.iterdir()) == ["report.json"] * (
            one[3] is not None
        ) + ["set"]
    assert one[0] in (0, 1, None)


def good_input(count=40):
    """A BIO split of ``count`` records, one per line."""
    return b"".join(
        json.dumps({"words": ["Ann", "Lee", "went", str(i)],
                    "labels": ["B-PER", "I-PER", "O", "B-LOC"]}).encode() + b"\n"
        for i in range(count)
    )


def no_whole_read(*args):
    raise AssertionError("the whole split was read in one process")


def test_a_good_split_is_counted_on_the_split_path(tmp_path, monkeypatch, words_tagger):
    """A good split cut for 2 or 3 CPUs is counted by its ranges: the
    one-process run, which reads the whole split, never starts."""
    make_dataset(tmp_path, good_input())
    monkeypatch.setattr(ranges, "_EVALUATE_MIN_RANGE_BYTES", 64)
    expected = evaluate(tmp_path, 1, monkeypatch)
    assert expected[0] == 0
    monkeypatch.setattr(ranges, "_one_part", no_whole_read)
    assert len(cut_offsets(good_input(), 3)) == 2
    for processes in (2, 3):
        assert evaluate(tmp_path, processes, monkeypatch) == expected


@pytest.mark.parametrize("failure", ["raises", "killed"])
def test_a_failed_child_has_its_range_counted_again(tmp_path, monkeypatch, words_tagger, failure):
    """A child which is killed has its range counted again in the parent; a
    child whose range work raises has the whole split counted once, as one
    part, in the parent. Either way the command gives the one-process
    result, and no temporary file is left."""
    make_dataset(tmp_path, good_input())
    monkeypatch.setattr(ranges, "_EVALUATE_MIN_RANGE_BYTES", 64)
    expected = evaluate(tmp_path, 1, monkeypatch)
    reads = []
    original_whole = ranges._one_part

    def whole_read(*args):
        reads.append(os.getpid())
        return original_whole(*args)

    monkeypatch.setattr(ranges, "_one_part", whole_read)
    parent = os.getpid()
    original = evaluation._evaluate_range

    def failing(*args, **kwargs):
        if os.getpid() != parent:
            if failure == "raises":
                raise RuntimeError("the child's range fails")
            os.kill(os.getpid(), signal.SIGKILL)
        return original(*args, **kwargs)

    monkeypatch.setattr(evaluation, "_evaluate_range", failing)
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "tmp"))
    (tmp_path / "tmp").mkdir()
    assert len(cut_offsets(good_input(), 3)) == 2
    assert evaluate(tmp_path, 3, monkeypatch) == expected
    assert expected[0] == 0 and expected[1].endswith("strict entity micro f1 = 0.6667\n")
    assert reads == ([parent] if failure == "raises" else [])
    assert list((tmp_path / "tmp").iterdir()) == []


def test_a_failed_range_sends_the_command_back_to_one_process(tmp_path, monkeypatch, words_tagger):
    """A range that does not count, here one whose tagger raises, has the
    whole split evaluated again in one process, which reports the error
    and its line as one process does; no temporary file is left."""
    data = good_input() + b'{"words": ["boom"], "labels": ["O"]}\n'
    make_dataset(tmp_path, data)
    monkeypatch.setattr(ranges, "_EVALUATE_MIN_RANGE_BYTES", 64)
    expected = evaluate(tmp_path, 1, monkeypatch)
    assert expected[:3] == (1, "", "error: tagger raised RuntimeError: the tagger fails\n")
    reads = []
    original = ranges._one_part

    def whole_read(work, part):
        reads.append(part)
        return original(work, part)

    monkeypatch.setattr(ranges, "_one_part", whole_read)
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "tmp"))
    (tmp_path / "tmp").mkdir()
    assert evaluate(tmp_path, 3, monkeypatch) == expected
    assert reads == [(0, None)]
    assert list((tmp_path / "tmp").iterdir()) == []


def never_fork():
    raise AssertionError("evaluate forked")


def test_a_dataset_without_analysis_is_counted_on_the_split_path(
    tmp_path, monkeypatch, words_tagger
):
    """Without a named scheme each range reads its scheme off its own
    labels; ranges that agree are counted on the split path, and the
    one-process run, which reads the whole split, never starts."""
    make_dataset(tmp_path, good_input(), scheme=None)
    monkeypatch.setattr(ranges, "_EVALUATE_MIN_RANGE_BYTES", 64)
    expected = evaluate(tmp_path, 1, monkeypatch)
    assert expected[0] == 0
    monkeypatch.setattr(ranges, "_one_part", no_whole_read)
    for processes in (2, 3):
        assert evaluate(tmp_path, processes, monkeypatch) == expected


def block_line(words, labels):
    return json.dumps({"words": words, "labels": labels}).encode() + b"\n"


#: pairs of blocks whose labels read as different schemes: IO beside BIO,
#: and all O (BIO) beside BILOU
DISAGREEING = {
    "IO and BIO": (
        block_line(["Ann", "Lee", "went"], ["I-PER", "I-PER", "O"]),
        block_line(["Ann", "Lee", "went"], ["B-PER", "I-PER", "O"]),
    ),
    "O and BILOU": (
        block_line(["went", "home"], ["O", "O"]),
        block_line(["Ann", "Lee", "Rome"], ["B-PER", "L-PER", "U-LOC"]),
    ),
}


@pytest.mark.parametrize("first, second", DISAGREEING.values(), ids=DISAGREEING)
def test_ranges_that_read_different_schemes_send_the_command_back_to_one_process(
    tmp_path, monkeypatch, words_tagger, first, second
):
    """Two ranges that read different schemes off their labels are not
    added up: the whole split is read once, in one process, and gives the
    one-process report."""
    first, second = first * 20, second * 20
    width = max(len(first), len(second)) + PAD
    data = first + pad_line(width - len(first)) + second + pad_line(width - len(second))
    make_dataset(tmp_path, data, scheme=None)
    monkeypatch.setattr(ranges, "_EVALUATE_MIN_RANGE_BYTES", 64)
    assert cut_offsets(data, 2) == [width]
    expected = evaluate(tmp_path, 1, monkeypatch)
    assert expected[0] == 0
    reads = []
    original = ranges._one_part

    def whole_read(work, part):
        reads.append(part)
        return original(work, part)

    monkeypatch.setattr(ranges, "_one_part", whole_read)
    assert evaluate(tmp_path, 2, monkeypatch) == expected
    assert reads == [(0, None)]


def test_a_split_under_two_ranges_is_not_split(tmp_path, monkeypatch, words_tagger):
    data = good_input(200)
    assert len(data) < 2 * ranges._EVALUATE_MIN_RANGE_BYTES
    make_dataset(tmp_path, data)
    expected = evaluate(tmp_path, 1, monkeypatch)
    monkeypatch.setattr(os, "fork", never_fork)
    assert evaluate(tmp_path, 2, monkeypatch) == expected


def test_a_failing_fork_counts_every_range_here(tmp_path, monkeypatch, words_tagger):
    make_dataset(tmp_path, good_input())
    monkeypatch.setattr(ranges, "_EVALUATE_MIN_RANGE_BYTES", 64)
    expected = evaluate(tmp_path, 1, monkeypatch)
    forks = []

    def fork():
        forks.append(1)
        raise OSError("fork is off")

    monkeypatch.setattr(os, "fork", fork)
    assert evaluate(tmp_path, 3, monkeypatch) == expected
    assert forks == [1, 1]


def test_a_threaded_caller_never_forks(tmp_path, monkeypatch, words_tagger):
    make_dataset(tmp_path, good_input())
    monkeypatch.setattr(ranges, "_EVALUATE_MIN_RANGE_BYTES", 64)
    expected = evaluate(tmp_path, 1, monkeypatch)
    forks = []

    def fork():
        forks.append(threading.active_count())
        raise OSError("fork is off")

    monkeypatch.setattr(os, "fork", fork)
    stop = threading.Event()
    other = threading.Thread(target=stop.wait)
    other.start()
    try:
        assert evaluate(tmp_path, 2, monkeypatch) == expected
    finally:
        stop.set()
        other.join(timeout=10)
    assert not other.is_alive()
    assert forks == []
    # alone, the same call would have forked
    assert evaluate(tmp_path, 2, monkeypatch) == expected
    assert forks == [1]
