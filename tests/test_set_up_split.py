"""`dataset set-up` reads, checks and formats a large JSONL input across
processes through `ranges`; the split must not show. With the minimum
range size made tiny, 1, 2 and 3 processes must give the same split files
and analysis.json (or none), stdout, stderr and exit code, with and
without `--verbose`, whatever sits at a cut: a pretokenized, Doccano or
entity-only record, a record that does not read or whose labels do not,
a blank line, a line longer than a range, or ranges whose labels are in
different schemes; and whatever the split ratio, seed and fraction.

A pre-split dataset is read the same way in groups of whole files, and
must not show either, whatever the files' formats and schemes, whichever
file does not read, and whatever the dialect, seed and fraction.
"""

import contextlib
import io
import json
import os
import shutil
import signal
import tempfile
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from seqlab import cli, ingest, ranges
from seqlab.core import AnnotationScheme
from seqlab.schemes import chunk_prefixes

pytestmark = pytest.mark.forks

#: words the JSON escaper treats specially, and some it leaves alone
WORDS = st.sampled_from(["Ann", "Lee", "Rome", "été", "中", "\U0001f600", 'q"', "a\\b", "x y"])
CLASSES = st.sampled_from(["PER", "LOC", "é-x"])


@st.composite
def good_lines(draw, scheme, doccano):
    """A Doccano line where ``doccano``; else a record whose labels are
    consistent in ``scheme``, as a words array or as text with word
    objects, or a record with entities only."""
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
    starts = [sum(len(w) + 1 for w in words[:i]) for i in range(len(words))]
    spans = [(s, s + len(w), label[2:]) for w, s, label in zip(words, starts, labels)
             if label != "O"][::2]
    if doccano:
        return json.dumps({"text": text, "label": spans}, ensure_ascii=False).encode()
    shape = draw(st.sampled_from(["words", "objects", "entities"]))
    if shape == "words":
        return json.dumps({"words": words, "labels": labels}, ensure_ascii=False).encode()
    if shape == "objects":
        objects = [{"surface": w, "start": s, "end": s + len(w)} for w, s in zip(words, starts)]
        return json.dumps({"text": text, "words": objects, "labels": labels}).encode()
    entities = [{"start": s, "end": e, "label": c} for s, e, c in spans]
    return json.dumps({"text": text, "entities": entities}).encode()


#: lines that fail to read or to label: malformed JSON, a JSON value that
#: is no object, bytes that are not UTF-8, a lone surrogate, a label that
#: does not parse, fewer labels than words, a Doccano span outside its
#: text and a Doccano span that is no triple; a label whose prefix puts
#: its range in BILOU; and blank lines, which are skipped
BAD_LINES = st.sampled_from([
    b'{"words": ["Ann"], "labels": ["O"]',
    b"[]",
    b'{"words": ["Ann\xff"], "labels": ["O"]}',
    b'{"words": ["\\ud800"], "labels": ["O"]}',
    b'{"words": ["Ann"], "labels": ["Z-PER"]}',
    b'{"words": ["Ann", "Lee"], "labels": ["B-PER"]}',
    b'{"text": "Ann", "label": [[0, 9, "PER"]]}',
    b'{"text": "Ann", "label": [[0, 3]]}',
    b'{"words": ["Ann"], "labels": ["U-PER"]}',
    b"",
    b"  \t",
])


def pad_line(size, doccano):
    """A line of ``size`` bytes, newline included, that reads in any scheme."""
    if doccano:
        return b'{"text": "' + b"p" * (size - 26) + b'", "label": []}\n'
    return b'{"words": ["' + b"p" * (size - 33) + b'"], "labels": ["O"]}\n'


@st.composite
def set_up_inputs(draw):
    """(input bytes, processes, the byte offsets where the file is cut or
    None). The file holds Doccano lines or canonical records. It is one block per
    process, each padded to one width, so each block starts right at a cut
    and its first line, of any kind, sits there. The blocks' labels are in
    one scheme, or in a scheme each, so that ranges may read different
    ones. Most files hold no bad line at all; some also hold a line longer
    than any range, or end without a newline."""
    processes = draw(st.sampled_from([2, 3]))
    doccano = draw(st.booleans())
    schemes = draw(st.lists(st.sampled_from(list(AnnotationScheme)),
                            min_size=processes, max_size=processes))
    if draw(st.booleans()):
        schemes = schemes[:1] * processes
    bad = draw(st.booleans()) and draw(st.booleans())
    blocks = []
    for scheme in schemes:
        lines = good_lines(scheme, doccano)
        lines = draw(st.lists(lines | BAD_LINES if bad else lines, min_size=1, max_size=4))
        blocks.append(b"".join(line + b"\n" for line in lines))
    width = max(map(len, blocks)) + 40
    blocks = [block + pad_line(width - len(block), doccano) for block in blocks]
    cuts = [width * k for k in range(1, processes)]
    if draw(st.booleans()):  # a line longer than any range, in front of one block
        at = draw(st.integers(0, processes - 1))
        blocks[at] = pad_line(width * processes, doccano) + blocks[at]
        cuts = None
    data = b"".join(blocks)
    if draw(st.booleans()):
        data = data[:-1]
    return data, processes, cuts


#: (source, dialect option) pairs; "doccano" on canonical records and none
#: on a Doccano export both read every line as the file's first one reads
SOURCES = st.sampled_from([("HF", []), ("LF", []), ("AT", []), ("AT", ["--dialect", "doccano"])])
OPTIONS = st.tuples(
    st.sampled_from([[], ["--split-ratio", "0.6,0.2,0.2"], ["--split-ratio", "0,0,1"],
                     ["--split-ratio", "1,0,0"]]),
    st.sampled_from([[], ["--fraction", "0.5"], ["--fraction", "0.01"]]),
    st.sampled_from(["42", "7", "-3"]),
)


def cut_offsets(data, processes):
    """Where `ranges._ranges` cuts ``data`` for ``processes``."""
    with tempfile.TemporaryFile() as src:
        src.write(data)
        src.seek(0)
        cuts = ranges._ranges(src, processes, ranges._SET_UP_MIN_RANGE_BYTES)
        return [start for start, _ in cuts][1:]


def set_up(tmp, processes, patch, options, verbose=False, seed="42"):
    """(exit code, stdout, stderr, {name: bytes} of the files written or
    None) of one `dataset set-up` under ``tmp``/data, run with
    ``processes`` CPUs."""
    data = tmp / "data"
    shutil.rmtree(data, ignore_errors=True)
    patch.setattr(cli, "_cpu_count", lambda: processes)
    argv = [*(["--verbose"] if verbose else []), "--data-dir", str(data), "--seed", seed,
            "dataset", "set-up", "--name", "set", *options]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    files = None
    if data.is_dir():  # the one directory set-up writes, named by --name
        [out_dir] = data.iterdir()
        files = {path.name: path.read_bytes() for path in sorted(out_dir.iterdir())}
    return code, out.getvalue(), err.getvalue(), files


@settings(max_examples=120, deadline=None)
@given(split=set_up_inputs(), source=SOURCES, options=OPTIONS, verbose=st.booleans())
def test_split_set_ups_write_what_one_process_writes(split, source, options, verbose):
    data, processes, cuts = split
    (kind, dialect), (ratio, fraction, seed) = source, options
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
        tmp = Path(tmp)
        path = tmp / "input.jsonl"
        path.write_bytes(data)
        patch.setattr(ranges, "_SET_UP_MIN_RANGE_BYTES", 1)
        found = cut_offsets(data, processes)
        assert found and (cuts is None or found == cuts)
        argv = ["--source", kind, "--path", str(path), *dialect, *ratio, *fraction]
        one = set_up(tmp, 1, patch, argv, verbose, seed)
        assert set_up(tmp, 2, patch, argv, verbose, seed) == one
        assert set_up(tmp, 3, patch, argv, verbose, seed) == one
        assert sorted(p.name for p in tmp.iterdir()) == ["data"] * (one[3] is not None) + [
            "input.jsonl"]
    assert one[0] in (0, 1)
    assert (one[3] is None) == (one[0] == 1)


def good_input(count=40, doccano=False):
    """``count`` records, one per line: BILOU-labeled words, or Doccano lines."""
    if doccano:
        record = {"text": "Ann Lee went to Rome", "label": [[0, 7, "PER"], [16, 20, "LOC"]]}
        return b"".join(json.dumps({**record, "id": i}).encode() + b"\n" for i in range(count))
    return b"".join(
        json.dumps({"words": ["Ann", "Lee", "went", str(i)],
                    "labels": ["B-PER", "L-PER", "O", "U-LOC"]}).encode() + b"\n"
        for i in range(count)
    )


def no_whole_read(*args):
    raise AssertionError("the whole input was read in one process")


#: the inputs that split: canonical records, a Doccano export read as one
#: by its first line, and one named by --dialect, whatever its extension
SPLITTING = {
    "canonical": (False, "input.jsonl", ["--source", "HF"]),
    "doccano sniffed": (True, "input.jsonl", ["--source", "AT"]),
    "doccano named": (True, "export.txt", ["--source", "LF", "--dialect", "doccano"]),
}


@pytest.mark.parametrize("doccano, name, options", SPLITTING.values(), ids=SPLITTING)
def test_a_good_input_is_set_up_on_the_split_path(tmp_path, monkeypatch, doccano, name, options):
    """A good input cut for 2 or 3 CPUs is set up from its ranges: the
    one-process run, which reads the whole input, never starts."""
    path = tmp_path / name
    path.write_bytes(good_input(doccano=doccano))
    monkeypatch.setattr(ranges, "_SET_UP_MIN_RANGE_BYTES", 64)
    argv = [*options, "--path", str(path), "--fraction", "0.5"]
    expected = set_up(tmp_path, 1, monkeypatch, argv)
    assert expected[0] == 0 and len(expected[3]) == 4
    monkeypatch.setattr(ranges, "_one_part", no_whole_read)
    assert len(cut_offsets(good_input(doccano=doccano), 3)) == 2
    for processes in (2, 3):
        assert set_up(tmp_path, processes, monkeypatch, argv) == expected


@pytest.mark.parametrize("failure", ["raises", "killed"])
def test_a_failed_child_has_its_range_read_again(tmp_path, monkeypatch, failure):
    """A child which is killed has its range read again in the parent; a
    child whose range work raises has the whole input read once, as one
    part, in the parent. Either way the command gives the one-process
    result, and no temporary file is left."""
    path = tmp_path / "input.jsonl"
    path.write_bytes(good_input())
    monkeypatch.setattr(ranges, "_SET_UP_MIN_RANGE_BYTES", 64)
    argv = ["--source", "HF", "--path", str(path)]
    expected = set_up(tmp_path, 1, monkeypatch, argv)
    wholes = counted_wholes(monkeypatch)
    parent = os.getpid()
    original = ingest._set_up_range

    def failing(*args, **kwargs):
        if os.getpid() != parent:
            if failure == "raises":
                raise RuntimeError("the child's range fails")
            os.kill(os.getpid(), signal.SIGKILL)
        return original(*args, **kwargs)

    monkeypatch.setattr(ingest, "_set_up_range", failing)
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "tmp"))
    (tmp_path / "tmp").mkdir()
    assert len(cut_offsets(good_input(), 3)) == 2
    assert set_up(tmp_path, 3, monkeypatch, argv) == expected
    assert expected[0] == 0 and '"scheme_detected": "BILOU"' in expected[1]
    assert wholes == ([parent] if failure == "raises" else [])
    assert list((tmp_path / "tmp").iterdir()) == []


def counted_wholes(monkeypatch):
    """The list that each run of a whole input as one part from now on adds
    its process id to."""
    wholes = []
    one_part = ranges._one_part

    def whole(*args):
        wholes.append(os.getpid())
        return one_part(*args)

    monkeypatch.setattr(ranges, "_one_part", whole)
    return wholes


def block_line(words, labels):
    return json.dumps({"words": words, "labels": labels}).encode() + b"\n"


def two_blocks(first, second):
    """``first`` and ``second``, each padded to one width, so that a cut
    in two falls between them."""
    width = max(len(first), len(second)) + 40
    return first + pad_line(width - len(first), False) + second + pad_line(
        width - len(second), False)


#: inputs that send the command back to one process once their ranges are
#: read: a range with a bad label; ranges that read different schemes (IO
#: beside BIO, all O beside BILOU); and, with --dialect doccano, nothing but
#: blank lines, which the ranges' merge reports empty without a whole read
FAILING = {
    "bad label": (two_blocks(good_input(20), good_input(19) + block_line(["Ann"], ["Z-PER"])),
                  [], [(0, None)]),
    "IO and BIO": (two_blocks(block_line(["Ann", "Lee", "went"], ["I-PER", "I-PER", "O"]) * 20,
                              block_line(["Ann", "Lee", "went"], ["B-PER", "I-PER", "O"]) * 20),
                   [], [(0, None)]),
    "O and BILOU": (two_blocks(block_line(["went", "home"], ["O", "O"]) * 20,
                               block_line(["Ann", "Lee", "Rome"], ["B-PER", "L-PER", "U-LOC"]) * 20),
                    [], [(0, None)]),
    "blank lines": (b" \n" * 300 + b"\n" * 300, ["--dialect", "doccano"], []),
}


@pytest.mark.parametrize("data, dialect, whole", FAILING.values(), ids=FAILING)
def test_a_range_that_fails_or_disagrees_sends_the_command_back_to_one_process(
    tmp_path, monkeypatch, data, dialect, whole
):
    """Ranges read in two processes, of which one fails or which read
    different schemes, have the whole input set up again in one process,
    read once as one part, which writes or reports what one process does;
    no temporary file is left."""
    path = tmp_path / "input.jsonl"
    path.write_bytes(data)
    monkeypatch.setattr(ranges, "_SET_UP_MIN_RANGE_BYTES", 64)
    assert cut_offsets(data, 2) == [len(data) // 2]
    argv = ["--source", "HF", "--path", str(path), *dialect]
    expected = set_up(tmp_path, 1, monkeypatch, argv)
    reads = []
    original = ranges._one_part

    def whole_read(work, part):
        reads.append(part)
        return original(work, part)

    monkeypatch.setattr(ranges, "_one_part", whole_read)
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "tmp"))
    (tmp_path / "tmp").mkdir()
    forks = []
    fork = os.fork

    def counted():
        forks.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    assert set_up(tmp_path, 2, monkeypatch, argv) == expected
    assert reads == whole and forks == [1]
    assert list((tmp_path / "tmp").iterdir()) == []


def test_a_threaded_caller_never_forks(tmp_path, monkeypatch):
    path = tmp_path / "input.jsonl"
    path.write_bytes(good_input())
    monkeypatch.setattr(ranges, "_SET_UP_MIN_RANGE_BYTES", 64)
    argv = ["--source", "HF", "--path", str(path)]
    expected = set_up(tmp_path, 1, monkeypatch, argv)
    forks = []

    def fork():
        forks.append(threading.active_count())
        raise OSError("fork is off")

    monkeypatch.setattr(os, "fork", fork)
    stop = threading.Event()
    other = threading.Thread(target=stop.wait)
    other.start()
    try:
        assert set_up(tmp_path, 2, monkeypatch, argv) == expected
    finally:
        stop.set()
        other.join(timeout=10)
    assert not other.is_alive()
    assert forks == []
    # alone, the same call would have forked
    assert set_up(tmp_path, 2, monkeypatch, argv) == expected
    assert forks == [1]


def conll(count):
    return "".join(f"Ann B-PER\nLee I-PER\nwent O\n{i} B-LOC\n\n" for i in range(count))


def labelstudio(count):
    task = {"data": {"text": "Ann went"}, "annotations": [{"result": [
        {"type": "labels", "value": {"start": 0, "end": 3, "labels": ["PER"]}}]}]}
    return json.dumps([task] * count)


def write(tmp_path, name, text):
    (tmp_path / name).write_text(text, encoding="utf-8")
    return str(tmp_path / name)


#: inputs that set up in one process whatever their size: a CoNLL file,
#: whose sentences span lines; a LabelStudio export, one JSON array; a
#: JSONL file read as LabelStudio; and a built-in corpus. A pre-split
#: dataset, once a row here, splits by whole files (see `PRE_SPLIT`).
ONE_PROCESS = {
    "conll": lambda tmp: ["--source", "LF", "--path", write(tmp, "in.conll", conll(60))],
    "labelstudio": lambda tmp: ["--source", "AT", "--path",
                                write(tmp, "in.json", labelstudio(60))],
    "jsonl as labelstudio": lambda tmp: [
        "--source", "AT", "--dialect", "labelstudio", "--path",
        write(tmp, "in.jsonl", labelstudio(60))],
    "built-in": lambda tmp: ["--source", "BI", "--name", "mini-conll"],
}


@pytest.mark.parametrize("options", ONE_PROCESS.values(), ids=ONE_PROCESS)
def test_inputs_read_whole_are_never_split(tmp_path, monkeypatch, options):
    monkeypatch.setattr(ranges, "_SET_UP_MIN_RANGE_BYTES", 64)
    forks = []

    def fork():
        forks.append(1)
        raise OSError("fork is off")

    monkeypatch.setattr(os, "fork", fork)
    code, out, err, files = set_up(tmp_path, 3, monkeypatch, options(tmp_path))
    assert (code, err) == (0, "") and len(files) == 4
    assert forks == []


def test_an_input_under_two_ranges_is_not_split(tmp_path, monkeypatch):
    data = good_input(1000)
    assert len(data) < 2 * ranges._SET_UP_MIN_RANGE_BYTES
    path = tmp_path / "input.jsonl"
    path.write_bytes(data)
    argv = ["--source", "HF", "--path", str(path)]
    expected = set_up(tmp_path, 1, monkeypatch, argv)
    forks = []

    def fork():
        forks.append(1)
        raise OSError("fork is off")

    monkeypatch.setattr(os, "fork", fork)
    assert set_up(tmp_path, 2, monkeypatch, argv) == expected
    assert expected[0] == 0 and forks == []


SPLITS = ("train", "val", "test")
#: words that a CoNLL row holds as one column
COLUMN_WORDS = st.sampled_from(["Ann", "Lee", "Rome", "été", "中", "\U0001f600", 'q"', "a\\b"])


@st.composite
def sentences(draw, scheme):
    """(words, labels consistent in ``scheme``, entity (start, end, class)
    triples over the words' single-space join) of up to three sentences."""
    drawn = []
    for _ in range(draw(st.integers(1, 3))):
        words, labels, spans = [], [], []
        for cls, length in draw(st.lists(st.tuples(CLASSES | st.none(), st.integers(1, 3)),
                                         min_size=1, max_size=3)):
            chunk = draw(st.lists(COLUMN_WORDS, min_size=length, max_size=length))
            start = len(" ".join(words)) + bool(words)
            words += chunk
            if cls is None:
                labels += ["O"] * length
            else:
                labels += [f"{p}-{cls}" for p in chunk_prefixes(length, scheme)]
                spans.append([start, start + len(" ".join(chunk)), cls])
                words.append("o")  # so that no two chunks of a class merge under IO
                labels.append("O")
        drawn.append((words, labels, spans))
    return drawn


def task(text, spans):
    """A LabelStudio task of ``text`` with entity ``spans``."""
    return {"data": {"text": text}, "annotations": [{"result": [
        {"type": "labels", "value": {"start": s, "end": e, "labels": [c]}} for s, e, c in spans]}]}


def render(form, drawn):
    """The bytes of a file in ``form`` that holds the ``drawn`` sentences."""
    if form == "conll":
        return "".join("".join(f"{w} {label}\n" for w, label in zip(words, labels)) + "\n"
                       for words, labels, _ in drawn).encode()
    if form == "labelstudio":
        return json.dumps([task(" ".join(words), spans) for words, _, spans in drawn]).encode()
    records = [{"words": words, "labels": labels} if form == "canonical" else
               {"text": " ".join(words), "label": spans} for words, labels, spans in drawn]
    return b"".join(json.dumps(record).encode() + b"\n" for record in records)


#: the formats of a pre-split file read without --dialect, by extension
EXTENSIONS = {"conll": ".conll", "canonical": ".jsonl", "doccano": ".jsonl",
              "labelstudio": ".json"}
#: ways to break a file of each format: an empty file, bytes that are not
#: UTF-8, a ragged CoNLL row, a label that does not parse, fewer labels
#: than words, and an entity outside its text
BREAKS = {
    "conll": [b"", b"\xff", b"Ann\n\n", b"Ann Z-PER\n\n"],
    "canonical": [b"", b"\xff", b'{"words": ["Ann"], "labels": ["Z-PER"]}\n',
                  b'{"words": ["Ann", "Lee"], "labels": ["B-PER"]}\n'],
    "doccano": [b"", b"\xff", b'{"text": "Ann", "label": [[0, 9, "PER"]]}\n'],
    "labelstudio": [b"", b"\xff", json.dumps(task("Ann", [[0, 9, "PER"]])).encode()],
}


def broken(form, data, tail):
    """``data`` in ``form`` with ``tail`` added, or emptied where it is empty."""
    if not tail:
        return b""
    if form == "labelstudio" and tail != b"\xff":  # one more task in the array
        return data[:-1] + b", " + tail + b"]"
    return data + tail


@st.composite
def pre_split_inputs(draw):
    """(the (file name, bytes) of train, val and test, dialect options).
    Without a dialect each file's format is drawn, with one every file is
    in it. The files' labels are in one scheme or in one scheme each; most
    datasets hold no broken file, some one."""
    dialect = draw(st.sampled_from([None, "doccano", "labelstudio"]))
    forms = [dialect] * 3 if dialect else draw(
        st.lists(st.sampled_from(sorted(EXTENSIONS)), min_size=3, max_size=3))
    schemes = draw(st.lists(st.sampled_from(list(AnnotationScheme)), min_size=3, max_size=3))
    if draw(st.booleans()):
        schemes = schemes[:1] * 3
    datas = [render(form, draw(sentences(scheme))) for form, scheme in zip(forms, schemes)]
    if draw(st.booleans()) and draw(st.booleans()):
        at = draw(st.integers(0, 2))
        datas[at] = broken(forms[at], datas[at], draw(st.sampled_from(BREAKS[forms[at]])))
    extensions = [EXTENSIONS[form] if dialect is None else
                  draw(st.sampled_from([".jsonl", ".json", ".txt"])) for form in forms]
    files = [(f"{split}{ext}", data) for split, ext, data in zip(SPLITS, extensions, datas)]
    return files, [] if dialect is None else ["--dialect", dialect]


@settings(max_examples=100, deadline=None)
@given(inputs=pre_split_inputs(), source=st.sampled_from(["LF", "HF", "AT"]),
       fraction=st.sampled_from([[], ["--fraction", "0.5"], ["--fraction", "0.01"]]),
       seed=st.sampled_from(["42", "7", "-3"]), verbose=st.booleans())
def test_split_pre_split_set_ups_write_what_one_process_writes(
    inputs, source, fraction, seed, verbose
):
    files, dialect = inputs
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
        tmp = Path(tmp)
        argv = ["--source", source, *dialect, *fraction]
        for split, (name, data) in zip(SPLITS, files):
            (tmp / name).write_bytes(data)
            argv += [f"--{split}-path", str(tmp / name)]
        patch.setattr(ranges, "_SET_UP_MIN_RANGE_BYTES", 1)
        one = set_up(tmp, 1, patch, argv, verbose, seed)
        assert set_up(tmp, 2, patch, argv, verbose, seed) == one
        assert set_up(tmp, 3, patch, argv, verbose, seed) == one
        assert sorted(p.name for p in tmp.iterdir()) == sorted(
            ["data"] * (one[3] is not None) + [name for name, _ in files])
    assert one[0] in (0, 1)
    assert (one[3] is None) == (one[0] == 1)


def pre_split(source, extension, text, *dialect):
    """The options of a pre-split set-up of three files that hold ``text``."""
    return lambda tmp: ["--source", source, *dialect, *(
        option for split in SPLITS for option in (
            f"--{split}-path", write(tmp, f"{split}{extension}", text)))]


def one_process_set_up(*args, **kwargs):
    raise AssertionError("the dataset was set up in one process")


def counted_forks(monkeypatch):
    """The list that each os.fork call from now on adds a 1 to."""
    forks = []
    fork = os.fork

    def counted():
        forks.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    return forks


#: good pre-split datasets, which set up from groups of their files:
#: canonical records (the "pre-split" row once in `ONE_PROCESS`), CoNLL
#: files, LabelStudio exports and Doccano exports named by --dialect
PRE_SPLIT = {
    "pre-split": pre_split("HF", ".jsonl", good_input().decode()),
    "conll": pre_split("LF", ".conll", conll(60)),
    "labelstudio": pre_split("AT", ".json", labelstudio(60)),
    "doccano named": pre_split("AT", ".txt", good_input(doccano=True).decode(),
                               "--dialect", "doccano"),
}


@pytest.mark.parametrize("options", PRE_SPLIT.values(), ids=PRE_SPLIT)
def test_a_good_pre_split_input_is_set_up_on_the_split_path(tmp_path, monkeypatch, options):
    """A good pre-split dataset on 2 or 3 CPUs is set up from groups of its
    files, one fewer forked children than groups: the one-process run never
    starts."""
    monkeypatch.setattr(ranges, "_SET_UP_MIN_RANGE_BYTES", 64)
    argv = [*options(tmp_path), "--fraction", "0.5"]
    expected = set_up(tmp_path, 1, monkeypatch, argv)
    assert expected[0] == 0 and len(expected[3]) == 4
    monkeypatch.setattr(ranges, "_one_part", one_process_set_up)
    forks = counted_forks(monkeypatch)
    for processes in (2, 3):
        assert set_up(tmp_path, processes, monkeypatch, argv) == expected
    assert forks == [1] * 3


@pytest.mark.parametrize("failure", ["raises", "killed"])
def test_a_failed_child_has_its_group_read_again(tmp_path, monkeypatch, failure):
    """A child which is killed has its group read again in the parent; a
    child whose group work raises has every file read once, as one part, in
    the parent. Either way the command gives the one-process result, and no
    temporary file is left."""
    monkeypatch.setattr(ranges, "_SET_UP_MIN_RANGE_BYTES", 64)
    argv = PRE_SPLIT["conll"](tmp_path)
    expected = set_up(tmp_path, 1, monkeypatch, argv)
    wholes = counted_wholes(monkeypatch)
    parent = os.getpid()
    original = ingest._set_up_files

    def failing(*args, **kwargs):
        if os.getpid() != parent:
            if failure == "raises":
                raise RuntimeError("the child's group fails")
            os.kill(os.getpid(), signal.SIGKILL)
        return original(*args, **kwargs)

    monkeypatch.setattr(ingest, "_set_up_files", failing)
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "tmp"))
    (tmp_path / "tmp").mkdir()
    forks = counted_forks(monkeypatch)
    assert set_up(tmp_path, 3, monkeypatch, argv) == expected
    assert expected[0] == 0 and forks == [1, 1]
    assert wholes == ([parent] if failure == "raises" else [])
    assert list((tmp_path / "tmp").iterdir()) == []


def no_fork(monkeypatch):
    """The list of the thread counts at each os.fork call, which fails."""
    forks = []

    def fork():
        forks.append(threading.active_count())
        raise OSError("fork is off")

    monkeypatch.setattr(os, "fork", fork)
    return forks


def test_a_threaded_caller_never_forks_for_a_pre_split_input(tmp_path, monkeypatch):
    monkeypatch.setattr(ranges, "_SET_UP_MIN_RANGE_BYTES", 64)
    argv = PRE_SPLIT["conll"](tmp_path)
    expected = set_up(tmp_path, 1, monkeypatch, argv)
    forks = no_fork(monkeypatch)
    stop = threading.Event()
    other = threading.Thread(target=stop.wait)
    other.start()
    try:
        assert set_up(tmp_path, 3, monkeypatch, argv) == expected
    finally:
        stop.set()
        other.join(timeout=10)
    assert not other.is_alive()
    assert forks == []
    # alone, the same call would have forked once for each group after the first
    assert set_up(tmp_path, 3, monkeypatch, argv) == expected
    assert forks == [1, 1]


#: (CPUs, least input of a process, train, val and test text) of pre-split
#: datasets that never split: on one CPU; under two least inputs; and with
#: a large train file whose val and test files make less than one
SMALL = {
    "one cpu": (1, 64, [conll(60)] * 3),
    "under two least inputs": (3, None, [conll(1000)] * 3),
    "small val and test": (2, 64, [conll(60), "a O\n\n", "b O\n\n"]),
}


@pytest.mark.parametrize("processes, least, texts", SMALL.values(), ids=SMALL)
def test_a_pre_split_input_that_cannot_split_never_forks(
    tmp_path, monkeypatch, processes, least, texts
):
    if least is None:
        assert sum(map(len, texts)) < 2 * ranges._SET_UP_MIN_RANGE_BYTES
    else:
        monkeypatch.setattr(ranges, "_SET_UP_MIN_RANGE_BYTES", least)
    argv = ["--source", "LF", *(option for split, text in zip(SPLITS, texts) for option in (
        f"--{split}-path", write(tmp_path, f"{split}.conll", text)))]
    expected = set_up(tmp_path, 1, monkeypatch, argv)
    forks = no_fork(monkeypatch)
    assert set_up(tmp_path, processes, monkeypatch, argv) == expected
    assert expected[0] == 0 and forks == []
