"""Lines or whole files of an input, run as contiguous parts across processes.

`predict --input`, `convert`, `evaluate` and `dataset set-up` each read
a file line by line, and each line's output depends on that line alone.
`_run_ranges` runs such a job over the byte ranges that `_ranges` cuts,
or, for a pre-split `dataset set-up`, over the groups of whole files that
`_groups` makes. A regular input file of at least two of the job's least
ranges (128 KiB for `predict`, 768 KiB for `convert`, whose lines cost
less, 512 KiB for `evaluate` and `dataset set-up`) is cut at line starts
into up to N ranges, each the size of the others give or take a line;
regular files are grouped in order into up to N groups of at least that
size, the largest as small as it can be. The calling process runs the
first part; a forked child runs each other one into an anonymous
temporary file, which is appended to the caller's output in order, and
sends the part's summary, one JSON value, through a pipe; the caller
merges the summaries. So a job's output bytes, their order and its line
numbers are those of one process, and its memory bound holds per
process. A part whose child dies is run again in the caller.

`_split` is the one entry point of every command but `predict`, and it
has one failure rule. Where the input does not split, it runs the job's
work once over the whole input, the one part, in this process, and the
work's error is the command's. Where it split and a part's work raised,
here or in a child, or where the caller rejects the parts (they read
different schemes), it runs the one part in place of the parts; a part
whose work raised is not run again on its own. So a command has one
implementation, and its output and every error are those of one process.

The input stays in one process where os.fork or os.sched_getaffinity is
missing (so fork is not trusted) or where another thread runs. The
commands pass `_cpu_count()`, the CPUs in their CPU set, so `taskset`
bounds the processes. Pass more than one process only for a job that is
safe to fork: one that holds no thread, lock or connection a child
cannot use.
"""

from __future__ import annotations

import io
import json
import os
import signal
import stat
import threading
from functools import partial
from itertools import accumulate, combinations
from typing import BinaryIO, Callable, Sequence, TextIO

#: A job over one byte range: given the input at the range's start, the
#: output, the number of the range's first line and the range's size in
#: bytes (None: to the end of the file), it writes the range's output and
#: returns its summary, one JSON value. `_run_at` runs it on one range.
Work = Callable[[BinaryIO, TextIO, int, int | None], object]

#: fork is trusted only where the CPU set can be read as well: macOS, whose
#: system libraries are not safe to fork, has os.fork but not this
_CAN_FORK = hasattr(os, "fork") and hasattr(os, "sched_getaffinity")

#: The least input a `convert` process is given, in bytes. On a 2-vCPU
#: machine, whole `convert` commands split in two gained no more than
#: their run-to-run noise on inputs up to 512 KiB, and gained in every
#: series measured from 768 KiB on.
_CONVERT_MIN_RANGE_BYTES = 384 * 1024

#: The least input an `evaluate` process is given, in bytes. On a 2-vCPU
#: machine, whole `evaluate` commands of the benchmark's conll-bio and
#: fewnerd-bilou test splits, cut short and split in two, gained nothing at
#: 384 KiB (+0.1% and -0.6%, medians of 20 alternating pairs) and gained
#: from 512 KiB on (-5.3% and -3.0% there, -8.9% and -0.5% at 768 KiB).
_EVALUATE_MIN_RANGE_BYTES = 256 * 1024

#: The least input a `dataset set-up` process is given, in bytes. On a
#: 2-vCPU machine, whole set-ups of line-cut prefixes of a pretokenized
#: JSONL file and of a Doccano export, split in two against one process,
#: moved by +1.5% and +3.4% at 64 KiB and +4.9% and +1.5% at 128 KiB
#: (medians of 20 alternating pairs), -2.5% and -1.5% at 192 KiB (30
#: pairs), -10.0%/-3.9% and -14.2%/-4.0% at 256 KiB (20 and 30 pairs),
#: -7.6%/-7.9% and +2.5%/-5.5% at 384 KiB, and -12.2%/-10.6% and
#: -9.6%/-9.2% at 512 KiB: a gain in every series from 512 KiB on.
_SET_UP_MIN_RANGE_BYTES = 256 * 1024


def _cpu_count() -> int:
    """The number of CPUs this process may run on: its CPU set, so that
    `taskset` and cpusets bound a split; 1 where that cannot be read."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _ranges(src: BinaryIO, processes: int, least: int) -> list[tuple[int, int | None]]:
    """The (start, size) byte ranges of ``src`` to run in processes of their
    own, each about ``least`` bytes or more: each starts at a line start,
    and the last runs to the end of the file (size None). One range unless
    the input can be split."""
    whole = [(0, None)]
    if processes < 2 or not _CAN_FORK or threading.active_count() > 1:
        return whole
    info = os.fstat(src.fileno())
    count = min(processes, info.st_size // least)
    if count < 2 or not stat.S_ISREG(info.st_mode):
        return whole
    starts = [0]
    for k in range(1, count):
        src.seek(k * info.st_size // count - 1)
        src.readline()  # up to the first line start at or after the even cut
        if starts[-1] < src.tell() < info.st_size:
            starts.append(src.tell())
    src.seek(0)
    return [(a, b - a) for a, b in zip(starts, starts[1:])] + [(starts[-1], None)]


def _groups(paths: Sequence[str], processes: int, least: int) -> list[tuple[str, ...]]:
    """The files ``paths``, in order, as contiguous groups to run in
    processes of their own: at most ``processes`` groups of at least
    ``least`` bytes each, the largest of them as small as it can be. One
    group unless the files can be split; a file that is not regular or
    not there is never opened."""
    whole = [tuple(paths)]
    if processes < 2 or len(paths) < 2 or not _CAN_FORK or threading.active_count() > 1:
        return whole
    try:
        infos = [os.stat(path) for path in paths]
    except OSError:  # the one part reads the files in order, and fails where this one does
        return whole
    if not all(stat.S_ISREG(info.st_mode) for info in infos):
        return whole
    ends = [0, *accumulate(info.st_size for info in infos)]
    best, largest = whole, ends[-1]
    for count in range(2, min(processes, len(paths)) + 1):
        for cuts in combinations(range(1, len(paths)), count - 1):
            bounds = list(zip((0, *cuts), (*cuts, len(paths))))
            sizes = [ends[b] - ends[a] for a, b in bounds]
            if min(sizes) >= least and max(sizes) < largest:
                best, largest = [tuple(paths[a:b]) for a, b in bounds], max(sizes)
    return best


def _split(
    source: str | os.PathLike | list,
    processes: int,
    least: int,
    work: Callable,
    agree: Callable[[list], bool] | None = None,
) -> tuple[list, bytes]:
    """(summaries of the parts in order, bytes they wrote) of a job over the
    byte ranges of the file at the path ``source``, or over groups of the
    whole files of the list ``source``, in up to ``processes`` processes of
    ``least`` bytes or more each. ``work`` is the job's range `Work` (for
    groups, ``work(group, dst)``); ``agree(summaries)``, where given, says
    whether the parts' summaries can be merged.

    Where the input does not split, the work runs once over all of it, the
    one part, in this process; a path that is not a regular file, a pipe
    say, is opened once, by the one part. Where the parts' work raised, or
    ``agree`` rejects their summaries, the one part runs in place of them
    (see the module's failure rule). An error of the one part propagates."""
    if isinstance(source, list):
        parts, whole = _groups(source, processes, least), tuple(source)
    else:
        work, whole = partial(_run_at, source, work), (0, None)
        parts = [whole]
        if os.path.isfile(source):  # a pipe is opened once, by the one part
            with open(source, "rb") as src:
                parts = _ranges(src, processes, least)
    if len(parts) > 1:
        dst = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
        try:
            summaries = _run_ranges(dst, parts, partial(_failed_as_none, work))
        except OSError:  # no temporary file or pipe for a child
            summaries = [None]
        if None not in summaries and (agree is None or agree(summaries)):
            return summaries, dst.detach().getvalue()
    return _one_part(work, whole)


def _failed_as_none(work: Callable[[object, TextIO], object], part: object, dst: TextIO) -> object:
    """The summary of ``work`` on ``part``, or None where it raises: the
    failure rule of `_split`, whose one part then reports the error. A
    child whose work raised so exits 0 and sends None, and its part is not
    run again on its own."""
    try:
        return work(part, dst)
    except Exception:  # whatever fails, fails the split
        return None


def _one_part(work: Callable[[object, TextIO], object], whole: object) -> tuple[list, bytes]:
    """([summary], bytes written) of ``work`` on ``whole``, the whole input
    as one part, run here. Reached with or without a split before it, it
    runs through the same calls, so an error's traceback is the same."""
    dst = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    summary = work(whole, dst)
    return [summary], dst.detach().getvalue()


def _run_ranges(dst: TextIO, parts: list, work: Callable[[object, TextIO], object]) -> list:
    """``work`` over ``parts`` into ``dst``; the summaries of the parts, in
    order. ``work(part, dst)`` writes a part's output and returns its
    summary, one JSON value; a child sends it as JSON text, so a tuple
    comes back from a child as a list. A child is forked for each part
    after the first, this process runs the first, then appends each
    child's output in order, or runs its part again here if the child
    failed or died. One part runs here alone. An exception of the work run
    here is raised once every child is stopped."""
    children = []  # (pid, summary pipe, output file) of the children not reaped
    try:
        for part in parts[1:]:
            children.append(_fork_range(part, work))
        summaries = [work(parts[0], dst)]
        for part in parts[1:]:
            pid, pipe, output = children[0]
            sent = _joined(pid, pipe)
            del children[0]
            with pipe, output:
                if sent is None:
                    summaries.append(work(part, dst))
                else:
                    import shutil  # it loads bz2 and lzma, so only a split imports it

                    dst.flush()
                    output.seek(0)
                    shutil.copyfileobj(output, dst.buffer)
                    summaries.append(json.loads(sent))
    finally:
        for pid, pipe, output in children:
            with pipe, output:
                if pid is not None:
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)
    return summaries


def _fork_range(
    part: object, work: Callable[[object, TextIO], object]
) -> tuple[int | None, BinaryIO, BinaryIO]:
    """(pid, summary pipe, output file) of a forked child that runs one
    part and sends its summary; the pid is None if fork failed."""
    import tempfile  # only a split needs it, so it stays out of start-up

    output = tempfile.TemporaryFile()
    try:
        reader, writer = os.pipe()
    except BaseException:
        output.close()
        raise
    try:
        pid = os.fork()
    except OSError:
        pid = None
    if pid == 0:  # the child, which never returns to the caller
        code = 1
        try:
            with open(output.fileno(), "w", encoding="utf-8", closefd=False) as dst:
                summary = work(part, dst)
            # ASCII, so that a string holding a lone surrogate reads back as it was
            sent = memoryview(json.dumps(summary).encode())
            while sent:  # a write to a pipe may take only part of it
                sent = sent[os.write(writer, sent):]
            code = 0
        finally:
            os._exit(code)
    os.close(writer)
    return pid, open(reader, "rb"), output


def _joined(pid: int | None, pipe: BinaryIO) -> bytes | None:
    """The summary a child sent, as JSON text, once it has exited 0; None
    if it failed, died or was never forked. The pipe is read to its end
    before the wait: a child whose summary does not fit in the pipe's
    buffer exits only once the rest is read."""
    if pid is None:
        return None
    sent = pipe.read()
    _, status = os.waitpid(pid, 0)
    return sent if os.waitstatus_to_exitcode(status) == 0 else None


def _run_at(
    path: str | os.PathLike, work: Work, part: tuple[int, int | None], dst: TextIO
) -> object:
    """``work`` over the byte range ``part``, (start, size), of the file at
    ``path``, its lines numbered as in the whole file: with ``path`` and
    ``work`` bound, the work `_run_ranges` runs on each range."""
    start, size = part
    with open(path, "rb") as src:
        lines, left = 0, start
        while left > 0 and (chunk := src.read(min(left, 1 << 20))):
            lines += chunk.count(b"\n")
            left -= len(chunk)
        return work(src, dst, 1 + lines, size)
