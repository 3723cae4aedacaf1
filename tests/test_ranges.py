"""The range runner's summary channel: a range's summary, one JSON value,
comes back from a forked child whole, however large, and `_run_ranges`
returns the summaries in range order. And the whole files that `_groups`
puts together."""

import io
import signal
from functools import partial
from pathlib import Path

import pytest

from seqlab import ranges

pytestmark = pytest.mark.forks

#: lines of 40 KiB, so that the summary of a range of two or more lines
#: holds more than a pipe's 64 KiB buffer
LINES = [f"{k}:".encode() + b"x" * (40 * 1024) + b"\n" for k in range(8)]


def lines_work(src, dst, lineno, size):
    """Writes the number of its lines; its summary is [line number, line]
    for each line, well over 64 KiB."""
    lines = src.read(size).decode().splitlines()
    dst.write(f"{len(lines)}\n")
    return [[lineno + k, line] for k, line in enumerate(lines)]


@pytest.fixture
def deadline():
    """A deadlock fails the test within 60 s rather than hanging it."""

    def expired(signum, frame):
        raise TimeoutError("the range runner hung")

    previous = signal.signal(signal.SIGALRM, expired)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("processes", [2, 3])
def test_a_summary_larger_than_a_pipe_comes_back_whole(tmp_path, deadline, processes):
    path = tmp_path / "lines"
    path.write_bytes(b"".join(LINES))
    with open(path, "rb") as src:
        work = partial(ranges._run_at, path, lines_work)
        one = ranges._run_ranges(io.StringIO(), [(0, None)], work)
        cut = ranges._ranges(src, processes, 1024)
        assert len(cut) == processes
        with io.TextIOWrapper(io.BytesIO(), encoding="utf-8") as dst:
            summaries = ranges._run_ranges(dst, cut, work)
            dst.flush()
            written = dst.buffer.getvalue()
    assert min(len(str(summary)) for summary in summaries) > 64 * 1024
    assert sum(summaries, []) == one[0]
    assert one[0] == [[k + 1, line.decode().rstrip("\n")] for k, line in enumerate(LINES)]
    assert written == "".join(f"{len(summary)}\n" for summary in summaries).encode()


#: (file sizes, processes, the groups, by file index, that `_groups` makes
#: of files of those sizes with a least input of 256): the smallest largest
#: group, fewer groups on a tie, and no group under the least
GROUPS = [
    ((299, 70, 298), 2, [(0,), (1, 2)]),
    ((299, 70, 298), 3, [(0,), (1, 2)]),
    ((300, 300, 300), 3, [(0,), (1,), (2,)]),
    ((300, 300, 300), 2, [(0,), (1, 2)]),
    ((70, 298, 299), 2, [(0, 1), (2,)]),
    ((600, 10, 10), 3, [(0, 1, 2)]),
    ((300, 300, 300), 1, [(0, 1, 2)]),
]


@pytest.mark.parametrize("sizes, processes, expected", GROUPS)
def test_files_are_grouped_whole_with_the_smallest_largest_group(
    tmp_path, sizes, processes, expected
):
    paths = []
    for k, size in enumerate(sizes):
        paths.append(str(tmp_path / str(k)))
        (tmp_path / str(k)).write_bytes(b"x" * size)
    groups = ranges._groups(paths, processes, 256)
    assert groups == [tuple(paths[k] for k in group) for group in expected]


def test_a_file_that_is_not_regular_is_never_grouped(tmp_path):
    paths = [str(tmp_path / "a"), str(tmp_path), str(tmp_path / "c")]
    for path in paths[::2]:
        Path(path).write_bytes(b"x" * 300)
    assert ranges._groups(paths, 3, 1) == [tuple(paths)]
