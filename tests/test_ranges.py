"""The range runner's summary channel: a range's summary, one JSON value,
comes back from a forked child whole, however large, and `_run_ranges`
returns the summaries in range order."""

import io
import signal

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
        one = ranges._run_ranges(path, src, io.StringIO(), [(0, None)], lines_work)
        cut = ranges._ranges(src, processes, 1024)
        assert len(cut) == processes
        with io.TextIOWrapper(io.BytesIO(), encoding="utf-8") as dst:
            summaries = ranges._run_ranges(path, src, dst, cut, lines_work)
            dst.flush()
            written = dst.buffer.getvalue()
    assert min(len(str(summary)) for summary in summaries) > 64 * 1024
    assert sum(summaries, []) == one[0]
    assert one[0] == [[k + 1, line.decode().rstrip("\n")] for k, line in enumerate(LINES)]
    assert written == "".join(f"{len(summary)}\n" for summary in summaries).encode()
