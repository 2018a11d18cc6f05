"""Shared helpers: text formats, atomic writes, ordered parallel map.

Floats are printed with 17 significant digits, which round-trips IEEE
doubles exactly. Writes go to a temporary file in the target directory and
are renamed into place, so interrupted runs never leave partial files.
"""

import os
import tempfile
from concurrent.futures import ThreadPoolExecutor


def fmt_float(x):
    return "%.17g" % float(x)


def fmt_row(values):
    return " ".join(fmt_float(v) for v in values)


def atomic_write(path, data):
    """Write bytes to path atomically; text callers encode first."""
    path = os.fspath(path)
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp_", suffix="~")
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


class TokenReader:
    """Whitespace token stream over a text file body, with counted reads."""

    def __init__(self, text):
        self._tokens = text.split()
        self._pos = 0

    def take(self, n=1):
        if self._pos + n > len(self._tokens):
            raise ValueError("unexpected end of file")
        out = self._tokens[self._pos:self._pos + n]
        self._pos += n
        return out

    def take_floats(self, n):
        return [float(t) for t in self.take(n)]

    def take_ints(self, n):
        return [int(t) for t in self.take(n)]

    def expect(self, token):
        got = self.take(1)[0]
        if got != token:
            raise ValueError("expected %r, found %r" % (token, got))

    def at_end(self):
        return self._pos == len(self._tokens)


def parallel_map(fn, items, jobs=1):
    """Map fn over items, preserving order. Results are identical for any
    job count; jobs only controls thread-level concurrency."""
    items = list(items)
    if jobs is None or jobs <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, items))
