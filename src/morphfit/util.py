"""Shared helpers: text formats, atomic writes, ordered parallel map and
the one batch over samples, which drops and names the samples that fail.

Floats are printed with 17 significant digits, which round-trips IEEE
doubles exactly. Writes go to a temporary file in the target directory and
are renamed into place, so interrupted runs never leave partial files.
"""

import math
import os
from concurrent.futures import ThreadPoolExecutor
from itertools import compress

import numpy as np


def fmt_float(x):
    return "%.17g" % float(x)


def fmt_values(values, sep=" "):
    """values joined by sep, each by the one rule of every CSV and field file:
    a float (numpy's float64 is one) through fmt_float, else str. A
    numpy array is read through tolist(), which gives Python floats and ints."""
    values = values.tolist() if isinstance(values, np.ndarray) else values
    return sep.join([fmt_float(v) if isinstance(v, float) else str(v) for v in values])


def atomic_write(path, data):
    """Write bytes to path atomically, with open()'s mode: 0o666 less the umask."""
    path = os.fspath(path)
    d = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(d, ".tmp_%s~" % os.urandom(8).hex())
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv(path, header, rows):
    """Write a CSV atomically: the header names, then one line per row, through fmt_values."""
    atomic_write(path, "".join(fmt_values(ln, ",") + "\n" for ln in [header, *rows]).encode())


def write_fields(path, magic, fields):
    """Write atomically the fields TokenReader reads: `MAGIC 1`, then per (label,
    values) field the line `label v1 v2 ...`, or for a label ending in `:` the
    label alone and one line per row of values."""
    lines = [magic + " 1"]
    for label, values in fields:
        colon = label.endswith(":")
        lines += [label, *map(fmt_values, values)] if colon else [label + " " + fmt_values(values)]
    atomic_write(path, ("\n".join(lines) + "\n").encode())


def read_ascii(path):
    """Text of an ASCII file, cut at the line of its first non-ASCII byte,
    and a description of that byte (None if every byte is ASCII)."""
    with open(path, "rb") as f:
        data = f.read()
    try:
        return data.decode("ascii"), None
    except UnicodeDecodeError as e:
        cut = data.rfind(b"\n", 0, e.start) + 1
        return data[:cut].decode("ascii"), "line %d: non-ASCII byte 0x%02x" % (
            data.count(b"\n", 0, cut) + 1, data[e.start])


def ascii_lines(path):
    """(line number, stripped text) of each non-blank line of an ASCII file;
    a non-ASCII byte is a ValueError naming the file and its line."""
    text, bad = read_ascii(path)
    if bad:
        raise ValueError("%s: %s" % (path, bad))
    return [(n, ln.strip()) for n, ln in enumerate(text.splitlines(), 1) if ln.strip()]


class TokenReader:
    """Labelled fields of a whitespace-separated ASCII file headed `MAGIC 1`.

    Every error is a ValueError "<path>: <field>: <problem>", where field is
    the label being read. A non-ASCII byte ends the file at its line, so the
    read that needs that line names it.
    """

    def __init__(self, path, magic):
        self.path, self.field = os.fspath(path), "header"
        text, self._end = read_ascii(path)
        self._tokens, self._pos = text.split(), 0
        if self.take(None, 2) != [magic, "1"]:
            raise self.error("not a %s1 file" % magic)

    def error(self, problem):
        return ValueError("%s: %s: %s" % (self.path, self.field, problem))

    def take(self, label, n):
        """The n tokens after `label`; label None continues the current field."""
        if label is not None:
            self.field = label.rstrip(":")
            got = self.take(None, 1)[0]
            if got != label:
                raise self.error("expected %r, found %r" % (label, got))
        if self._pos + n > len(self._tokens):
            raise self.error(self._end or "unexpected end of file")
        self._pos += n
        return self._tokens[self._pos - n:self._pos]

    def array(self, label, dtype, *shape):
        tokens = self.take(label, math.prod(shape))
        try:
            return np.array(tokens, dtype=dtype).reshape(shape)
        except (ValueError, OverflowError) as e:
            raise self.error(e) from None

    def value(self, label, kind):
        """The token after `label` parsed by Python's int or float: an int of any size."""
        token = self.take(label, 1)[0]
        try:
            return kind(token)
        except ValueError as e:
            raise self.error(e) from None

    def count(self, label):
        n = self.value(label, int)
        if n < 0:
            raise self.error("negative count %d" % n)
        return n

    def make(self, field, cls, **kwargs):
        """cls(**kwargs), its ValueError re-raised naming the file and field."""
        self.field = field
        try:
            return cls(**kwargs)
        except ValueError as e:
            raise self.error(e) from None

    def finish(self):
        self.field = "end"
        if self._pos != len(self._tokens) or self._end:
            raise self.error(self._end or "trailing data from %r" % self._tokens[self._pos])


def parallel_map(fn, items, jobs=1):
    """Map fn over items, preserving order. Results are identical for any
    job count; jobs (at least 1) only controls thread-level concurrency."""
    if jobs < 1:
        raise ValueError("jobs must be at least 1, got %r" % (jobs,))
    items = list(items)
    if jobs == 1 or len(items) <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, items))


def map_samples(fn, samples, jobs, log, task, errors):
    """fn(i, samples[i]) over a batch in sample order at any `jobs`; returns
    the kept results and the keep mask. A call raising `errors` drops its
    sample: one WARNING on `log`, in sample order, `dropping sample <id>, failed
    to <task>: <reason>`. Other exceptions propagate. No sample is ValueError
    "no samples to <task>"; none kept, RuntimeError "every sample failed to <task>"."""
    samples = list(samples)
    if not samples:
        raise ValueError("no samples to %s" % task)

    def one(i):
        try:
            return True, fn(i, samples[i])
        except errors as e:
            return False, e

    ok, results = zip(*parallel_map(one, range(len(samples)), jobs))
    keep = np.array(ok)
    for i in np.flatnonzero(~keep):
        log.warning("dropping sample %s, failed to %s: %s", samples[i].id, task, results[i])
    if not keep.any():
        raise RuntimeError("every sample failed to %s" % task)
    return list(compress(results, keep)), keep
