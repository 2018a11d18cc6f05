import logging
import os
from types import SimpleNamespace

import pytest

from morphfit.util import atomic_write, map_samples


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)], ids=["022", "077"])
def test_atomic_write_honours_the_umask(tmp_path, umask, mode):
    # the file gets the mode open() gives, not the 0o600 of a private temporary
    old = os.umask(umask)
    try:
        atomic_write(tmp_path / "out.txt", b"data\n")
    finally:
        os.umask(old)
    assert (tmp_path / "out.txt").read_bytes() == b"data\n"
    assert (tmp_path / "out.txt").stat().st_mode & 0o777 == mode


def test_atomic_write_failure_leaves_no_temporary(tmp_path):
    (tmp_path / "target").mkdir()  # a file cannot replace a directory
    with pytest.raises(OSError):
        atomic_write(tmp_path / "target", b"data\n")
    assert os.listdir(tmp_path) == ["target"]
    assert os.listdir(tmp_path / "target") == []


class Failed(RuntimeError):
    pass


@pytest.mark.parametrize("jobs", [1, 3])
def test_map_samples_drops_its_declared_failures_in_sample_order(jobs, caplog):
    samples = [SimpleNamespace(id="s%d" % i) for i in range(7)]

    def fn(i, sample):
        if i in (1, 4):
            raise Failed("odd %s" % sample.id)
        return i * i

    with caplog.at_level(logging.WARNING, logger="morphfit.test"):
        kept, keep = map_samples(fn, samples, jobs, logging.getLogger("morphfit.test"),
                                 "square", Failed)
    assert kept == [0, 4, 9, 25, 36]
    assert keep.tolist() == [True, False, True, True, False, True, True]
    assert [(r.levelname, r.getMessage()) for r in caplog.records] == [
        ("WARNING", "dropping sample s1, failed to square: odd s1"),
        ("WARNING", "dropping sample s4, failed to square: odd s4")]


@pytest.mark.parametrize("jobs", [1, 3])
def test_map_samples_empty_failed_and_undeclared_errors(jobs, caplog):
    log = logging.getLogger("morphfit.test")
    samples = [SimpleNamespace(id="s%d" % i) for i in range(5)]

    def fail(i, sample):
        raise Failed("no")

    def other(i, sample):
        if i == 3:
            raise KeyError(sample.id)
        raise Failed("no")

    with pytest.raises(ValueError, match="^no samples to square$"):
        map_samples(fail, [], jobs, log, "square", Failed)
    with caplog.at_level(logging.WARNING, logger="morphfit.test"):
        with pytest.raises(RuntimeError, match="^every sample failed to square$"):
            map_samples(fail, samples, jobs, log, "square", Failed)
        assert len(caplog.records) == 5
        caplog.clear()
        # an exception that is not the declared failure stops the batch, and nothing is dropped
        with pytest.raises(KeyError, match="s3"):
            map_samples(other, samples, jobs, log, "square", Failed)
    assert not caplog.records
