import os

import pytest

from morphfit.util import atomic_write


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
