"""The Disk contract over the file backing, plus what only a file can do.

Every case of ``test_disk.py`` is collected here a second time, with
``make_disk`` overridden to build ``Disk(path=...)``.
"""

import functools

import pytest

from repro.stats.counters import Counters
from repro.storage.disk import Disk
from tests.storage import test_disk as contract
from tests.storage.test_disk import disk, image  # noqa: F401 - a fixture

# Eight cases keep the ids they had while this file was a second,
# hand-written copy of the contract (the test floor names them).
FORMER_NAMES = {
    "test_write_then_read_roundtrip": "test_write_read_roundtrip",
    "test_read_unwritten_page_raises": "test_read_unwritten_raises",
    "test_write_rejects_wrong_size": "test_wrong_size_rejected",
    "test_read_run_missing_pages_are_none": "test_read_run_with_holes",
    "test_write_many_coalesces_contiguous_runs": "test_write_many_coalesces",
    "test_exists_and_drop": "test_drop_invalidates",
    "test_page_ids_sorted": "test_page_ids",
    "test_durability_write_overwrites": "test_overwrite",
}
globals().update(
    (FORMER_NAMES.get(name, name), case)
    for name, case in vars(contract).items()
    if name.startswith("test_")
)


@pytest.fixture
def make_disk(tmp_path):
    return functools.partial(Disk, path=str(tmp_path / "pages.db"))


def test_persistence_across_instances(tmp_path):
    path = str(tmp_path / "p.db")
    first = Disk(path=path, counters=Counters())
    first.write(2, image(2, b"persisted"))
    first.close()
    first.close()  # idempotent
    second = Disk(path=path, counters=Counters())
    assert second.read(2) == image(2, b"persisted")
    assert not second.exists(1)
    assert second.page_ids() == [2]
    second.close()


def test_hole_inside_the_file_is_bad_magic_not_short(disk):
    """What the file store adds to the verdict: a full-length slot without
    the page magic is a hole, counted apart from reads past the end."""
    disk.write(3, image(3))
    assert disk.verdict(disk.read_physical(1)) == "magic"
    assert disk.read_run(1, 4) == [None, None, image(3), None]
    assert disk.counters.disk_read_bad_magic == 2
    assert disk.counters.disk_read_short == 1
