"""The no-I/O-under-lock AST lint (tools/lint_no_io_under_lock.py).

The lint is the static-analysis form of the buffer pool's promise that
every physical disk call runs with the pool lock released.  These tests
pin its semantics: direct disk calls under a lock-ish ``with`` are
violations, the ``_io_unlocked`` escape hatch is honored, ``retrying``
is *not* an escape hatch, and the real storage tree is clean.
"""

import ast
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
STORAGE = REPO_ROOT / "src" / "repro" / "storage"
sys.path.insert(0, str(REPO_ROOT / "tools"))

from lint_no_io_under_lock import check_file, check_source  # noqa: E402


def violations(source: str) -> list[str]:
    return [message for _lineno, message in check_source(source)]


def test_disk_call_under_self_lock_is_flagged():
    src = (
        "class Pool:\n"
        "    def flush(self, pid, image):\n"
        "        with self._lock:\n"
        "            self.disk.write(pid, image)\n"
    )
    assert len(violations(src)) == 1


def test_disk_call_under_bare_name_shard_is_flagged():
    # A bare-name context manager in storage/ is taken for a lock scope;
    # the lint errs broad so a lock held by a local name cannot slip past.
    src = (
        "def f(self, shard, pid):\n"
        "    with shard:\n"
        "        return self.disk.read(pid)\n"
    )
    assert len(violations(src)) == 1


def test_deeply_nested_disk_call_is_flagged():
    src = (
        "def f(self, pids):\n"
        "    with self._cond:\n"
        "        for pid in pids:\n"
        "            if pid:\n"
        "                x = [self.disk.read(p) for p in pids]\n"
    )
    assert len(violations(src)) == 1


def test_io_unlocked_lambda_is_exempt():
    src = (
        "def f(self, shard, pid):\n"
        "    with shard:\n"
        "        return self._io_unlocked(shard, lambda: self.disk.read(pid))\n"
    )
    assert violations(src) == []


def test_retrying_lambda_is_not_exempt():
    # retrying() runs its callable on the current thread under whatever
    # locks are held — it must not launder a disk call.
    src = (
        "def f(self, pid, image):\n"
        "    with self._lock:\n"
        "        self.retrying(lambda: self.disk.write(pid, image))\n"
    )
    assert len(violations(src)) == 1


def test_disk_call_outside_any_with_is_clean():
    src = (
        "def f(self, pid):\n"
        "    image = self.disk.read(pid)\n"
        "    with self._lock:\n"
        "        return image\n"
    )
    assert violations(src) == []


def test_non_disk_call_under_lock_is_clean():
    src = (
        "def f(self, pid):\n"
        "    with self._lock:\n"
        "        return self.buffer.fetch(pid)\n"
    )
    assert violations(src) == []


def test_pool_flush_under_the_schedulers_condition_is_flagged():
    # The I/O scheduler's writers and readers share ``self._cv``: a flush
    # (or a read-ahead) issued under it holds every one of them up.
    src = (
        "def _writer_loop(self):\n"
        "    with self._cv:\n"
        "        number, ids = self._runs.popleft()\n"
        "        self.buffer.flush_pages(ids)\n"
        "        self.buffer.prefetch(ids[0])\n"
    )
    assert len(violations(src)) == 2


def test_pool_flush_after_the_condition_is_released_is_clean():
    src = (
        "def _writer_loop(self):\n"
        "    with self._cv:\n"
        "        number, ids = self._runs.popleft()\n"
        "    self.buffer.flush_pages(ids)\n"
    )
    assert violations(src) == []


def test_raw_device_call_under_a_store_lock_is_flagged():
    # What FileDisk did: the I/O threads of a pipelined rebuild took turns.
    src = (
        "class Slots:\n"
        "    def put(self, slots):\n"
        "        with self._lock:\n"
        "            for pid in sorted(slots):\n"
        "                os.pwrite(self._fd, slots[pid], self._offset(pid))\n"
        "            os.fsync(self._fd)\n"
        "    def get_run(self, start, count):\n"
        "        with self._lock:\n"
        "            return os.pread(self._fd, count, start)\n"
        "    def _service(self, calls):\n"
        "        with self._lock:\n"
        "            time.sleep(self.latency * calls)\n"
    )
    assert len(violations(src)) == 4


def test_raw_device_call_with_no_lock_held_is_clean():
    src = (
        "class Slots:\n"
        "    def put(self, slots):\n"
        "        with self._lock:\n"
        "            ids = sorted(slots)\n"
        "        for pid in ids:\n"
        "            os.pwrite(self._fd, slots[pid], self._offset(pid))\n"
        "        os.fsync(self._fd)\n"
        "        time.sleep(self.latency)\n"
    )
    assert violations(src) == []


def test_a_hand_taken_lock_holds_until_its_finally_releases_it():
    # The pool's inline probe: no ``with``, the lock is taken by hand.
    src = (
        "def fetch(self, pid):\n"
        "    mutex = self._mutex\n"
        "    if not mutex.acquire(False):\n"
        "        mutex.acquire()\n"
        "    try:\n"
        "        image = self.disk.read(pid)\n"
        "    finally:\n"
        "        mutex.release()\n"
        "    return self.disk.read(pid)\n"
    )
    assert violations(src) == [
        "disk call `self.disk.read(...)` with `mutex` held "
        "(taken by `mutex.acquire`)"
    ]


def test_a_hand_taken_lock_with_no_release_holds_to_the_end():
    src = (
        "def f(self, pid):\n"
        "    self._lock.acquire()\n"
        "    for p in pid:\n"
        "        os.pread(self._fd, 1, p)\n"
    )
    assert len(violations(src)) == 1


def test_io_unlocked_shape_opens_no_region():
    # Release, call, retake in ``finally``: the call runs unlocked.
    src = (
        "def _io_unlocked(self, fn):\n"
        "    self._lock.release()\n"
        "    try:\n"
        "        return self.disk.read(fn)\n"
        "    finally:\n"
        "        self._lock.acquire()\n"
    )
    assert violations(src) == []


def _planted_in_pool(method: str, block: type[ast.stmt]) -> list[str]:
    """The lint's messages for ``buffer.py`` with a device read planted at
    the top of ``BufferPool.<method>``'s first ``block`` (a ``with``, or
    the ``try`` a hand-taken lock is held through); the real file is
    clean."""
    source = (STORAGE / "buffer.py").read_text()
    tree = ast.parse(source)
    fn = next(
        fn for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef) and fn.name == method
    )
    locked = next(n for n in ast.walk(fn) if isinstance(n, block))
    locked.body.insert(0, ast.parse("self.disk.read(page_id)").body[0])
    assert violations(source) == []
    return violations(ast.unparse(tree))


HELD_BY_HAND = [
    "disk call `self.disk.read(...)` with `mutex` held "
    "(taken by `mutex.acquire`)"
]


def test_disk_call_under_the_pool_lock_is_flagged():
    """Whatever the pool's one lock is called, the lint sees it: the real
    ``BufferPool.fetch`` with a device read added at the top of its
    inline hit path, which holds the lock by hand, is flagged, and is
    clean without it."""
    assert _planted_in_pool("fetch", ast.Try) == HELD_BY_HAND


def test_disk_call_in_unpin_under_the_pool_lock_is_flagged():
    assert _planted_in_pool("unpin", ast.Try) == HELD_BY_HAND


def test_disk_call_in_a_fetch_miss_under_the_pool_lock_is_flagged():
    """The one miss path (demand page, demand run, read-ahead) with a
    device read added where it claims the run-mates under the lock."""
    assert _planted_in_pool("_miss", ast.With) == [
        "disk call `self.disk.read(...)` inside a lock-holding `with` block"
    ]


def test_storage_tree_is_clean():
    failures = []
    for path in sorted(STORAGE.rglob("*.py")):
        failures.extend(check_file(path))
    assert failures == []
