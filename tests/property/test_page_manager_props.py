"""``PageManager`` against a reference allocator that scans for its answers.

The page manager hands out the lowest free id first (``allocate``) and
finds the lowest run of free ids for a chunk (``reserve_chunk``); every
exact count the suite pins depends on that order.  The reference below
answers the same questions the slow, obvious way — ``min()`` over the free
set, ``sorted()`` for runs — and a drawn sequence of allocations,
deallocations, frees, reservations, releases, recovery's ``force_state``
and restores of a checkpoint's snapshot must get the same answer from
both at every step.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import AllocationError, PageStateError
from repro.storage.disk import Disk
from repro.storage.page_manager import PageManager, PageState

IDS = st.integers(min_value=1, max_value=48)
OPS = st.lists(
    st.one_of(
        st.tuples(st.just("allocate")),
        st.tuples(st.just("allocate")),
        st.tuples(st.just("deallocate"), IDS),
        st.tuples(st.just("free"), IDS),
        st.tuples(
            st.just("reserve"),
            st.integers(1, 6),
            st.one_of(st.none(), st.integers(0, 48)),
        ),
        st.tuples(st.just("release"), st.lists(IDS, max_size=6)),
        st.tuples(st.just("force"), IDS, st.sampled_from(list(PageState))),
        st.tuples(st.just("checkpoint")),
        st.tuples(st.just("restore")),
    ),
    max_size=120,
)


class ScanningAllocator:
    """The reference: the page manager's rules, answered by scanning."""

    def __init__(self) -> None:
        self.states: dict[int, PageState] = {}
        self.free_ids: set[int] = set()
        self.next_new = 1

    def state(self, pid: int) -> PageState:
        return self.states.get(pid, PageState.FREE)

    def allocate(self) -> int:
        if self.free_ids:
            pid = min(self.free_ids)
            self.free_ids.discard(pid)
        else:
            pid = self.next_new
            self.next_new += 1
        self.states[pid] = PageState.ALLOCATED
        return pid

    def deallocate(self, pid: int) -> None:
        if self.state(pid) is not PageState.ALLOCATED:
            raise PageStateError(pid)
        self.states[pid] = PageState.DEALLOCATED

    def free(self, pid: int) -> None:
        if self.state(pid) is not PageState.DEALLOCATED:
            raise PageStateError(pid)
        self.states[pid] = PageState.FREE
        self.free_ids.add(pid)

    def reserve_chunk(self, size: int, after: int | None) -> int:
        start = None
        if after is not None and self._run_is_free(after + 1, size):
            start = after + 1
        if start is None:
            ordered = sorted(self.free_ids)
            for i in range(len(ordered) - size + 1):
                if ordered[i + size - 1] - ordered[i] == size - 1:
                    start = ordered[i]
                    break
        if start is None:
            start = self.next_new
        self.next_new = max(self.next_new, start + size)
        for pid in range(start, start + size):
            self.free_ids.discard(pid)
            self.states[pid] = PageState.ALLOCATED
        return start

    def _run_is_free(self, start: int, size: int) -> bool:
        if start < 1:
            return False
        return all(
            pid >= self.next_new or pid in self.free_ids
            for pid in range(start, start + size)
        )

    def release_unused(self, ids: list[int]) -> None:
        for pid in ids:
            if self.states.get(pid) is PageState.ALLOCATED:
                self.states[pid] = PageState.FREE
                self.free_ids.add(pid)

    def force_state(self, pid: int, state: PageState) -> None:
        self.states[pid] = state
        if state is PageState.FREE:
            self.free_ids.add(pid)
        else:
            self.free_ids.discard(pid)
        self.next_new = max(self.next_new, pid + 1)

    def snapshot(self) -> dict:
        return {
            "states": {pid: st.value for pid, st in self.states.items()},
            "next_new": self.next_new,
        }


def step(target, op, snapshot):
    """Run ``op`` on ``target``; its result, or the error type it raised."""
    kind = op[0]
    try:
        if kind == "allocate":
            return target.allocate()
        if kind == "deallocate":
            return target.deallocate(op[1])
        if kind == "free":
            return target.free(op[1])
        if kind == "reserve":
            return target.reserve_chunk(op[1], after=op[2])
        if kind == "release":
            return target.release_unused(op[1])
        if kind == "force":
            return target.force_state(op[1], op[2])
        # restore: back to the last snapshot, as recovery's analysis does.
        if isinstance(target, PageManager):
            return target.restore(snapshot)
        target.__init__()
        for pid, value in snapshot["states"].items():
            target.states[pid] = PageState(value)
            if target.states[pid] is PageState.FREE:
                target.free_ids.add(pid)
        target.next_new = snapshot["next_new"]
        return None
    except (PageStateError, AllocationError) as exc:
        return type(exc)


@given(ops=OPS)
@settings(max_examples=300, deadline=None, derandomize=True)
def test_the_page_manager_answers_as_the_scanning_reference(ops):
    pm = PageManager(Disk())
    ref = ScanningAllocator()
    snapshot = pm.snapshot()
    for op in ops:
        if op[0] == "checkpoint":
            snapshot = pm.snapshot()
            continue
        assert step(pm, op, snapshot) == step(ref, op, snapshot), op
        assert pm.snapshot() == ref.snapshot()
    # Drain both: every remaining free id comes back lowest first.
    for _ in range(len(ref.free_ids) + 2):
        assert pm.allocate() == ref.allocate()
