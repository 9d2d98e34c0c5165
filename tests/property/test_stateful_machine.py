"""A hypothesis rule-based state machine driving the whole engine:
inserts, deletes, scans, rebuild slices, checkpoints, crashes — with a
plain dict as the model and the structural verifier as the invariant."""

from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)
from hypothesis import strategies as st

from repro import Engine, OnlineRebuild, RebuildConfig
from repro.errors import DuplicateKeyError, KeyNotFoundError
from tests.conftest import intkey

KEYS = st.integers(min_value=0, max_value=250)


class EngineMachine(RuleBasedStateMachine):
    @initialize()
    def setup(self) -> None:
        self.engine = Engine(buffer_capacity=256)
        self.index = self.engine.create_index(key_len=4)
        self.model: dict[int, bytes] = {}
        self.ops_since_verify = 0

    # ------------------------------------------------------------- mutations

    @rule(k=KEYS, payload=st.binary(max_size=30))
    def insert(self, k: int, payload: bytes) -> None:
        if k in self.model:
            try:
                self.index.insert(intkey(k), k, payload=payload)
                raise AssertionError("duplicate accepted")
            except DuplicateKeyError:
                pass
        else:
            self.index.insert(intkey(k), k, payload=payload)
            self.model[k] = payload

    @rule(k=KEYS)
    def delete(self, k: int) -> None:
        if k in self.model:
            self.index.delete(intkey(k), k)
            del self.model[k]
        else:
            try:
                self.index.delete(intkey(k), k)
                raise AssertionError("phantom delete succeeded")
            except KeyNotFoundError:
                pass

    # ----------------------------------------------------------- maintenance

    @rule(nta=st.sampled_from([1, 2, 4]))
    def rebuild(self, nta: int) -> None:
        OnlineRebuild(
            self.index,
            RebuildConfig(ntasize=nta, xactsize=nta * 2),
        ).run()

    @rule()
    def rebuild_slice(self) -> None:
        OnlineRebuild(
            self.index, RebuildConfig(ntasize=2, xactsize=2)
        ).run(max_pages=2)

    @rule(truncate=st.booleans())
    def checkpoint(self, truncate: bool) -> None:
        self.engine.checkpoint(truncate=truncate)

    @rule()
    def crash_and_recover(self) -> None:
        self.engine.crash()
        self.engine.recover()
        self.index = self.engine.index(1)

    # -------------------------------------------------------------- queries

    @rule(k=KEYS)
    def point_read(self, k: int) -> None:
        got = self.index.get(intkey(k), k)
        assert got == self.model.get(k)

    @rule(lo=KEYS, hi=KEYS)
    def range_read(self, lo: int, hi: int) -> None:
        lo, hi = min(lo, hi), max(lo, hi)
        got = [
            int.from_bytes(key, "big")
            for key, _ in self.index.scan(intkey(lo), intkey(hi))
        ]
        assert got == sorted(k for k in self.model if lo <= k <= hi)

    # ------------------------------------------------------------ invariants

    @invariant()
    def contents_match_model(self) -> None:
        # A full structural verify every step would dominate runtime; the
        # cheap content check runs always, verify() every few operations.
        self.ops_since_verify += 1
        if self.ops_since_verify >= 10:
            self.ops_since_verify = 0
            stats = self.index.verify()
            assert stats.rows == len(self.model)


EngineMachine.TestCase.settings = settings(
    max_examples=12, stateful_step_count=40, deadline=None
)
TestEngineMachine = EngineMachine.TestCase
