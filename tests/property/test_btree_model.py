"""Property-based tests: the B+-tree against a model (sorted set) under
random operation sequences, with the structural verifier as the oracle."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Engine
from repro.errors import DuplicateKeyError, KeyNotFoundError
from tests.conftest import intkey

# Operations: (op, key ordinal).  A small key universe maximizes collisions
# (duplicates, deletes of absent keys, immediate re-inserts).
ops_strategy = st.lists(
    st.tuples(
        st.sampled_from(["insert", "delete", "lookup"]),
        st.integers(min_value=0, max_value=400),
    ),
    max_size=250,
)


def apply_ops(index, ops):
    model: set[int] = set()
    for op, k in ops:
        key = intkey(k)
        if op == "insert":
            if k in model:
                with pytest.raises(DuplicateKeyError):
                    index.insert(key, k)
            else:
                index.insert(key, k)
                model.add(k)
        elif op == "delete":
            if k in model:
                index.delete(key, k)
                model.discard(k)
            else:
                with pytest.raises(KeyNotFoundError):
                    index.delete(key, k)
        else:
            assert index.contains(key, k) == (k in model)
    return model


@given(ops=ops_strategy)
@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_tree_matches_model(ops):
    engine = Engine(buffer_capacity=512)
    index = engine.create_index(key_len=4)
    model = apply_ops(index, ops)
    got = {int.from_bytes(k, "big") for k, _ in index.contents()}
    assert got == model
    stats = index.verify()
    assert stats.rows == len(model)


@given(ops=ops_strategy, seed=st.integers(0, 2**16))
@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_rebuild_after_random_ops_preserves_everything(ops, seed):
    from repro import OnlineRebuild, RebuildConfig

    engine = Engine(buffer_capacity=512)
    index = engine.create_index(key_len=4)
    apply_ops(index, ops)
    before = index.contents()
    OnlineRebuild(
        index, RebuildConfig(ntasize=4, xactsize=8)
    ).run()
    assert index.contents() == before
    index.verify()


@given(ops=ops_strategy)
@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_crash_recovery_after_random_ops(ops):
    engine = Engine(buffer_capacity=512)
    index = engine.create_index(key_len=4)
    model = apply_ops(index, ops)
    engine.crash()
    engine.recover()
    index = engine.index(1)
    got = {int.from_bytes(k, "big") for k, _ in index.contents()}
    assert got == model
    index.verify()
