"""Index builders for the paper's experimental conditions.

Table 1 runs against an index at "about 50% space utilization" (§6.4);
the clustering experiment (§6.1) additionally wants the index
*declustered* — leaf pages scattered over disk relative to key order.

Three builders cover the space:

* :func:`bulk_load` — bottom-up load at an exact fill fraction through the
  contiguous chunk allocator.  Fast and precise: ``fill=0.5`` reproduces
  the Table 1 precondition directly.
* :func:`build_by_inserts` — drive the real insert path (splits and all),
  in ascending or shuffled key order.  Shuffled order both fragments page
  placement (allocations interleave across the key space — the
  declustered condition) and exercises every split path.
* :func:`thin_out` — delete a fraction of keys through the real delete
  path (shrinks included), lowering utilization after either builder.
"""

from __future__ import annotations

import random

from repro.btree import keys as K
from repro.btree.tree import BTree
from repro.core.config import RebuildConfig
from repro.core.offline import _build_leaves, _build_nonleaf_level, _install_root
from repro.engine import Engine
from repro.errors import ReproError
from repro.storage.page import NO_PAGE
from repro.storage.page_manager import ChunkAllocator


def bulk_load(
    engine: Engine,
    keys: list[bytes],
    key_len: int,
    fill: float = 0.5,
    index_id: int | None = None,
) -> BTree:
    """Create an index and bottom-up load ``keys`` at fill fraction ``fill``.

    Keys must be unique; rowid ``i`` is assigned to the i-th key in sorted
    order.  Pages come from contiguous chunks, so the loaded index is
    clustered; combine with :func:`build_by_inserts` when the declustered
    §6.1 precondition is wanted.
    """
    tree = engine.create_index(key_len=key_len, index_id=index_id)
    ordered = sorted(keys)
    if len(set(ordered)) != len(ordered):
        raise ReproError("bulk_load requires unique keys")
    units = [
        K.leaf_unit(key, rowid, key_len) for rowid, key in enumerate(ordered)
    ]
    if not units:
        return tree
    ctx = tree.ctx
    txn = ctx.txns.begin()
    config = RebuildConfig(fillfactor=max(0.05, min(fill, 1.0)))
    chunk = ChunkAllocator(ctx.page_manager)
    try:
        level_pages = _build_leaves(ctx, tree, txn, config, chunk, units)
        level = 1
        while len(level_pages) > 1:
            level_pages = _build_nonleaf_level(
                ctx, tree, txn, chunk, level_pages, level
            )
            level += 1
        top_id = level_pages[0][0] if level_pages else NO_PAGE
        _install_root(ctx, tree, txn, top_id)
        ctx.txns.commit(txn)
    except BaseException:
        ctx.latches.release_all()
        ctx.txns.abort(txn)
        raise
    finally:
        chunk.close()
    engine.checkpoint()
    return tree


def build_by_inserts(
    engine: Engine,
    keys: list[bytes],
    key_len: int,
    shuffled: bool = True,
    seed: int = 0,
    index_id: int | None = None,
) -> BTree:
    """Create an index through the real insert path.

    ``shuffled=True`` inserts in random order — page allocations then
    interleave across the key space, producing the *declustered* layout of
    §6.1 (consecutive leaves land on distant disk addresses).
    """
    tree = engine.create_index(key_len=key_len, index_id=index_id)
    order = list(range(len(keys)))
    if shuffled:
        random.Random(seed).shuffle(order)
    for i in order:
        tree.insert(keys[i], i)
    return tree


def thin_out(
    tree: BTree,
    keys: list[bytes],
    keep_one_in: int = 2,
    seed: int | None = None,
) -> list[bytes]:
    """Delete all but every ``keep_one_in``-th key; returns surviving keys.

    Rowids must have been assigned by :func:`build_by_inserts` (ordinal
    order).  With ``seed`` the victims are chosen randomly instead of by
    stride, which fragments pages more unevenly.
    """
    survivors: list[bytes] = []
    if seed is None:
        victims = {
            i for i in range(len(keys)) if i % keep_one_in != 0
        }
    else:
        rnd = random.Random(seed)
        victim_count = len(keys) - len(keys) // keep_one_in
        victims = set(rnd.sample(range(len(keys)), victim_count))
    for i, key in enumerate(keys):
        if i in victims:
            tree.delete(key, i)
        else:
            survivors.append(key)
    return survivors


def declustering_metric(tree: BTree) -> float:
    """Mean absolute page-id jump between consecutive leaves (§6.1).

    1.0 means perfectly clustered (each leaf directly follows the previous
    one on disk); larger values mean range scans seek farther.
    """
    stats = tree.verify()
    ids = stats.leaf_page_ids
    if len(ids) < 2:
        return 1.0
    jumps = [abs(b - a) for a, b in zip(ids, ids[1:])]
    return sum(jumps) / len(jumps)
