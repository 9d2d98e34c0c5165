"""Executable reproduction of the paper's Figure 2 (multipage rebuild top
action with the §5.5 level-1 reorganization).

The figure's scenario, with our key values (the structure, not the digits,
is what the paper illustrates):

* five rows fit into a leaf page;
* leaf chain: PP=(07,09) — already-rebuilt, 3 slots free — then the three
  pages being rebuilt P1=(10,11), P2=(15,20,21), P3=(25,26), then
  NP=(30,35);
* P1, P2, P3 all have the same level-1 parent **P**; PP's parent is **L**
  (P's left sibling); NP's parent is **Q**; the level-2 root points at
  L, P, Q.

Expected outcome, straight from the figure's caption:

* all of P1's rows and some of P2's rows move to PP; the remaining rows
  of P2 and all of P3's rows move to the single new page N1;
* P1 passes DELETE (it caused no allocations), P2 passes UPDATE with the
  entry for N1, P3 passes DELETE (§5.2);
* at level 1 the entries for P1, P2, P3 are all deleted; the one insert
  is performed on the left sibling L instead of P (§5.5), so P becomes
  empty and passes DELETE without its deletes being performed (§5.3.1);
* at level 2 the entry for P is deleted and the top action completes.
"""

import pytest

from repro import Engine, RebuildConfig
from repro.btree import keys as KEYS
from repro.btree import node
from repro.btree.top_action import TopAction
from repro.btree.traversal import Traversal
from repro.btree.tree import BTree
from repro.core.copy_phase import copy_multipage
from repro.core.propagation import PropOp, PropagationState, run_propagation
from repro.core.rebuild import OnlineRebuild, RebuildReport
from repro.storage.page import NO_PAGE, PageType
from repro.storage.page_manager import ChunkAllocator, PageState

PAGE_SIZE = 100  # 40-byte header + five 10-byte units with 2-byte slots


def unit(k: int) -> bytes:
    return KEYS.leaf_unit(k.to_bytes(4, "big"), k, 4)


def sep_for(left: int, right: int) -> bytes:
    return KEYS.separator(unit(left), unit(right))


@pytest.fixture
def figure2():
    """Hand-build the figure's exact tree and return its parts."""
    engine = Engine(page_size=PAGE_SIZE, buffer_capacity=64)
    ctx = engine.ctx

    def fresh_page(page_type, level, rows, prev=NO_PAGE, next=NO_PAGE):
        pid = ctx.page_manager.allocate()
        page = ctx.buffer.new_page(pid)
        page.page_type = page_type
        page.level = level
        page.index_id = 1
        page.prev_page = prev
        page.next_page = next
        for row in rows:
            page.append_row(row)
        ctx.buffer.unpin(pid, dirty=True)
        return pid

    leaves = {
        "PP": [7, 9],
        "P1": [10, 11],
        "P2": [15, 20, 21],
        "P3": [25, 26],
        "NP": [30, 35],
    }
    ids: dict[str, int] = {}
    order = ["PP", "P1", "P2", "P3", "NP"]
    for name in order:
        ids[name] = fresh_page(
            PageType.LEAF, 0, [unit(k) for k in leaves[name]]
        )
    # Chain links.
    for i, name in enumerate(order):
        page = ctx.buffer.fetch(ids[name])
        page.prev_page = ids[order[i - 1]] if i > 0 else NO_PAGE
        page.next_page = ids[order[i + 1]] if i + 1 < len(order) else NO_PAGE
        ctx.buffer.unpin(ids[name], dirty=True)

    ids["L"] = fresh_page(
        PageType.NONLEAF, 1, [node.encode_entry(b"", ids["PP"])]
    )
    ids["P"] = fresh_page(
        PageType.NONLEAF, 1,
        [
            node.encode_entry(b"", ids["P1"]),
            node.encode_entry(sep_for(11, 15), ids["P2"]),
            node.encode_entry(sep_for(21, 25), ids["P3"]),
        ],
    )
    ids["Q"] = fresh_page(
        PageType.NONLEAF, 1, [node.encode_entry(b"", ids["NP"])]
    )
    root = fresh_page(
        PageType.NONLEAF, 2,
        [
            node.encode_entry(b"", ids["L"]),
            node.encode_entry(sep_for(9, 10), ids["P"]),
            node.encode_entry(sep_for(26, 30), ids["Q"]),
        ],
    )
    ids["root"] = root

    tree = BTree(ctx, index_id=1, key_len=4, root_page_id=root)
    engine.indexes[1] = tree
    ctx.index_roots[1] = root
    engine.checkpoint()
    tree.verify()
    return engine, tree, ids


def run_top_action(engine, tree, ids):
    """One multipage rebuild top action over P1, P2, P3 (ntasize=3)."""
    ctx = engine.ctx
    config = RebuildConfig(ntasize=3, xactsize=3)
    chunk = ChunkAllocator(ctx.page_manager, 4)
    txn = ctx.txns.begin()
    with TopAction(ctx, txn, scan=True) as top:
        result = copy_multipage(top, tree, config, chunk, ids["P1"])
        state = PropagationState(
            pp_page=result.pp_page, pp_low_unit=result.pp_low_unit
        )
        run_propagation(
            top, tree, result.prop_entries, Traversal(ctx, tree), config,
            state,
        )
    ctx.buffer.flush_pages(top.new_pages)
    ctx.txns.commit(txn)
    rb = OnlineRebuild(tree, config)
    rb._free(txn, top.deallocated)
    chunk.close()
    return result


def test_copy_phase_fills_pp_and_one_new_page(figure2):
    engine, tree, ids = figure2
    result = run_top_action(engine, tree, ids)
    # PP absorbed P1 fully plus the head of P2 (five rows fit).
    pp = engine.ctx.buffer.fetch(ids["PP"])
    assert [KEYS.split_unit(u)[1] for u in pp.rows] == [7, 9, 10, 11, 15]
    engine.ctx.buffer.unpin(ids["PP"])
    # Exactly one new page, holding the rest of P2 and all of P3.
    assert len(result.new_pages) == 1
    n1 = engine.ctx.buffer.fetch(result.new_pages[0])
    assert [KEYS.split_unit(u)[1] for u in n1.rows] == [20, 21, 25, 26]
    engine.ctx.buffer.unpin(result.new_pages[0])


def test_propagation_entries_match_figure(figure2):
    engine, tree, ids = figure2
    ctx = engine.ctx
    config = RebuildConfig(ntasize=3, xactsize=3)
    chunk = ChunkAllocator(ctx.page_manager, 4)
    txn = ctx.txns.begin()
    top = TopAction(ctx, txn, scan=True)
    result = copy_multipage(top, tree, config, chunk, ids["P1"])
    ops = [(e.op, e.origin) for e in result.prop_entries]
    n1 = result.new_pages[0]
    # Figure 2: P1 -> DELETE, P2 -> UPDATE [K, N1], P3 -> DELETE.
    assert ops == [
        (PropOp.DELETE, ids["P1"]),
        (PropOp.UPDATE, ids["P2"]),
        (PropOp.DELETE, ids["P3"]),
    ]
    update = result.prop_entries[1]
    assert update.new_child == n1
    # The UPDATE's separator routes exactly between PP's new tail (15) and
    # N1's first key (20).
    assert unit(15) < update.new_key <= unit(20)
    # Roll the half-open top action back; this test only inspected the
    # copy phase's outputs.
    top.abort()
    ctx.txns.abort(txn)
    chunk.close()


def test_level1_insert_redirected_to_left_sibling(figure2):
    engine, tree, ids = figure2
    result = run_top_action(engine, tree, ids)
    n1 = result.new_pages[0]
    # L now holds PP's entry followed by N1's entry (§5.5).
    left = engine.ctx.buffer.fetch(ids["L"])
    assert node.child_ids(left) == [ids["PP"], n1]
    engine.ctx.buffer.unpin(ids["L"])


def test_page_p_shrunk_without_performing_deletes(figure2):
    engine, tree, ids = figure2
    run_top_action(engine, tree, ids)
    # §5.3.1: P was deallocated directly (and freed at commit).
    assert engine.ctx.page_manager.state(ids["P"]) is PageState.FREE


def test_level2_entry_for_p_deleted(figure2):
    engine, tree, ids = figure2
    run_top_action(engine, tree, ids)
    root = engine.ctx.buffer.fetch(ids["root"])
    assert node.child_ids(root) == [ids["L"], ids["Q"]]
    engine.ctx.buffer.unpin(ids["root"])


def test_old_leaves_freed_and_chain_rewired(figure2):
    engine, tree, ids = figure2
    result = run_top_action(engine, tree, ids)
    for name in ("P1", "P2", "P3"):
        assert engine.ctx.page_manager.state(ids[name]) is PageState.FREE
    n1 = result.new_pages[0]
    pp = engine.ctx.buffer.fetch(ids["PP"])
    assert pp.next_page == n1
    engine.ctx.buffer.unpin(ids["PP"])
    np_page = engine.ctx.buffer.fetch(ids["NP"])
    assert np_page.prev_page == n1
    engine.ctx.buffer.unpin(ids["NP"])


def test_tree_valid_and_contents_preserved(figure2):
    engine, tree, ids = figure2
    before = tree.contents()
    run_top_action(engine, tree, ids)
    assert tree.contents() == before
    tree.verify()
