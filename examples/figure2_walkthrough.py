#!/usr/bin/env python3
"""A narrated, executable walk through the paper's Figure 2.

Figure 2 illustrates one multipage rebuild top action end to end: the
copy phase over leaves P1, P2, P3, the §5.2 propagation entries they
pass, the §5.5 insert-redirect into the left sibling L, the §5.3.1 shrink
of the now-empty parent P, and the final delete at level 2.

This script hand-builds the figure's tree (tiny 100-byte pages so five
rows fill a leaf), runs exactly one top action through the real engine
machinery, and prints each step next to the paper's caption text.

Run:  python examples/figure2_walkthrough.py
"""

from repro import Engine, RebuildConfig
from repro.btree import keys as K
from repro.btree import node
from repro.btree.top_action import TopAction
from repro.btree.traversal import Traversal
from repro.btree.tree import BTree
from repro.btree.verify import collect_contents
from repro.core.copy_phase import copy_multipage
from repro.core.propagation import PropagationState, run_propagation
from repro.core.rebuild import OnlineRebuild
from repro.storage.page import NO_PAGE, PageType
from repro.storage.page_manager import ChunkAllocator, PageState

PAGE_SIZE = 100  # 40-byte header + five 10-byte leaf units with 2-byte slots


def unit(k: int) -> bytes:
    return K.leaf_unit(k.to_bytes(4, "big"), k, 4)


def keys_of(engine, pid) -> list[int]:
    page = engine.ctx.buffer.fetch(pid)
    out = [K.split_unit(u)[1] for u in page.rows]
    engine.ctx.buffer.unpin(pid)
    return out


def build_figure2():
    engine = Engine(page_size=PAGE_SIZE, buffer_capacity=64)
    ctx = engine.ctx

    def page(page_type, level, rows):
        pid = ctx.page_manager.allocate()
        image = ctx.buffer.new_page(pid)
        image.page_type = page_type
        image.level = level
        image.index_id = 1
        for row in rows:
            image.append_row(row)
        ctx.buffer.unpin(pid, dirty=True)
        return pid

    leaves = {
        "PP": [7, 9], "P1": [10, 11], "P2": [15, 20, 21],
        "P3": [25, 26], "NP": [30, 35],
    }
    order = ["PP", "P1", "P2", "P3", "NP"]
    ids = {
        name: page(PageType.LEAF, 0, [unit(k) for k in leaves[name]])
        for name in order
    }
    for i, name in enumerate(order):
        image = ctx.buffer.fetch(ids[name])
        image.prev_page = ids[order[i - 1]] if i else NO_PAGE
        image.next_page = ids[order[i + 1]] if i + 1 < len(order) else NO_PAGE
        ctx.buffer.unpin(ids[name], dirty=True)

    sep = lambda a, b: K.separator(unit(a), unit(b))  # noqa: E731
    ids["L"] = page(PageType.NONLEAF, 1, [node.encode_entry(b"", ids["PP"])])
    ids["P"] = page(
        PageType.NONLEAF, 1,
        [
            node.encode_entry(b"", ids["P1"]),
            node.encode_entry(sep(11, 15), ids["P2"]),
            node.encode_entry(sep(21, 25), ids["P3"]),
        ],
    )
    ids["Q"] = page(PageType.NONLEAF, 1, [node.encode_entry(b"", ids["NP"])])
    ids["root"] = page(
        PageType.NONLEAF, 2,
        [
            node.encode_entry(b"", ids["L"]),
            node.encode_entry(sep(9, 10), ids["P"]),
            node.encode_entry(sep(26, 30), ids["Q"]),
        ],
    )
    tree = BTree(ctx, index_id=1, key_len=4, root_page_id=ids["root"])
    engine.indexes[1] = tree
    ctx.index_roots[1] = ids["root"]
    engine.checkpoint()
    tree.verify()
    return engine, tree, ids


def main() -> None:
    engine, tree, ids = build_figure2()
    ctx = engine.ctx
    name_of = {pid: name for name, pid in ids.items()}

    print("Figure 2 initial state (5 rows fit per leaf):")
    for name in ("PP", "P1", "P2", "P3", "NP"):
        print(f"  {name}: {keys_of(engine, ids[name])}")
    print(f"  level 1:  L -> [PP]   P -> [P1, P2, P3]   Q -> [NP]")
    print(f"  level 2:  root -> [L, P, Q]\n")

    config = RebuildConfig(ntasize=3, xactsize=3)
    chunk = ChunkAllocator(ctx.page_manager, 4)
    txn = ctx.txns.begin()
    action = TopAction(ctx, txn, scan=True)

    print("COPY PHASE (§4.1): rebuild P1, P2, P3 in one top action.")
    result = copy_multipage(action, tree, config, chunk, ids["P1"])
    n1 = result.new_pages[0]
    name_of[n1] = "N1"
    print(f"  PP now: {keys_of(engine, ids['PP'])}   "
          f"(absorbed P1 and the head of P2)")
    print(f"  N1 (new page {n1}): {keys_of(engine, n1)}\n")

    print("Propagation entries passed by the leaves (§5.2):")
    for entry in result.prop_entries:
        origin = name_of.get(entry.origin, entry.origin)
        if entry.new_child is not None:
            target = name_of.get(entry.new_child, entry.new_child)
            print(f"  {origin}: {entry.op.name} -> [{entry.new_key!r}, "
                  f"{target}]")
        else:
            print(f"  {origin}: {entry.op.name}")
    print()

    print("PROPAGATION PHASE (§5.4 + §5.5):")
    state = PropagationState(
        pp_page=result.pp_page, pp_low_unit=result.pp_low_unit
    )
    run_propagation(
        action, tree, result.prop_entries, Traversal(ctx, tree), config, state
    )
    left = ctx.buffer.fetch(ids["L"])
    children = [name_of.get(c, c) for c in node.child_ids(left)]
    ctx.buffer.unpin(ids["L"])
    print(f"  L's children now: {children}  "
          "(the insert went to the LEFT sibling, §5.5)")
    print("  P became empty -> deallocated directly, no deletes performed "
          "(§5.3.1)")
    root = ctx.buffer.fetch(ids["root"])
    top = [name_of.get(c, c) for c in node.child_ids(root)]
    ctx.buffer.unpin(ids["root"])
    print(f"  root's children now: {top}  (entry for P deleted at level 2)\n")

    action.end()
    ctx.buffer.flush_pages(action.new_pages)
    ctx.txns.commit(txn)
    OnlineRebuild(tree, config)._free(txn, action.deallocated)
    chunk.close()

    print("After commit (§3: flush new pages, then free old ones):")
    for name in ("P1", "P2", "P3", "P"):
        state_name = ctx.page_manager.state(ids[name]).value
        print(f"  {name}: {state_name}")
    tree.verify()
    contents = [K.split_unit(u)[1] for u in collect_contents(ctx, tree)]
    print("\nTree verified; contents preserved:", contents)


if __name__ == "__main__":
    main()
