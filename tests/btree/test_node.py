"""Unit tests for leaf/nonleaf page views (repro.btree.node)."""

import pytest

from repro.btree import node
from repro.errors import TreeStructureError
from repro.stats.counters import Counters
from repro.storage.page import Page, PageType


@pytest.fixture
def counters() -> Counters:
    return Counters()


def leaf_page(units: list[bytes]) -> Page:
    page = Page(1)
    page.page_type = PageType.LEAF
    for u in units:
        page.append_row(u)
    return page


def nonleaf_page(entries: list[tuple[bytes, int]]) -> Page:
    page = Page(2)
    page.page_type = PageType.NONLEAF
    page.level = 1
    for key, child in entries:
        page.append_row(node.encode_entry(key, child))
    return page


def test_entry_roundtrip():
    row = node.encode_entry(b"sep", 42)
    assert node.decode_entry(row) == (b"sep", 42)
    assert node.entry_key(row) == b"sep"
    assert node.entry_child(row) == 42


def test_entry_keyless_first_child():
    row = node.encode_entry(b"", 7)
    assert node.entry_key(row) == b""
    assert node.entry_child(row) == 7


def test_strip_entry_key():
    row = node.encode_entry(b"verylongseparator", 9)
    stripped = node.strip_entry_key(row)
    assert node.entry_key(stripped) == b""
    assert node.entry_child(stripped) == 9


def test_decode_entry_rejects_short():
    import repro.errors as errors

    with pytest.raises(errors.BTreeError):
        node.decode_entry(b"ab")


def test_leaf_search_found_and_missing(counters):
    page = leaf_page([b"aa", b"cc", b"ee"])
    assert node.leaf_search(page, b"cc", counters) == (1, True)
    assert node.leaf_search(page, b"bb", counters) == (1, False)
    assert node.leaf_search(page, b"zz", counters) == (3, False)


def test_leaf_search_compares_unit_prefix(counters):
    # Rows may carry payload bytes after the searched unit (footnote 2);
    # the search compares only the unit-width prefix.
    page = leaf_page([b"aa-payload1", b"cc-payload2"])
    assert node.leaf_search(page, b"aa", counters) == (0, True)
    assert node.leaf_search(page, b"cc", counters) == (1, True)
    assert node.leaf_search(page, b"bb", counters) == (1, False)


def test_leaf_search_counts_comparisons(counters):
    # A search counts its depth, ``n.bit_length()`` over ``n`` rows.
    page = leaf_page([bytes([i]) for i in range(64)])
    node.leaf_search(page, bytes([40]), counters)
    assert counters.key_comparisons == 7


def test_child_search_routes_by_separator(counters):
    page = nonleaf_page([(b"", 10), (b"m", 20), (b"t", 30)])
    assert node.child_search(page, b"a", counters) == (0, 10)
    assert node.child_search(page, b"m", counters) == (1, 20)  # Ki <= unit
    assert node.child_search(page, b"n", counters) == (1, 20)
    assert node.child_search(page, b"t", counters) == (2, 30)
    assert node.child_search(page, b"z", counters) == (2, 30)


def test_child_search_single_child(counters):
    page = nonleaf_page([(b"", 10)])
    assert node.child_search(page, b"anything", counters) == (0, 10)


def test_child_search_rejects_leaf(counters):
    with pytest.raises(TreeStructureError):
        node.child_search(leaf_page([b"aa"]), b"a", counters)


def test_child_search_rejects_empty(counters):
    page = Page(3)
    page.page_type = PageType.NONLEAF
    with pytest.raises(TreeStructureError):
        node.child_search(page, b"a", counters)


def test_entry_insert_pos_never_before_first(counters):
    page = nonleaf_page([(b"", 10), (b"m", 20)])
    assert node.entry_insert_pos(page, b"a", counters) == 1
    assert node.entry_insert_pos(page, b"m", counters) == 2
    assert node.entry_insert_pos(page, b"z", counters) == 2


def test_find_child_entry(counters):
    page = nonleaf_page([(b"", 10), (b"m", 20), (b"t", 30)])
    assert node.find_child_entry(page, 20) == 1
    with pytest.raises(TreeStructureError):
        node.find_child_entry(page, 99)


def test_child_ids_and_entries(counters):
    page = nonleaf_page([(b"", 10), (b"m", 20)])
    assert node.child_ids(page) == [10, 20]
    assert node.entries(page) == [(b"", 10), (b"m", 20)]
