"""Property-based tests for suffix compression (the §6.4 prerequisite)
and for the binary searches that route by its separators."""

from operator import itemgetter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.btree import keys as K
from repro.btree import node
from repro.btree.scan import _qualifying_end
from repro.stats.counters import Counters
from repro.storage.page import Page, PageType

byte_strings = st.binary(min_size=0, max_size=48)


@st.composite
def ordered_pair(draw):
    a = draw(byte_strings)
    b = draw(byte_strings)
    if a == b:
        b = a + b"\x01"
    return (a, b) if a < b else (b, a)


@given(ordered_pair())
@settings(max_examples=300)
def test_separator_partitions_correctly(pair):
    left, right = pair
    s = K.separator(left, right)
    assert left < s <= right


@given(ordered_pair())
@settings(max_examples=300)
def test_separator_is_shortest(pair):
    left, right = pair
    s = K.separator(left, right)
    # Every strictly shorter prefix of right fails to exceed left.
    for cut in range(len(s)):
        assert not left < right[:cut] or not right[:cut] <= right


@given(ordered_pair())
@settings(max_examples=300)
def test_separator_is_prefix_of_right(pair):
    left, right = pair
    s = K.separator(left, right)
    assert right.startswith(s)


@given(st.integers(min_value=0, max_value=2**47 - 1))
def test_rowid_roundtrip_property(rid):
    assert K.decode_rowid(K.encode_rowid(rid)) == rid


@given(
    st.binary(min_size=4, max_size=4),
    st.binary(min_size=4, max_size=4),
    st.integers(min_value=0, max_value=2**40),
    st.integers(min_value=0, max_value=2**40),
)
def test_unit_order_matches_tuple_order(k1, k2, r1, r2):
    u1 = K.leaf_unit(k1, r1, 4)
    u2 = K.leaf_unit(k2, r2, 4)
    assert (u1 < u2) == ((k1, r1) < (k2, r2))


# ------------------------------------------------- search kernels vs linear


@st.composite
def leaf_rows(draw):
    """Sorted distinct fixed-length units, each with or without a payload
    tail after it; returns (unit_len, units, rows)."""
    unit_len = draw(st.integers(min_value=1, max_value=6))
    units = sorted(draw(st.sets(
        st.binary(min_size=unit_len, max_size=unit_len), max_size=40
    )))
    with_payload = draw(st.booleans())
    rows = [
        u + (draw(st.binary(max_size=8)) if with_payload else b"")
        for u in units
    ]
    return unit_len, units, rows


def probes(units, unit_len):
    """Unit-length search values: on every unit, one below and one above
    each (between it and its neighbours, or on them), and the extremes."""
    top = (1 << (8 * unit_len)) - 1
    values = {0, top}
    for u in units:
        v = int.from_bytes(u, "big")
        values.update((v, max(v - 1, 0), min(v + 1, top)))
    return sorted(v.to_bytes(unit_len, "big") for v in values)


def leaf(rows):
    page = Page(1)
    page.page_type = PageType.LEAF
    for row in rows:
        page.append_row(row)
    return page


@given(leaf_rows())
@settings(max_examples=200)
def test_leaf_search_equals_linear_search(case):
    unit_len, units, rows = case
    page = leaf(rows)
    for unit in probes(units, unit_len):
        counters = Counters()
        pos = next(
            (i for i, u in enumerate(units) if u >= unit), len(units)
        )
        found = pos < len(units) and units[pos] == unit
        assert node.leaf_search(page, unit, counters) == (pos, found)
        assert counters.key_comparisons == len(rows).bit_length()


@given(leaf_rows(), st.data())
@settings(max_examples=200)
def test_qualifying_end_equals_linear_search(case, data):
    unit_len, units, rows = case
    if not rows:
        return
    pos = data.draw(st.integers(min_value=0, max_value=len(rows) - 1))
    unit_of = itemgetter(slice(None, unit_len))
    for hi_unit in probes(units, unit_len):
        counters = Counters()
        end = next(
            (i for i in range(pos, len(units)) if units[i] > hi_unit),
            len(units),
        )
        assert _qualifying_end(rows, pos, hi_unit, unit_of, counters) == end
        whole_rest = units[-1] <= hi_unit
        assert counters.key_comparisons == (
            1 if whole_rest else 1 + (len(rows) - 1 - pos).bit_length()
        )


@st.composite
def nonleaf_rows(draw):
    """A nonleaf page's entries: a keyless entry 0, then suffix-compressed
    separators (mixed lengths) between runs of sorted units; the page may
    hold that one entry alone.  Returns (units, separators, rows)."""
    units = sorted(draw(st.sets(
        st.binary(min_size=1, max_size=6), min_size=1, max_size=40
    )))
    cuts = []
    if len(units) > 1:
        cuts = sorted(draw(st.sets(st.integers(1, len(units) - 1))))
    seps = [K.separator(units[c - 1], units[c]) for c in cuts]
    rows = [node.encode_entry(b"", 100)] + [
        node.encode_entry(sep, 101 + i) for i, sep in enumerate(seps)
    ]
    return units, seps, rows


@given(nonleaf_rows())
@settings(max_examples=200)
def test_child_search_and_insert_pos_equal_linear_search(case):
    units, seps, rows = case
    page = Page(2)
    page.page_type = PageType.NONLEAF
    page.level = 1
    for row in rows:
        page.append_row(row)
    # On and just above every unit and separator, and below them all.
    for unit in units + [u + b"\x00" for u in units] + seps + [b""]:
        # Entry i >= 1 qualifies when its separator is <= the unit; the
        # keyless entry 0 always does.
        after = 1 + sum(1 for sep in seps if sep <= unit)
        counters = Counters()
        assert node.child_search(page, unit, counters) == (
            after - 1, 100 + after - 1
        )
        assert node.entry_insert_pos(page, unit, counters) == after
        assert counters.key_comparisons == 2 * len(seps).bit_length()

