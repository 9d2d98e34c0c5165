"""Unit tests for the slotted page layout (repro.storage.page)."""

import struct

import pytest

from repro.errors import PageFormatError, PageFullError
from repro.storage.page import (
    HEADER_SIZE,
    NO_PAGE,
    PAGE_SIZE_DEFAULT,
    SLOT_OVERHEAD,
    Page,
    PageFlag,
    PageType,
)
from tests.conftest import decode_per_row


def test_new_page_is_empty_raw():
    page = Page(7)
    assert page.page_id == 7
    assert page.page_type is PageType.RAW
    assert page.nrows == 0
    assert page.is_empty
    assert page.prev_page == NO_PAGE
    assert page.next_page == NO_PAGE


def test_used_bytes_counts_header_slots_and_rows():
    page = Page(1)
    assert page.used_bytes == HEADER_SIZE
    page.append_row(b"abcde")
    assert page.used_bytes == HEADER_SIZE + SLOT_OVERHEAD + 5
    page.append_row(b"xy")
    assert page.used_bytes == HEADER_SIZE + 2 * SLOT_OVERHEAD + 7


def test_free_bytes_complements_used():
    page = Page(1)
    page.append_row(b"1234")
    assert page.free_bytes == PAGE_SIZE_DEFAULT - page.used_bytes


def test_fits_accounts_for_slot_overhead():
    page = Page(1)
    row = b"x" * (page.free_bytes - SLOT_OVERHEAD)
    assert page.fits(row)
    assert not page.fits(row + b"y")


def test_insert_row_past_capacity_raises():
    page = Page(1)
    big = b"x" * 1000
    page.append_row(big)
    page.append_row(big)
    with pytest.raises(PageFullError):
        page.append_row(big)


def test_insert_row_positions():
    page = Page(1)
    page.append_row(b"b")
    page.insert_row(0, b"a")
    page.insert_row(2, b"c")
    assert page.rows == [b"a", b"b", b"c"]


def test_insert_row_bad_position_raises():
    page = Page(1)
    with pytest.raises(PageFormatError):
        page.insert_row(1, b"x")


def test_delete_row_returns_removed():
    page = Page(1)
    page.append_row(b"a")
    page.append_row(b"b")
    assert page.delete_row(0) == b"a"
    assert page.rows == [b"b"]


def test_delete_row_bad_position_raises():
    page = Page(1)
    with pytest.raises(PageFormatError):
        page.delete_row(0)


def test_delete_rows_range():
    page = Page(1)
    for token in (b"a", b"b", b"c", b"d"):
        page.append_row(token)
    removed = page.delete_rows(1, 3)
    assert removed == [b"b", b"c"]
    assert page.rows == [b"a", b"d"]


def test_delete_rows_bad_range_raises():
    page = Page(1)
    page.append_row(b"a")
    with pytest.raises(PageFormatError):
        page.delete_rows(0, 2)


def test_replace_row_checks_growth():
    page = Page(1)
    page.append_row(b"small")
    filler = b"f" * (page.free_bytes - SLOT_OVERHEAD)
    page.append_row(filler)
    with pytest.raises(PageFullError):
        page.replace_row(0, b"small-but-now-much-bigger")
    assert page.replace_row(0, b"tiny!") == b"small"


def test_flags_set_clear_check():
    page = Page(1)
    assert not page.has_flag(PageFlag.SPLIT)
    page.set_flag(PageFlag.SPLIT)
    page.set_flag(PageFlag.OLDPGOFSPLIT)
    assert page.has_flag(PageFlag.SPLIT)
    assert page.has_flag(PageFlag.OLDPGOFSPLIT)
    assert not page.has_flag(PageFlag.SHRINK)
    page.clear_flag(PageFlag.SPLIT)
    assert not page.has_flag(PageFlag.SPLIT)
    assert page.has_flag(PageFlag.OLDPGOFSPLIT)


def test_side_entry_counts_against_space_and_clears():
    page = Page(1)
    page.set_side_entry(b"sidekey", 42)
    assert page.side_page == 42
    assert page.used_bytes == HEADER_SIZE + len(b"sidekey")
    page.set_flag(PageFlag.OLDPGOFSPLIT)
    page.clear_side_entry()
    assert page.side_page == NO_PAGE
    assert page.side_key == b""
    assert not page.has_flag(PageFlag.OLDPGOFSPLIT)


def test_side_entry_overflow_raises():
    page = Page(1)
    page.append_row(b"x" * 1990)
    with pytest.raises(PageFullError):
        page.set_side_entry(b"k" * 100, 3)


def test_serialization_roundtrip_preserves_everything():
    page = Page(9)
    page.index_id = 3
    page.page_type = PageType.LEAF
    page.level = 0
    page.prev_page = 4
    page.next_page = 11
    page.page_lsn = 123456789
    page.set_flag(PageFlag.SPLIT)
    page.set_side_entry(b"side", 10)
    page.set_flag(PageFlag.OLDPGOFSPLIT)
    for i in range(10):
        page.append_row(bytes([i]) * (i + 1))
    data = page.to_bytes()
    assert len(data) == PAGE_SIZE_DEFAULT
    back = Page.from_bytes(data)
    assert back.page_id == 9
    assert back.index_id == 3
    assert back.page_type is PageType.LEAF
    assert back.prev_page == 4
    assert back.next_page == 11
    assert back.page_lsn == 123456789
    assert back.has_flag(PageFlag.SPLIT)
    assert back.has_flag(PageFlag.OLDPGOFSPLIT)
    assert back.side_key == b"side"
    assert back.side_page == 10
    assert back.rows == page.rows


def test_from_bytes_rejects_wrong_length():
    with pytest.raises(PageFormatError):
        Page.from_bytes(b"\x00" * 100)


def test_from_bytes_rejects_bad_magic():
    with pytest.raises(PageFormatError):
        Page.from_bytes(b"\xff" * PAGE_SIZE_DEFAULT)


# Where the header fields ``from_bytes`` can check sit in the image.
_MAGIC, _NROWS, _SIDE_LEN, _LO_LEN, _HI_LEN = (
    (off, "<H") for off in (0, 12, 18, 36, 38)
)
_PAGE_TYPE, _FLAGS = 8, 10  # single bytes


def _full_page_image() -> tuple[Page, bytes]:
    """A page with no padding, a side entry and a blocked range, whose
    row bytes are all >= 0x80: any misread length prefix is out of range,
    and any shortened one leaves non-padding bytes behind."""
    page = Page(5)
    page.page_type = PageType.NONLEAF
    page.level = 1
    page.set_side_entry(b"\x90side", 7)
    page.set_blocked_range(b"\xa0lo", b"\xa0hi!")
    for i in range(9):
        page.append_row(bytes([0x80 + i]) * 200)
    page.append_row(b"\xff" * (page.free_bytes - SLOT_OVERHEAD))
    assert page.free_bytes == 0
    return page, page.to_bytes()


def _row_prefix_offsets(page: Page) -> list[int]:
    off = page.used_bytes - sum(SLOT_OVERHEAD + len(r) for r in page.rows)
    offsets = []
    for row in page.rows:
        offsets.append(off)
        off += SLOT_OVERHEAD + len(row)
    return offsets


def test_from_bytes_rejects_every_corrupted_length_and_enum_field():
    page, image = _full_page_image()
    assert Page.from_bytes(image).rows == page.rows
    fields = [_MAGIC, _NROWS, _SIDE_LEN, _LO_LEN, _HI_LEN]
    fields += [(off, "<H") for off in _row_prefix_offsets(page)]
    for off, fmt in fields:
        (value,) = struct.unpack_from(fmt, image, off)
        for bit in range(8 * struct.calcsize(fmt)):
            bad = bytearray(image)
            struct.pack_into(fmt, bad, off, value ^ (1 << bit))
            with pytest.raises(PageFormatError):
                Page.from_bytes(bytes(bad))
    # A flip between two valid page types cannot be told from the image.
    for off, value in [(_PAGE_TYPE, 3), (_PAGE_TYPE, 234)] + [
        (_FLAGS, image[_FLAGS] | 1 << bit) for bit in range(4, 8)
    ]:
        bad = bytearray(image)
        bad[off] = value
        with pytest.raises(PageFormatError):
            Page.from_bytes(bytes(bad))


def test_from_bytes_fails_only_with_page_format_error():
    """Flip every bit of the header and the first rows of a page that has
    padding: the image decodes or raises PageFormatError, nothing else."""
    page = Page(3)
    page.page_type = PageType.LEAF
    page.set_side_entry(b"sk", 4)
    for i in range(20):
        page.append_row(bytes([i]) * (i % 5))
    image = page.to_bytes()
    for pos in range(page.used_bytes):
        for bit in range(8):
            bad = bytearray(image)
            bad[pos] ^= 1 << bit
            try:
                Page.from_bytes(bytes(bad))
            except PageFormatError:
                pass


def _uniform_leaf() -> Page:
    page = Page(8)
    page.page_type = PageType.LEAF
    page.extend_rows([i.to_bytes(4, "big") + bytes(6) for i in range(120)])
    return page


def _nonleaf_shaped() -> Page:
    """A keyless first entry, then keyed ones; filled to the byte."""
    page = Page(9)
    page.page_type = PageType.NONLEAF
    page.level = 1
    count = (page.free_bytes - SLOT_OVERHEAD - 4) // (SLOT_OVERHEAD + 8)
    page.append_row(bytes(4))
    page.extend_rows([i.to_bytes(8, "big") for i in range(count)])
    page.replace_row(0, bytes(page.free_bytes + 4))
    assert page.free_bytes == 0
    return page


@pytest.mark.parametrize("make", [_uniform_leaf, _nonleaf_shaped])
def test_a_flipped_length_decodes_as_the_per_row_loop_does(make):
    """Every bit of ``nrows`` and of every length prefix, flipped on the
    shapes the one-call cut takes: the same rows as the per-row decoder,
    or ``PageFormatError`` where it raises."""
    page = make()
    image = page.to_bytes()
    assert decode_per_row(image)[3] == Page.from_bytes(image).rows
    fields = [_NROWS] + [(off, "<H") for off in _row_prefix_offsets(page)]
    decoded = 0
    for off, fmt in fields:
        (value,) = struct.unpack_from(fmt, image, off)
        for bit in range(16):
            bad = bytearray(image)
            struct.pack_into(fmt, bad, off, value ^ (1 << bit))
            try:
                want = decode_per_row(bytes(bad))[3]
            except PageFormatError:
                with pytest.raises(PageFormatError):
                    Page.from_bytes(bytes(bad))
                continue
            assert Page.from_bytes(bytes(bad)).rows == want
            decoded += 1
    assert decoded  # some flips are legal images (a row more of padding)


def test_equal_lengths_running_past_the_image_are_a_format_error():
    """The last of equal length prefixes sits in the final two bytes: the
    strided compare accepts it, the row it promises does not fit."""
    page = Page(1)
    page.append_row(b"\x80" * 12)
    page.extend_rows([b"\x81" * 10] * ((page.free_bytes - 2) // 12))
    assert page.free_bytes == 2
    bad = bytearray(page.to_bytes())
    struct.pack_into("<H", bad, _NROWS[0], page.nrows + 1)
    struct.pack_into("<H", bad, len(bad) - 2, 10)
    with pytest.raises(PageFormatError, match="overflow"):
        Page.from_bytes(bytes(bad))


def test_from_bytes_rejects_non_padding_after_the_last_row():
    page = Page(1)
    page.append_row(b"abc")
    image = bytearray(page.to_bytes())
    image[-1] = 1
    with pytest.raises(PageFormatError, match="not padding"):
        Page.from_bytes(bytes(image))


def test_insert_rows_is_all_or_nothing():
    page = Page(1)
    page.append_row(b"a" * 1000)
    batch = [b"b" * 500, b"c" * 600]  # the first alone would fit
    with pytest.raises(PageFullError):
        page.insert_rows(1, batch)
    assert page.rows == [b"a" * 1000]
    assert page.used_bytes == HEADER_SIZE + SLOT_OVERHEAD + 1000
    with pytest.raises(PageFormatError):
        page.insert_rows(2, [b"x"])
    assert page.insert_rows(0, [b"x", b"yz"]) == 3
    assert page.extend_rows([b"", b"w"]) == 1
    assert page.rows == [b"x", b"yz", b"a" * 1000, b"", b"w"]
    assert page.used_bytes == HEADER_SIZE + 5 * SLOT_OVERHEAD + 1004


def test_copy_is_deep():
    page = Page(1)
    page.append_row(b"a")
    clone = page.copy()
    clone.append_row(b"b")
    assert page.nrows == 1
    assert clone.nrows == 2


def test_fill_fraction():
    page = Page(1)
    assert page.fill_fraction() == 0.0
    page.append_row(b"x" * ((page.free_bytes // 2) - SLOT_OVERHEAD))
    assert 0.45 < page.fill_fraction() < 0.55


def test_custom_page_size():
    page = Page(1, page_size=512)
    assert page.free_bytes == 512 - HEADER_SIZE
    page.append_row(b"q" * 100)
    data = page.to_bytes()
    assert len(data) == 512
    assert Page.from_bytes(data, page_size=512).rows == page.rows


def test_serialization_full_page_exact_fit():
    page = Page(1)
    row = b"r" * 100
    while page.fits(row):
        page.append_row(row)
    assert len(page.to_bytes()) == PAGE_SIZE_DEFAULT
    assert Page.from_bytes(page.to_bytes()).nrows == page.nrows
