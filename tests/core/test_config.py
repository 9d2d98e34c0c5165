"""RebuildConfig validation tests."""

import pytest

from repro.core.config import RebuildConfig
from repro.errors import RebuildError


def test_defaults_match_paper():
    config = RebuildConfig()
    assert config.ntasize == 32          # §6.4: "we chose an ntasize of 32"
    assert config.xactsize >= 100        # §3: "a few hundred pages"
    assert config.fillfactor == 1.0
    assert config.reorganize_level1 is True


def test_rejects_zero_ntasize():
    with pytest.raises(RebuildError):
        RebuildConfig(ntasize=0)


def test_rejects_xactsize_below_ntasize():
    with pytest.raises(RebuildError):
        RebuildConfig(ntasize=32, xactsize=16)


def test_rejects_bad_fillfactor():
    with pytest.raises(RebuildError):
        RebuildConfig(fillfactor=0.0)
    with pytest.raises(RebuildError):
        RebuildConfig(fillfactor=1.5)


def test_frozen():
    config = RebuildConfig()
    with pytest.raises(Exception):
        config.ntasize = 64  # type: ignore[misc]
