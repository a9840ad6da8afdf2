"""Tests for the package's public names."""

import pcflow


def test_every_exported_name_resolves():
    assert len(set(pcflow.__all__)) == len(pcflow.__all__)
    missing = [name for name in pcflow.__all__ if not hasattr(pcflow, name)]
    assert not missing
