"""The package's top-level public surface."""

import unbiasedpf


def test_all_has_no_duplicates():
    assert len(unbiasedpf.__all__) == len(set(unbiasedpf.__all__))


def test_every_exported_name_resolves():
    missing = [name for name in unbiasedpf.__all__ if not hasattr(unbiasedpf, name)]
    assert missing == []
