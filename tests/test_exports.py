"""The package's public names: every export resolves, listed once, in
order."""

import coulscat


def test_all_exports_resolve_sorted_unique():
    names = coulscat.__all__
    missing = [n for n in names if not hasattr(coulscat, n)]
    assert missing == []
    assert names == sorted(names)
    assert len(set(names)) == len(names)
