"""The package's public names: every name in ``hamalg.__all__`` resolves,
none is listed twice, and the list is sorted, so a name removed from the
package cannot linger in the list."""

import hamalg


def test_every_exported_name_resolves():
    assert [name for name in hamalg.__all__ if not hasattr(hamalg, name)] == []


def test_exports_are_unique_and_sorted():
    assert len(set(hamalg.__all__)) == len(hamalg.__all__)
    assert hamalg.__all__ == sorted(hamalg.__all__)
