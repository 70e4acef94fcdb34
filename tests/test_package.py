import bfamily


def test_exports_unique_and_resolvable():
    names = bfamily.__all__
    assert len(set(names)) == len(names)
    assert [name for name in names if not hasattr(bfamily, name)] == []
