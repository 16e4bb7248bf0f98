import pointmatch


def test_every_exported_name_resolves():
    # `from pointmatch import *` fails on a stale __all__ entry
    assert [name for name in pointmatch.__all__ if not hasattr(pointmatch, name)] == []
