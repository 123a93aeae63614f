import extconv


def test_every_exported_name_resolves():
    assert [name for name in extconv.__all__ if not hasattr(extconv, name)] == []
