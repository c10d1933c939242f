import relangle


def test_all_names_resolve_once():
    # a name dropped from the package but left in __all__ would fail `from relangle import *`
    assert len(set(relangle.__all__)) == len(relangle.__all__)
    missing = [name for name in relangle.__all__ if not hasattr(relangle, name)]
    assert missing == []
