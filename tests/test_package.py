import orbitcoh


def test_public_names_resolve_once():
    names = orbitcoh.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(orbitcoh, name), name
