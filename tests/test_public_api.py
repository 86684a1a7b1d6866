import crtiv


def test_all_names_resolve_sorted_without_repeats():
    names = crtiv.__all__
    assert [name for name in names if not hasattr(crtiv, name)] == []
    assert names == sorted(names)
    assert len(set(names)) == len(names) == 43
