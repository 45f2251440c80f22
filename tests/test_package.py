import kratzerml


def test_submodule_names_resolve_on_the_package():
    seen = []
    for module in kratzerml._MODULES:
        for name in module.__all__:
            assert getattr(kratzerml, name) is getattr(module, name), name
            seen.append(name)
    assert len(seen) == len(set(seen))
    assert sorted(kratzerml.__all__) == sorted(["__version__", *seen])
