"""The package's public surface: the names in ``__all__`` and the README's
library example."""

import hurwitzcf


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from hurwitzcf import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(hurwitzcf.__all__)
    for name, value in namespace.items():
        assert value is getattr(hurwitzcf, name)


def test_readme_magic_pairs_example():
    from hurwitzcf import CFParams, magic_pairs
    assert magic_pairs(CFParams(1, 2, 2, 3, 2)) == ((6, 4), (1, 16))
