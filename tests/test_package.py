import partition_identities


def test_star_import_resolves_every_public_name():
    # a star import raises when __all__ names something the package lacks
    namespace = {}
    exec("from partition_identities import *", namespace)
    names = partition_identities.__all__
    assert len(set(names)) == len(names)
    for name in names:
        assert namespace[name] is getattr(partition_identities, name), name
