"""The package's public surface."""

import types

import clustersim


def test_all_lists_only_public_names():
    names = clustersim.__all__
    assert len(names) == len(set(names))
    assert all(not n.startswith("_") for n in names)
    assert not [n for n in names if isinstance(getattr(clustersim, n), types.ModuleType)]
    public = {
        n for n, v in vars(clustersim).items() if not n.startswith("_") and not isinstance(v, types.ModuleType)
    }
    assert set(names) == public
    assert {"cluster4", "execute", "NoiseSpec", "classical_bound", "witness_from_counts"} <= public
    assert "RankSignature" not in names


def test_star_import_binds_no_submodule():
    namespace = {}
    exec("from clustersim import *", namespace)
    namespace.pop("__builtins__")
    assert not [n for n, v in namespace.items() if isinstance(v, types.ModuleType)]
    assert {"states", "mbqc", "noise", "counts", "entclass", "witness"}.isdisjoint(namespace)
