"""The package's public names: each one in `lplsh.__all__` exists, and the
per-function hashing wrappers that hash_batch replaced stay gone."""

import lplsh


def test_every_exported_name_resolves():
    missing = [name for name in lplsh.__all__ if not hasattr(lplsh, name)]
    assert missing == []


def test_removed_hashing_wrappers_are_gone():
    removed = ("HashValue", "hash_point", "make_lattices", "eval_hash", "eval_hash_batch", "evaluation_cost")
    assert [name for name in removed if hasattr(lplsh, name)] == []
    assert "hash_batch" in lplsh.__all__
