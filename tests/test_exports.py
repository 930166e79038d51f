"""The package's public names: each one in `lplsh.__all__` exists, and the
per-function hashing wrappers that hash_batch replaced, the radius ladder
and the threshold file cache stay gone."""

import lplsh
import lplsh.index
import lplsh.stable


def test_every_exported_name_resolves():
    missing = [name for name in lplsh.__all__ if not hasattr(lplsh, name)]
    assert missing == []


def test_removed_hashing_wrappers_are_gone():
    removed = ("HashValue", "hash_point", "make_lattices", "eval_hash", "eval_hash_batch", "evaluation_cost")
    ladder = ("RadiusLadder", "radius_ladder_query", "LadderResult")
    assert [name for name in removed + ladder + ("ThresholdCache",) if hasattr(lplsh, name)] == []
    assert [name for name in ladder if hasattr(lplsh.index, name)] == []
    assert not hasattr(lplsh.stable, "ThresholdCache")
    assert "hash_batch" in lplsh.__all__
