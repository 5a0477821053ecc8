"""PlanCache: LRU bounds, sha256-validated hot reload, name hygiene."""

import os
import shutil

import numpy as np
import pytest

from repro.core.artifacts import load_artifact, save_artifact
from repro.serve import PlanCache
from repro.utils.errors import ArtifactError


def _copy_root(tenant_root, tmp_path):
    root, names, X_test = tenant_root
    for name in names:
        shutil.copy(root / f"{name}.npz", tmp_path / f"{name}.npz")
    return tmp_path, names, X_test


class TestNames:
    def test_rejects_traversal_and_separators(self, tmp_path):
        cache = PlanCache(tmp_path)
        for bad in ("../evil", "a/b", "", ".hidden", "-dash", "a b"):
            with pytest.raises(ArtifactError, match="invalid tenant name"):
                cache.path_for(bad)

    def test_accepts_boring_names(self, tmp_path):
        cache = PlanCache(tmp_path)
        for good in ("tenant-00", "a.b_c-d", "T1"):
            assert cache.path_for(good).name == f"{good}.npz"

    def test_known_tenants_lists_bundles(self, tenant_root):
        root, names, _ = tenant_root
        assert PlanCache(root).known_tenants() == names

    def test_missing_bundle_raises(self, tmp_path):
        with pytest.raises(ArtifactError, match="no artifact file"):
            PlanCache(tmp_path).get("ghost")


class TestLRU:
    def test_eviction_keeps_capacity(self, tenant_root):
        root, names, _ = tenant_root
        cache = PlanCache(root, capacity=2)
        for name in names:  # 3 tenants through a 2-slot cache
            cache.get(name)
        assert cache.loaded_tenants() == names[1:]
        assert cache.evictions == 1

    def test_hit_refreshes_recency(self, tenant_root):
        root, names, _ = tenant_root
        cache = PlanCache(root, capacity=2)
        cache.get(names[0])
        cache.get(names[1])
        cache.get(names[0])  # refresh 0, so 1 is now LRU
        cache.get(names[2])
        assert cache.loaded_tenants() == [names[0], names[2]]

    def test_capacity_must_be_positive(self, tmp_path):
        with pytest.raises(ArtifactError):
            PlanCache(tmp_path, capacity=0)

    def test_stats_counters(self, tenant_root):
        root, names, _ = tenant_root
        cache = PlanCache(root, capacity=8)
        cache.get(names[0])
        cache.get(names[0])
        stats = cache.stats()
        assert stats["misses"] == 1 and stats["hits"] == 1
        assert names[0] in stats["loaded"]
        assert stats["loaded"][names[0]]["content_hash"]


class TestHotReload:
    def test_stat_change_reloads(self, tenant_root, tmp_path):
        root, names, X_test = _copy_root(tenant_root, tmp_path)
        cache = PlanCache(root, capacity=8)
        first = cache.get(names[0])
        # atomically publish a different artifact under the same name
        shutil.copy(root / f"{names[1]}.npz", root / f"{names[0]}.npz")
        second = cache.get(names[0])
        assert cache.reloads == 1
        assert second.content_hash != first.content_hash
        assert second.plan is not first.plan

    def test_pointer_flip_between_equal_size_bundles_reloads(
            self, tenant_root, tmp_path):
        root, names, _ = _copy_root(tenant_root, tmp_path)
        old, new = root / f"{names[1]}.npz", root / "flip-next.npz"
        # a different bundle of exactly the same size: the same tenant with
        # one stored weight changed in place (same dtype and shape, so every
        # member and the manifest keep their length while the content hash
        # changes); give both the same mtime, as one coarse clock tick would
        estimator = load_artifact(old).estimator
        estimator.reconstructor_.model_.generator_.layers[-2].params["b"][0] += 1.0
        save_artifact(estimator, new)
        assert old.stat().st_size == new.stat().st_size
        stat = old.stat()
        os.utime(new, ns=(stat.st_atime_ns, stat.st_mtime_ns))
        pointer = root / "flip.npz"
        os.symlink(old.name, pointer)
        cache = PlanCache(root, capacity=8)
        first = cache.get("flip")
        os.symlink(new.name, root / ".flip.tmp")
        os.replace(root / ".flip.tmp", pointer)
        second = cache.get("flip")
        assert cache.reloads == 1
        assert second.content_hash != first.content_hash

    def test_unchanged_file_is_not_reloaded(self, tenant_root):
        root, names, _ = tenant_root
        cache = PlanCache(root, capacity=8)
        entry = cache.get(names[0])
        assert cache.get(names[0]) is entry
        assert cache.reloads == 0

    def test_corrupt_replacement_is_rejected(self, tenant_root, tmp_path):
        root, names, _ = _copy_root(tenant_root, tmp_path)
        cache = PlanCache(root, capacity=8)
        cache.get(names[0])
        path = root / f"{names[0]}.npz"
        path.write_bytes(path.read_bytes()[:-64] + b"\0" * 64)
        with pytest.raises(ArtifactError):
            cache.get(names[0])

    def test_deleted_bundle_drops_entry(self, tenant_root, tmp_path):
        root, names, _ = _copy_root(tenant_root, tmp_path)
        cache = PlanCache(root, capacity=8)
        cache.get(names[0])
        (root / f"{names[0]}.npz").unlink()
        with pytest.raises(ArtifactError, match="no artifact file"):
            cache.get(names[0])
        assert names[0] not in cache.loaded_tenants()

    def test_invalidate_forces_reload(self, tenant_root):
        root, names, X_test = tenant_root
        cache = PlanCache(root, capacity=8)
        entry = cache.get(names[0])
        cache.invalidate(names[0])
        fresh = cache.get(names[0])
        assert fresh is not entry
        # a fresh load restores the artifact's saved RNG state, so both
        # generations score the first request identically
        a = entry.plan.execute([X_test[:4]], capacity=cache.micro_batch_rows)
        b = fresh.plan.execute([X_test[:4]], capacity=cache.micro_batch_rows)
        np.testing.assert_array_equal(a[0], b[0])
