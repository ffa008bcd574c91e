import numpy as np
import pytest

from incrlin.datamodel import (
    Batch,
    ClassRegistry,
    EmbeddingTable,
    FeatureStore,
    MemoryBuffer,
    OrthonormalBasis,
    RunConfig,
    SessionStream,
    WeightMatrix,
    WeightSnapshots,
    normalize_kind,
    update_memory,
)
from incrlin.errors import (
    ConfigError,
    DimensionMismatchError,
    DisjointClassError,
    MissingExampleError,
    MissingSnapshotError,
    ValidationError,
)


# --- registry ----------------------------------------------------------------

def test_register_session_base_plus_five():
    reg = ClassRegistry([range(60), range(60, 65)])
    assert reg.classes_in(1) == tuple(range(60, 65))
    assert len(reg.classes_up_to(1)) == 65


def test_register_empty_session_advances_counter():
    reg = ClassRegistry([range(60)])
    reg2 = ClassRegistry([range(60), ()])
    assert reg2.n_sessions == reg.n_sessions + 1
    assert reg2.classes_in(1) == ()
    assert reg2.classes_up_to(1) == reg.classes_up_to(0)


def test_register_overlap_rejected():
    with pytest.raises(DisjointClassError):
        ClassRegistry([range(60), {59}])


def test_registry_sessions_pairwise_disjoint_property():
    rng = np.random.default_rng(0)
    for _ in range(25):
        pool = list(rng.permutation(200))
        sessions = [pool[:10]]
        cursor = 10
        for _ in range(int(rng.integers(1, 6))):
            n = int(rng.integers(0, 8))
            sessions.append(pool[cursor:cursor + n])
            cursor += n
        reg = ClassRegistry(sessions)
        seen = set()
        for t in range(reg.n_sessions):
            classes = set(reg.classes_in(t))
            assert not classes & seen
            seen |= classes


def test_session_of_and_contains():
    reg = ClassRegistry([(3, 1), (7,)])
    assert reg.session_of(1) == 0
    assert reg.session_of(7) == 1
    assert 7 in reg and 9 not in reg
    with pytest.raises(ValidationError):
        reg.session_of(9)


# --- memory ------------------------------------------------------------------

def _support(classes, shots, d=4, seed=0):
    rng = np.random.default_rng(seed)
    ids = np.repeat(np.asarray(classes, dtype=np.int64), shots)
    return Batch(rng.standard_normal((ids.size, d)), ids)


def test_update_memory_grows_by_one_per_class():
    buf = MemoryBuffer.empty()
    buf = update_memory(buf, _support(range(5), 5), np.random.default_rng(0))
    assert len(buf) == 5
    assert buf.classes == frozenset(range(5))


def test_update_memory_deterministic_under_seed():
    support = _support(range(5), 7)
    a = update_memory(MemoryBuffer.empty(), support, np.random.default_rng(3))
    b = update_memory(MemoryBuffer.empty(), support, np.random.default_rng(3))
    np.testing.assert_array_equal(a.batch.class_ids, b.batch.class_ids)
    np.testing.assert_array_equal(a.batch.features, b.batch.features)


def test_update_memory_missing_class_error():
    with pytest.raises(MissingExampleError):
        update_memory(MemoryBuffer.empty(), _support([0, 1], 2), np.random.default_rng(0),
                      expected_classes=[0, 1, 2])


def test_memory_size_invariant_and_persistence():
    # |buffer| after session t equals the total class count of earlier sessions,
    # and earlier entries are byte-identical afterwards.
    rng = np.random.default_rng(1)
    buf = MemoryBuffer.empty()
    sessions = [list(range(0, 6)), list(range(6, 9)), list(range(9, 14))]
    total = 0
    snapshots = []
    for classes in sessions:
        buf = update_memory(buf, _support(classes, 4, seed=total), rng)
        total += len(classes)
        assert len(buf) == total
        snapshots.append((buf.batch.class_ids.copy(), buf.batch.features.copy()))
    first_ids, first_feats = snapshots[0]
    np.testing.assert_array_equal(buf.batch.class_ids[: len(first_ids)], first_ids)
    np.testing.assert_array_equal(buf.batch.features[: len(first_ids)], first_feats)


def test_memory_rejects_rearchiving_class():
    buf = update_memory(MemoryBuffer.empty(), _support([0], 2), np.random.default_rng(0))
    with pytest.raises(ValidationError):
        update_memory(buf, _support([0], 2), np.random.default_rng(0))


# --- weights and snapshots ----------------------------------------------------

def test_weight_matrix_validation():
    with pytest.raises(ValidationError):
        WeightMatrix([0, 0], np.zeros((2, 3)))
    with pytest.raises(ValidationError):
        WeightMatrix([0], np.array([[np.inf, 0.0]]))
    with pytest.raises(ValidationError):
        WeightMatrix([0, 1], np.zeros((3, 2)))


def test_weight_matrix_rows_and_subset_order():
    w = WeightMatrix([4, 2, 9], np.arange(6.0).reshape(3, 2))
    np.testing.assert_array_equal(w.row(2), [2.0, 3.0])
    np.testing.assert_array_equal(w.subset([9, 4]), [[4.0, 5.0], [0.0, 1.0]])
    w2 = w.with_rows({7: np.array([9.0, 9.0])})
    assert w2.class_ids == (4, 2, 9, 7)
    assert 7 not in w


def test_snapshots_immutable_and_duplicate_rejected():
    snaps = WeightSnapshots()
    w = WeightMatrix([0, 1], np.ones((2, 3)))
    snaps.store(0, w)
    w.matrix[0, 0] = 99.0  # caller mutation must not leak into the snapshot
    frozen = snaps.get(0)
    assert frozen.matrix[0, 0] == 1.0
    with pytest.raises(ValueError):
        frozen.matrix[0, 0] = 5.0
    with pytest.raises(ValidationError):
        snaps.store(0, w)
    with pytest.raises(MissingSnapshotError):
        snaps.get(3)


def test_snapshot_bytes_stable_across_later_sessions():
    snaps = WeightSnapshots()
    snaps.store(0, WeightMatrix([0], np.array([[1.0, 2.0]])))
    checksum = snaps.get(0).matrix.tobytes()
    snaps.store(1, WeightMatrix([0, 1], np.full((2, 2), 7.0)))
    assert snaps.get(0).matrix.tobytes() == checksum


# --- feature store -------------------------------------------------------------

def test_store_requires_query_examples():
    with pytest.raises(MissingExampleError):
        FeatureStore(2, {0: np.ones((1, 2))}, {0: np.empty((0, 2))})
    with pytest.raises(MissingExampleError):
        FeatureStore(2, {0: np.ones((1, 2))}, {1: np.ones((1, 2))})


def test_store_rejects_negative_class_ids():
    with pytest.raises(ValidationError, match="-1"):
        FeatureStore(2, {-1: np.ones((1, 2))}, {-1: np.ones((1, 2))})
    with pytest.raises(ValidationError, match="-3"):
        FeatureStore.from_rows(2, [0, -3], [True, True], np.ones((2, 2)))


def test_store_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        FeatureStore(3, {}, {0: np.ones((1, 2))})


def test_store_restrict_and_counts():
    store = FeatureStore(2, {0: np.ones((3, 2)), 1: np.zeros((2, 2))},
                         {0: np.ones((4, 2)), 1: np.zeros((1, 2))})
    sub = store.restrict([1])
    assert sub.classes == (1,)
    assert sub.support(1).shape[0] == 2 and sub.query_count(1) == 1
    with pytest.raises(MissingExampleError):
        store.restrict([5])


def test_store_support_examples_k_limit():
    store = FeatureStore(2, {0: np.arange(10.0).reshape(5, 2)}, {0: np.ones((1, 2))})
    got = store.support_examples([0], k=3)
    assert len(got) == 3
    with pytest.raises(MissingExampleError):
        store.support_examples([0], k=9)


def test_store_support_examples_stack_in_class_order():
    store = FeatureStore(2, {5: np.full((2, 2), 5.0), 1: np.arange(6.0).reshape(3, 2),
                             3: np.empty((0, 2))},
                         {c: np.ones((1, 2)) for c in (1, 3, 5)})
    got = store.support_examples([5, 3, 1])
    np.testing.assert_array_equal(got.class_ids, [1, 1, 1, 5, 5])
    np.testing.assert_array_equal(got.features,
                                  np.vstack([np.arange(6.0).reshape(3, 2), np.full((2, 2), 5.0)]))
    with pytest.raises(MissingExampleError):
        store.support_examples([3])


def test_store_from_rows_rejects_bad_split():
    # the split column must have one flag per row
    with pytest.raises(ValidationError):
        FeatureStore.from_rows(2, [0], [False, True], np.ones((1, 2)))
    with pytest.raises(ValidationError):
        FeatureStore.from_rows(2, [0, 0], [[True, True]], np.ones((2, 2)))


def test_batch_shape_and_empty():
    batch = Batch(np.ones((1, 2)), np.array([3]))
    assert len(batch) == 1 and batch.dimension == 2
    with pytest.raises(ValidationError):
        Batch(np.empty((0, 2)), np.empty(0, dtype=np.int64))


def test_batch_concat_keeps_row_order():
    a = Batch(np.zeros((2, 3)), np.array([4, 1]))
    b = Batch(np.ones((1, 3)), np.array([0]))
    both = Batch.concat([a, b])
    np.testing.assert_array_equal(both.class_ids, [4, 1, 0])
    np.testing.assert_array_equal(both.features, np.vstack([a.features, b.features]))


# --- misc types ----------------------------------------------------------------

def test_run_config_validation():
    with pytest.raises(ConfigError):
        RunConfig(alpha=-1.0)
    with pytest.raises(ConfigError):
        RunConfig(patience_epochs=0)
    with pytest.raises(ConfigError):
        RunConfig(regularizer_kind="nope")
    assert RunConfig(regularizer_kind="fine-tune").regularizer_kind == "finetune"
    assert RunConfig(max_epochs=np.int64(5), rng_seed=np.uint32(7)).max_epochs == 5
    assert normalize_kind("linear-map") == "linmap"


def test_embedding_table_errors():
    table = EmbeddingTable({0: np.ones(3)})
    with pytest.raises(Exception):
        table.vector(5)
    with pytest.raises(DimensionMismatchError):
        EmbeddingTable({0: np.ones(3), 1: np.ones(4)})


def test_orthonormal_basis_rejects_skewed_columns():
    with pytest.raises(ValidationError):
        OrthonormalBasis(np.array([[1.0, 1.0], [0.0, 1.0], [0.0, 0.0]]))


def test_session_stream_validation_and_k_shot():
    store = FeatureStore(2, {0: np.ones((4, 2)), 1: np.zeros((4, 2))},
                         {0: np.ones((2, 2)), 1: np.zeros((2, 2))})
    reg = ClassRegistry([(0,), (1,)])
    stream = SessionStream(store, reg, RunConfig(), k_shot=2)
    assert len(stream.support_examples(0)) == 4  # base session uses the full pool
    assert len(stream.support_examples(1)) == 2
    q = stream.query_batch_up_to(1)
    assert len(q) == 4
    with pytest.raises(MissingExampleError):
        SessionStream(store, ClassRegistry([(0, 7)]), RunConfig())
