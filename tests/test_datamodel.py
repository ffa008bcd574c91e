import numpy as np
import pytest

from incrlin.datamodel import (
    Batch,
    ClassRegistry,
    EmbeddingTable,
    FeatureStore,
    OrthonormalBasis,
    RunConfig,
    SessionStream,
    WeightMatrix,
    update_memory,
)
from incrlin.errors import (
    ConfigError,
    DimensionMismatchError,
    DisjointClassError,
    MissingExampleError,
    ValidationError,
)

from conftest import pools_store


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


def test_session_of():
    reg = ClassRegistry([(3, 1), (7,)])
    assert reg.session_of(1) == 0
    assert reg.session_of(7) == 1
    with pytest.raises(ValidationError):
        reg.session_of(9)


# --- memory ------------------------------------------------------------------

def _support(classes, shots, d=4, seed=0):
    rng = np.random.default_rng(seed)
    ids = np.repeat(np.asarray(classes, dtype=np.int64), shots)
    return Batch(rng.standard_normal((ids.size, d)), ids)


def test_update_memory_grows_by_one_per_class():
    memory = update_memory(None, _support(range(5), 5), np.random.default_rng(0), range(5))
    assert len(memory) == 5
    assert set(memory.class_ids.tolist()) == set(range(5))


def test_update_memory_deterministic_under_seed():
    support = _support(range(5), 7)
    a = update_memory(None, support, np.random.default_rng(3), range(5))
    b = update_memory(None, support, np.random.default_rng(3), range(5))
    np.testing.assert_array_equal(a.class_ids, b.class_ids)
    np.testing.assert_array_equal(a.features, b.features)


def test_update_memory_missing_class_error():
    with pytest.raises(MissingExampleError):
        update_memory(None, _support([0, 1], 2), np.random.default_rng(0), [0, 1, 2])


def test_memory_size_invariant_and_persistence():
    # |memory| after session t equals the total class count of earlier sessions,
    # and earlier entries are byte-identical afterwards.
    rng = np.random.default_rng(1)
    memory = None
    sessions = [list(range(0, 6)), list(range(6, 9)), list(range(9, 14))]
    total = 0
    copies = []
    for classes in sessions:
        memory = update_memory(memory, _support(classes, 4, seed=total), rng, classes)
        total += len(classes)
        assert len(memory) == total
        assert set(memory.class_ids.tolist()) == set(range(total))
        copies.append((memory.class_ids.copy(), memory.features.copy()))
    first_ids, first_feats = copies[0]
    np.testing.assert_array_equal(memory.class_ids[: len(first_ids)], first_ids)
    np.testing.assert_array_equal(memory.features[: len(first_ids)], first_feats)


def test_memory_rejects_rearchiving_class():
    memory = update_memory(None, _support([0, 1], 2), np.random.default_rng(0), [0, 1])
    with pytest.raises(ValidationError, match=r"\[1\] already archived"):
        update_memory(memory, _support([1, 2], 2), np.random.default_rng(0), [1, 2])


# --- weights ----------------------------------------------------------------

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


# --- feature store -------------------------------------------------------------

def test_store_requires_query_examples():
    with pytest.raises(MissingExampleError):
        pools_store(2, {0: np.ones((1, 2))}, {0: np.empty((0, 2))})
    with pytest.raises(MissingExampleError):
        pools_store(2, {0: np.ones((1, 2))}, {1: np.ones((1, 2))})


def test_store_rejects_negative_class_ids():
    with pytest.raises(ValidationError, match="-1"):
        pools_store(2, {-1: np.ones((1, 2))}, {-1: np.ones((1, 2))})
    with pytest.raises(ValidationError, match="-3"):
        FeatureStore.from_rows(2, [0, -3], [True, True], np.ones((2, 2)))


def test_store_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        pools_store(3, {}, {0: np.ones((1, 2))})


def test_store_restrict_and_counts():
    store = pools_store(2, {0: np.ones((3, 2)), 1: np.zeros((2, 2))},
                        {0: np.ones((4, 2)), 1: np.zeros((1, 2))})
    sub = store.restrict([1])
    assert sub.classes == (1,)
    assert sub.support(1).shape[0] == 2 and sub.query(1).shape[0] == 1
    with pytest.raises(MissingExampleError):
        store.restrict([5])


def test_store_support_examples_k_limit():
    store = pools_store(2, {0: np.arange(10.0).reshape(5, 2)}, {0: np.ones((1, 2))})
    got = store.support_examples([0], k=3)
    assert len(got) == 3
    with pytest.raises(MissingExampleError):
        store.support_examples([0], k=9)


def test_store_support_examples_stack_in_class_order():
    store = pools_store(2, {5: np.full((2, 2), 5.0), 1: np.arange(6.0).reshape(3, 2),
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


def test_store_pools_are_read_only_views_of_one_matrix():
    store = pools_store(2, {3: np.ones((2, 2)), 1: np.zeros((1, 2))},
                        {1: np.full((2, 2), 2.0), 3: np.full((1, 2), 4.0), 2: np.ones((1, 2))})
    ids, flags, matrix = store.to_rows()
    np.testing.assert_array_equal(ids, [1, 1, 1, 2, 3, 3, 3])
    np.testing.assert_array_equal(flags, [False, True, True, True, False, False, True])
    for c in store.classes:
        for pool in (store.support(c), store.query(c)):
            assert not pool.flags.writeable
            assert np.shares_memory(pool, matrix) or pool.size == 0  # class 2 has no support
            with pytest.raises(ValueError):
                pool[...] = 0.0
    assert not matrix.flags.writeable
    run = store.restrict([2, 3])  # one run of rows: a view
    assert np.shares_memory(run.to_rows()[2], matrix) and not run.to_rows()[2].flags.writeable
    apart = store.restrict([1, 3])  # two runs: a gather
    assert not np.shares_memory(apart.to_rows()[2], matrix)
    for sub in (run, apart):
        np.testing.assert_array_equal(sub.query(3), [[4.0, 4.0]])
        np.testing.assert_array_equal(sub.support(3), np.ones((2, 2)))


def test_store_from_rows_copies_its_input():
    feats = np.arange(8.0).reshape(4, 2)
    ids = np.array([2, 0, 2, 0])
    flags = np.array([True, True, False, False])
    store = FeatureStore.from_rows(2, ids, flags, feats)
    pools = pools_store(2, {0: feats[:2]}, {0: feats[2:]})
    feats[:] = -1.0
    ids[:] = 7
    flags[:] = False
    assert store.classes == (0, 2) and pools.classes == (0,)
    np.testing.assert_array_equal(store.support(0), [[6.0, 7.0]])
    np.testing.assert_array_equal(store.query(2), [[0.0, 1.0]])
    np.testing.assert_array_equal(pools.query(0), [[4.0, 5.0], [6.0, 7.0]])
    assert feats.flags.writeable and ids.flags.writeable


def test_store_constructor_takes_over_a_sorted_table():
    # the constructor neither sorts nor copies: it checks the order, then
    # freezes the arrays it was given and reads them in place
    ids = np.array([0, 0, 2])
    flags = np.array([False, True, True])
    matrix = np.arange(6.0).reshape(3, 2)
    store = FeatureStore(2, ids, flags, matrix)
    assert store.classes == (0, 2)
    assert not (ids.flags.writeable or flags.flags.writeable or matrix.flags.writeable)
    assert np.shares_memory(store.query(2), matrix)
    np.testing.assert_array_equal(store.support(0), [[0.0, 1.0]])
    for bad_ids, bad_flags in (([2, 0, 0], [True, False, True]),  # classes out of order
                               ([0, 0, 2], [True, False, True])):  # query before support
        with pytest.raises(ValidationError, match="^row table is not sorted by class and split$"):
            FeatureStore(2, np.array(bad_ids), np.array(bad_flags), np.arange(6.0).reshape(3, 2))


def test_store_constructor_checks_its_arrays_agree():
    ids, flags = np.array([0, 0, 1, 1]), np.array([False, True, False, True])
    with pytest.raises(DimensionMismatchError):
        FeatureStore(3, ids, flags, np.ones((4, 5)))
    with pytest.raises(ValidationError, match="shapes"):  # 3 rows for 4 ids
        FeatureStore(5, ids, flags, np.ones((3, 5)))
    with pytest.raises(ValidationError, match="shapes"):
        FeatureStore(5, ids, flags[:3], np.ones((4, 5)))
    for bad in ((ids + 0.5, flags, np.ones((4, 2))),  # float class ids
                (ids, flags.astype(np.int64), np.ones((4, 2))),  # integer flags
                (ids, flags, np.ones((4, 2), dtype=np.float32))):
        with pytest.raises(ValidationError, match="^row table must be"):
            FeatureStore(2, *bad)
    with pytest.raises(ValidationError, match="dimension must be positive"):
        FeatureStore(0, ids, flags, np.ones((4, 0)))


def test_store_non_finite_error_names_the_class():
    feats = np.ones((6, 2))
    feats[4, 1] = np.nan
    with pytest.raises(ValidationError, match="class 5: non-finite"):
        FeatureStore.from_rows(2, [1, 1, 5, 5, 5, 9], [False, True] * 3, feats)


def test_batch_shape_and_empty():
    batch = Batch(np.ones((1, 2)), np.array([3]))
    assert len(batch) == 1 and batch.dimension == 2
    with pytest.raises(ValidationError):
        Batch(np.empty((0, 2)), np.empty(0, dtype=np.int64))


def test_batch_rejects_non_integer_class_ids():
    for bad in ([1.7, 2.2], [np.nan, 1.0], ["1", "2"]):
        with pytest.raises(ValidationError, match="class ids must be integers"):
            Batch(np.ones((2, 2)), bad)
    assert Batch(np.ones((2, 2)), np.array([1, 2], dtype=np.int32)).class_ids.dtype == np.int64


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
    assert RunConfig(max_epochs=np.int64(5), rng_seed=np.uint32(7)).max_epochs == 5


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
    store = pools_store(2, {0: np.ones((4, 2)), 1: np.zeros((4, 2))},
                        {0: np.ones((2, 2)), 1: np.zeros((2, 2))})
    reg = ClassRegistry([(0,), (1,)])
    stream = SessionStream(store, reg, RunConfig(), k_shot=2)
    assert len(stream.support_examples(0)) == 4  # base session uses the full pool
    assert len(stream.support_examples(1)) == 2
    q = stream.query_batch_up_to(1)
    assert len(q) == 4
    with pytest.raises(MissingExampleError):
        SessionStream(store, ClassRegistry([(0, 7)]), RunConfig())
