import ast
import concurrent.futures
import json
import math
import pickle
import re
import tracemalloc
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import spde_lab
from spde_lab import montecarlo
from spde_lab.montecarlo import (
    Check,
    RandomStream,
    Report,
    block_moments,
    compare,
    map_blocks,
    pairwise_stats,
    write_report_csv,
    write_summary_json,
)


def test_same_key_reproduces_draws():
    a = RandomStream(42).child(1, 5).generator().standard_normal(64)
    b = RandomStream(42).child(1, 5).generator().standard_normal(64)
    assert np.array_equal(a, b)


def test_distinct_keys_differ():
    a = RandomStream(42).child(1).generator().standard_normal(64)
    b = RandomStream(42).child(2).generator().standard_normal(64)
    c = RandomStream(43).child(1).generator().standard_normal(64)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_zero_draws_is_empty():
    assert RandomStream(0).generator().standard_normal(0).shape == (0,)


def test_sibling_streams_uncorrelated():
    n = 100_000
    x = RandomStream(7).child(0).generator().standard_normal(n)
    y = RandomStream(7).child(1).generator().standard_normal(n)
    assert abs(np.corrcoef(x, y)[0, 1]) < 0.01


def test_step_component_does_not_leak_across_samples():
    # Draws under sample key 0 are unchanged by anything done under key 1.
    base = RandomStream(3)
    before = base.child(0, 123).generator().standard_normal(16)
    base.child(1, 456).generator().standard_normal(1000)
    after = base.child(0, 123).generator().standard_normal(16)
    assert np.array_equal(before, after)


def _seed_sequence_draws(master_seed, path, samples, shape) -> np.ndarray:
    """Each sample's draws from numpy's own SeedSequence-keyed Philox stream,
    stacked: the oracle for the keys block_chunks derives itself."""
    return np.stack([
        np.random.Generator(
            np.random.Philox(np.random.SeedSequence(master_seed, spawn_key=path + (i,)))
        ).standard_normal(shape)
        for i in samples
    ])


@pytest.mark.parametrize(
    "master_seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 5, 2**96 + 1, 2**128 + 7, 2**160 + 3]
)
@pytest.mark.parametrize("path", [(), (0,), (1, 5), (2**40,), (2**64 + 9,), (0, 2**40, 7)])
def test_philox_keys_match_seed_sequence(master_seed, path):
    # The vectorized keys equal SeedSequence's, also in a block across index
    # 2^32, where the sample index grows a second entropy word and the keys
    # from 2^32 on come from SeedSequence itself, and in one wholly above it.
    # Seeds of one to six words and paths of up to three words (one of them
    # a three-word entry) move the index word's hash constants.  The CLI runs
    # under errstate(over="raise"), where uint32 scalars, unlike arrays, trap
    # on wraparound.
    for start, stop in [(0, 5), (126, 131), (2**32 - 3, 2**32 + 2), (2**32 + 5, 2**32 + 7)]:
        with np.errstate(over="raise"):
            keys = montecarlo._philox_keys(master_seed, path, start, stop)
        expected = [
            np.random.SeedSequence(master_seed, spawn_key=path + (i,)).generate_state(2, np.uint64)
            for i in range(start, stop)
        ]
        assert keys.dtype == np.uint64 and np.array_equal(keys, expected)
    assert montecarlo._philox_keys(master_seed, path, 4, 4).shape == (0, 2)


def test_generator_keys_philox_by_seed_sequence():
    # A stream without a carried key seeds Philox by numpy's own
    # SeedSequence, so its generator spawns and pickles as numpy's does; a
    # stream that carries its key draws the same, and the key is no part of
    # its value.
    stream = RandomStream(2**64 + 5, (3, 1))
    gen = stream.generator()
    seq = gen.bit_generator.seed_seq
    assert isinstance(seq, np.random.SeedSequence)
    assert (seq.entropy, seq.spawn_key) == (2**64 + 5, (3, 1))
    assert len(gen.spawn(2)) == 2
    assert np.array_equal(pickle.loads(pickle.dumps(gen)).standard_normal(8),
                          stream.generator().standard_normal(8))
    draws = stream.generator().standard_normal(8)
    assert np.array_equal(draws, _seed_sequence_draws(2**64 + 5, (3,), [1], 8)[0])
    keyed = RandomStream(2**64 + 5, (3, 1), _key=montecarlo._philox_keys(2**64 + 5, (3,), 1, 2)[0])
    assert np.array_equal(keyed.generator().standard_normal(8), draws)
    assert keyed == stream and hash(keyed) == hash(stream) and repr(keyed) == repr(stream)


@pytest.mark.parametrize("shape, empty_shape", [((5,), (0, 5)), ((4, 3), (0, 4, 3))])
def test_block_chunks_match_per_sample_draws(shape, empty_shape):
    # The slices of block_chunks, joined along time, are each sample's own
    # draws; an empty sample range still yields one slice of the block's shape.
    stream = RandomStream(11)
    block = np.concatenate(list(stream.block_chunks(3, 7, shape)), axis=1)
    expected = _seed_sequence_draws(11, (), range(3, 7), shape)
    assert np.array_equal(block, expected)
    empty = np.concatenate(list(stream.block_chunks(2, 2, shape)), axis=1)
    assert empty.shape == empty_shape


@pytest.mark.parametrize("rows", [1, 3, 9, 14])
@pytest.mark.parametrize("shape", [(9, 4, 2), (9, 4), (9,), (9, 1)])
def test_block_chunks_concatenate_to_per_sample_draws(monkeypatch, shape, rows):
    # The wave, additive Burgers, heat and multiplicative Burgers (or
    # finite:1) draw shapes of a 9-step grid, in slices of 1, 3, all and more
    # than all steps: CHUNK_BYTES holds `rows` steps of 4 samples.
    monkeypatch.setattr(montecarlo, "CHUNK_BYTES", 8 * 4 * math.prod(shape[1:]) * rows)
    stream = RandomStream(13)
    chunks = list(stream.block_chunks(5, 9, shape))
    assert [c.shape[1] for c in chunks[:-1]] == [rows] * (len(chunks) - 1)
    expected = _seed_sequence_draws(13, (), range(5, 9), shape)
    assert np.array_equal(np.concatenate(chunks, axis=1), expected)


def test_block_keys_come_from_one_seed_sequence(monkeypatch):
    # A whole block's keys are derived from one SeedSequence, not one per
    # sample as before the vectorized keys, and its draws are each sample's own.
    expected = _seed_sequence_draws(5, (0,), range(128), (4,))
    built = []

    class CountingSeedSequence(np.random.SeedSequence):
        def __init__(self, *args, **kwargs):
            built.append(args)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(np.random, "SeedSequence", CountingSeedSequence)
    draws = np.concatenate(list(RandomStream(5).child(0).block_chunks(0, 128, (4,))), axis=1)
    assert len(built) == 1
    assert np.array_equal(draws, expected)


def _loop_child_calls(tree) -> set:
    """Lines of ``.child(`` calls made inside a loop or comprehension."""
    loops = (ast.For, ast.AsyncFor, ast.While, ast.ListComp, ast.SetComp, ast.DictComp,
             ast.GeneratorExp)
    return {
        node.lineno
        for loop in ast.walk(tree) if isinstance(loop, loops)
        for node in ast.walk(loop)
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "child"
    }


def test_samples_are_keyed_only_in_montecarlo():
    # One helper keys ensemble samples to substreams and sizes their time
    # slices; a per-sample loop over child(i) elsewhere would be a second
    # keying path, and a CHUNK_BYTES read elsewhere a second slice size.
    modules = sorted(Path(spde_lab.__file__).parent.glob("*.py"))
    assert any(path.name == "montecarlo.py" for path in modules)
    for path in modules:
        if path.name == "montecarlo.py":
            continue
        text = path.read_text()
        assert not re.search(r"range\(\s*start\s*,\s*stop\s*\)", text), path.name
        assert not _loop_child_calls(ast.parse(text)), path.name
        # block_chunks alone sizes the time slices of a block.
        assert "CHUNK_BYTES" not in text, path.name


def _referenced_names(tree, skip=None) -> set:
    """Identifiers read or imported in ``tree``, outside the node ``skip``."""
    inside = set(map(id, ast.walk(skip))) if skip is not None else set()
    names = set()
    for node in ast.walk(tree):
        if id(node) in inside:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rpartition(".")[2])
    return names


def test_public_api_has_a_caller():
    # Every public function, class and method of the package is referenced
    # by name in src/ outside its own definition, or by the acceptance
    # tests, which pin the library API; anything else is code only its own
    # tests call.
    root = Path(spde_lab.__file__).parent
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(root.glob("*.py"))}
    pinned = _referenced_names(
        ast.parse((Path(__file__).parent / "test_acceptance.py").read_text())
    )
    uncalled = [
        f"{name}:{node.name}"
        for name, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
        if node.name not in pinned
        and not any(
            node.name in _referenced_names(other, node if other is tree else None)
            for other in trees.values()
        )
    ]
    assert not uncalled, uncalled


def _record_fields(tree) -> list:
    """(class, field) of each annotated field of a dataclass or NamedTuple."""
    def is_record(cls):
        decorators = [d.func if isinstance(d, ast.Call) else d for d in cls.decorator_list]
        return any(getattr(d, "id", None) == "dataclass" for d in decorators) or any(
            getattr(b, "id", None) == "NamedTuple" for b in cls.bases
        )

    return [
        (cls.name, stmt.target.id)
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef) and is_record(cls)
        for stmt in cls.body
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
    ]


def test_record_fields_are_read():
    # Every field of a dataclass or NamedTuple in the package is read as an
    # attribute somewhere in src/ or in the acceptance tests; a field
    # nothing reads is state the package carries for no one.
    root = Path(spde_lab.__file__).parent
    trees = [ast.parse(path.read_text()) for path in sorted(root.glob("*.py"))]
    fields = [field for tree in trees for field in _record_fields(tree)]
    trees.append(ast.parse((Path(__file__).parent / "test_acceptance.py").read_text()))
    read = {
        node.attr
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    unread = [f"{cls}.{name}" for cls, name in fields if name not in read]
    assert fields and not unread, unread


def _pool_constructions(tree) -> list:
    """(enclosing function, keyword names) of each ProcessPoolExecutor call."""
    parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    found = []
    for node in ast.walk(tree):
        name = getattr(node, "func", None)
        if not isinstance(node, ast.Call) or "ProcessPoolExecutor" not in (
            getattr(name, "id", None), getattr(name, "attr", None)
        ):
            continue
        scope = node
        while scope in parents and not isinstance(scope, ast.FunctionDef):
            scope = parents[scope]
        found.append((getattr(scope, "name", None), {k.arg for k in node.keywords}))
    return found


def test_process_pools_are_built_only_in_map_blocks():
    # map_blocks is the one pool path; its initializer sets the worker's
    # BLAS thread count, which a pool built elsewhere would leave at the
    # library default.
    modules = sorted(Path(spde_lab.__file__).parent.glob("*.py"))
    pools = {path.name: _pool_constructions(ast.parse(path.read_text())) for path in modules}
    [(scope, keywords)] = pools.pop("montecarlo.py")
    assert scope == "map_blocks" and "initializer" in keywords
    assert not any(pools.values()), pools


def test_gaussian_moments_fixed_seed():
    draws = RandomStream(2024).generator().standard_normal(1_000_000)
    assert abs(draws.mean()) < 0.004
    assert abs(draws.var(ddof=1) - 1.0) < 0.01


def test_large_sample_variance_regression():
    draws = RandomStream(99).generator().standard_normal(1_000_000)
    stats = pairwise_stats(draws)
    assert abs(stats.stderr**2 * draws.size - 1.0) < 0.01


@pytest.mark.parametrize("n", [1, 2, 3, 7, 100, 1001])
def test_pairwise_stats_matches_numpy(n):
    rng = np.random.default_rng(n)
    vals = rng.standard_normal(n) * 3 + 1
    if n < 2:
        with pytest.raises(ValueError, match="two samples"):
            pairwise_stats(vals)
        return
    stats = pairwise_stats(vals)
    assert stats.mean == pytest.approx(vals.mean(), rel=1e-12)
    assert stats.stderr == pytest.approx(vals.std(ddof=1) / math.sqrt(n), rel=1e-10)


def test_pairwise_stats_vector_payload():
    rng = np.random.default_rng(0)
    vals = rng.standard_normal((501, 4))
    stats = pairwise_stats(vals)
    np.testing.assert_allclose(stats.mean, vals.mean(axis=0), rtol=1e-12)
    np.testing.assert_allclose(stats.stderr, vals.std(axis=0, ddof=1) / math.sqrt(501), rtol=1e-10)


def test_compare_exact_agreement():
    stats = pairwise_stats([2.0, 2.0, 2.0])
    row = compare(Check("label", 1.0, 2.0, (stats.mean, stats.stderr)))
    assert row.z == 0.0 and row.passed


def test_compare_deterministic_mismatch():
    row = compare(Check("label", 0.0, 1.0, (2.0, 0.0)))
    assert not row.passed
    assert math.isinf(row.z)
    assert "deterministic mismatch" in row.note


def test_compare_one_sided_zero_stderr_below_bound_passes():
    row = compare(Check("bound", 0.0, 1.0, (0.0, 0.0), one_sided=True))
    assert row.passed


def test_compare_one_sided_ignores_low_side():
    stats = pairwise_stats([0.0, 0.1, -0.1, 0.05])
    row = compare(Check("bound", 0.0, 5.0, (stats.mean, stats.stderr), one_sided=True))
    assert row.passed and row.z < -3


@pytest.mark.parametrize("estimate", [(math.nan, math.nan), (math.nan, 0.0), (1.0, math.inf)])
def test_compare_non_finite_estimate_fails(estimate):
    # A non-finite sample reaches the estimate as NaN or inf: the row fails,
    # one-sided or not, instead of passing or raising.
    row = compare(Check("bound", 0.0, 1.0, estimate, one_sided=True))
    assert not row.passed and math.isnan(row.z)
    assert "non-finite estimate" in row.note


def test_report_gating_and_counts(tmp_path):
    # A row from numpy inputs (a numpy closed form, a pairwise_stats
    # estimate) holds Python numbers like any other, so the counts are ints
    # and the summary serializes without a conversion hook.
    stats = pairwise_stats(np.array([0.9, 1.0, 1.1]))
    report = Report(
        [
            compare(Check("ok", 0.0, 1.0, (1.0, 0.1))),
            compare(Check("numpy", np.float64(0.5), np.float64(1.0), (stats.mean, stats.stderr))),
            compare(Check("diag", 0.0, 1.0, (9.0, 0.1), gating=False)),
        ]
    )
    for row in report.rows:
        assert all(
            type(x) is float for x in (row.t, row.closed_form, row.mc_mean, row.mc_stderr, row.z)
        )
        assert type(row.passed) is bool
    assert report.all_passed()
    counts = report.counts()
    assert counts == {
        "rows": 3,
        "gating": 2,
        "passed": 2,
        "failed": 0,
        "diagnostic_failed": 1,
    }
    assert all(type(v) is int for v in counts.values())
    write_summary_json(report, tmp_path / "summary.json")
    assert json.loads((tmp_path / "summary.json").read_text())["checks"] == counts


def test_report_csv_header(tmp_path):
    report = Report([compare(Check("row", 0.5, 1.0, (1.01, 0.02)))])
    path = tmp_path / "report.csv"
    write_report_csv(report, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "label,t,closed_form,mc_mean,mc_stderr,z,pass"
    assert lines[1].startswith("row,0.5,1,1.01")


def _block_identity(start, stop):
    rows = np.arange(start, stop, dtype=float)[:, np.newaxis] ** 2
    return rows, block_moments(rows)


def test_pairwise_stats_reduces_columns_without_copying_the_input(monkeypatch):
    # A non-contiguous [10000, 401] view, the shape of a wave run's energy
    # columns, reduced in 58 column groups of 7 (the last one ragged, of 2),
    # equals its column-by-column reduction bit for bit.  Every third entry
    # of the next-to-last column is NaN: that column alone reads NaN.
    values = np.random.default_rng(5).standard_normal((10000, 414))[:, 13:]
    values[::3, -2] = np.nan
    monkeypatch.setattr(montecarlo, "CHUNK_BYTES", 8 * len(values) * 7)
    tracemalloc.start()
    try:
        stats = pairwise_stats(values)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 0.25 * values.nbytes
    columns = [pairwise_stats(values[:, j]) for j in range(values.shape[1])]
    assert np.array_equal(stats.mean, [c.mean for c in columns], equal_nan=True)
    assert np.array_equal(stats.stderr, [c.stderr for c in columns], equal_nan=True)
    for got in (stats.mean, stats.stderr):
        assert np.isnan(got[-2]) and np.isfinite(np.delete(got, -2)).all()


def _slice_block(values, start, stop):
    rows = values[start:stop]
    return rows, block_moments(rows)


def test_block_size_is_a_power_of_two():
    # Block i is then node i at level log2(BLOCK_SIZE) of the canonical merge
    # tree, so merging the blocks' moments continues that tree exactly.
    size = montecarlo.BLOCK_SIZE
    assert size > 0 and size & (size - 1) == 0


@settings(max_examples=40, deadline=None)
@example(n=montecarlo.BLOCK_SIZE + 1, cols=2, seed=0, nans=[1])
@example(n=1100, cols=1, seed=1, nans=[])
@given(
    n=st.one_of(
        st.integers(2, 1100), st.integers(1, 8).map(lambda k: k * montecarlo.BLOCK_SIZE + 1)
    ),
    cols=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
    nans=st.lists(st.integers(0, 10**6), max_size=3),
)
def test_merged_block_moments_equal_pairwise_stats(n, cols, seed, nans):
    # n of 2 to 1,100 samples, some with a last block of one sample and
    # some with NaN entries: the merged moments of map_blocks' blocks give
    # pairwise_stats' mean and standard error of the whole ensemble bit for
    # bit, NaN where a column holds one.
    values = np.random.default_rng(seed).standard_normal((n, cols)) * 10 + 3
    for k in nans:
        values[k % n, k % cols] = np.nan
    rows, moments = map_blocks(partial(_slice_block, values), n)
    assert moments.n == n and np.array_equal(rows, values, equal_nan=True)
    got, want = moments.stats(), pairwise_stats(values)
    assert np.array_equal(got.mean, want.mean, equal_nan=True)
    assert np.array_equal(got.stderr, want.stderr, equal_nan=True)


def test_map_blocks_order_and_block_invariance(monkeypatch):
    monkeypatch.setattr(montecarlo, "BLOCK_SIZE", 64)
    out, moments = map_blocks(_block_identity, 300)
    np.testing.assert_array_equal(out[:, 0], np.arange(300.0) ** 2)
    out_workers, moments_workers = map_blocks(_block_identity, 300, workers=4)
    np.testing.assert_array_equal(out, out_workers)
    assert moments.n == moments_workers.n == 300
    assert np.array_equal(moments.mean, moments_workers.mean)
    assert np.array_equal(moments.m2, moments_workers.m2)


def _block_flags(start, stop):
    rows = np.arange(start, stop) % 3
    return rows, block_moments(rows)


@pytest.mark.parametrize("workers", [1, 2])
def test_map_blocks_matches_concatenated_blocks(monkeypatch, workers):
    # 300 samples in blocks of 64 end in a ragged block of 44; a float and
    # an int kernel each fill one array of their own dtype, and the merged
    # block moments are those of all the rows bit for bit.
    monkeypatch.setattr(montecarlo, "BLOCK_SIZE", 64)
    for block in (_block_identity, _block_flags):
        want = np.concatenate([block(a, min(a + 64, 300))[0] for a in range(0, 300, 64)])
        got, moments = map_blocks(block, 300, workers=workers)
        assert got.dtype == want.dtype and np.array_equal(got, want)
        whole = block_moments(want)
        assert moments.n == whole.n == 300
        assert np.array_equal(moments.mean, whole.mean) and np.array_equal(moments.m2, whole.m2)


def test_map_blocks_worker_invariance_bitwise(monkeypatch):
    monkeypatch.setattr(montecarlo, "BLOCK_SIZE", 32)
    runs = {w: map_blocks(_sample_values, 200, workers=w) for w in (1, 2, 8)}
    for w in (2, 8):
        assert np.array_equal(runs[w][0], runs[1][0])
    stats, again = runs[1][1].stats(), runs[8][1].stats()
    assert np.array_equal(stats.mean, again.mean) and np.array_equal(stats.stderr, again.stderr)
    whole = pairwise_stats(runs[1][0])
    assert np.array_equal(stats.mean, whole.mean) and np.array_equal(stats.stderr, whole.stderr)


def _sample_values(start, stop):
    stream = RandomStream(17)
    rows = np.stack(
        [stream.child(i).generator().standard_normal(3) for i in range(start, stop)]
    )
    return rows, block_moments(rows)


@pytest.mark.parametrize("samples, workers, pool_size", [(96, 8, None), (300, 8, 5), (300, 2, 2)])
def test_map_blocks_caps_pool_at_blocks(monkeypatch, samples, workers, pool_size):
    # 96 samples fill one 128-sample block: a pool would fork eight
    # processes for it, so the serial path runs instead.  The stand-in pool
    # records its arguments and maps in-process, so no worker starts.
    calls = []

    class RecordingPool:
        def __init__(self, **kwargs):
            calls.append(kwargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(montecarlo, "BLOCK_SIZE", 128 if samples == 96 else 64)
    out, _ = map_blocks(_block_identity, samples, workers=workers)
    assert np.array_equal(out[:, 0], np.arange(samples, dtype=float) ** 2)
    if pool_size is None:
        assert calls == []
    else:
        [kwargs] = calls
        assert kwargs["max_workers"] == pool_size
        assert kwargs["initializer"] is montecarlo._set_blas_threads
        assert kwargs["initargs"] == (1,)


def test_blas_thread_policy_is_noop_without_the_library(monkeypatch):
    monkeypatch.setattr(montecarlo, "_openblas", lambda: None)
    monkeypatch.setattr(montecarlo, "BLOCK_SIZE", 64)
    assert montecarlo._set_blas_threads(1) is None
    out, _ = map_blocks(_block_identity, 300)
    assert np.array_equal(out[:, 0], np.arange(300.0) ** 2)


def _blas_threads_block(start, stop):
    get, _ = montecarlo._openblas()
    rows = np.full(stop - start, get())
    return rows, block_moments(rows)


@pytest.mark.parametrize("workers", [1, 2])
def test_map_blocks_runs_blocks_on_one_blas_thread(monkeypatch, workers):
    if montecarlo._openblas() is None:
        pytest.skip("numpy's bundled OpenBLAS was not found")
    monkeypatch.setattr(montecarlo, "BLOCK_SIZE", 64)
    before = montecarlo._set_blas_threads(2)
    try:
        counts, _ = map_blocks(_blas_threads_block, 300, workers=workers)
        assert np.all(counts == 1)
        assert montecarlo._openblas()[0]() == 2
    finally:
        montecarlo._set_blas_threads(before)
