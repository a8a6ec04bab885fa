"""Tests for the core geometry, dataset container and file formats."""

import contextlib
import hashlib
import json
import math
import multiprocessing
import re
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from seqclust import (
    Dataset,
    assign_nearest,
    core,
    empirical_l1_risk,
    kmeans_fit,
    kmedians_fit,
    mc_gradient,
    normalized_distances,
    pam_fit,
    read_csv,
    read_model,
    write_csv,
    write_model,
)
from seqclust.core import _BLOCK_BYTES, _CSV_BLOCK_VALUES, _FEW_VALUES, _finite, _row_min, _write_json


def _norm(z):
    """The scaled norm of z: its distance to the origin."""
    z = np.asarray(z, dtype=float)
    return float(normalized_distances(z[None], np.zeros((1, z.size)))[0, 0])


def test_normalized_norm_all_ones():
    assert _norm(np.ones(4)) == 1.0


def test_normalized_norm_zero_vector():
    assert _norm(np.zeros(7)) == 0.0


def test_normalized_norm_direct_formula():
    # d=2, z=(3,-4): sqrt((9+16)/2)
    assert math.isclose(_norm([3.0, -4.0]), math.sqrt(12.5), rel_tol=1e-15)


def test_normalized_norm_is_scaled_euclidean():
    rng = np.random.default_rng(0)
    for _ in range(20):
        d = int(rng.integers(1, 12))
        z = rng.standard_normal(d)
        expected = np.linalg.norm(z) / math.sqrt(d)
        assert math.isclose(_norm(z), expected, rel_tol=1e-12)


def test_normalized_norm_triangle_and_homogeneity():
    rng = np.random.default_rng(1)
    for _ in range(50):
        a = rng.standard_normal(5)
        b = rng.standard_normal(5)
        lam = float(rng.uniform(0.1, 5.0))
        assert _norm(a + b) <= _norm(a) + _norm(b) + 1e-12
        assert math.isclose(_norm(lam * a), lam * _norm(a), rel_tol=1e-12)


def test_nearest_center_basic_and_ties():
    # strictly closer first center
    assert assign_nearest([[0.0, 0.0]], [[1.0, 0.0], [0.0, 2.0]]).tolist() == [0]
    # exact tie broken to the lowest index
    assert assign_nearest([[0.0, 0.0]], [[1.0, 0.0], [-1.0, 0.0]]).tolist() == [0]
    # zero distance to the middle center
    centers = [[5.0, 5.0], [1.0, 2.0], [-3.0, 0.0]]
    assert assign_nearest([[1.0, 2.0]], centers).tolist() == [1]


def test_nearest_center_scale_invariance():
    rng = np.random.default_rng(2)
    X = rng.standard_normal((30, 3))
    centers = rng.standard_normal((4, 3))
    for lam in rng.uniform(0.01, 100.0, 10):
        assert (assign_nearest(X, centers) == assign_nearest(lam * X, lam * centers)).all()


def test_nearest_center_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension mismatch: data has d=3, centers have d=2"):
        assign_nearest([[1.0, 2.0, 3.0]], [[1.0, 2.0]])
    with pytest.raises(ValueError, match="X must be a 2-d array"):
        normalized_distances([1.0, 2.0], [[1.0, 2.0]])
    with pytest.raises(ValueError, match="dimension mismatch: data has d=3, centers have d=2"):
        normalized_distances([[1.0, 2.0, 3.0]], [[1.0, 2.0]])


def test_normalized_distances_matches_brute_force():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((17, 4))
    C = rng.standard_normal((3, 4))
    D = normalized_distances(X, C)
    assert D.shape == (17, 3)
    for i in range(17):
        for j in range(3):
            v = X[i] - C[j]
            assert math.isclose(D[i, j], np.sqrt(np.mean(v * v)), rel_tol=1e-12)


def _per_center_distances(X, C):
    """normalized_distances as it was first written: one n×d difference per center."""
    out = np.empty((X.shape[0], C.shape[0]))
    for r in range(C.shape[0]):
        diff = X - C[r]
        out[:, r] = np.sqrt((diff * diff).mean(axis=1))
    return out


def _blocked_inputs(rng, n, d, k):
    """(X, C) pairs in the layouts callers pass: C-order, a column-strided view,
    Fortran order and a Dataset's rows, every X read-only; one center sits on
    a row, so distance 0 occurs."""
    scale = np.exp(rng.uniform(-3, 3, d))
    wide = rng.standard_normal((n, 2 * d)) * np.repeat(scale, 2)
    C = wide[rng.integers(0, n, k), ::2] + rng.standard_normal((k, d)) * scale
    C[0] = wide[0, ::2]
    plain = np.ascontiguousarray(wide[:, ::2])
    xs = [plain, wide[:, ::2], np.asfortranarray(plain)]
    for X in xs:
        X.setflags(write=False)
    return [(X, C) for X in xs] + [(Dataset(wide[:, ::2]).X, C)]


def _split_kernel(monkeypatch, workers):
    """Split every kernel call of two or more blocks or centers over `workers`."""
    monkeypatch.setattr(core, "_WORKERS", workers)
    monkeypatch.setattr(core, "_RUN_VALUES", 1)


@pytest.mark.filterwarnings("ignore:d=1 data")
@pytest.mark.parametrize("d", [*range(1, 10), 200, 33_000])  # both layouts and the cut-off
@pytest.mark.parametrize("k", [1, 3, 50])
# one thread, and three with no least run: uneven runs of row blocks, or of
# centers at d = 33000
@pytest.mark.parametrize("workers", [1, 3])
def test_normalized_distances_is_bit_exact_across_blocks(d, k, workers, monkeypatch):
    _split_kernel(monkeypatch, workers)
    rows = max(1, _BLOCK_BYTES // (8 * k * d))  # d=33000: one row exceeds the block
    rng = np.random.default_rng([d, k])
    for n in sorted({1, max(1, rows - 1), rows, rows + 1, 3 * rows + 5}):
        for X, C in _blocked_inputs(rng, n, d, k):
            before = X.tobytes()
            # the per-center formula sums a Fortran-order X's rows left to right
            # (numpy adds 8 or more terms in pairs only along a contiguous axis);
            # the kernel sums every layout as the C-order rows are summed
            ref = _per_center_distances(np.ascontiguousarray(X), C)
            D = normalized_distances(X, C)
            assert D.shape == (n, k) and D.tobytes() == ref.tobytes(), (n, X.flags)
            assert assign_nearest(X, C).tobytes() == ref.argmin(axis=1).tobytes()
            assert empirical_l1_risk(X, C) == float(ref.min(axis=1).mean())
            assert X.tobytes() == before


@pytest.mark.parametrize("k", [1, 2, 3, 5, 9])
def test_row_min_has_the_bits_of_a_min_over_each_row(k):
    # k - 1 minimums over whole columns, against numpy's reduction over each
    # row's k values, on C- and Fortran-order matrices with ties and infinities
    rng = np.random.default_rng([7, k])
    D = np.round(rng.random((1001, k)) * 20) / 4
    D[::97] = np.inf
    D[5, -1] = -np.inf
    for M in (D, np.asfortranarray(D), D[::-2]):
        want = M.min(axis=1)
        got = _row_min(M.T)
        assert got.flags.c_contiguous and got.tobytes() == want.tobytes()
        out = np.empty(M.shape[0])
        assert _row_min(M.T, out=out) is out and out.tobytes() == want.tobytes()
    # the first axis of a stack of matrices: every one of its (g, n) minimums
    S = rng.random((k, 4, 300))
    assert _row_min(S).tobytes() == S.min(axis=0).tobytes()


class _CountedThread(threading.Thread):
    started = 0

    def start(self):
        type(self).started += 1
        super().start()


@pytest.mark.parametrize("n, d, k, threads", [
    (5000, 2, 3, 0),       # a sim1-lowd scoring call: one block
    (300, 100, 1, 0),      # one block of 300 rows
    (1, 33_000, 1, 0),     # one row and center whose k*d values overflow the block
    (2000, 2, 64, 0),      # 8 blocks, 256000 differences: too few for two runs
    (1000, 200, 3, 1),     # sim2 scoring: 19 blocks in two runs of 300000 differences
    (32, 2000, 1000, 2),   # one row's k*d overflows the block: three runs of centers
])
def test_a_call_starts_a_thread_only_for_a_run_of_its_own(n, d, k, threads, monkeypatch):
    monkeypatch.setattr(core, "_WORKERS", 3)
    monkeypatch.setattr(_CountedThread, "started", 0)
    monkeypatch.setattr(threading, "Thread", _CountedThread)
    alive = threading.active_count()
    rng = np.random.default_rng(38)
    D = normalized_distances(rng.standard_normal((n, d)), rng.standard_normal((k, d)))
    assert D.shape == (n, k) and _CountedThread.started == threads
    assert threading.active_count() == alive  # every thread joined within the call


def test_an_error_on_a_helper_thread_is_raised_by_the_call(monkeypatch):
    blocks_into = core._blocks_into

    def fail_off_the_calling_thread(X, C, out):
        if threading.current_thread() is not caller:
            raise MemoryError("helper run")
        blocks_into(X, C, out)

    caller = threading.current_thread()
    _split_kernel(monkeypatch, 3)
    monkeypatch.setattr(core, "_blocks_into", fail_off_the_calling_thread)
    alive = threading.active_count()
    X = np.random.default_rng(42).standard_normal((400, 200))
    with pytest.raises(MemoryError, match="helper run"):
        normalized_distances(X, X[:3])
    assert threading.active_count() == alive


def test_a_forked_child_computes_the_parent_bits(monkeypatch):
    # the child is forked right after a call that ran on three threads, and
    # splits the same call again on its own
    monkeypatch.setattr(core, "_WORKERS", 3)
    rng = np.random.default_rng(39)
    X, C = rng.standard_normal((2000, 200)), rng.standard_normal((5, 200))
    want = hashlib.sha256(normalized_distances(X, C).tobytes()).digest()
    ctx = multiprocessing.get_context("fork")
    receive, send = ctx.Pipe(duplex=False)
    child = ctx.Process(target=lambda: send.send(
        hashlib.sha256(normalized_distances(X, C).tobytes()).digest()))
    child.start()
    child.join(timeout=30)
    if child.is_alive():
        child.kill()
        child.join()
        pytest.fail("the forked child did not return from the kernel within 30 s")
    assert child.exitcode == 0 and receive.recv() == want


def test_concurrent_callers_get_the_serial_bits(monkeypatch):
    # six threads each split their calls over threads of their own, with the
    # GIL switched every microsecond; a run written into the wrong rows or
    # centers, or a call returning before its runs finish, would change some bytes
    rng = np.random.default_rng(41)
    cases = [(rng.standard_normal((n, d)), rng.standard_normal((k, d)))
             for n, d, k in ((700, 3, 4), (300, 200, 3), (5, 20_000, 6))]
    _split_kernel(monkeypatch, 1)
    want = [normalized_distances(X, C).tobytes() for X, C in cases]
    _split_kernel(monkeypatch, 3)
    got = []

    def caller(i):
        for _ in range(10):
            X, C = cases[i % len(cases)]
            got.append(normalized_distances(X, C).tobytes() == want[i % len(cases)])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        callers = [threading.Thread(target=caller, args=(i,)) for i in range(6)]
        for t in callers:
            t.start()
        for t in callers:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in callers)
    assert len(got) == 60 and all(got)


def test_pam_matrix_equals_per_row_distances():
    rng = np.random.default_rng(5)
    for n, d in ((300, 2), (60, 200), (40, 7)):
        X = rng.standard_normal((n, d))
        D = normalized_distances(X, X)
        assert D.tobytes() == np.stack([_per_center_distances(X, X[i:i + 1])[:, 0]
                                        for i in range(n)]).T.tobytes()
        # PAM reads row m as the distances to medoid m
        assert D.tobytes() == np.ascontiguousarray(D.T).tobytes()
        report = pam_fit(X, 2)
        assert report.distance_evals == report.build_evals == n * (n - 1) // 2


def test_assign_nearest_exactly_one_index():
    rng = np.random.default_rng(4)
    X = rng.standard_normal((40, 2))
    C = rng.standard_normal((5, 2))
    labels = assign_nearest(X, C)
    assert labels.shape == (40,)
    for i in range(40):
        diff = C - X[i]
        assert labels[i] == np.argmin((diff * diff).sum(axis=1))


def test_dataset_validation():
    X = np.zeros((4, 3))
    with pytest.raises(ValueError):
        Dataset(X=X, labels=np.zeros(3, dtype=np.int64))
    with pytest.raises(ValueError):
        Dataset(X=X, outlier_flags=np.zeros(5, dtype=bool))
    with pytest.raises(ValueError):
        Dataset(X=np.array([[1.0, np.inf]]))
    with pytest.raises(ValueError):
        Dataset(X=np.zeros((0, 2)))


@pytest.mark.parametrize("field, values, message", [
    ("labels", [1.7, 2.2, 0.0], r"labels\[0\] is 1.7, not a finite integer"),
    ("labels", [0.0, 1.0, np.nan], r"labels\[2\] is nan, not a finite integer"),
    ("labels", [0.0, -np.inf, 1.0], r"labels\[1\] is -inf, not a finite integer"),
    ("outlier_flags", [2, 0.5, 0], r"outlier_flags\[0\] is 2.0, not 0 or 1"),
    ("outlier_flags", [0, 1, -1], r"outlier_flags\[2\] is -1, not 0 or 1"),
], ids=["fractional-label", "nan-label", "inf-label", "flag-2", "flag-minus-1"])
def test_dataset_rejects_labels_and_flags_a_cast_would_change(field, values, message):
    # a cast to int64 or bool would have stored [1, 2, 0], a huge negative
    # label or [True, True, False] without a word
    with pytest.raises(ValueError, match=message):
        Dataset(X=np.zeros((3, 2)), **{field: values})


def test_dataset_keeps_integral_labels_and_boolean_flags():
    ds = Dataset(X=np.zeros((3, 2)), labels=[2.0, -1.0, 0.0], outlier_flags=[True, False, 1.0])
    assert ds.labels.dtype == np.int64 and ds.labels.tolist() == [2, -1, 0]
    assert ds.outlier_flags.dtype == bool and ds.outlier_flags.tolist() == [True, False, True]


@pytest.mark.parametrize("text, message", [
    ("x1,x2,label\n1,1,0.5\n2,2,1.7\n3,3,-0.2\n", "labels[0] is 0.5, not a finite integer"),
    ("x1,x2,label\n1,1,0\n2,2,nan\n", "labels[1] is nan, not a finite integer"),
], ids=["fractional", "nan"])
def test_read_csv_rejects_label_columns_that_are_not_integers(tmp_path, text, message):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=re.escape(f"{path}: {message}")):
        read_csv(path)


@pytest.mark.parametrize("score", [
    lambda X: empirical_l1_risk(X, [[0.0, 0.0]]),
    lambda X: assign_nearest(X, [[0.0, 0.0]]),
    lambda X: mc_gradient([[0.0, 0.0]], X),
], ids=["empirical_l1_risk", "assign_nearest", "mc_gradient"])
@pytest.mark.parametrize("row, value", [(3, np.nan), (4, np.inf), (0, -np.inf),
                                        (5, np.nan), (5, np.inf), (5, -np.inf)],
                         ids=["nan", "inf", "-inf", "nan-last", "inf-last", "-inf-last"])
def test_scorers_reject_non_finite_rows_naming_the_row(score, row, value):
    # unchecked, such a row gets a nan or inf risk, cluster 0 or a skipped pull
    with pytest.raises(ValueError, match=f"row {row} contains non-finite"):
        score(_with_row(row, value))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_dataset_rejects_a_non_finite_last_entry(value):
    X = np.ones((50, 3))
    X[-1, -1] = value
    with pytest.raises(ValueError, match="Dataset.X contains non-finite values"):
        Dataset(X)


def test_dataset_checks_finiteness_without_a_temporary_the_size_of_x():
    # np.isfinite(X) would hold one byte per entry, an eighth of X
    X = np.random.default_rng(10).standard_normal((1000, 1000))
    assert _traced_peak(lambda: Dataset(X)) <= 0.01 * X.nbytes


@pytest.mark.parametrize("size", [6, _FEW_VALUES + 1], ids=["few", "many"])
def test_finite_tells_a_non_finite_entry_from_an_overflowing_sum(size):
    big = np.full(size, 1e308)  # every entry finite, their sum inf
    assert _finite(big) and _finite(big.reshape(-1, 1)[::-1])
    for value in (np.inf, -np.inf, np.nan):
        a = np.ones(size)
        a[-1] = value
        assert not _finite(a), value
    a = np.ones(size)
    a[:2] = np.inf, -np.inf  # a NaN sum
    assert not _finite(a)


def test_dataset_d1_warns():
    with pytest.warns(RuntimeWarning):
        Dataset(X=np.array([[1.0], [2.0]]))


def test_dataset_rows_immutable():
    ds = Dataset(X=np.arange(6, dtype=float).reshape(3, 2))
    with pytest.raises(ValueError):
        ds.X[0, 0] = 99.0


def test_dataset_shares_a_c_contiguous_float64_x_and_copies_any_other():
    # sharing saves a copy of X, so the caller's own array becomes read-only
    X = np.ones((3, 2))
    ds = Dataset(X)
    assert np.shares_memory(ds.X, X) and not X.flags.writeable
    for other in (np.ones((3, 2), order="F"), np.ones((3, 2), dtype=np.float32),
                  np.ones((3, 2), dtype=np.int64), np.ones((3, 4))[:, ::2]):
        ds = Dataset(other)
        assert not np.shares_memory(ds.X, other) and other.flags.writeable
        assert not ds.X.flags.writeable and ds.X.flags.c_contiguous
        other[0, 0] = 5  # the caller's array stays writable and the dataset's does not move
        assert ds.X[0, 0] == 1.0


def test_csv_roundtrip_with_labels_and_flags(tmp_path):
    rng = np.random.default_rng(5)
    X = rng.standard_normal((25, 3))
    labels = rng.integers(-1, 3, size=25).astype(np.int64)
    flags = labels == -1
    ds = Dataset(X=X, labels=labels, outlier_flags=flags)
    path = tmp_path / "data.csv"
    write_csv(ds, path)
    back = read_csv(path)
    np.testing.assert_array_equal(back.X, X)
    np.testing.assert_array_equal(back.labels, labels)
    np.testing.assert_array_equal(back.outlier_flags, flags)
    header = path.read_text().splitlines()[0]
    assert header.split(",") == ["x1", "x2", "x3", "label", "outlier"]


def test_csv_roundtrip_plain(tmp_path):
    rng = np.random.default_rng(6)
    ds = Dataset(X=rng.standard_normal((8, 2)))
    path = tmp_path / "plain.csv"
    write_csv(ds, path)
    back = read_csv(path)
    np.testing.assert_array_equal(back.X, ds.X)
    assert back.labels is None
    assert back.outlier_flags is None


def _savetxt_csv(ds, path):
    """The reference write_csv matches byte for byte: np.savetxt of all columns,
    %.17g per feature and %d per label or flag column."""
    cols, fmt, blocks = [f"x{j + 1}" for j in range(ds.d)], ["%.17g"] * ds.d, [ds.X]
    for name, col in (("label", ds.labels), ("outlier", ds.outlier_flags)):
        if col is not None:
            cols.append(name)
            fmt.append("%d")
            blocks.append(col[:, None].astype(float))
    np.savetxt(path, np.hstack(blocks), fmt=fmt, delimiter=",", header=",".join(cols),
               comments="")


# values whose %.17g text is easy to get wrong: a signed zero, the smallest
# subnormal, a tiny normal, an inexact decimal, and integers past 2**53
_PINNED_VALUES = [-0.0, 5e-324, 1e-300, 0.1, 1e16, 1e17, 123456789012345678.0]


@pytest.mark.parametrize("columns", [(), ("labels",), ("outlier_flags",),
                                     ("labels", "outlier_flags")],
                         ids=["plain", "labels", "flags", "both"])
@pytest.mark.parametrize("rows", ["one", "blocks"])
@pytest.mark.parametrize("d", [1, 3])
def test_write_csv_bytes_equal_savetxt(tmp_path, d, rows, columns):
    width = d + len(columns)
    # two full blocks and one row more, so the last block is short
    n = 1 if rows == "one" else 2 * (_CSV_BLOCK_VALUES // width) + 1
    values = _PINNED_VALUES + [-v for v in _PINNED_VALUES]
    X = np.resize(values, n * d).reshape(n, d)
    extra = {"labels": np.resize([-1, 0, 2, 1], n),
             "outlier_flags": np.resize([True, False], n)}
    with pytest.warns(RuntimeWarning) if d == 1 else contextlib.nullcontext():
        ds = Dataset(X, **{c: extra[c] for c in columns})
    write_csv(ds, tmp_path / "blocks.csv")
    _savetxt_csv(ds, tmp_path / "savetxt.csv")
    assert (tmp_path / "blocks.csv").read_bytes() == (tmp_path / "savetxt.csv").read_bytes()


@pytest.mark.parametrize("header", ["label,x1,outlier,x2", "label,x1,x2"])
def test_read_csv_takes_label_and_outlier_from_any_column(tmp_path, header):
    X = np.array([[0.1, -0.0], [1e17, 5e-324], [123456789012345678.0, -1e-300]])
    labels, flags = np.array([2, -1, 0]), np.array([False, True, False])
    names = header.split(",")
    cols = {"x1": X[:, 0], "x2": X[:, 1], "label": labels, "outlier": flags.astype(int)}
    lines = [",".join(repr(cols[c][i].item()) for c in names) for i in range(len(X))]
    path = tmp_path / "order.csv"
    path.write_text("\n".join([header, *lines]) + "\n")
    back = read_csv(path)
    assert back.X.tobytes() == X.tobytes()  # bit for bit, signed zero included
    assert back.X.flags.c_contiguous and not back.X.flags.writeable
    assert back.labels.tolist() == labels.tolist()
    if "outlier" in names:
        assert back.outlier_flags.tolist() == flags.tolist()
    else:
        assert back.outlier_flags is None


def _traced_peak(call) -> int:
    """Peak bytes that tracemalloc sees (numpy's buffers included) during call()."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_csv_io_holds_no_extra_copy_of_the_rows(tmp_path):
    # a 1000x400 binary matrix, as the viewing profiles are: X holds 3.2 MB.
    # Measured: read 1.22x X plain and 2.14x with a label column (np.loadtxt's
    # array, its row growth and the finiteness check, plus the gathered features)
    # and write under 0.09x X; a copy of X in either would pass every bound.
    rng = np.random.default_rng(9)
    X = rng.integers(0, 2, size=(1000, 400)).astype(float)
    plain, labelled = Dataset(X), Dataset(X, labels=rng.integers(-1, 3, size=1000))
    plain_path, labelled_path = tmp_path / "plain.csv", tmp_path / "labelled.csv"
    write_csv(plain, plain_path)
    assert _traced_peak(lambda: write_csv(labelled, labelled_path)) <= 0.2 * X.nbytes
    assert _traced_peak(lambda: read_csv(plain_path)) <= 1.3 * X.nbytes
    assert _traced_peak(lambda: read_csv(labelled_path)) <= 2.3 * X.nbytes


@pytest.mark.parametrize("text, message", [
    ("", "empty file"),
    ("x1,x2\n1.0,abc\n", "could not parse numeric data"),
    ("x1,x2\n", "no data rows"),
    ("x1,x2,x3\n1.0,2.0\n", "header names 3 columns, rows have 2"),
    ("label,outlier\n0,1\n", "no feature columns"),
    ("x1,outlier\n1.0,2\n", "outlier_flags[0] is 2.0, not 0 or 1"),
    ("x1,label,label\n1.0,0,1\n", "header names column 'label' more than once"),
    ("outlier,x1,outlier\n0,1.0,1\n", "header names column 'outlier' more than once"),
], ids=["empty", "unparsable", "no-rows", "columns", "no-features", "outlier-flag",
        "duplicate-label", "duplicate-outlier"])
def test_read_csv_rejects_malformed_files(tmp_path, text, message):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=re.escape(f"{path}: {message}")):
        read_csv(path)


def test_model_roundtrip(tmp_path):
    rng = np.random.default_rng(7)
    ds = Dataset(X=rng.standard_normal((30, 2)))
    report = kmeans_fit(ds, 3, restarts=2, seed=42)
    path = tmp_path / "model.json"
    write_model(report, path)
    model = read_model(path)
    assert model["algorithm"] == "kmeans"
    assert model["k"] == 3 and model["d"] == 2
    np.testing.assert_allclose(model["centers"], report.centers, rtol=0, atol=0)
    assert math.isclose(model["risk"], report.risk, rel_tol=0)
    # wall time must never enter the snapshot: snapshots are deterministic
    raw = json.loads(path.read_text())
    assert "wall_time" not in raw


def test_model_bytes_do_not_depend_on_numpy_scalar_types(tmp_path):
    X = np.random.default_rng(8).standard_normal((40, 2))
    paths = [tmp_path / "int.json", tmp_path / "int64.json"]
    for seed, path in zip((5, np.int64(5)), paths):
        write_model(kmeans_fit(X, 3, seed=seed), path)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_write_json_encodes_numpy_at_any_depth(tmp_path):
    path = tmp_path / "doc.json"
    _write_json({"a": [np.int64(1), {"b": np.float32(0.5), "c": np.bool_(True)}],
                 "d": np.arange(3), "e": np.float64(0.1)}, path)
    assert json.loads(path.read_text()) == {"a": [1, {"b": 0.5, "c": True}],
                                            "d": [0, 1, 2], "e": 0.1}


def test_failed_json_write_leaves_no_file(tmp_path):
    path = tmp_path / "doc.json"
    with pytest.raises(TypeError, match="Object of type object is not JSON serializable"):
        _write_json({"x": object()}, path)
    assert not path.exists()


def test_model_rejects_foreign_json(tmp_path):
    path = tmp_path / "other.json"
    path.write_text(json.dumps({"format": "something-else"}))
    with pytest.raises(ValueError):
        read_model(path)


@pytest.mark.parametrize("key", ["counts", "update_counts", "medoid_indices"])
def test_model_integer_arrays_are_not_truncated(tmp_path, key):
    path = tmp_path / "model.json"
    doc = {"format": "seqclust-model", "version": 1, "algorithm": "x", "centers": [[0.0], [1.0]]}
    message = rf"{re.escape(str(path))}: model {key} is not an array of integers"
    for bad in ([1.5, 2.7, 3.0], [1, 2**63], [1e300], [True], ["3"]):
        path.write_text(json.dumps(dict(doc, **{key: bad})))
        with pytest.raises(ValueError, match=message):
            read_model(path)
    path.write_text(json.dumps(dict(doc, **{key: [1.0, 2, 3]})))
    values = read_model(path)[key]
    assert values.dtype == np.int64 and values.tolist() == [1, 2, 3]


def _with_row(i, value):
    X = np.arange(12.0).reshape(6, 2)
    X[i, 1] = value
    return X


@pytest.mark.parametrize(
    "fit",
    [
        lambda data, k: kmeans_fit(data, k, restarts=1, seed=0),
        lambda data, k: kmedians_fit(data, k, restarts=1, seed=0),
        pam_fit,
    ],
    ids=["kmeans", "kmedians", "pam"],
)
@pytest.mark.parametrize(
    "data, k, message",
    [
        (_with_row(3, np.nan), 2, r"row 3 contains non-finite"),
        (_with_row(4, -np.inf), 2, r"row 4 contains non-finite"),
        (np.arange(6.0), 2, r"2-d \(n, d\) array .* shape \(6,\)"),
        (np.zeros((4, 3, 2)), 2, r"2-d \(n, d\) array .* shape \(4, 3, 2\)"),
        (np.arange(12.0).reshape(6, 2), 0, r"k must be >= 1"),
        (np.arange(6.0).reshape(3, 2), 5, r"need at least k=5 observations, got n=3"),
        (np.zeros((0, 2)), 1, r"need at least k=1 observations, got n=0"),
    ],
    ids=["nan-row", "inf-row", "1-d", "3-d", "k=0", "n<k", "n=0"],
)
def test_fits_reject_bad_input_naming_the_problem(fit, data, k, message):
    with pytest.raises(ValueError, match=message):
        fit(data, k)
