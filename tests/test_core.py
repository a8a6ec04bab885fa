"""Tests for the core geometry, dataset container and file formats."""

import json
import math
import re

import numpy as np
import pytest

from seqclust import (
    Dataset,
    assign_nearest,
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
from seqclust.core import _BLOCK_BYTES, _write_json


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


@pytest.mark.filterwarnings("ignore:d=1 data")
@pytest.mark.parametrize("d", [*range(1, 10), 200, 33_000])  # both layouts and the cut-off
@pytest.mark.parametrize("k", [1, 3, 50])
def test_normalized_distances_is_bit_exact_across_blocks(d, k):
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
@pytest.mark.parametrize("row, value", [(3, np.nan), (4, np.inf), (0, -np.inf)],
                         ids=["nan", "inf", "-inf"])
def test_scorers_reject_non_finite_rows_naming_the_row(score, row, value):
    # unchecked, such a row gets a nan or inf risk, cluster 0 or a skipped pull
    with pytest.raises(ValueError, match=f"row {row} contains non-finite"):
        score(_with_row(row, value))


def test_dataset_d1_warns():
    with pytest.warns(RuntimeWarning):
        Dataset(X=np.array([[1.0], [2.0]]))


def test_dataset_rows_immutable():
    ds = Dataset(X=np.arange(6, dtype=float).reshape(3, 2))
    with pytest.raises(ValueError):
        ds.X[0, 0] = 99.0


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


@pytest.mark.parametrize("text, message", [
    ("", "empty file"),
    ("x1,x2\n1.0,abc\n", "could not parse numeric data"),
    ("x1,x2\n", "no data rows"),
    ("x1,x2,x3\n1.0,2.0\n", "header names 3 columns, rows have 2"),
    ("label,outlier\n0,1\n", "no feature columns"),
    ("x1,outlier\n1.0,2\n", "outlier_flags[0] is 2.0, not 0 or 1"),
], ids=["empty", "unparsable", "no-rows", "columns", "no-features", "outlier-flag"])
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
    ],
    ids=["nan-row", "inf-row", "1-d", "3-d", "k=0", "n<k"],
)
def test_fits_reject_bad_input_naming_the_problem(fit, data, k, message):
    with pytest.raises(ValueError, match=message):
        fit(data, k)
