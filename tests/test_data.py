import math
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.stats import chi2, norm

from momclf.data import (
    TOY_INLIER_VAR,
    CsvDimensionError,
    CsvLabelError,
    CsvParseError,
    Dataset,
    Partition,
    generate_gaussians,
    generate_moons,
    generate_toy,
    load_csv,
    random_equipartition,
    write_csv,
)


def test_dataset_invariants():
    with pytest.raises(ValueError):
        Dataset(X=np.zeros((2, 2)), y=np.array([1.0, 2.0]))  # bad label
    with pytest.raises(ValueError):
        Dataset(X=np.array([[np.nan, 0.0]]), y=np.array([1.0]))
    ds = Dataset(X=np.zeros((3, 2)), y=np.array([1.0, -1.0, 1.0]))
    assert ds.n == 3 and ds.p == 2


@pytest.mark.parametrize("shape", [(6, 0), (0, 2)], ids=["no-columns", "no-rows"])
def test_dataset_refuses_an_x_without_rows_or_columns_naming_its_shape(shape):
    with pytest.raises(ValueError, match=rf"got shape \({shape[0]}, {shape[1]}\)"):
        Dataset(X=np.zeros(shape), y=np.ones(shape[0]))


@pytest.mark.parametrize("flags, bad", [
    ([np.nan, 2.0], r"is_outlier\[0\] = nan"),
    ([0.0, 2.0], r"is_outlier\[1\] = 2.0"),
    ([1, "yes"], r"is_outlier\[1\] = 'yes'"),
    ([None, 0], r"is_outlier\[0\] = None"),
], ids=["nan", "two", "word", "none"])
def test_dataset_rejects_non_binary_outlier_flags_with_index(flags, bad):
    with pytest.raises(ValueError, match=bad):
        Dataset(X=np.zeros((2, 1)), y=np.array([1.0, -1.0]), is_outlier=flags)


@pytest.mark.parametrize("flags", [[True, False], [1, 0], [1.0, 0.0], ["1", "0"]])
def test_dataset_reads_boolean_and_01_outlier_flags(flags):
    ds = Dataset(X=np.zeros((2, 1)), y=np.array([1.0, -1.0]), is_outlier=flags)
    assert ds.is_outlier.dtype == bool
    assert ds.is_outlier.tolist() == [True, False]


def test_toy_counts_and_flags():
    ds = generate_toy(600, 30, 42)
    assert ds.n == 630
    assert int(ds.is_outlier.sum()) == 30
    out = ds.X[ds.is_outlier]
    # outliers cluster tightly near (24, 8): sd 0.316 per coordinate
    assert np.linalg.norm(out.mean(axis=0) - [24.0, 8.0]) < 0.3
    assert np.all(ds.y[ds.is_outlier] == 1.0)


def test_toy_minimal_split():
    ds = generate_toy(2, 0, 1)
    assert ds.n == 2
    assert set(ds.y) == {-1.0, 1.0}
    assert not ds.is_outlier.any()


def test_toy_bayes_rule_reaches_the_gaussian_ceiling():
    # the ceiling the robustness criterion gates on: class means -/+(1,1)
    # lie sqrt(2) from the boundary x0 + x1 = 0 along (1,1)/sqrt(2)
    bayes = norm.cdf(np.linalg.norm((1.0, 1.0)) / np.sqrt(TOY_INLIER_VAR))
    n = 200_000
    ds = generate_toy(n, 0, 11)
    pred = np.where(-(ds.X[:, 0] + ds.X[:, 1]) >= 0, 1.0, -1.0)
    acc = float(np.mean(pred == ds.y))
    assert abs(acc - bayes) <= 3 * np.sqrt(bayes * (1 - bayes) / n)


def test_toy_determinism():
    a = generate_toy(600, 30, 7)
    b = generate_toy(600, 30, 7)
    assert np.array_equal(a.X, b.X)
    assert np.array_equal(a.y, b.y)
    assert np.array_equal(a.is_outlier, b.is_outlier)
    c = generate_toy(600, 30, 8)
    assert not np.array_equal(a.X, c.X)


def test_toy_class_balance():
    ds = generate_toy(600, 0, 3)
    assert int((ds.y == 1.0).sum()) == 300


def test_moons_counts_and_balance():
    ds = generate_moons(1000, 0.3, 5)
    assert ds.n == 1000
    assert abs(int((ds.y == 1.0).sum()) - int((ds.y == -1.0).sum())) <= 1


def test_moons_noiseless_first_parameter_points():
    # two points, one per moon, at t=0 of each arc
    ds = generate_moons(2, 0.0, 9)
    pts = {tuple(np.round(row, 12)) for row in ds.X}
    assert pts == {(1.0, 0.0), (2.0, -0.5)}
    up = ds.X[ds.y == 1.0][0]
    assert tuple(np.round(up, 12)) == (1.0, 0.0)


@pytest.mark.parametrize("noise_sd, rule", [
    (math.nan, "be finite and >= 0, got NaN"),
    (math.inf, "be finite and >= 0, got Infinity"),
    (-0.3, "be finite and >= 0, got -0.3"),
    (True, "be a JSON number, got true"),
], ids=["nan", "inf", "negative", "bool"])
def test_moons_refuses_a_noise_sd_that_is_not_finite_and_non_negative(noise_sd, rule):
    with pytest.raises(ValueError, match=re.escape(f"field 'noise_sd' must {rule}")):
        generate_moons(10, noise_sd, 1)


def test_moons_arcs_have_unit_radius():
    ds = generate_moons(400, 0.0, 11)
    upper = ds.X[ds.y == 1.0]
    lower = ds.X[ds.y == -1.0]
    np.testing.assert_allclose(np.linalg.norm(upper, axis=1), 1.0, atol=1e-12)
    np.testing.assert_allclose(
        np.linalg.norm(lower - [1.0, -0.5], axis=1), 1.0, atol=1e-12)


def test_gaussians_counts():
    ds = generate_gaussians(20000, 1)
    assert ds.n == 20000
    assert int((ds.y == 1.0).sum()) == 10000
    small = generate_gaussians(2, 1)
    assert set(small.y) == {-1.0, 1.0}


def test_gaussians_class_conditional_means():
    ds = generate_gaussians(100_000, 123)
    pos = ds.X[ds.y == 1.0].mean(axis=0)
    neg = ds.X[ds.y == -1.0].mean(axis=0)
    assert np.all(np.abs(pos - [-1.0, -1.0]) < 0.05)
    assert np.all(np.abs(neg - [1.0, 1.0]) < 0.05)


def test_gaussians_class_conditional_sd():
    ds = generate_gaussians(100_000, 7)
    sd = ds.X[ds.y == 1.0].std(axis=0)
    assert np.all(np.abs(sd - 1.4) < 0.05)


def test_load_csv_headerless_label_last(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("1.0,2.0,1\n0.5,0.1,0\n-1,-2,1\n")
    ds = load_csv(path)
    assert ds.n == 3 and ds.p == 2
    assert np.array_equal(ds.y, [1.0, -1.0, 1.0])
    assert np.array_equal(ds.X[0], [1.0, 2.0])


def test_load_csv_empty_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(CsvParseError):
        load_csv(path)


def test_load_csv_errors(tmp_path):
    bad_width = tmp_path / "w.csv"
    bad_width.write_text("1,2,1\n1,2\n")
    with pytest.raises(CsvDimensionError, match="row 2"):
        load_csv(bad_width)
    bad_label = tmp_path / "l.csv"
    bad_label.write_text("1,2,5\n")
    with pytest.raises(CsvLabelError):
        load_csv(bad_label)
    bad_field = tmp_path / "f.csv"
    bad_field.write_text("x0,x1,y\n1,oops,1\n")
    with pytest.raises(CsvParseError, match="row 2"):
        load_csv(bad_field)


# the second data row of each file is not a valid label, so the column check
# is seen to come before any row is parsed
@pytest.mark.parametrize("text", ["y\n1\nbad\n", "y,is_outlier\n1,0\nbad,1\n",
                                  "1\nbad\n"], ids=["y", "y-is-outlier", "headerless"])
def test_load_csv_refuses_a_file_without_a_feature_column(tmp_path, text):
    path = tmp_path / "nofeat.csv"
    path.write_text(text)
    with pytest.raises(CsvDimensionError,
                       match=f"^{re.escape(str(path))}: no feature column besides the label$"):
        load_csv(path)


@pytest.mark.parametrize("flag", ["nan", "2", "-1", "0.5", "yes", ""])
def test_load_csv_rejects_bad_outlier_flag_with_row(tmp_path, flag):
    path = tmp_path / "flags.csv"
    path.write_text(f"x0,y,is_outlier\n1.0,1,0\n2.0,-1,1\n3.0,1,{flag}\n")
    with pytest.raises(CsvParseError, match="row 4"):
        load_csv(path)


def test_load_csv_reads_outlier_flags_written_as_floats(tmp_path):
    path = tmp_path / "flags.csv"
    path.write_text("x0,y,is_outlier\n1.0,1,0.0\n2.0,-1,1.0\n")
    assert np.array_equal(load_csv(path).is_outlier, [False, True])


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_load_csv_rejects_non_finite_feature_with_row(tmp_path, value):
    with_header = tmp_path / "h.csv"
    with_header.write_text(f"x0,x1,y\n1,2,1\n3,{value},0\n")
    with pytest.raises(CsvParseError, match="row 3"):
        load_csv(with_header)
    headerless = tmp_path / "n.csv"
    headerless.write_text(f"{value},2,1\n3,4,0\n")
    with pytest.raises(CsvParseError, match="row 1"):
        load_csv(headerless)


def test_csv_round_trip_with_header_and_flags(tmp_path):
    ds = generate_toy(20, 4, 0)
    path = tmp_path / "toy.csv"
    write_csv(ds, path)
    back = load_csv(path)
    np.testing.assert_allclose(back.X, ds.X, rtol=0, atol=0)
    assert np.array_equal(back.y, ds.y)
    assert np.array_equal(back.is_outlier, ds.is_outlier)


def test_csv_label_column_by_name_and_index(tmp_path):
    path = tmp_path / "named.csv"
    path.write_text("a,b,target\n1,2,1\n3,4,0\n")
    ds = load_csv(path, "target")
    assert np.array_equal(ds.y, [1.0, -1.0])
    ds2 = load_csv(path, 2)
    assert np.array_equal(ds2.y, [1.0, -1.0])
    with pytest.raises(CsvParseError):
        load_csv(path, "missing")


def test_load_csv_default_label_precedes_a_trailing_is_outlier(tmp_path):
    # no "y" column: the label is the column before is_outlier, not the last
    path = tmp_path / "flags.csv"
    path.write_text("a,b,label,is_outlier\n1,2,1,0\n3,4,0,1\n")
    ds = load_csv(path)
    assert np.array_equal(ds.X, [[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(ds.y, [1.0, -1.0])
    assert np.array_equal(ds.is_outlier, [False, True])


def test_equipartition_shapes_and_drop():
    rng = np.random.default_rng(0)
    part = random_equipartition(10, 3, rng)
    assert part.k == 3 and part.block_size == 3
    flat = part.blocks.ravel()
    assert np.unique(flat).size == 9
    assert set(range(10)) - set(flat.tolist())  # exactly one index absent


def test_equipartition_single_block():
    part = random_equipartition(6, 1, np.random.default_rng(1))
    assert np.array_equal(part.block(0), np.arange(6))


def test_equipartition_k_bounds():
    rng = np.random.default_rng(2)
    with pytest.raises(ValueError):
        random_equipartition(5, 6, rng)
    with pytest.raises(ValueError):
        random_equipartition(5, 0, rng)


def test_equipartition_drop_frequency():
    # each of the 10 indices should be the dropped one with frequency 1/10
    rng = np.random.default_rng(3)
    dropped = np.zeros(10)
    n_draws = 10_000
    for _ in range(n_draws):
        part = random_equipartition(10, 3, rng)
        absent = set(range(10)) - set(part.blocks.ravel().tolist())
        dropped[list(absent)] += 1
    freq = dropped / n_draws
    assert np.all(np.abs(freq - 0.1) < 0.01)


def test_equipartition_block_marginals_uniform():
    # index i lands in block j with equal probability for all (i, j)
    rng = np.random.default_rng(4)
    n, k, draws = 12, 3, 6000
    counts = np.zeros((n, k))
    for _ in range(draws):
        part = random_equipartition(n, k, rng)
        for j in range(k):
            counts[part.block(j), j] += 1
    expected = draws * (n // k) / n  # P(i in block j) = block_size / n
    stat = ((counts - expected) ** 2 / expected).sum()
    dof = (n - 1) * (k - 1)
    assert stat < chi2.ppf(0.999, dof)


@pytest.mark.parametrize("blocks, match", [
    ([[0, 1], [1, 2]], "disjoint"),       # index shared by two blocks
    ([[0, 0], [1, 2]], "disjoint"),       # index repeated within one block
    ([[-1, 0], [1, 2]], "out of range"),  # negative index
    ([[0, 1], [2, 4]], "out of range"),   # index equal to n
    ([[3, 0], [2, 1]], "ascending"),      # row out of order
    ([[0, 1]], r"\(k, n // k\)"),         # 4 // 1 = 4 indices per block
    ([[0], [1], [2], [3], [4]], "1 <= k <= n"),  # more blocks than samples
], ids=["shared", "repeated", "negative", "equal-to-n", "unsorted",
        "wrong-width", "k-above-n"])
def test_partition_rejects_bad_blocks(blocks, match):
    with pytest.raises(ValueError, match=match):
        Partition(blocks=np.array(blocks), n=4)


def test_partition_accepts_disjoint_blocks_with_dropped_indices():
    part = Partition(blocks=np.array([[0, 4], [2, 3]]), n=5)
    assert part.k == 2 and part.block_size == 2


@st.composite
def _n_and_k(draw):
    n = draw(st.integers(1, 300))
    return n, draw(st.integers(1, n))


@given(_n_and_k(), st.integers(0, 2**32 - 1), st.data())
@settings(max_examples=80, deadline=None)
def test_equipartition_rows_sorted_disjoint_in_range(nk, seed, data):
    n, k = nk
    part = random_equipartition(n, k, np.random.default_rng(seed))
    blocks = part.blocks
    assert blocks.shape == (k, n // k)
    assert np.all(np.diff(blocks, axis=1) > 0)  # sorted, no repeat in a row
    flat = blocks.ravel()
    assert flat.min() >= 0 and flat.max() < n
    assert len(set(flat.tolist())) == flat.size
    if k >= 2:
        # copying any index into another block breaks disjointness
        src = data.draw(st.integers(0, k - 1))
        dst = data.draw(st.sampled_from([b for b in range(k) if b != src]))
        i = data.draw(st.integers(0, n // k - 1))
        j = data.draw(st.integers(0, n // k - 1))
        bad = blocks.copy()
        bad[dst, j] = bad[src, i]
        with pytest.raises(ValueError, match="disjoint"):
            Partition(blocks=bad, n=n)


@st.composite
def _datasets(draw):
    n, p = draw(st.integers(1, 5)), draw(st.integers(1, 3))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    return Dataset(X=draw(hnp.arrays(float, (n, p), elements=finite)),
                   y=draw(hnp.arrays(float, n, elements=st.sampled_from([-1.0, 1.0]))),
                   is_outlier=draw(st.none() | hnp.arrays(bool, n)))


_CSV_MUTATIONS = ["none", "drop", "retype", "reshape", "non-finite", "truncate",
                  "add-column"]


@given(_datasets(), st.sampled_from(_CSV_MUTATIONS), st.data())
@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_load_csv_returns_the_dataset_or_names_path_and_row(tmp_path, ds, mutation,
                                                           data):
    # one mutation of a written file: the reader returns the same dataset or
    # raises a ValueError naming the path and, for a data row, the row
    path = tmp_path / "d.csv"
    write_csv(ds, path)
    rows = [line.split(",") for line in path.read_text().splitlines()]
    r = data.draw(st.integers(0 if mutation in ("drop", "add-column") else 1,
                              len(rows) - 1))
    j = data.draw(st.integers(0, len(rows[r]) - 1))
    if mutation == "drop":
        del rows[r][j]
    elif mutation == "retype":
        rows[r][j] = "abc"
    elif mutation == "reshape":
        rows[r].append(rows[r][j])
    elif mutation == "non-finite":
        rows[r][j] = data.draw(st.sampled_from(["nan", "inf", "-inf", "1e999"]))
    elif mutation == "add-column":
        rows[r].append("extra" if r == 0 else "0.5")
    text = "".join(",".join(row) + "\n" for row in rows)
    if mutation == "truncate":
        # the last line loses at least one character but not all of them
        start = text.rstrip("\n").rfind("\n") + 1
        r = len(rows) - 1
        text = text[:data.draw(st.integers(start + 1, len(text) - 2))]
    path.write_text(text)
    try:
        back = load_csv(path)
    except ValueError as exc:
        assert mutation != "none"
        assert str(path) in str(exc)
        assert r == 0 or f"row {r + 1}" in str(exc) or "header" in str(exc)
    else:
        assert mutation in ("none", "truncate")
        assert np.array_equal(back.X, ds.X) and np.array_equal(back.y, ds.y)
        assert (back.is_outlier is None if ds.is_outlier is None
                else np.array_equal(back.is_outlier, ds.is_outlier))
