import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from binreg import (CsvFormatError, DimensionMismatch, EmptyGroup,
                    NonBinaryLabel, NonFiniteValue, build_dataset,
                    dataset_from_arrays, extended_design, gen_gaussian,
                    gen_overlapping, gen_separated, group_stats, read_csv)
from binreg.cli import main

DATA = Path(__file__).parent / "data"


class TestBuildDataset:
    def test_minimal_pair(self):
        ds = build_dataset([(1, 0), (2, 1)])
        assert (ds.n0, ds.n1, ds.d) == (1, 1, 1)
        assert ds.x[:, 0].tolist() == [1.0, 2.0]

    def test_single_group_rejected(self):
        with pytest.raises(EmptyGroup):
            build_dataset([(1, 0), (2, 0)])

    def test_non_binary_label(self):
        with pytest.raises(NonBinaryLabel):
            build_dataset([(1, 2)])

    def test_fractional_label_rejected(self):
        with pytest.raises(NonBinaryLabel):
            build_dataset([(1, 0.5), (2, 1)])

    def test_exact_real_labels_accepted(self):
        ds = build_dataset([(1, 0.0), (2, 1.0)])
        assert ds.y.tolist() == [0, 1]

    def test_mixed_dimensions(self):
        with pytest.raises(DimensionMismatch):
            build_dataset([((1, 2), 0), (3, 1)])

    def test_non_finite(self):
        with pytest.raises(NonFiniteValue):
            build_dataset([(math.nan, 0), (1, 1)])

    def test_empty_input(self):
        with pytest.raises(DimensionMismatch):
            build_dataset([])

    def test_arrays_frozen(self):
        ds = build_dataset([(1, 0), (2, 1)])
        with pytest.raises(ValueError):
            ds.x[0, 0] = 5.0


class TestArrayLabels:
    def test_float_labels_accepted(self):
        ds = dataset_from_arrays(np.arange(3.0), np.array([0.0, 1.0, 1.0]))
        assert ds.y.dtype == np.int64
        assert ds.y.tolist() == [0, 1, 1]
        assert (ds.n0, ds.n1) == (1, 2)

    def test_bool_labels_accepted(self):
        ds = dataset_from_arrays(np.arange(3.0), np.array([True, False, True]))
        assert ds.y.tolist() == [1, 0, 1]

    def test_caller_array_not_frozen(self):
        y = np.array([0, 1, 1])
        dataset_from_arrays(np.arange(3.0), y)
        y[0] = 1  # the dataset holds its own copy

    @pytest.mark.parametrize("bad, shown", [(2.0, "2.0"), (math.nan, "nan")])
    def test_first_bad_float_label_named(self, bad, shown):
        y = np.array([0.0, 1.0, bad, 3.0])
        with pytest.raises(NonBinaryLabel, match=f"^label {shown} is not 0 or 1$"):
            dataset_from_arrays(np.arange(4.0), y)

    def test_bad_integer_label_named(self):
        with pytest.raises(NonBinaryLabel, match="^label 3 is not 0 or 1$"):
            dataset_from_arrays(np.arange(3.0), np.array([0, 3, 1]))


class TestGroupStats:
    def test_alternating(self):
        ds = dataset_from_arrays(np.array([0.0, 1, 2, 3]), [0, 1, 0, 1])
        gs = group_stats(ds)
        assert gs.xbar0[0] == 1.0
        assert gs.xbar1[0] == 2.0
        assert gs.delta[0] == 1.0

    def test_symmetric_assignment_gives_zero(self):
        ds = dataset_from_arrays(np.array([0.0, 1, 2, 3]), [1, 0, 0, 1])
        assert group_stats(ds).delta[0] == 0.0

    def test_vector_case(self):
        ds = build_dataset([((1, 0), 0), ((0, 1), 1)])
        assert group_stats(ds).delta.tolist() == [-1.0, 1.0]

    @given(
        n=st.integers(4, 200),
        seed=st.integers(0, 10_000),
        d=st.integers(1, 3),
    )
    @settings(max_examples=60, deadline=None)
    def test_weighted_mean_identity(self, n, seed, d):
        """n0*xbar0 + n1*xbar1 recovers n times the overall mean exactly."""
        rng = np.random.default_rng(seed)
        x = rng.normal(scale=100.0, size=(n, d))
        y = rng.integers(0, 2, size=n)
        if y.sum() in (0, n):
            y[0] = 1 - y[0]
        ds = dataset_from_arrays(x, y)
        gs = group_stats(ds)
        total = ds.n0 * gs.xbar0 + ds.n1 * gs.xbar1
        overall = np.array([math.fsum(x[:, j]) for j in range(d)])
        assert np.all(np.abs(total - overall) <= 1e-9 * (1.0 + np.abs(overall)))


class TestExtendedDesign:
    def test_distinct_values_full_rank(self):
        ds = dataset_from_arrays(np.array([1.0, 2, 3]), [0, 1, 1])
        dm = extended_design(ds)
        assert dm.xt.shape == (3, 2)
        assert np.all(dm.xt[:, 0] == 1.0)
        assert dm.rank_ok

    def test_constant_column_collinear_with_intercept(self):
        ds = dataset_from_arrays(np.array([5.0, 5, 5]), [0, 1, 1])
        assert not extended_design(ds).rank_ok

    def test_exact_collinearity(self):
        ds = build_dataset([((1, 2), 0), ((2, 4), 1), ((3, 6), 0)])
        assert not extended_design(ds).rank_ok

    def test_more_params_than_rows(self):
        ds = build_dataset([((1, 2), 0), ((2, 1), 1)])
        assert not extended_design(ds).rank_ok

    @given(seed=st.integers(0, 5000))
    @settings(max_examples=50, deadline=None)
    def test_rank_invariant_under_row_permutation(self, seed):
        rng = np.random.default_rng(seed)
        n, d = 8, 2
        x = rng.normal(size=(n, d))
        if seed % 3 == 0:
            x[:, 1] = 2.0 * x[:, 0]  # force deficiency on a third of cases
        y = np.array([0, 1] * (n // 2))
        ds = dataset_from_arrays(x, y)
        perm = rng.permutation(n)
        ds_perm = dataset_from_arrays(x[perm], y[perm])
        assert extended_design(ds).rank_ok == extended_design(ds_perm).rank_ok

    @pytest.mark.parametrize("name", ["offset_overlapping_d2.csv", "offset_separated_d1.csv"])
    def test_offset_fixtures_have_full_rank(self, name):
        # x -> 0.01 x + 1e5 drowns the predictors in the intercept column of
        # the raw [1 | x] (rank 2 of 3 and 1 of 2); the standardized design
        # that the overlap verdict and the fit share has full rank
        ds = read_csv(DATA / name)
        dm = extended_design(ds)
        assert dm.rank == ds.d + 1
        assert dm.rank_ok

    @pytest.mark.parametrize("transform", [lambda col: col + 1e7, lambda col: col * 1e6,
                                           lambda col: col * 1e-6],
                             ids=["shift 1e7", "scale 1e6", "scale 1e-6"])
    def test_rank_invariant_under_shift_and_scale_of_a_column(self, transform):
        # small integers and n = 8, so that the shifted and scaled columns and
        # their means round exactly and the collinear cases stay collinear
        rng = np.random.default_rng(3)
        collinear = rng.integers(-8, 9, size=(8, 2)).astype(float)
        collinear[:, 1] = 2.0 * collinear[:, 0]
        cases = [gen_overlapping(12, 2, 3), gen_overlapping(20, 3, 4),
                 dataset_from_arrays(collinear, [0, 1] * 4),
                 build_dataset([((1, 2), 0), ((2, 4), 1), ((3, 6), 0)]),
                 build_dataset([((1, 2), 0), ((2, 1), 1)]),
                 dataset_from_arrays(np.array([[5.0, 1.0], [5.0, 2.0], [5.0, 4.0]]), [0, 1, 1])]
        verdicts = []
        for ds in cases:
            want = extended_design(ds).rank_ok
            verdicts.append(want)
            for j in range(ds.d):
                x = ds.x.copy()
                x[:, j] = transform(x[:, j])
                assert extended_design(dataset_from_arrays(x, ds.y)).rank_ok == want, (ds.x, j)
        assert verdicts == [True, True, False, False, False, False]

    def test_coordinate_maps_invert_each_other(self):
        ds = read_csv(DATA / "offset_overlapping_d2.csv")
        dm = extended_design(ds)
        theta = np.array([0.3, -1.5, 2.0])
        raw = dm.to_raw(theta)
        # alpha + beta'x on the raw rows is theta on the standardized rows
        np.testing.assert_allclose(raw[0] + ds.x @ raw[1:], dm.xt @ theta, rtol=0, atol=1e-6)
        np.testing.assert_allclose(dm.to_standardized(raw), theta, rtol=1e-9, atol=1e-6)


class TestCsv:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("a,y,b\n1.5,0,2.5\n2.5,1,3.5\n")
        ds = read_csv(path)
        assert ds.d == 2
        assert ds.x.tolist() == [[1.5, 2.5], [2.5, 3.5]]
        assert ds.y.tolist() == [0, 1]

    def test_non_numeric_cell_reports_position(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,y\n1,0\noops,1\n")
        with pytest.raises(CsvFormatError, match=r"row 2, column 0"):
            read_csv(path)

    def test_missing_y_column(self, tmp_path):
        path = tmp_path / "noy.csv"
        path.write_text("a,b\n1,0\n")
        with pytest.raises(CsvFormatError, match="'y'"):
            read_csv(path)

    def test_non_binary_label(self, tmp_path):
        path = tmp_path / "lbl.csv"
        path.write_text("x,y\n1,2\n2,1\n")
        with pytest.raises(NonBinaryLabel):
            read_csv(path)

    def test_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("x,y\n")
        with pytest.raises(CsvFormatError):
            read_csv(path)

    def test_real_valued_labels(self, tmp_path):
        path = tmp_path / "real.csv"
        path.write_text("x,y\n1,0.0\n2,1.0\n")
        assert read_csv(path).y.tolist() == [0, 1]

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "blank.csv"
        path.write_text("x,y\n1,0\n\n2,1\n\n")
        ds = read_csv(path)
        assert ds.x.tolist() == [[1.0], [2.0]]
        assert ds.y.tolist() == [0, 1]

    def test_blank_lines_keep_file_row_numbers(self, tmp_path):
        path = tmp_path / "blank_bad.csv"
        path.write_text("x,y\n1,0\n\noops,1\n")
        with pytest.raises(CsvFormatError, match=r"row 3, column 0"):
            read_csv(path)

    def test_17_digit_cells_parse_as_float_does(self, tmp_path):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(2000, 5)) * 10.0 ** rng.integers(-8, 9, size=(2000, 5))
        lines = ["x0,x1,x2,y,x3,x4"]
        for i, row in enumerate(x):
            cells = ["%.17g" % v for v in row]
            cells.insert(3, str(i % 2))
            lines.append(",".join(cells))
        path = tmp_path / "wide.csv"
        path.write_text("\n".join(lines) + "\n")
        expected = np.array([[float(c) for j, c in enumerate(line.split(",")) if j != 3]
                             for line in lines[1:]])
        ds = read_csv(path)
        assert ds.x.tobytes() == expected.tobytes()
        assert ds.y.tolist() == [i % 2 for i in range(2000)]

    @pytest.mark.parametrize("kind, gen", [
        ("overlapping", lambda: gen_overlapping(200, 3, 9)),
        ("separated", lambda: gen_separated(200, 3, 9)),
        ("gaussian", lambda: gen_gaussian(200, [0.0], [1.0], 1.0, 9)),
    ])
    def test_simulated_csv_reads_back_exactly(self, tmp_path, kind, gen):
        path = tmp_path / "sim.csv"
        d = "1" if kind == "gaussian" else "3"
        assert main(["simulate", "--kind", kind, "--n", "200", "--d", d,
                     "--seed", "9", "--out", str(path)]) == 0
        ds, expected = read_csv(path), gen()
        assert ds.x.tobytes() == expected.x.tobytes()
        assert ds.y.tolist() == expected.y.tolist()

    @pytest.mark.parametrize("text, x", [
        ('x , y \r\n"1.5", 0 \r\n 2.5 ,"1"\r\n', [1.5, 2.5]),  # quotes, padding, CRLF
        ("x,y\n1,0\n2,1", [1.0, 2.0]),                            # no final newline
        ("x,y\n1,0\n2,1\n\n\n", [1.0, 2.0]),                       # trailing blank lines
        ("x,y\n1_000,0\n2,1\n", [1000.0, 2.0]),                    # float() accepts, numpy not
        ("x,y\n1,0\n2,1\n3_0.5,0\n", [1.0, 2.0, 30.5]),
    ])
    def test_untidy_cells_accepted(self, tmp_path, text, x):
        path = tmp_path / "untidy.csv"
        path.write_bytes(text.encode())
        ds = read_csv(path)
        assert ds.x[:, 0].tolist() == x
        assert ds.y.tolist() == [0, 1, 0][:len(x)]

    @pytest.mark.parametrize("text, message", [
        ("x,y\n1,0\n   \n2,1\n", "row 2 has 1 cells, expected 2"),  # whitespace-only line
        ("x,y\n1,0\n\n \n2,1\n", "row 3 has 1 cells, expected 2"),
        ("x,y\n#1,0\n2,1\n", "non-numeric cell at row 1, column 0 ('x'): '#1'"),
        ("x,y\n0x10,0\n2,1\n", "non-numeric cell at row 1, column 0 ('x'): '0x10'"),
        ("x,y\n1,0\n,1\n", "non-numeric cell at row 2, column 0 ('x'): ''"),
        ("x,y\n1,0\n2,1,3\n", "row 2 has 3 cells, expected 2"),
        ("x,y\n1,0,5\n2,1,3\n", "row 1 has 3 cells, expected 2"),  # every row ragged alike
        ("x,y\nnan,0\noops,1\n", "non-numeric cell at row 2, column 0 ('x'): 'oops'"),
        ("x,y\n\n\n", "no data rows"),
        ("y\n", "no data rows"),
    ])
    def test_bad_cells_named(self, tmp_path, text, message):
        path = tmp_path / "bad.csv"
        path.write_bytes(text.encode())
        with pytest.raises(CsvFormatError, match=f"^{re.escape(message)}$"):
            read_csv(path)

    def test_header_only_raises_without_warning(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("x,y\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(CsvFormatError, match="no data rows"):
                read_csv(path)

    @pytest.mark.parametrize("text, message", [
        ("x,y\n1,0\n\nnan,1\n", "non-finite predictor at row 3, column 0 ('x'): 'nan'"),
        ("y,x\n0,1\n1,inf\n", "non-finite predictor at row 2, column 1 ('x'): 'inf'"),
    ])
    def test_non_finite_predictor_names_file_row_and_column(self, tmp_path, text, message):
        path = tmp_path / "nonfinite.csv"
        path.write_text(text)
        with pytest.raises(NonFiniteValue, match=f"^{re.escape(message)}$"):
            read_csv(path)

    def test_non_finite_label_is_non_binary(self, tmp_path):
        path = tmp_path / "nanlabel.csv"
        path.write_text("x,y\n1,nan\n2,1\n")
        with pytest.raises(NonBinaryLabel):
            read_csv(path)
