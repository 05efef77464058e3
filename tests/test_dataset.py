import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecborrow.dataset import (
    CompositeDataset,
    DatasetBlock,
    load_csv,
    summarize,
    validate,
    write_csv,
)
from ecborrow.errors import InvariantViolation, MissingColumn, ParseError

from conftest import make_random_dataset


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_load_csv_counts(tmp_path):
    path = tmp_path / "two.csv"
    write_lines(path, ["d,t,y,x1", "1,1,2.0,0.3", "0,0,1.1,-0.2"])
    ds = load_csv(path)
    assert ds.n == 2
    assert ds.n1 == 1
    assert ds.q_hat == 0.5
    assert ds.covariate_names == ("x1",)


def test_dataset_block_stacks_columns_and_counts():
    a, b, c = (make_random_dataset(seed, n=50) for seed in (1, 2, 3))
    block = DatasetBlock.stack([a, b, c])
    assert (block.y.shape, block.x.shape, block.n, block.k) == ((3, 50), (3, 50, a.k), 50, a.k)
    np.testing.assert_array_equal(block.d[1], b.d)
    np.testing.assert_array_equal(block.n1[:, 0], [a.n1, b.n1, c.n1])
    np.testing.assert_array_equal(block.q_hat[:, 0], [a.q_hat, b.q_hat, c.q_hat])
    with pytest.raises(InvariantViolation, match="one row count"):
        DatasetBlock.stack([a, make_random_dataset(4, n=51)])


def test_load_csv_external_treated_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    write_lines(path, ["d,t,y,x1", "0,1,1.0,0.1"])
    with pytest.raises(InvariantViolation):
        load_csv(path)


def test_covariates_must_have_one_row_per_unit():
    rng = np.random.default_rng(4)
    y, t, d = rng.standard_normal(5), np.array([1, 0, 1, 0, 0]), np.array([1, 1, 1, 0, 0])
    one = CompositeDataset(y, rng.standard_normal(5), t, d)
    assert one.x.shape == (5, 1)
    with pytest.raises(InvariantViolation) as err:
        CompositeDataset(y, rng.standard_normal((3, 5)), t, d)
    assert "(3, 5)" in str(err.value) and "(5,)" in str(err.value)


def test_load_csv_trial_shape_counts(tmp_path):
    # 362 trial rows (182 treated, 180 control) plus 110 external rows
    rng = np.random.default_rng(0)
    lines = ["d,t,y,age"]
    for _ in range(182):
        lines.append(f"1,1,{int(rng.random() < 0.8)},{rng.normal():.6f}")
    for _ in range(180):
        lines.append(f"1,0,{int(rng.random() < 0.7)},{rng.normal():.6f}")
    for _ in range(110):
        lines.append(f"0,0,{int(rng.random() < 0.7)},{rng.normal():.6f}")
    path = tmp_path / "trial.csv"
    write_lines(path, lines)
    ds = load_csv(path, {"d": "d", "t": "t", "y": "y", "x": ["age"]})
    assert (ds.n, ds.n1, ds.n2) == (472, 362, 110)
    assert ds.q_hat == pytest.approx(362 / 472)
    stats = summarize(ds)
    assert stats.cells["d=1,t=1"].count == 182
    assert stats.cells["d=1,t=0"].count == 180
    assert stats.cells["d=0,t=0"].count == 110
    assert ds.outcome_kind == "binary"


def test_load_csv_missing_column(tmp_path):
    path = tmp_path / "m.csv"
    write_lines(path, ["d,t,x1", "1,1,0.3"])
    with pytest.raises(MissingColumn):
        load_csv(path)


def test_load_csv_parse_error_locates(tmp_path):
    path = tmp_path / "p.csv"
    write_lines(path, ["d,t,y,x1", "1,1,2.0,0.3", "1,0,oops,0.1"])
    with pytest.raises(ParseError) as err:
        load_csv(path)
    assert err.value.row == 1
    assert err.value.column == "y"


def test_load_csv_duplicate_header_rejected(tmp_path):
    # both x1 columns used to map to the first one, losing the second's values
    path = tmp_path / "dup.csv"
    write_lines(path, ["d,t,y,x1,x1", "1,1,2.0,0.3,5.0", "0,0,1.0,0.1,6.0"])
    with pytest.raises(ParseError) as err:
        load_csv(path)
    assert err.value.column == "x1"
    assert err.value.exit_code == 3
    assert "duplicate" in err.value.message


def test_load_csv_indicator_must_be_binary(tmp_path):
    path = tmp_path / "i.csv"
    write_lines(path, ["d,t,y,x1", "2,0,1.0,0.3"])
    with pytest.raises(ParseError):
        load_csv(path)


def test_schema_renames_columns(tmp_path):
    path = tmp_path / "s.csv"
    write_lines(path, ["source,arm,outcome,bmi", "1,1,2.5,21.0", "0,0,1.5,23.0"])
    ds = load_csv(path, {"d": "source", "t": "arm", "y": "outcome", "x": ["bmi"]})
    assert ds.covariate_names == ("bmi",)
    assert ds.n == 2


def test_validate_clean_dataset(random_dataset):
    report = validate(random_dataset)
    assert report.ok
    assert report.violations == []


def test_validate_kind_mismatch():
    ds = CompositeDataset(
        np.array([0.0, 0.5, 1.0]),
        np.array([[0.1], [0.2], [0.3]]),
        np.array([1, 0, 0]),
        np.array([1, 1, 0]),
        outcome_kind="binary",
    )
    report = validate(ds)
    assert any(v["kind"] == "kind_mismatch" for v in report.violations)


def test_validate_no_external_warning():
    ds = CompositeDataset(
        np.array([1.0, 2.0, 0.5, 1.5]),
        np.arange(8, dtype=float).reshape(4, 2),
        np.array([1, 0, 1, 0]),
        np.array([1, 1, 1, 1]),
    )
    report = validate(ds)
    assert report.ok
    assert any("only trial-based" in w for w in report.warnings)


def test_summarize_single_row_sd_absent():
    ds = CompositeDataset(
        np.array([2.0]), np.array([[0.4]]), np.array([1]), np.array([1])
    )
    stats = summarize(ds)
    cell = stats.cells["d=1,t=1"]
    assert cell.count == 1
    assert cell.y_mean == 2.0
    assert cell.y_sd is None
    assert cell.x_sd is None


def test_summarize_treated_fraction(random_dataset):
    stats = summarize(random_dataset)
    treated = stats.cells["d=1,t=1"].count
    assert stats.trial_treated_fraction == pytest.approx(treated / random_dataset.n1)


def test_q_hat_times_n_is_n1_exactly():
    for seed in range(5):
        ds = make_random_dataset(seed, n=101 + seed)
        assert ds.q_hat * ds.n == ds.n1


def test_no_external_treated_after_load():
    for seed in range(5):
        ds = make_random_dataset(seed)
        assert int(((ds.d == 0) & (ds.t == 1)).sum()) == 0


def test_arrays_are_read_only(random_dataset):
    with pytest.raises(ValueError):
        random_dataset.y[0] = 99.0


def test_n1_zero_rejected():
    with pytest.raises(InvariantViolation):
        CompositeDataset(
            np.array([1.0]), np.array([[0.0]]), np.array([0]), np.array([0])
        )


finite_floats = st.floats(
    allow_nan=False, allow_infinity=False, min_value=-1e12, max_value=1e12
)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(finite_floats, finite_floats, st.booleans(), st.booleans()),
        min_size=1,
        max_size=30,
    )
)
def test_csv_round_trip_is_identity(tmp_path_factory, rows):
    ys, xs, ts, ds_ = [], [], [], []
    for y, x, treated, trial in rows:
        d = 1 if trial else 0
        t = 1 if (treated and d == 1) else 0
        ys.append(y)
        xs.append([x])
        ts.append(t)
        ds_.append(d)
    if sum(ds_) == 0:
        ds_[0] = 1
    ds = CompositeDataset(np.array(ys), np.array(xs), np.array(ts), np.array(ds_))
    path = tmp_path_factory.mktemp("rt") / "round.csv"
    write_csv(ds, path)
    back = load_csv(path)
    assert np.array_equal(back.y, ds.y)
    assert np.array_equal(back.x, ds.x)
    assert np.array_equal(back.t, ds.t)
    assert np.array_equal(back.d, ds.d)


def test_take_preserves_metadata(random_dataset):
    sub = random_dataset.take(np.arange(10))
    assert sub.n == 10
    assert sub.covariate_names == random_dataset.covariate_names
    assert sub.outcome_kind == random_dataset.outcome_kind
