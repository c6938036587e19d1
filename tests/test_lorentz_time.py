"""Time-norm layer: step trajectories, rearrangement, closed-form Lorentz norms."""

import csv
import math

import numpy as np
import pytest

from gnslab import (
    LorentzIndex,
    ParameterError,
    TimeSamples,
    decreasing_rearrangement,
    holder_product_check,
    log_nodes,
    lorentz_norm,
    pointwise_product,
    power_identity_check,
    read_trajectory_csv,
)


def _write_trajectory_csv(ts, path):
    """A two-column CSV of a trajectory's times and values, with a header row."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "value"])
        for t, v in zip(ts.t, ts.v):
            writer.writerow([format(t, ".17g"), format(v, ".17g")])


def _random_steps(rng, size=16, t_end=2.0):
    t = np.sort(rng.uniform(0.01, t_end, size=size))
    t[-1] = t_end
    return TimeSamples(t, rng.uniform(0.0, 3.0, size=size))


class TestTimeSamples:
    def test_rejects_single_node(self):
        with pytest.raises(ParameterError):
            TimeSamples([1.0], [1.0])

    def test_rejects_nonpositive_start(self):
        with pytest.raises(ParameterError):
            TimeSamples([0.0, 1.0], [1.0, 1.0])

    def test_rejects_unordered_nodes(self):
        with pytest.raises(ParameterError):
            TimeSamples([1.0, 0.5], [1.0, 1.0])

    def test_rejects_negative_values(self):
        with pytest.raises(ParameterError):
            TimeSamples([0.5, 1.0], [1.0, -1.0])

    def test_lengths_tile_the_support(self):
        ts = TimeSamples([0.25, 0.75, 2.0], [1.0, 2.0, 3.0])
        assert np.allclose(ts.lengths(), [0.25, 0.5, 1.25])
        assert ts.lengths().sum() == pytest.approx(ts.t_end)


class TestLogNodes:
    def test_endpoints(self):
        t = log_nodes(2.0, 9, 1e-6)
        assert t[0] == pytest.approx(2e-6)
        assert t[-1] == pytest.approx(2.0)

    def test_strictly_increasing_geometric(self):
        t = log_nodes(1.0, 33)
        assert np.all(np.diff(t) > 0)
        ratios = t[1:] / t[:-1]
        assert np.max(ratios) / np.min(ratios) == pytest.approx(1.0, rel=1e-10)

    def test_validation(self):
        with pytest.raises(ParameterError):
            log_nodes(-1.0, 9)
        with pytest.raises(ParameterError):
            log_nodes(1.0, 1)
        with pytest.raises(ParameterError):
            log_nodes(1.0, 9, floor_factor=2.0)

    def test_non_integer_node_count_rejected(self):
        # 5.5 would give 6 nodes, the last past the horizon
        with pytest.raises(ParameterError, match="^node count must be an integer, got 5.5$"):
            log_nodes(1.0, 5.5)
        assert np.array_equal(log_nodes(1.0, np.int64(6)), log_nodes(1.0, 6))

    def test_node_count_numpy_cannot_size_rejected(self):
        # np.arange refuses any count past intp max // 8 elements
        with pytest.raises(ParameterError, match="^node count must leave arrays numpy can size"):
            log_nodes(1.0, np.iinfo(np.intp).max // 8 + 1)
        with pytest.raises(ParameterError, match=f"got {10**20}$"):
            log_nodes(1.0, 10**20)


class TestRearrangement:
    def test_sorts_descending_and_keeps_measure(self):
        ts = TimeSamples([0.5, 1.0, 3.0], [1.0, 5.0, 2.0])
        star = decreasing_rearrangement(ts)
        assert np.all(np.diff(star.v) <= 0)
        assert star.t[-1] == pytest.approx(ts.t_end)
        assert sorted(star.lengths()) == pytest.approx(sorted(ts.lengths()))

    def test_idempotent(self):
        ts = _random_steps(np.random.default_rng(3))
        once = decreasing_rearrangement(ts)
        twice = decreasing_rearrangement(once)
        assert np.allclose(once.t, twice.t)
        assert np.allclose(once.v, twice.v)


class TestLorentzNorm:
    def test_indicator_closed_form(self):
        # constant v on (0, T]: norm = v T^(1/rho) (rho/r)^(1/r)
        ts = TimeSamples([0.25, 0.5, 1.0], [2.0, 2.0, 2.0])
        got = lorentz_norm(ts, LorentzIndex(3.0, 2.0))
        assert got == pytest.approx(2.0 * (3.0 / 2.0) ** 0.5, rel=1e-13)

    def test_indicator_weak_form(self):
        ts = TimeSamples([0.25, 0.5, 1.0], [2.0, 2.0, 2.0])
        assert lorentz_norm(ts, LorentzIndex(3.0, math.inf)) == pytest.approx(2.0, rel=1e-13)

    def test_diagonal_index_recovers_lebesgue(self):
        rng = np.random.default_rng(7)
        for rho in (1.5, 2.0, 3.7):
            ts = _random_steps(rng)
            direct = float(np.sum(ts.v**rho * ts.lengths())) ** (1.0 / rho)
            assert lorentz_norm(ts, LorentzIndex(rho, rho)) == pytest.approx(direct, rel=1e-12)

    def test_rearrangement_invariant(self):
        ts = TimeSamples([0.5, 1.0, 1.5, 2.0], [3.0, 1.0, 2.0, 0.5])
        perm = TimeSamples([0.5, 1.0, 1.5, 2.0], [0.5, 3.0, 2.0, 1.0])
        idx = LorentzIndex(2.5, 1.5)
        assert lorentz_norm(ts, idx) == pytest.approx(lorentz_norm(perm, idx), rel=1e-12)

    def test_value_homogeneity(self):
        ts = _random_steps(np.random.default_rng(1))
        idx = LorentzIndex(2.0, 1.0)
        assert lorentz_norm(TimeSamples(ts.t, 3.0 * ts.v), idx) == pytest.approx(
            3.0 * lorentz_norm(ts, idx), rel=1e-12
        )

    def test_time_dilation_exponent(self):
        # stretching time by c multiplies the norm by c^(1/rho)
        ts = _random_steps(np.random.default_rng(2))
        idx = LorentzIndex(4.0, 2.0)
        assert lorentz_norm(TimeSamples(5.0 * ts.t, ts.v), idx) == pytest.approx(
            5.0 ** (1.0 / 4.0) * lorentz_norm(ts, idx), rel=1e-12
        )

    @staticmethod
    def _tied_ladder():
        # the first interval, 1e-17, is under one ulp of the sum it joins
        # once the values, increasing in time, are rearranged
        t = log_nodes(1.0, 8, 1e-17)
        return TimeSamples(t, np.linspace(1.0, 2.0, t.size))

    def test_tied_ends_keep_the_lebesgue_identity(self):
        ts = self._tied_ladder()
        for rho in (1.5, 3.0):
            direct = float(np.sum(ts.v**rho * ts.lengths())) ** (1.0 / rho)
            assert lorentz_norm(ts, LorentzIndex(rho, rho)) == pytest.approx(direct, rel=1e-14)

    def test_tied_ends_keep_the_weak_norm_finite(self):
        assert math.isfinite(lorentz_norm(self._tied_ladder(), LorentzIndex(3.0, math.inf)))

    def test_tied_ends_are_dropped_from_the_rearrangement(self):
        ts = self._tied_ladder()
        star = decreasing_rearrangement(ts)
        assert np.all(np.diff(star.t) > 0.0)
        assert star.size < ts.size
        for r in (2.0, math.inf):
            idx = LorentzIndex(3.0, r)
            assert lorentz_norm(star, idx) == pytest.approx(lorentz_norm(ts, idx), rel=1e-14)

    def test_untied_ends_are_the_running_sums(self):
        ts = _random_steps(np.random.default_rng(11))
        order = np.argsort(-ts.v, kind="stable")
        star = decreasing_rearrangement(ts)
        assert np.array_equal(star.t, np.cumsum(ts.lengths()[order]))
        assert np.array_equal(star.v, ts.v[order])

    def test_index_validation(self):
        with pytest.raises(ParameterError):
            LorentzIndex(1.0, 2.0)
        with pytest.raises(ParameterError):
            LorentzIndex(2.0, 0.5)


class TestPowerIdentity:
    def test_identity_on_random_steps(self):
        rng = np.random.default_rng(17)
        idx = LorentzIndex(2.0, 1.5)
        for m in (1.0, 1.5, 2.0, 3.0):
            ts = _random_steps(rng)
            lhs, rhs = power_identity_check(ts, m, idx)
            assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_weak_index_passes_through(self):
        ts = _random_steps(np.random.default_rng(4))
        lhs, rhs = power_identity_check(ts, 2.0, LorentzIndex(3.0, math.inf))
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_rejects_m_below_one(self):
        ts = _random_steps(np.random.default_rng(4))
        with pytest.raises(ParameterError):
            power_identity_check(ts, 0.5, LorentzIndex(2.0, 2.0))


class TestProducts:
    def test_product_with_itself_is_square(self):
        ts = _random_steps(np.random.default_rng(5))
        prod = pointwise_product([ts, ts])
        sq = ts.powered(2.0)
        idx = LorentzIndex(2.0, 2.0)
        assert lorentz_norm(prod, idx) == pytest.approx(lorentz_norm(sq, idx), rel=1e-12)

    def test_merged_partition_holds_left_values(self):
        a = TimeSamples([1.0, 2.0], [2.0, 4.0])
        b = TimeSamples([0.5, 2.0], [3.0, 5.0])
        prod = pointwise_product([a, b])
        # on (0, 0.5] both factors hold their first value
        assert prod.v[np.searchsorted(prod.t, 0.5)] == pytest.approx(6.0)

    def test_holder_check_on_shared_factor(self):
        ts = _random_steps(np.random.default_rng(6))
        lhs, rhs = holder_product_check([ts, ts], [4.0, 4.0], LorentzIndex(2.0, 2.0))
        assert lhs <= rhs * (1.0 + 1e-12)

    def test_holder_exponent_sum_enforced(self):
        ts = _random_steps(np.random.default_rng(6))
        with pytest.raises(ParameterError):
            holder_product_check([ts, ts], [4.0, 5.0], LorentzIndex(2.0, 2.0))

    def test_holder_factor_exponent_floor(self):
        ts = _random_steps(np.random.default_rng(6))
        with pytest.raises(ParameterError):
            holder_product_check([ts, ts], [1.5, 1.5], LorentzIndex(2.0, 2.0))


def test_csv_round_trip(tmp_path):
    ts = _random_steps(np.random.default_rng(9))
    path = tmp_path / "traj.csv"
    _write_trajectory_csv(ts, path)
    back = read_trajectory_csv(path)
    assert np.array_equal(back.t, ts.t)
    assert np.array_equal(back.v, ts.v)
    header = path.read_text().splitlines()[0]
    assert header == "t,value"


def test_csv_reads_the_first_two_columns(tmp_path):
    path = tmp_path / "norms.csv"
    path.write_text("t,solution,higher,weak\n0.5,2,7,8\n1,3,7,8\n")
    back = read_trajectory_csv(path)
    assert back.t.tolist() == [0.5, 1.0]
    assert back.v.tolist() == [2.0, 3.0]


@pytest.mark.parametrize("text, line", [
    ("t,value\n0.5,2\n\nabc,1\n", 4),
    ("t,value\n0.5\n", 2),
    ("t,value\n0.5,\n", 2),
])
def test_csv_bad_row_names_file_and_line(tmp_path, text, line):
    path = tmp_path / "traj.csv"
    path.write_text(text)
    with pytest.raises(ParameterError, match=f"traj.csv, line {line}:"):
        read_trajectory_csv(path)


def test_csv_binary_file_is_parameter_error(tmp_path):
    path = tmp_path / "traj.csv"
    path.write_bytes(b"\xff\xfe\x00binary")
    with pytest.raises(ParameterError, match="not a CSV text file"):
        read_trajectory_csv(path)
