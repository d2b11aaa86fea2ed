import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import brute_force_ball_masks, brute_force_pairwise_matrix, pearson
from pretopo import (
    ConfigError,
    DegenerateSeriesError,
    EuclideanBall,
    FeatureTable,
    FilterSpace,
    PearsonBall,
    PrefilterSpace,
    SizeBall,
    build_basis,
    core,
    pairwise_matrix,
)
from pretopo.similarity import criterion_ball_masks

TOL = 1e-12


class TestPearson:
    def test_exact_positive_linear(self):
        assert pearson([1, 2, 3], [2, 4, 6]) == pytest.approx(1.0, abs=TOL)

    def test_exact_negative_linear(self):
        assert pearson([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0, abs=TOL)

    def test_constant_series_rejected(self):
        with pytest.raises(DegenerateSeriesError):
            pearson([5, 5, 5], [1, 2, 3])
        with pytest.raises(DegenerateSeriesError):
            pearson([1, 2, 3], [7, 7, 7])

    def test_result_clamped(self):
        assert -1.0 <= pearson([1.0, 1.0 + 1e-15, 3.0], [1.0, 1.0 + 1e-15, 3.0]) <= 1.0

    def test_length_contract(self):
        with pytest.raises(ValueError):
            pearson([1, 2], [1, 2, 3])
        with pytest.raises(ValueError):
            pearson([1], [2])

    @given(
        st.lists(st.floats(min_value=-100, max_value=100), min_size=3, max_size=12),
        st.floats(min_value=0.1, max_value=50),
        st.floats(min_value=-100, max_value=100),
    )
    def test_invariant_under_positive_affine_maps(self, xs, a, b):
        ys = list(range(len(xs)))
        if max(xs) - min(xs) < 1e-6:  # keep the variance clear of underflow
            return
        scaled = [a * v + b for v in xs]
        assert pearson(scaled, ys) == pytest.approx(pearson(xs, ys), abs=TOL)


class TestPairwiseMatrix:
    def test_single_item_conventions(self):
        pos_table = FeatureTable(positions=[(1.0, 2.0)], sizes=[3.0])
        assert pairwise_matrix(pos_table, EuclideanBall(1.0)).tolist() == [[0.0]]
        assert pairwise_matrix(pos_table, SizeBall(1.0)).tolist() == [[0.0]]
        ser_table = FeatureTable(series=[[1.0, 2.0, 3.0]])
        assert pairwise_matrix(ser_table, PearsonBall(0.5)).tolist() == [[1.0]]

    def test_identical_series_correlate_fully(self):
        t = FeatureTable(series=[[1.0, 5.0, 2.0], [1.0, 5.0, 2.0]])
        m = pairwise_matrix(t, PearsonBall(0.5))
        assert m[0, 1] == pytest.approx(1.0, abs=TOL)

    def test_collinear_points_distances(self):
        t = FeatureTable(positions=[(0.0, 0.0), (3.0, 0.0), (4.0, 0.0)])
        m = pairwise_matrix(t, EuclideanBall(1.0))
        assert m.tolist() == [[0, 3, 4], [3, 0, 1], [4, 1, 0]]

    def test_matrix_agrees_with_scalar_pearson(self):
        series = [[1.0, 4.0, 2.0, 8.0], [0.5, 3.0, 3.0, 6.0], [9.0, 2.0, 4.0, 1.0]]
        t = FeatureTable(series=series)
        m = pairwise_matrix(t, PearsonBall(0.5))
        for i in range(3):
            for j in range(3):
                if i != j:
                    assert m[i, j] == pytest.approx(pearson(series[i], series[j]), abs=1e-9)

    def test_degenerate_series_carries_index(self):
        t = FeatureTable(series=[[1.0, 2.0, 3.0], [4.0, 4.0, 4.0]])
        with pytest.raises(DegenerateSeriesError) as err:
            pairwise_matrix(t, PearsonBall(0.5))
        assert err.value.item == 1

    def test_missing_feature_is_config_error(self):
        t = FeatureTable(series=[[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(ConfigError):
            pairwise_matrix(t, EuclideanBall(1.0))
        with pytest.raises(ConfigError):
            pairwise_matrix(FeatureTable(positions=[(0, 0)]), PearsonBall(0.5))


class TestCriterionValidation:
    def test_thresholds(self):
        with pytest.raises(ConfigError):
            EuclideanBall(0.0)
        with pytest.raises(ConfigError):
            SizeBall(-1.0)
        with pytest.raises(ConfigError):
            PearsonBall(-1.0)
        PearsonBall(1.0)  # closed upper end is fine


class TestBuildBasis:
    def test_euclidean_ball_membership(self):
        eps = 2.0
        t = FeatureTable(positions=[(0.0, 0.0), (0.0, eps / 2), (0.0, 10 * eps)])
        space = build_basis(t, [EuclideanBall(eps)])
        [ball] = space.neighborhoods_of(0)
        assert ball.members() == [0, 1]

    def test_prefilter_allows_distinct_witnesses(self):
        # item 0 is position-close to item 1 only and size-close to item 2
        # only; the two criteria may be satisfied by different witnesses
        t = FeatureTable(
            positions=[(0.0, 0.0), (1.0, 0.0), (100.0, 0.0)],
            sizes=[10.0, 50.0, 11.0],
        )
        criteria = [EuclideanBall(2.0), SizeBall(3.0)]
        probe_members = [1, 2]
        pre = build_basis(t, criteria, "prefilter")
        a = pre.universe.subset(probe_members)
        assert 0 in pre.pseudoclosure(a)
        post = build_basis(t, criteria, "filter")
        assert 0 not in post.pseudoclosure(post.universe.subset(probe_members))

    def test_mode_and_criteria_validation(self):
        t = FeatureTable(positions=[(0.0, 0.0)])
        with pytest.raises(ConfigError):
            build_basis(t, [])
        with pytest.raises(ConfigError):
            build_basis(t, [EuclideanBall(1.0)], mode="both")

    def test_pearson_self_pair_included_by_fiat(self):
        t = FeatureTable(series=[[1.0, 2.0, 3.0], [9.0, 1.0, 5.0]])
        space = build_basis(t, [PearsonBall(0.99)])
        for x in range(2):
            for ball in space.neighborhoods_of(x):
                assert x in ball

    def test_ball_symmetry_and_reflexivity(self):
        t = FeatureTable(
            positions=[(0.0, 0.0), (1.5, 0.2), (3.0, 1.0), (0.4, 4.0)],
            sizes=[1.0, 2.0, 8.0, 2.5],
            series=[[1, 2, 3, 1], [2, 4, 6, 1], [5, 1, 2, 9], [3, 3, 1, 2]],
        )
        for criterion in (EuclideanBall(2.0), SizeBall(1.0), PearsonBall(0.3)):
            space = build_basis(t, [criterion])
            balls = [space.neighborhoods_of(x)[0] for x in range(4)]
            for x in range(4):
                assert x in balls[x]
                for y in range(4):
                    assert (y in balls[x]) == (x in balls[y])

    def test_balls_grow_with_radius(self):
        t = FeatureTable(positions=[(float(i), 0.0) for i in range(6)])
        small = build_basis(t, [EuclideanBall(1.0)])
        large = build_basis(t, [EuclideanBall(2.5)])
        for x in range(6):
            assert small.neighborhoods_of(x)[0].issubset(large.neighborhoods_of(x)[0])
        for probe in ({0}, {2, 3}, {5}):
            a = small.universe.subset(probe)
            assert small.pseudoclosure(a).issubset(large.pseudoclosure(a))

    def test_kinds(self):
        t = FeatureTable(positions=[(0.0, 0.0), (1.0, 0.0)])
        assert isinstance(build_basis(t, [EuclideanBall(1.0)], "prefilter"), PrefilterSpace)
        assert isinstance(build_basis(t, [EuclideanBall(1.0)], "filter"), FilterSpace)


def random_table(rng, n):
    return FeatureTable(
        positions=[tuple(rng.uniform(0.0, 6.0, 2)) for _ in range(n)],
        sizes=rng.uniform(0.0, 10.0, n).tolist(),
        series=rng.normal(size=(n, 6)).tolist(),
    )


def unchecked(cls, **fields):
    """A criterion with values its constructor rejects, to probe the mask
    builder's own guarantees."""
    criterion = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(criterion, name, value)
    return criterion


class TestBallMasksOracle:
    @pytest.mark.parametrize("n", [0, 1, 7, 8, 9, 63, 64, 65, 600])
    @pytest.mark.parametrize(
        "criterion", [EuclideanBall(1.5), SizeBall(0.8), PearsonBall(0.2), PearsonBall(1.0)]
    )
    def test_packed_masks_match_per_hit_masks(self, n, criterion):
        table = random_table(np.random.default_rng(n), n)
        assert criterion_ball_masks(table, criterion) == brute_force_ball_masks(table, criterion)

    @pytest.mark.parametrize("criterion", [
        unchecked(EuclideanBall, radius=-1.0),
        unchecked(SizeBall, tolerance=-1.0),
        unchecked(PearsonBall, threshold=2.0, channel=None),
    ])
    def test_self_bit_kept_when_threshold_excludes_it(self, criterion):
        table = random_table(np.random.default_rng(5), 9)
        masks = criterion_ball_masks(table, criterion)
        assert masks == [1 << i for i in range(9)]
        assert masks == brute_force_ball_masks(table, criterion)


ALL_KINDS = [EuclideanBall(1.5), SizeBall(0.8), PearsonBall(0.2)]


class TestPairwiseRowsOracle:
    # at the default block size, 65 items fit one row strip and 600 or
    # 1,100 items take several
    @pytest.mark.parametrize("n", [1, 65, 600, 1100])
    @pytest.mark.parametrize("criterion", ALL_KINDS)
    def test_matrix_equals_full_broadcast(self, n, criterion):
        table = random_table(np.random.default_rng(n), n)
        assert np.array_equal(
            pairwise_matrix(table, criterion), brute_force_pairwise_matrix(table, criterion)
        )

    @pytest.mark.parametrize("block_entries", [1, 37])
    @pytest.mark.parametrize("criterion", ALL_KINDS)
    def test_small_strips_match_oracles(self, monkeypatch, block_entries, criterion):
        monkeypatch.setattr(core, "_BLOCK_ENTRIES", block_entries)
        table = random_table(np.random.default_rng(11), 65)
        assert np.array_equal(
            pairwise_matrix(table, criterion), brute_force_pairwise_matrix(table, criterion)
        )
        assert criterion_ball_masks(table, criterion) == brute_force_ball_masks(table, criterion)

    def test_correlations_clipped_to_unit_interval(self):
        # proportional and shifted copies round to 1 + 2**-52 before the clip
        x = np.random.default_rng(0).normal(size=6)
        table = FeatureTable(series=[list(x), list(3.0 * x), list(x + 1.0), list(-x)])
        matrix = pairwise_matrix(table, PearsonBall(0.5))
        assert np.array_equal(matrix, brute_force_pairwise_matrix(table, PearsonBall(0.5)))
        assert matrix.max() == 1.0 and matrix.min() == -1.0

    def test_balls_are_closed(self):
        # grid points and integer sizes put many pairs exactly on the radius
        table = FeatureTable(
            positions=[(float(i % 4), float(i // 4)) for i in range(12)],
            sizes=[float(i % 3) for i in range(12)],
        )
        for criterion in (EuclideanBall(1.0), SizeBall(1.0)):
            masks = criterion_ball_masks(table, criterion)
            assert masks == brute_force_ball_masks(table, criterion)
            assert masks[0] >> 1 & 1

    def test_distance_to_self_is_zero_for_non_finite_position(self):
        table = FeatureTable(positions=[(math.inf, 0.0), (0.0, 0.0)])
        with np.errstate(invalid="ignore"):  # inf - inf on the diagonal
            matrix = pairwise_matrix(table, EuclideanBall(1.0))
        assert matrix.tolist() == [[0.0, math.inf], [math.inf, 0.0]]

    @pytest.mark.parametrize("criterion", [EuclideanBall(0.5), SizeBall(0.01)])
    def test_ball_masks_never_hold_a_square_matrix(self, criterion):
        n = 3000
        table = random_table(np.random.default_rng(2), n)
        tracemalloc.start()
        try:
            criterion_ball_masks(table, criterion)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n * n * 8 / 4


class TestFeatureTableValidation:
    def test_mismatched_feature_lengths(self):
        with pytest.raises(ConfigError):
            FeatureTable(positions=[(0, 0)], sizes=[1.0, 2.0])

    def test_series_lengths_must_agree(self):
        with pytest.raises(ConfigError):
            FeatureTable(series=[[1, 2], [1, 2, 3]])
        with pytest.raises(ConfigError):
            FeatureTable(series=[[1.0]])

    def test_negative_sizes_rejected(self):
        with pytest.raises(ConfigError):
            FeatureTable(sizes=[-1.0])


class TestCsvRoundTrip:
    def test_positions_and_sizes(self, tmp_path):
        t = FeatureTable(positions=[(0.25, -1.5), (3.0, 2.0)], sizes=[1.0, 4.5])
        path = tmp_path / "f.csv"
        t.to_csv(path)
        back = FeatureTable.from_csv(path)
        assert back.positions == t.positions
        assert back.sizes == t.sizes
        assert back.series is None

    def test_series(self, tmp_path):
        t = FeatureTable(series=[[0.1, 0.2, 0.3], [9.0, 8.0, 7.0]])
        path = tmp_path / "s.csv"
        t.to_csv(path)
        back = FeatureTable.from_csv(path)
        assert back.series == t.series
        assert back.positions is None

    def test_empty_file(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_text("")
        assert FeatureTable.from_csv(path).n_items == 0
