import json
import math

import pytest

from helpers import SplitMix64, scalar_generate_points, scalar_generate_series
from pretopo import core
from pretopo.errors import ConfigError
from pretopo.datagen import (
    Mix,
    PointGenSpec,
    PointGroup,
    SeriesCluster,
    SeriesGenSpec,
    Sine,
    Square,
    Trend,
    generate_points,
    generate_series,
    spec_from_dict,
    spec_from_json,
    waveform_from_dict,
)
from pretopo.rng import normals, splitmix64, uniforms
from pretopo.similarity import PearsonBall, pairwise_matrix

# splitmix64 test vectors as published with the original algorithm
PUBLISHED = {
    1234567: [6457827717110365317, 3203168211198807973, 9817491932198370423],
    0: [16294208416658607535],
}
# Edge seeds: zero, all ones, the top bit alone and the increment itself;
# -1 checks that a seed is taken modulo 2**64.
SEEDS = [0, 1, 5, 777, 2**63, 2**64 - 1, 0x9E3779B97F4A7C15, -1]


def hexes(values):
    return [float(v).hex() for v in values]


class TestSplitMix64:
    def test_published_reference_stream(self):
        for seed, stream in PUBLISHED.items():
            r = SplitMix64(seed)
            assert [r.next_u64() for _ in stream] == stream

    def test_uniform_range_and_determinism(self):
        a, b = SplitMix64(5), SplitMix64(5)
        for _ in range(1000):
            u = a.uniform()
            assert 0.0 <= u < 1.0
            assert u == b.uniform()

    def test_uniform_bounds_scaling(self):
        r = SplitMix64(9)
        for _ in range(100):
            assert 2.0 <= r.uniform(2.0, 3.5) < 3.5

    def test_gauss_consumes_two_outputs_per_draw(self):
        a, b = SplitMix64(7), SplitMix64(7)
        a.gauss()
        b.next_u64(), b.next_u64()
        assert a.next_u64() == b.next_u64()

    def test_gauss_matches_box_muller_formula(self):
        r, mirror = SplitMix64(21), SplitMix64(21)
        for _ in range(50):
            u1 = ((mirror.next_u64() >> 11) + 1) / float(1 << 53)
            u2 = (mirror.next_u64() >> 11) / float(1 << 53)
            expected = math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)
            assert r.gauss() == expected


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestBlockStream:
    """The counter-based blocks of ``pretopo.rng`` against the scalar oracle,
    bit for bit."""

    def test_published_reference_stream(self):
        for seed, stream in PUBLISHED.items():
            assert splitmix64(seed, 0, len(stream)).tolist() == stream
        assert splitmix64(1234567, 1, 2).tolist() == PUBLISHED[1234567][1:]
        assert splitmix64(1234567, 3, 0).tolist() == []

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("start", [1, 37, 1000])
    def test_raw_matches_oracle(self, seed, start):
        r = SplitMix64(seed)
        expected = [r.next_u64() for _ in range(start + 300)][start:]
        block = splitmix64(seed, start, 300)
        assert block.dtype == "uint64"
        assert block.tolist() == expected

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("lo, hi", [(0.0, 1.0), (2.0, 3.5), (4.0, 4.0)])
    def test_uniforms_match_oracle(self, seed, lo, hi):
        r = SplitMix64(seed)
        for _ in range(11):
            r.next_u64()
        expected = [r.uniform(lo, hi) for _ in range(500)]
        assert hexes(uniforms(splitmix64(seed, 11, 500), lo, hi)) == hexes(expected)

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("mu, sigma", [(0.0, 1.0), (0.0, 0.2), (-3.0, 2.5)])
    def test_normals_match_oracle(self, seed, mu, sigma):
        r = SplitMix64(seed)
        for _ in range(7):
            r.next_u64()
        expected = [r.gauss(mu, sigma) for _ in range(1000)]
        got = normals(splitmix64(seed, 7, 2000).reshape(1000, 2), mu, sigma)
        assert hexes(got) == hexes(expected)
        grid = normals(splitmix64(seed, 7, 2000).reshape(10, 100, 2), mu, sigma)
        assert grid.shape == (10, 100)
        assert hexes(grid.ravel()) == hexes(expected)

    def test_negative_zero_normal_reads_zero(self):
        # draw 1 of this seed is 2**64 - 1, so u1 == 1.0, log(u1) == 0.0 and
        # the Box-Muller product is -0.0; mu + sigma * z with mu == 0.0 turns
        # it into 0.0
        seed = 0x31628AF67B2131AB
        assert splitmix64(seed, 0, 1).tolist() == [2**64 - 1]
        got = normals(splitmix64(seed, 0, 2).reshape(1, 2))
        assert hexes(got) == hexes([SplitMix64(seed).gauss()]) == ["0x0.0p+0"]

    @pytest.fixture(params=[1, 37, None], ids=["block1", "block37", "default"])
    def block_entries(self, request, monkeypatch):
        if request.param is not None:
            monkeypatch.setattr(core, "_BLOCK_ENTRIES", request.param)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_series_match_oracle(self, seed, block_entries):
        # the zero-noise cluster draws nothing, so the third cluster's noise
        # continues the first cluster's stream; at 37 entries a block holds
        # three series of 6 readings (12 draws each)
        spec = SeriesGenSpec(
            clusters=(
                SeriesCluster(5, 6, Sine(period=4.0, amplitude=2.0), 0.3),
                SeriesCluster(3, 6, Trend(slope=-0.25, intercept=1.0), 0.0),
                SeriesCluster(4, 6, Mix((Square(period=3.0), Trend(slope=0.1))), 1.5),
            ),
            rng_seed=seed,
        )
        table, labels = generate_series(spec)
        oracle, oracle_labels = scalar_generate_series(spec)
        assert labels == oracle_labels
        assert [hexes(s) for s in table.series] == [hexes(s) for s in oracle.series]

    @pytest.mark.parametrize("seed", SEEDS)
    def test_points_match_oracle(self, seed, block_entries):
        spec = PointGenSpec(
            groups=(
                PointGroup(7, (0.0, 0.0), 1.0, (1.0, 2.0)),
                PointGroup(1, (-30.0, 5.0), 0.001, (3.0, 3.0)),
                PointGroup(12, (10.0, -2.0), 2.5, (4.0, 9.0)),
            ),
            rng_seed=seed,
        )
        table, labels = generate_points(spec)
        oracle, oracle_labels = scalar_generate_points(spec)
        assert labels == oracle_labels
        assert [hexes(p) for p in table.positions] == [hexes(p) for p in oracle.positions]
        assert hexes(table.sizes) == hexes(oracle.sizes)


class TestGeneratePoints:
    def spec(self, seed=0):
        return PointGenSpec(
            groups=(
                PointGroup(5, (0.0, 0.0), 1.0, (1.0, 2.0)),
                PointGroup(3, (10.0, -2.0), 0.5, (4.0, 4.0)),
            ),
            rng_seed=seed,
        )

    def test_counts_and_labels(self):
        table, labels = generate_points(self.spec())
        assert table.n_items == 8
        assert labels == [0] * 5 + [1] * 3

    def test_bit_identical_reproduction(self):
        t1, l1 = generate_points(self.spec(seed=42))
        t2, l2 = generate_points(self.spec(seed=42))
        assert t1.positions == t2.positions
        assert t1.sizes == t2.sizes
        assert l1 == l2

    def test_different_seeds_differ(self):
        t1, _ = generate_points(self.spec(seed=1))
        t2, _ = generate_points(self.spec(seed=2))
        assert t1.positions != t2.positions

    def test_tiny_dispersion_collapses_to_center(self):
        spec = PointGenSpec(
            groups=(PointGroup(4, (3.0, 7.0), 1e-9, (1.0, 1.0)),), rng_seed=8
        )
        table, _ = generate_points(spec)
        for x, y in table.positions:
            assert abs(x - 3.0) < 1e-7 and abs(y - 7.0) < 1e-7

    def test_sizes_inside_range(self):
        table, _ = generate_points(self.spec())
        for size, label in zip(table.sizes, [0] * 5 + [1] * 3):
            lo, hi = self.spec().groups[label].size_range
            assert lo <= size <= hi

    def test_spec_validation(self):
        with pytest.raises(ConfigError):
            PointGroup(0, (0, 0), 1.0, (1, 2))
        with pytest.raises(ConfigError):
            PointGroup(1, (0, 0), 0.0, (1, 2))
        with pytest.raises(ConfigError):
            PointGroup(1, (0, 0), 1.0, (2, 1))


class TestWaveforms:
    def test_sine_period_and_amplitude(self):
        w = Sine(period=4.0, amplitude=2.0)
        assert w.value(0) == pytest.approx(0.0)
        assert w.value(1) == pytest.approx(2.0)
        assert w.value(3) == pytest.approx(-2.0)

    def test_square_duty(self):
        w = Square(period=4.0, amplitude=1.0, duty=0.25)
        assert [w.value(t) for t in range(4)] == [1.0, -1.0, -1.0, -1.0]

    def test_trend(self):
        w = Trend(slope=0.5, intercept=1.0)
        assert [w.value(t) for t in range(3)] == [1.0, 1.5, 2.0]

    def test_mix_sums_components(self):
        w = Mix((Trend(slope=1.0), Trend(slope=0.0, intercept=2.0)))
        assert w.value(3) == 5.0


class TestGenerateSeries:
    def spec(self, noise=0.0, seed=0):
        return SeriesGenSpec(
            clusters=(
                SeriesCluster(4, 12, Sine(period=12.0), noise),
                SeriesCluster(4, 12, Trend(slope=1.0), noise),
            ),
            rng_seed=seed,
        )

    def test_shapes_and_labels(self):
        table, labels = generate_series(self.spec())
        assert table.n_items == 8
        assert len(table.series[0]) == 12
        assert labels == [0] * 4 + [1] * 4

    def test_zero_noise_gives_identical_series_and_full_correlation(self):
        table, labels = generate_series(self.spec(noise=0.0))
        assert table.series[0] == table.series[1]
        m = pairwise_matrix(table, PearsonBall(0.5))
        assert m[0, 1] == pytest.approx(1.0, abs=1e-12)
        assert m[4, 5] == pytest.approx(1.0, abs=1e-12)

    def test_benchmark_scale(self):
        shapes = [Sine(period=60.0, phase=float(p)) for p in (0, 10, 20, 30, 40, 50)]
        spec = SeriesGenSpec(
            clusters=tuple(SeriesCluster(30, 60, s, 0.1) for s in shapes), rng_seed=1
        )
        table, labels = generate_series(spec)
        assert table.n_items == 180
        assert all(len(s) == 60 for s in table.series)
        assert [labels.count(c) for c in range(6)] == [30] * 6

    def test_within_cluster_beats_between_cluster_correlation(self):
        shapes = (Sine(period=20.0), Trend(slope=0.05), Square(period=12.0, phase=3.0))
        spec = SeriesGenSpec(
            clusters=tuple(SeriesCluster(10, 60, s, 0.15) for s in shapes), rng_seed=5
        )
        table, labels = generate_series(spec)
        m = pairwise_matrix(table, PearsonBall(0.5))
        n = table.n_items
        within = [m[i, j] for i in range(n) for j in range(i + 1, n) if labels[i] == labels[j]]
        between = [m[i, j] for i in range(n) for j in range(i + 1, n) if labels[i] != labels[j]]
        assert min(within) > max(between)

    def test_reproducible(self):
        t1, _ = generate_series(self.spec(noise=0.2, seed=9))
        t2, _ = generate_series(self.spec(noise=0.2, seed=9))
        assert t1.series == t2.series

    def test_length_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            SeriesGenSpec(
                clusters=(
                    SeriesCluster(1, 10, Sine(period=5.0)),
                    SeriesCluster(1, 12, Sine(period=5.0)),
                )
            )


class TestSpecParsing:
    def test_points_spec_round_trip(self):
        doc = {
            "kind": "points",
            "rng_seed": 3,
            "groups": [
                {"count": 2, "center": [0, 1], "dispersion": 0.5, "size_range": [1, 2]}
            ],
        }
        spec = spec_from_dict(doc)
        assert isinstance(spec, PointGenSpec)
        assert spec.groups[0].center == (0.0, 1.0)

    def test_series_spec_with_mix(self):
        doc = {
            "kind": "series",
            "clusters": [
                {
                    "count": 3,
                    "length": 8,
                    "noise_sigma": 0.1,
                    "shape": {
                        "kind": "mix",
                        "components": [
                            {"kind": "sine", "period": 4},
                            {"kind": "trend", "slope": 0.5},
                        ],
                    },
                }
            ],
        }
        spec = spec_from_dict(doc)
        assert isinstance(spec.clusters[0].shape, Mix)

    def test_integral_floats_read_as_integers(self):
        doc = {"kind": "series", "rng_seed": 7, "clusters": [
            {"count": 3, "length": 8, "shape": {"kind": "sine", "period": 4}}]}
        as_floats = dict(doc, rng_seed=7.0,
                         clusters=[dict(doc["clusters"][0], count=3.0, length=8.0)])
        spec = spec_from_dict(as_floats)
        assert spec == spec_from_dict(doc)
        assert type(spec.rng_seed) is int and type(spec.clusters[0].count) is int

    def test_bad_specs(self):
        with pytest.raises(ConfigError):
            spec_from_dict({"kind": "nope"})
        with pytest.raises(ConfigError):
            spec_from_dict({"kind": "points", "groups": [{"count": 1}]})
        with pytest.raises(ConfigError):
            waveform_from_dict({"kind": "sawtooth", "period": 3})
        with pytest.raises(ConfigError):
            spec_from_dict([1, 2, 3])

    @pytest.mark.parametrize("group, cluster", [
        ({"dispersion": 1e400}, None),
        ({"center": [math.nan, 0]}, None),
        ({"size_range": [1, 1e400]}, None),
        (None, {"shape": {"kind": "sine", "period": 4, "amplitude": 1e400}}),
        (None, {"shape": {"kind": "square", "period": 4, "offset": -1e400}}),
        (None, {"shape": {"kind": "trend", "slope": math.nan}}),
        (None, {"noise_sigma": 1e400}),
    ], ids=["dispersion", "center", "size_range", "amplitude", "offset", "slope", "noise_sigma"])
    def test_non_finite_numbers_rejected(self, group, cluster):
        if group is not None:
            doc = {"kind": "points", "groups": [dict(
                {"count": 2, "center": [0, 1], "dispersion": 0.5, "size_range": [1, 2]}, **group
            )]}
        else:
            doc = {"kind": "series", "clusters": [dict(
                {"count": 2, "length": 8, "shape": {"kind": "sine", "period": 4}}, **cluster
            )]}
        with pytest.raises(ConfigError, match="must be finite"):
            spec_from_dict(doc)

    def test_empty_mix_rejected(self):
        with pytest.raises(ConfigError, match="at least one component"):
            Mix(())
        with pytest.raises(ConfigError, match="at least one component"):
            spec_from_dict({"kind": "series", "clusters": [
                {"count": 2, "length": 8, "shape": {"kind": "mix", "components": []}},
            ]})

    def test_draws_beyond_one_stream_rejected(self):
        # 5 draws a point: each group fits numpy's index range, three exceed 2**64 draws
        group = {"count": 1_500_000_000_000_000_000, "center": [0, 1], "dispersion": 0.5,
                 "size_range": [1, 2]}
        assert len(spec_from_dict({"kind": "points", "groups": [group] * 2}).groups) == 2
        with pytest.raises(ConfigError, match="point group counts need 22500000000000000000 draws"):
            spec_from_dict({"kind": "points", "groups": [group] * 3})
        # 2 draws a reading: 2**32 series of 2**31 readings use the whole stream
        whole = {"count": 2**32, "length": 2**31, "noise_sigma": 0.1, "shape": {"kind": "trend", "slope": 1}}
        assert spec_from_dict({"kind": "series", "clusters": [whole]})
        with pytest.raises(ConfigError, match=f"need {2**64 + 2**33} draws"):
            spec_from_dict({"kind": "series", "clusters": [dict(whole, length=2**31 + 1)]})
        cluster = {"count": 10**12, "length": 10**7, "shape": {"kind": "sine", "period": 4}}
        assert spec_from_dict({"kind": "series", "clusters": [cluster]})  # draws nothing
        with pytest.raises(ConfigError, match="need 20000000000000000000 draws"):
            spec_from_dict({"kind": "series", "clusters": [dict(cluster, noise_sigma=0.1)]})

    @pytest.mark.parametrize("doc, message", [
        ({"kind": "points", "groups": [{"count": 2**62, "center": [0, 1], "dispersion": 0.5,
                                        "size_range": [1, 2]}]}, "group count must be at most"),
        ({"kind": "series", "clusters": [{"count": 2**63, "length": 8, "shape": {
            "kind": "sine", "period": 4}}]}, "cluster count must be at most"),
        ({"kind": "series", "clusters": [{"count": 2, "length": 2**62, "shape": {
            "kind": "sine", "period": 4}}]}, "series length must be at most"),
        ({"kind": "series", "clusters": [{"count": 2**62, "length": 8, "shape": {
            "kind": "sine", "period": 4}}] * 2}, "cluster counts sum to 9223372036854775808 series"),
    ], ids=["point-count", "cluster-count", "length", "series-total"])
    def test_sizes_beyond_numpy_index_range_rejected(self, doc, message):
        with pytest.raises(ConfigError, match=message):
            spec_from_dict(doc)

    def test_spec_from_json(self):
        spec = spec_from_json('{"kind": "points", "groups": []}')
        assert isinstance(spec, PointGenSpec)
