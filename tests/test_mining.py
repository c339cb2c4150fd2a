"""Tests for the mining layer: k-NN, range search, motifs, discords."""

import math

import numpy as np
import pytest

from repro.core.search import brute_force_search
from repro.distances.dtw import DTWMeasure
from repro.distances.euclidean import EuclideanMeasure
from repro.mining.discords import find_discords
from repro.mining.motifs import find_motif
from repro.mining.queries import knn_search, range_search
from repro.timeseries.ops import circular_shift

MEASURES = [EuclideanMeasure(), DTWMeasure(radius=2)]


def all_pairs_nn(database, query, measure):
    """Reference: every rotation-invariant distance, sorted."""
    dists = [
        (brute_force_search([obj], query, measure).distance, i)
        for i, obj in enumerate(database)
    ]
    dists.sort()
    return dists


@pytest.fixture
def database(random_walk):
    return [random_walk(16) for _ in range(12)]


@pytest.fixture
def query(random_walk):
    return random_walk(16)


class TestKNN:
    @pytest.mark.parametrize("measure", MEASURES, ids=["ed", "dtw"])
    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_matches_bruteforce_ranking(self, database, query, measure, k):
        got = knn_search(database, query, measure, k=k)
        want = all_pairs_nn(database, query, measure)[:k]
        assert [nb.index for nb in got] == [i for _d, i in want]
        for nb, (d, _i) in zip(got, want):
            assert math.isclose(nb.distance, d, rel_tol=1e-9)

    def test_k_larger_than_database(self, database, query):
        got = knn_search(database, query, EuclideanMeasure(), k=100)
        assert len(got) == len(database)
        dists = [nb.distance for nb in got]
        assert dists == sorted(dists)

    def test_k1_matches_wedge_search(self, database, query):
        from repro.core.search import wedge_search

        measure = EuclideanMeasure()
        nn = knn_search(database, query, measure, k=1)[0]
        ws = wedge_search(database, query, measure)
        assert nn.index == ws.index
        assert math.isclose(nn.distance, ws.distance, rel_tol=1e-9)

    def test_rejects_bad_k(self, database, query):
        with pytest.raises(ValueError):
            knn_search(database, query, EuclideanMeasure(), k=0)


class TestRangeSearch:
    @pytest.mark.parametrize("measure", MEASURES, ids=["ed", "dtw"])
    def test_matches_bruteforce_filter(self, database, query, measure):
        reference = all_pairs_nn(database, query, measure)
        radius = reference[len(reference) // 2][0]  # median distance
        got = range_search(database, query, measure, radius=radius)
        want = sorted(i for d, i in reference if d <= radius + 1e-12)
        assert [nb.index for nb in got] == want

    def test_zero_radius_finds_exact_rotations(self, database, query):
        planted = list(database)
        planted[4] = circular_shift(query, 7)
        got = range_search(planted, query, EuclideanMeasure(), radius=0.0)
        assert [nb.index for nb in got] == [4]
        assert got[0].distance == 0.0

    def test_rejects_negative_radius(self, database, query):
        with pytest.raises(ValueError):
            range_search(database, query, EuclideanMeasure(), radius=-1.0)

    def test_rejects_nan_radius(self, database, query):
        # NaN fails every comparison, so a ``radius < 0`` guard lets it
        # through and the search silently answers ``[]``.
        with pytest.raises(ValueError):
            range_search(database, query, EuclideanMeasure(), radius=math.nan)


class TestMotif:
    @pytest.mark.parametrize("measure", MEASURES, ids=["ed", "dtw"])
    def test_finds_planted_pair(self, database, random_walk, measure):
        collection = list(database)
        twin = circular_shift(collection[3], 5) + 1e-4
        collection.append(twin)
        motif = find_motif(collection, measure)
        assert {motif.first, motif.second} == {3, len(collection) - 1}
        assert motif.distance < 0.1

    def test_matches_bruteforce_closest_pair(self, database):
        measure = EuclideanMeasure()
        best = math.inf
        best_pair = None
        for i in range(len(database)):
            for j in range(i + 1, len(database)):
                d = brute_force_search([database[j]], database[i], measure).distance
                if d < best:
                    best, best_pair = d, (i, j)
        motif = find_motif(database, measure)
        assert (motif.first, motif.second) == best_pair
        assert math.isclose(motif.distance, best, rel_tol=1e-9)

    def test_rejects_tiny_collection(self, random_walk):
        with pytest.raises(ValueError):
            find_motif([random_walk(8)], EuclideanMeasure())


class TestDiscords:
    @pytest.mark.parametrize("measure", MEASURES, ids=["ed", "dtw"])
    def test_finds_planted_outlier(self, random_walk, measure):
        base = np.sin(np.linspace(0, 2 * np.pi, 24))
        rng = np.random.default_rng(5)
        collection = [
            circular_shift(base + rng.normal(0, 0.05, 24), int(rng.integers(24)))
            for _ in range(10)
        ]
        collection.append(random_walk(24) * 3)  # the oddball
        discords = find_discords(collection, measure, top=1)
        assert discords[0].index == len(collection) - 1

    def test_matches_bruteforce_nn_distances(self, database):
        measure = EuclideanMeasure()
        nn_dist = []
        for i in range(len(database)):
            rest = [database[j] for j in range(len(database)) if j != i]
            nn_dist.append(brute_force_search(rest, database[i], measure).distance)
        order = sorted(range(len(database)), key=lambda i: -nn_dist[i])
        discords = find_discords(database, measure, top=3)
        assert [d.index for d in discords] == order[:3]
        for d in discords:
            assert math.isclose(d.nn_distance, nn_dist[d.index], rel_tol=1e-9)

    def test_phase_shifted_copy_is_not_an_outlier(self, random_walk):
        """The rotation-invariant point: odd phase is not odd data."""
        rng = np.random.default_rng(9)
        base = np.sin(np.linspace(0, 2 * np.pi, 24))
        collection = [base + rng.normal(0, 0.05, 24) for _ in range(8)]
        collection.append(circular_shift(base, 12))  # re-phased, not odd
        collection.append(np.sign(base) * 2.0)  # genuinely odd
        discords = find_discords(collection, EuclideanMeasure(), top=1)
        assert discords[0].index == len(collection) - 1

    def test_rejects_bad_params(self, database, random_walk):
        with pytest.raises(ValueError):
            find_discords(database, EuclideanMeasure(), top=0)
        with pytest.raises(ValueError):
            find_discords([random_walk(8)], EuclideanMeasure())
