"""The three named workloads: corpus, measure, request stream, load shape.

Each workload searches one fixed corpus with a fixed set of *base*
queries, sent in whole *cycles*: a run sends the whole number of cycles
that comes closest to ``--seconds``, so every run sends the same mix of
queries however fast the host is, and a faster host only repeats it more
often.  The ``--seed`` argument draws the circular shift of every
request (and, for the hot set, the order of each client's cycle), and so
the exact series sent.  A shift leaves the set of query rotations -- and
so every rotation-invariant distance -- unchanged, so one exhaustive
reference per base checks every request built from it, while each (base,
shift) pair is still a distinct series to the service's answer cache.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from repro.datasets.shapes_data import projectile_point_collection
from repro.distances.dtw import DTWMeasure
from repro.distances.lcss import LCSSMeasure

LENGTH = 64
K = 5
CORPUS_SEED = 2006
MEMBER_SEED = 7


@dataclass(frozen=True)
class Workload:
    name: str
    service: bool  # through the sharded service (else in-process library calls)
    corpus: str  # "walks" (the bench_service generator) or "points"
    size: int
    measure: str
    clients: int
    mix: str  # "knn", or "mixed": every 4th base is sent as a range query
    n_bases: int
    hot_set: int = 0  # > 0: each client cycles through this many fixed queries
    #: Percentile reported as ``latency_ms.tail``: the highest one that
    #: leaves at least 10 samples beyond it at the fewest cycles a run at
    #: ``run_seconds`` sends on the 2-vCPU host that made the baseline;
    #: the hot workload uses p90 instead, because stalls swing its upper
    #: percentiles (see NOTES.md).
    tail_pct: float = 50.0
    #: Traced run: requests per block of recording on or off.  One-client
    #: workloads pair single requests of the same base; the hot set, with
    #: two clients in flight, alternates longer blocks.
    trace_block: int = 1

    def make_measure(self):
        if self.measure == "dtw":
            return DTWMeasure(radius=3)
        return LCSSMeasure(delta=2, epsilon=0.5)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("svc-dtw-cold", True, "walks", 96, "dtw", 1, "mixed", 24, tail_pct=79.0),
        Workload(
            "svc-dtw-hot", True, "walks", 96, "dtw", 2, "mixed", 4,
            hot_set=16, tail_pct=90.0, trace_block=128,
        ),
        Workload("lib-lcss", False, "points", 128, "lcss", 1, "knn", 32, tail_pct=84.0),
    )
}


def _random_walks(rng: np.random.Generator, m: int, n: int) -> np.ndarray:
    """The ``BENCH_service`` corpus: z-normalised Gaussian random walks."""
    walks = np.cumsum(rng.normal(size=(m, n)), axis=1)
    walks -= walks.mean(axis=1, keepdims=True)
    walks /= walks.std(axis=1, keepdims=True)
    return walks


def make_corpus(workload: Workload) -> tuple[np.ndarray, np.ndarray]:
    """``(database, bases)``; bases are the queries before their shift.

    Random walks come from the ``BENCH_service`` generator and seed (2006);
    service bases are fixed members plus fixed noise.  Projectile points
    come from the ``repro`` generator; library bases are fixed held-out
    shapes from the same generator.
    """
    if workload.corpus == "walks":
        database = _random_walks(np.random.default_rng(CORPUS_SEED), workload.size, LENGTH)
        rng = np.random.default_rng(MEMBER_SEED)
        members = rng.choice(workload.size, workload.n_bases, replace=False)
        return database, database[members] + 0.05 * rng.standard_normal((workload.n_bases, LENGTH))
    database = projectile_point_collection(np.random.default_rng(CORPUS_SEED), workload.size, LENGTH)
    held_out = projectile_point_collection(np.random.default_rng(CORPUS_SEED + 1), workload.n_bases, LENGTH)
    return database, held_out


@dataclass(frozen=True)
class Request:
    qid: int  # the request's place in the run's issue order; -1 until issued
    kind: str  # "knn" or "range"
    base: int
    shift: int
    query: np.ndarray
    radius: float = 0.0  # range requests: the base's reference K-th NN distance


class RequestSource:
    """Seeded request cycles, one stream per client.

    A cycle sends every base once, in order; base ``b`` is a range query
    when the mix is "mixed" and ``b % 4 == 3``.  With ``paired`` (the
    traced run of a one-client workload) a cycle sends every base twice in
    a row, so that each traced request has an untraced twin of the same
    base.  Visit ``v`` to a base uses the ``v``-th shift of a seeded
    permutation per base, so no (base, shift) pair repeats within 64
    visits.  With a hot set, each client's cycle is its own seeded
    permutation of the hot set.
    """

    def __init__(
        self,
        workload: Workload,
        seed: int,
        bases: np.ndarray,
        kth_distance: list[float],
        paired: bool = False,
    ):
        self.workload = workload
        self.seed = seed
        self.bases = bases
        self.kth_distance = kth_distance
        self.paired = paired
        rng = np.random.default_rng([seed, 2])
        self.shifts = [rng.permutation(LENGTH) for _ in range(len(bases))]

    def request(self, base: int, visit: int) -> Request:
        kind = "range" if self.workload.mix == "mixed" and base % 4 == 3 else "knn"
        shift = int(self.shifts[base][visit % LENGTH])
        radius = self.kth_distance[base] if kind == "range" else 0.0
        return Request(-1, kind, base, shift, np.roll(self.bases[base], shift), radius)

    def warmup_request(self) -> Request:
        """A request no run reaches (the 64th visit to base 0)."""
        return self.request(0, LENGTH - 1)

    def hot_requests(self) -> list[Request]:
        n = len(self.bases)
        return [self.request(j % n, j // n) for j in range(self.workload.hot_set)]

    def cycles(self, client: int):
        """The endless sequence of ``client``'s cycles, each a list of requests."""
        if self.workload.hot_set:
            hot = self.hot_requests()
            rng = np.random.default_rng([self.seed, 3, client])
            while True:
                yield [hot[j] for j in rng.permutation(len(hot))]
        copies = 2 if self.paired else 1
        for cycle in itertools.count():
            yield [
                self.request(base, copies * cycle + copy)
                for base in range(len(self.bases))
                for copy in range(copies)
            ]
