"""Seeded job decks for the four benchmark workloads.

A deck is the list of distinct CLI jobs one run cycles through; every pass
visits each deck job once in a freshly shuffled order, so each run sees the
same job mix whatever its length. Everything here depends
only on the workload seed, never on corrgap: the program under test receives
only the generated argv and instance files.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

MC_SAMPLES = (100_000, 1_000_000)
MC_JOBS = 8


@dataclass(frozen=True)
class Job:
    """One CLI invocation plus the facts its output must show.

    `expect` holds closed-form values the correctness gate compares against:
    "L" (worst-case value), "I" (independent value), "kappa", "opt" and
    "upper" (welfare).
    """

    argv: tuple[str, ...]
    expect: dict = field(default_factory=dict, compare=False, hash=False)

    @property
    def name(self) -> str:
        return " ".join(self.argv)


def max_binomial_expectation(k: int) -> float:
    """E[max of k iid Binomial(k, 1/k)] from P(max >= z) = 1 - F(z-1)^k."""
    pmf = [math.comb(k, z) * (1 / k) ** z * (1 - 1 / k) ** (k - z) for z in range(k + 1)]
    total, cdf = 0.0, 0.0
    for z in range(1, k + 1):
        cdf += pmf[z - 1]
        total += 1.0 - cdf**k
    return total


def threshold_kappa(n: int) -> float:
    """Gap of the nonempty-draw indicator at marginals 1/n: L = 1, I = 1 - (1-1/n)^n."""
    return 1.0 / (1.0 - (1.0 - 1.0 / n) ** n)


def coverage_table(rng: np.random.Generator, n: int) -> list[float]:
    """Weighted coverage over 2n universe points, each covered by each element
    with probability 0.3 and every element covering at least one point."""
    points = 2 * n
    cover = rng.random((points, n)) < 0.3
    for i in np.flatnonzero(~cover.any(axis=0)):
        cover[rng.integers(points), i] = True
    weights = rng.uniform(0.5, 2.0, points)
    cover_masks = (cover * (1 << np.arange(n))).sum(axis=1)
    masks = np.arange(1 << n)
    table = np.zeros(1 << n)
    for w, cm in zip(weights, cover_masks):
        table += w * ((masks & cm) != 0)
    return table.tolist()


def random_table(rng: np.random.Generator, n: int) -> list[float]:
    """Values drawn uniformly from [0, 1): a generic table whose scenario LP
    takes a steady number of pivots (about 6n at n = 16)."""
    return rng.random(1 << n).tolist()


class _Deck:
    def __init__(self, workload: str, seed: int, workdir: Path):
        self.rng = np.random.default_rng([seed, sum(map(ord, workload))])
        self.workdir = Path(workdir)
        self.jobs: list[Job] = []
        self.files: dict[Path, str] = {}

    def seed(self) -> int:
        return int(self.rng.integers(1, 2**31))

    def add(self, argv: str, **expect):
        self.jobs.append(Job(tuple(argv.split()), expect))

    def values_text(self, n: int, make=random_table) -> str:
        """A seeded table of 2^n values as JSON text."""
        return json.dumps(make(self.rng, n))

    def table_file(self, n: int, marginals: list[float] | None = None, make=random_table, values: str | None = None) -> str:
        """An instance file of an explicit table (`values`, JSON text, or a
        new one from `make`) and `marginals` (seeded ones if None)."""
        if values is None:
            values = self.values_text(n, make)
        if marginals is None:
            marginals = self.rng.uniform(0.05, 0.95, n).tolist()
        path = self.workdir / f"table{len(self.files):02d}_n{n}.json"
        function = f'{{"type": "explicit", "n": {n}, "values": {values}}}'
        self.files[path] = f'{{"function": {function}, "marginals": {json.dumps(marginals)}}}'
        return str(path)


def _lp16(d: _Deck):
    for k_or_n, name, facts in (
        ("--k 4", "example2", {"L": 4.0, "I": max_binomial_expectation(4)}),
        ("--n 16", "example3", {"L": 1.0, "kappa": threshold_kappa(16)}),
    ):
        d.add(f"worst-case --builtin {name} {k_or_n}", L=facts["L"])
        d.add(f"gap --builtin {name} {k_or_n}", **facts)
    # The five n=16 files share one table and differ in their marginals, so
    # each job still loads and solves its own instance while set-up formats
    # the floats of one n=16 table, not five: that formatting is harness
    # work, and its speed swings with the host far more than imports do.
    shared = d.values_text(16)
    for n, values in [(14, None)] + [(16, shared)] * 5:
        path = d.table_file(n, values=values)
        d.add(f"worst-case --instance {path}")
        d.add(f"gap --instance {path}")
    # Ten explicit n=16 jobs put the median inside their tight latency band;
    # two robust jobs per pass keep the ten slowest samples on robust.
    d.add("robust --builtin example2_two_stage --k 4")
    d.add("robust --builtin example2_two_stage --k 4")


def _battery(d: _Deck):
    for n in (4, 5, 6, 7, 8, 9, 10, 10):
        seed = d.seed()
        d.add(f"gap --builtin coverage_random --seed {seed} --n {n}")
        d.add(f"worst-case --builtin coverage_random --seed {seed} --n {n}")
    for n in (6, 8, 10, 12):
        path = d.table_file(n)
        d.add(f"gap --instance {path}")
        d.add(f"worst-case --instance {path}")
    # Small Monte Carlo jobs keep the sampling and rng layers measured here
    # at 8-13 ms a call.
    d.add(f"gap --instance {path} --samples 20000 --seed {d.seed()}")
    d.add(f"gap --builtin example2 --k 3 --samples 20000 --seed {d.seed()}", L=3.0, I=max_binomial_expectation(3))
    d.add(f"gap --builtin example3 --n 8 --samples 30000 --seed {d.seed()}", L=1.0, kappa=threshold_kappa(8))
    for n in (3, 4, 5, 6):
        d.add(f"robust --builtin example1 --n {n}")
    for _ in range(4):
        d.add(f"robust --builtin ufl_random --seed {d.seed()}")
    d.add("robust --builtin example2_two_stage --k 3")
    for n in (2, 3, 3):
        counts = ",".join(str(c) for c in d.rng.integers(1, 4, n))
        d.add(f"split-verify --builtin example3 --n {n} --counts {counts}")
    for n in (3, 4):
        counts = ",".join(str(c) for c in d.rng.integers(1, 3, n))
        d.add(f"split-verify --builtin coverage_random --seed {d.seed()} --n {n} --counts {counts}")
    for n in (3, 4, 4):
        d.add(f"certify-scheme --builtin coverage_random --seed {d.seed()} --n {n}")
    d.add("certify-scheme --builtin example3 --n 4")
    d.add("welfare --builtin integrality_gap", opt=11.0, upper=12.0)
    for n in (4, 6, 8, 10):
        d.add(f"gap --builtin example3 --n {n}", L=1.0, kappa=threshold_kappa(n))
    d.add("gap --builtin example2 --k 2", L=2.0, I=max_binomial_expectation(2))
    d.add("gap --builtin example2 --k 3", L=3.0, I=max_binomial_expectation(3))
    # one job in 50: enough for the p99 tail to land on it on every run
    d.add("verify --all")


def _exhaustive(d: _Deck):
    # Four n=6 certifications hold the median; the n=12/k=2 welfare DP, run
    # twice per pass, holds the tail.
    for n in (5, 6, 6, 6):
        d.add(f"certify-scheme --builtin coverage_random --seed {d.seed()} --n {n}")
    for n in (5, 6):
        d.add(f"certify-scheme --builtin example3 --n {n}")
    for n, k in ((10, 3), (11, 2), (12, 2)):
        path = d.table_file(n, [1.0 / k] * n, coverage_table)
        d.add(f"welfare --instance {path} --k {k}")
    d.add(f"welfare --instance {path} --k {k}")


def _montecarlo(d: _Deck):
    sources = [
        ("--builtin example2 --k 4", {"L": 4.0, "I": max_binomial_expectation(4)}),
        ("--builtin example3 --n 16", {"L": 1.0, "kappa": threshold_kappa(16)}),
        (f"--instance {d.table_file(16)}", {}),
        (f"--instance {d.table_file(16)}", {}),
    ]
    # Sample counts: the midpoint of each of MC_JOBS equal strata of
    # MC_SAMPLES, the same for every seed; the seed picks the tables and the
    # sampling seeds. The largest job runs twice per pass, so the ten slowest
    # runs of a pass-count-independent tail all belong to it.
    lo, hi = MC_SAMPLES
    for j in range(MC_JOBS):
        samples = int(lo + (j + 0.5) * (hi - lo) / MC_JOBS)
        source, facts = sources[j % len(sources)]
        d.add(f"gap {source} --samples {samples} --seed {d.seed()}", **facts)
    d.jobs.append(d.jobs[-1])


WORKLOADS = {
    "lp16": _lp16,
    "battery": _battery,
    "exhaustive": _exhaustive,
    "montecarlo": _montecarlo,
}


def build_deck(workload: str, seed: int, workdir: Path) -> tuple[list[Job], dict[Path, str]]:
    """The workload's distinct jobs and the instance files they read
    (path -> JSON text), as a pure function of (workload, seed, workdir)."""
    deck = _Deck(workload, seed, workdir)
    WORKLOADS[workload](deck)
    return deck.jobs, deck.files


def write_files(files: dict[Path, str]) -> None:
    for path, text in files.items():
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")


def prepare(workload: str, seed: int, workdir: Path) -> list[Job]:
    """Write the deck's instance files and return its jobs; the file texts are
    dropped here so that they do not count towards the run's peak RSS."""
    jobs, files = build_deck(workload, seed, workdir)
    write_files(files)
    return jobs


def passes(jobs: list[Job], seed: int):
    """Endless sequence of passes: every deck job once per pass, each pass in
    a new seeded order."""
    order = random.Random(seed)
    indices = list(range(len(jobs)))
    while True:
        order.shuffle(indices)
        yield [jobs[i] for i in indices]
