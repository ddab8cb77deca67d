"""The benchmark's workloads: seeded instance lists and the solves run on them.

Every instance is ``generate_er(n, p, 1, 1000, s * SEED_STRIDE + i)`` for
benchmark seed ``s`` and instance index ``i``, with sides n//2 | n - n//2.
One operation is one solve: an instance under one preset, strategy and
thread count.  Thread count 1 means ``solve_sequential``; 2 means
``solve_parallel(threads=2)``.

The sizes are chosen for a steady sum, not for hard single instances: the
node count of one instance varies by a factor of ten across generator
seeds, so each workload solves many small instances, and the spread of the
total across benchmark seeds shrinks with the square root of their number.
"""

from __future__ import annotations

from dataclasses import dataclass

WMIN, WMAX = 1, 1000
SEED_STRIDE = 1000


@dataclass(frozen=True)
class Op:
    instance: int
    preset: str
    strategy: str  # a bipart.solver.SearchStrategy value: "dfs", "lb" or "gap"
    threads: int

    @property
    def sequential(self) -> bool:
        return self.threads == 1

    @property
    def label(self) -> str:
        return f"#{self.instance} {self.preset}/{self.strategy}/{self.threads}t"


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    p: float
    count: int
    configs: tuple[tuple[str, str, int], ...]  # (preset, strategy, threads)

    @property
    def sides(self) -> tuple[int, int]:
        return self.n // 2, self.n - self.n // 2

    def generator_seeds(self, seed: int) -> list[int]:
        return [seed * SEED_STRIDE + i for i in range(self.count)]

    def instance_keys(self, seed: int) -> list[str]:
        """Reference-file keys, one per instance, in instance order."""
        return [
            f"G({self.n},{self.p},{WMIN}..{WMAX},{s})"
            for s in self.generator_seeds(seed)
        ]

    def ops(self) -> list[Op]:
        return [
            Op(i, preset, strategy, threads)
            for i in range(self.count)
            for preset, strategy, threads in self.configs
        ]


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        # The bound progression on sparse graphs (average degree 4.2, as
        # G(44, 0.1)): free components stay larger than the bigger side,
        # so the component BFS runs; the high-degree term almost never fires.
        Workload(
            "sparse-dfs", 22, 0.2, 225,
            (("trivial", "dfs", 1), ("rebalance", "dfs", 1),
             ("component", "dfs", 1)),
        ),
        # Dense graphs: high-degree counter upkeep in assign and a
        # high-degree term that fires; the component BFS rarely decides.
        Workload(
            "dense-dfs", 18, 0.5, 165,
            (("rebalance", "dfs", 1), ("highdegree", "dfs", 1),
             ("component", "dfs", 1)),
        ),
        # Frontiers under rebalance only (no high-degree upkeep, no BFS):
        # heap pops and stale tasks (lb), per-child completions (gap), and
        # the thread pool against its one-thread counterpart (dfs, lb).
        Workload(
            "frontier-2t", 20, 0.22, 180,
            (("rebalance", "dfs", 1), ("rebalance", "lb", 1),
             ("rebalance", "gap", 1), ("rebalance", "dfs", 2),
             ("rebalance", "lb", 2)),
        ),
    )
}


def generate_graphs(workload: Workload, seed: int) -> list:
    """The workload's instances for a benchmark seed.

    ``generate_er`` is looked up on its module at call time, so a traced
    run sees the call through its wrapper.
    """
    from bipart import graph

    return [
        graph.generate_er(workload.n, workload.p, WMIN, WMAX, s)
        for s in workload.generator_seeds(seed)
    ]
