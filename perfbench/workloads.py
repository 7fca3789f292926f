"""The benchmark's workloads: what each runs, at which size, and why.

A workload turns one program seed into a chain of ``lftmine`` argv lists
that run one after another against a fresh artifact directory. A set of
runs cycles over a panel of program seeds derived from the benchmark seed;
the first panel seed equals the benchmark seed, so seed 0 reproduces the
documented anchors.
"""

from __future__ import annotations

from dataclasses import dataclass

OBJECTIVES = ("eff", "tea", "light")

# panel seed j of benchmark seed s is s + PANEL_STRIDE * j
PANEL_STRIDE = 100_003


@dataclass(frozen=True)
class Size:
    k: int
    validation_k: int = 0


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    kind: str  # "pipeline", "evaluate" or "staged"
    full: Size
    tiny: Size
    panel: int

    def size(self, tiny: bool) -> Size:
        return self.tiny if tiny else self.full

    def seeds(self, seed: int) -> list[int]:
        return [seed + PANEL_STRIDE * j for j in range(self.panel)]

    def chain(self, out: str, seed: int, tiny: bool = False) -> list[list[str]]:
        size = self.size(tiny)
        k, s = str(size.k), str(seed)
        if self.kind == "pipeline":
            return [["pipeline", "--k", k, "--seed", s, "--out-dir", out]]
        if self.kind == "evaluate":
            return [
                ["sample", "--k", k, "--seed", s, "--out-dir", out],
                ["evaluate", "--seed", s, "--out-dir", out],
                ["label", "--seed", s, "--out-dir", out],
            ]
        chain = [
            ["sample", "--k", k, "--seed", s, "--out-dir", out],
            ["evaluate", "--seed", s, "--out-dir", out, "--trace-dir", f"{out}/traces"],
            ["label", "--seed", s, "--out-dir", out],
        ]
        vk = str(size.validation_k)
        for obj in OBJECTIVES:
            common = ["--seed", s, "--out-dir", out, "--objective", obj]
            chain += [
                ["train", *common],
                ["prune", *common],
                ["rules", *common],
                ["validate", *common, "--k", vk],
            ]
        chain.append(["hollow-report", "--seed", s, "--out-dir", out])
        return chain


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="mine-k600",
            why="one-shot pipeline at k=600: tree build and pessimistic pruning dominate",
            kind="pipeline",
            full=Size(k=600),
            tiny=Size(k=40),
            # tree cost varies with the sample, so each set mines three samples
            panel=3,
        ),
        Workload(
            name="evaluate-k20000",
            why="sample, evaluate and label 20000 designs: batch evaluation and CSV I/O, no trees",
            kind="evaluate",
            full=Size(k=20_000),
            tiny=Size(k=200),
            panel=1,
        ),
        Workload(
            name="staged-k150",
            why="the paper's k=150 stage by stage: file re-reads, traces, single-design validation",
            kind="staged",
            full=Size(k=150, validation_k=500),
            tiny=Size(k=30, validation_k=10),
            # tree stages vary with the sample; cycling three keeps repeats for the digest check
            panel=3,
        ),
    )
}
