"""The benchmark's workloads: one CLI invocation each, fixed by family and rank.

Every workload is a closed-loop batch job with one caller, one process and
one thread.  Nothing in the inputs depends on the seed; the seed only sets
PYTHONHASHSEED of the program's processes, so a run can be repeated
exactly and the output digest also checks that no byte depends on hashing.
"""

from dataclasses import dataclass
from math import comb

# Spans every workload must record at least one call of.
COMMON_SPANS = (
    "arcatalog.knit",
    "silting.enumerate",
    "silting.graph",
    "silting.cliques",
    "silting.is_silting",
    "cli.serialize",
)
CENSUS_SPANS = COMMON_SPANS + (
    "census.classify_family",
    "census.classify_record",
    "endo.end_algebra",
    "endo.compose",
    "endo.coords",
    "quivers.components",
    "quivers.gldim",
    "quivers.string_gentle",
    "census.fingerprint",
    "census.iso",
)
ENUMERATE_SPANS = COMMON_SPANS + ("census.silting_json",)


def cluster_number(family, n):
    """Number of basic 2-term silting complexes (Fomin-Zelevinsky 2003).

    Type D_n: (3n-2)/n * C(2n-2, n-1).  Type A_n (the reversed line B):
    the Catalan number C(n+1).
    """
    if family in ("d-linear", "d-reversed"):
        return (3 * n - 2) * comb(2 * n - 2, n - 1) // n
    if family in ("a", "b"):
        return comb(2 * n + 2, n + 1) // (n + 2)
    raise ValueError(f"no cluster number for family {family!r}")


def positive_roots(family, n):
    """Indecomposables of the path algebra: n(n-1) for D_n, n(n+1)/2 for A_n."""
    if family in ("d-linear", "d-reversed"):
        return n * (n - 1)
    return n * (n + 1) // 2


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    family: str
    n: int
    spans: tuple

    @property
    def argv(self):
        return [self.command, "--family", self.family, "--n", str(self.n), "--format", "json"]

    @property
    def objects(self):
        return cluster_number(self.family, self.n)

    @property
    def indecomposables(self):
        return positive_roots(self.family, self.n)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("census-lambda7", "classify", "d-linear", 7, CENSUS_SPANS),
        Workload("census-b7", "classify", "b", 7, CENSUS_SPANS),
        Workload("enumerate-d9", "enumerate", "d-linear", 9, ENUMERATE_SPANS),
    )
}
