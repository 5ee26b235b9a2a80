"""Desk-scale analysis toolkit for programs with switching constraints."""

from .numeric import Polyhedron, Tolerances
from .problem import (BranchProblem, IndexSets, MpscProblem, all_branches,
                      bipartitions, index_sets, load_problem)

__all__ = [
    "BranchProblem", "IndexSets", "MpscProblem", "Polyhedron", "Tolerances",
    "all_branches", "bipartitions", "index_sets", "load_problem",
]

__version__ = "0.1.0"
