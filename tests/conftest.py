import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from ditop import (
    Cell,
    directed_circle,
    directed_cycle,
    directed_path,
    grid,
    pushout,
    standard_cube,
    tensor,
    vertex,
)
from ditop import pv
from ditop.precubical import PcMorphism, PrecubicalSet

SWISS_PV = "res a:1; res b:1;\nproc Pa.Pb.Vb.Va;\nproc Pb.Pa.Va.Vb;\n"
MUTEX3_PV = "res a:2;\nproc Pa.Va;\nproc Pa.Va;\nproc Pa.Va;\n"


def wedge_of_two_edges():
    """Two edges out of a shared source, built as a pushout of inclusions."""
    point = PrecubicalSet({0: [vertex("0")]}, {})
    arrow = standard_cube(1)
    include = PcMorphism(point, arrow, {vertex("0"): vertex("0")})
    return pushout(include, include).space


def bouquet(loops: int) -> PrecubicalSet:
    """``loops`` directed loops ``l0``, ``l1``, ... at the one vertex o."""
    o = vertex("o")
    edges = [Cell(1, f"l{i}") for i in range(loops)]
    faces = {(e, 1, a): o for e in edges for a in (0, 1)}
    return PrecubicalSet({0: [o], 1: edges}, faces)


def build_corpus():
    corpus = [
        ("cube1", standard_cube(1)),
        ("cube2", standard_cube(2)),
        ("cube3", standard_cube(3)),
        ("cube4", standard_cube(4)),
        ("path3", directed_path(3)),
        ("circle", directed_circle()),
        ("cycle3", directed_cycle(3)),
        ("grid22", grid(2, 2)),
        ("grid33", grid(3, 3)),
        ("swiss_grid", grid(3, 3, holes={(1, 1)})),
        ("grid44_diag", grid(4, 4, holes={(1, 1), (2, 2)})),
        ("grid55", grid(5, 5)),
        ("cyl_circle", tensor(directed_circle(), standard_cube(1))),
        ("tensor_path", tensor(directed_path(2), standard_cube(1))),
        ("wedge", wedge_of_two_edges()),
        ("pv_swiss", pv.build_complex(pv.parse(SWISS_PV)).space),
        ("pv_mutex3", pv.build_complex(pv.parse(MUTEX3_PV)).space),
    ]
    return corpus


@pytest.fixture(scope="session")
def corpus():
    return build_corpus()


@pytest.fixture(scope="session")
def acyclic_corpus(corpus):
    cyclic = {"circle", "cycle3", "cyl_circle"}
    return [(name, space) for name, space in corpus if name not in cyclic]


@pytest.fixture(scope="session")
def swiss_grid():
    return grid(3, 3, holes={(1, 1)})


@pytest.fixture(scope="session")
def pv_swiss():
    return pv.build_complex(pv.parse(SWISS_PV))


def c(key: str) -> Cell:
    return Cell(0, key)
