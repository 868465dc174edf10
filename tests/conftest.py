import math
import os
from pathlib import Path

import pytest
from hypothesis import settings

from coxinv.coxeter import CoxeterMatrix

INF = math.inf

# the CLI tests run `python -m coxinv.cli` in a child process: put src/ on
# its path, as pyproject's pythonpath does for this one, so the suite runs
# from a plain checkout
SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    [SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep)
             if p and p != SRC])

# every @given test draws the same examples on every run
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")


def mat(rows, names=None):
    names = names or [chr(97 + i) for i in range(len(rows))]
    return CoxeterMatrix(names, rows)


def right_angled_dodecahedron():
    """Reflections in the faces of the right-angled dodecahedron: label 2
    on adjacent faces, inf otherwise.  Face adjacency is the icosahedron:
    a top vertex 0, an upper ring 1-5, a lower ring 6-10 and a bottom
    vertex 11."""
    edges = set()
    for j in range(5):
        up, up2, low, low2 = 1 + j, 1 + (j + 1) % 5, 6 + j, 6 + (j + 1) % 5
        edges |= {(0, up), (up, up2), (low, low2), (low, 11), (up, low),
                  (up, low2)}
    return mat([[1 if i == j else
                 2 if (i, j) in edges or (j, i) in edges else INF
                 for j in range(12)] for i in range(12)])


@pytest.fixture(scope="session")
def dihedral_inf():
    return mat([[1, INF], [INF, 1]])


@pytest.fixture(scope="session")
def a2():
    return mat([[1, 3], [3, 1]])


@pytest.fixture(scope="session")
def triangle_333():
    return mat([[1, 3, 3], [3, 1, 3], [3, 3, 1]])


@pytest.fixture(scope="session")
def triangle_732():
    return mat([[1, 7, 2], [7, 1, 3], [2, 3, 1]])


@pytest.fixture(scope="session")
def pentagon():
    return mat([
        [1, 2, INF, INF, 2],
        [2, 1, 2, INF, INF],
        [INF, 2, 1, 2, INF],
        [INF, INF, 2, 1, 2],
        [2, INF, INF, 2, 1],
    ])


@pytest.fixture(scope="session")
def square_product():
    # two commuting infinite dihedrals: 4-cycle of right angles
    return mat([
        [1, 2, INF, 2],
        [2, 1, 2, INF],
        [INF, 2, 1, 2],
        [2, INF, 2, 1],
    ])


@pytest.fixture(scope="session")
def path_2edge():
    # a-b-c with a,c not joined: nerve is a path, not a cycle
    return mat([[1, 2, INF], [2, 1, 2], [INF, 2, 1]])


@pytest.fixture(scope="session")
def k34():
    # right-angled K_{3,4}: a1-a3 pairwise inf, b1-b4 pairwise inf, every
    # a_i b_j = 2, so W = (Z/2)^{*3} x (Z/2)^{*4}
    return mat([[1 if i == j else (INF if (i < 3) == (j < 3) else 2)
                 for j in range(7)] for i in range(7)])
