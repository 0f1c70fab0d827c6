import pytest

from superalg.liealg import build_gl
from superalg.scalars import ZERO


@pytest.fixture(scope="session")
def gl11():
    return build_gl(1, 1)


@pytest.fixture(scope="session")
def gl21():
    return build_gl(2, 1)


@pytest.fixture(scope="session")
def gl22():
    return build_gl(2, 2)


@pytest.fixture(scope="session")
def b_vec():
    """b_vec(form, u, v): the form on sparse vectors {basis index: scalar}."""

    def pair(form, u, v):
        acc = ZERO
        for i, ci in u.items():
            for j, cj in v.items():
                acc = acc + ci * cj * form.b(i, j)
        return acc

    return pair
