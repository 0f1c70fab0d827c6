import random
from fractions import Fraction

import pytest

from superalg.sampling import _COORD_POOL, rand_scalar, rand_torus_coords, rng
from superalg.scalars import GaussianRational


def fraction_scalar(r, complex_prob=0.5):
    """rand_scalar as two Fraction draws, numerator then denominator."""
    re = Fraction(r.randint(-4, 4), r.randint(1, 3))
    im = Fraction(r.randint(-4, 4), r.randint(1, 3)) if r.random() < complex_prob else 0
    return GaussianRational(re, im)


def fraction_coords(r, t):
    return tuple(GaussianRational(r.choice(_COORD_POOL)) for _ in range(t))


# (sampler, its Fraction construction), each returning a tuple of scalars
DRAWS = {
    "scalar": (lambda r: (rand_scalar(r),), lambda r: (fraction_scalar(r),)),
    "scalar-mostly-complex": (
        lambda r: (rand_scalar(r, 0.9),), lambda r: (fraction_scalar(r, 0.9),),
    ),
    "torus-coords": (lambda r: rand_torus_coords(r, 3), lambda r: fraction_coords(r, 3)),
}


@pytest.mark.parametrize("name", sorted(DRAWS))
def test_first_50_draws_at_seed_7_match_the_fraction_path(name):
    # the samplers build from integers and from a pool of prebuilt scalars;
    # the values, their reduced triples (so their hashes) and the state of
    # the stream stay those of the Fraction construction, so every seeded
    # report stays the same
    draw, ref = DRAWS[name]
    r, r_ref = rng(7), random.Random(7)
    got = [draw(r) for _ in range(50)]
    want = [ref(r_ref) for _ in range(50)]
    assert got == want
    assert [[x.parts() for x in v] for v in got] == [[x.parts() for x in v] for v in want]
    assert r.getstate() == r_ref.getstate()
