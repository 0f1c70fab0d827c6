"""Exact computation with Lie superalgebras, their smash-product Hopf
superalgebras, Casimir elements, and radial parts of torus Laplacians.

All arithmetic is exact over Q(i); torus functions live in half-weight
coordinates q_i = exp(y_i/2).
"""

from .errors import (
    DegenerateForm,
    DegreeTooHigh,
    NotAlmostComplex,
    NotAnIdeal,
    NotAScalarSquare,
    NotEigenfunction,
    ParseError,
    SingularOddBlock,
    SingularPoint,
    SuperalgError,
    UnsupportedAlgebra,
    ZeroTorusCoordinate,
)
from .scalars import GaussianRational, gr
from .torus import (
    LaurentPoly,
    TorusElement,
    TorusRational,
    cosh_half,
    sinh_half,
    sqrt_scalar_free,
)
from .supermatrix import SuperMatrix
from .liealg import (
    LieSuperalgebra,
    QuadraticForm,
    Root,
    RootSystem,
    build_gl,
    check_jacobi,
    check_structure,
    dump_definition,
    generating_set,
    load_definition,
    theta_dual,
)
from .pbw import (
    PBWElement,
    casimir2,
    gelfand_invariant,
    is_central,
    multiply,
    pbw_normalize,
    project_to_cartan,
    super_commutator,
)
from .smash import (
    SmashAlgebra,
    SmashElement,
    TensorElement,
    antipode,
    check_hopf_axioms,
    conjugation_pullback,
    coproduct,
    counit,
    gamma_via_sdet,
    jacobian_at,
    smash_multiply,
)
from .jstruct import (
    ComplexifiedPair,
    JStructure,
    check_eigenspace_brackets,
    complexify,
    eigen_split,
    nijenhuis,
    realify,
    validate_J,
)
from .radial import (
    RadialOperator,
    TorusLaplacian,
    apply_radial_C2,
    build_radial,
    check_gamma_oracle,
    extract_P,
    gamma_closed_form,
    leading_term_match,
)

__version__ = "0.1.0"
