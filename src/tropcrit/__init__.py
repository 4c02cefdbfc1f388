"""tropcrit: exact-arithmetic toolkit for the asymptotics of likelihood
critical points on very affine varieties.

Given a variety in the algebraic torus (as an ideal, a parametrization or
a hyperplane arrangement) the package computes its rigid tropical rays,
the critical slope hyperplanes in data space, the closed-form maximum
likelihood estimator when the ML degree is one, truncated series branches
of critical points along curves of data vectors, and facet predicates of
the LCT polytope tied to externally computed Bernstein-Sato data.
"""

from .arrangement import (
    Arrangement,
    Flat,
    chi_complement,
    flacet_rays,
    flacets,
    intersection_lattice,
    matroid_invariants,
)
from .asymptotics import (
    DataCurve,
    SeriesSolution,
    branch_seeds,
    branches,
    series_newton_lift,
    valuation_vector,
)
from .bs_lct import (
    BSFixture,
    BSReport,
    LCTPolytope,
    bs_slope_intersection,
    conjecture_check,
    facet_defining,
    lct_polytope,
    qfa_nonneg_certificate,
)
from .groebner import (
    GroebnerBasis,
    Ideal,
    Job,
    eliminate,
    groebner_basis,
    ideal_dimension,
    saturate,
)
from .mle import (
    CriticalSystem,
    MLEFormula,
    VarietySpec,
    critical_system,
    ml_degree,
    mle_closed_form,
    torus_euler_characteristic,
)
from .rings import Polynomial, poly_parse
from .series import LaurentSeries
from .tropical import (
    Ray,
    SlopeHyperplane,
    TropicalEngine,
    critical_slopes,
    find_rigid_rays,
    stratum_euler_char,
    stratum_model,
)

__version__ = "0.1.0"
