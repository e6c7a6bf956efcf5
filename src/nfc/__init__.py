"""Exact normal forms for infinite-type hypersurface graphs in C^2.

The package computes, in exact Gaussian-rational arithmetic, the
characteristic polynomial and resonances of a class surface
Im w = phi(z, zb, Re w), and carries out the complete stage-by-stage
normalization together with the example families, stability-group maps and
infinitesimal-automorphism checks used to validate it.
"""

from .scalar import (
    GaussianRational,
    KPoly,
    Rational,
    integer_roots_ge2,
    kpoly_eval,
    make_monic,
)
from .series import (
    FormalMap,
    HoloSeries2,
    Series3,
    UniSeries,
    compose_maps,
    hermitian_conjugate,
    invert_map,
    invert_real_triple,
    is_hermitian,
    split_real_imag,
    substitute,
    uni_compose,
    uni_function,
)
from .surface import (
    ClassReport,
    GraphSurface,
    Jet7,
    NabForm,
    check_normal_form,
    coefficient,
    infinitesimal_defect,
    jet7,
    map_defect,
    to_nab,
    transform,
    validate_class,
)
from .resonance import KMatrix, ResonanceReport, char_poly, det, matrix_A, matrix_B
from .normalizer import (
    GroupElement,
    NormalizationResult,
    StageSystem,
    apply_group_action,
    normalize,
    prenormalize_level1,
    solve_stage,
    stage_system,
)
from .families import (
    FamilySpec,
    gen_Ht,
    gen_X,
    gen_cd,
    gen_mm,
    gen_mmt,
    gen_quadric,
    generate,
    solve_qT,
)

__version__ = "0.1.0"
