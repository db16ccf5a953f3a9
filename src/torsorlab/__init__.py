"""Exact-arithmetic toolkit for subspace geometries and matrix homotopes.

The library works over exact fields (rationals, Gaussian rationals, prime
fields, and their quadratic extensions), and over the dual ring K[eps] and
its iterate K[e1][e2] = DualRing(DualRing(K)) for derivatives, and provides:

- subspaces of K^n with lattice operations and charts (`subspaces`),
- linear relations, generalized projections, and adjoints (`relations`),
- the five-slot product on subspaces, computed by one memoized
  witness-elimination kernel and audited against the relation, difference
  and restricted routes, and its law checks (`gamma`),
- involutions induced by bilinear and sesquilinear forms, fixed-point
  geometries, and the torsors they carry (`involutions`),
- matrix products deformed by a parameter, classical subfamilies, and
  bridges back to the subspace picture (`homotopes`),
- named, reproducible check suites and reports (`checks`, `reports`),
- a command line front end (`cli`).
"""

from .fields import (DualRing, FieldSyntaxError, GaussianRationals,
                     PrimeField, QuadraticExt, Rationals, field_from_spec)
from .matrices import (Matrix, ShapeError, all_matrices, det, format_matrix,
                       hstack, is_invertible, kernel_basis, mat_invert,
                       parse_matrix, random_matrix, rank, rref, vstack)
from .subspaces import (Form, Subspace, all_subspaces, chart_of, complement,
                        contains, coord_subspace, diag_form,
                        enumerate_subspaces, full_subspace, gaussian_binomial,
                        graph_minus, graph_of, hyperbolic_form, image_under,
                        is_isotropic, is_transversal, join, meet,
                        orthocomplement, random_subspace, span, span_rows,
                        split_form, standard_forms, subspace_to_json,
                        symplectic_form)
from .relations import (LinearRelation, adjoint, apply_rel, compose,
                        difference, gen_projection, inverse_rel, one_minus,
                        one_plus, random_relation, relation_to_json)
from .gamma import (common_complements, dilations, gamma_global, gamma_oracle,
                    gamma_restricted, gamma_via_m, l_relation, m_operator,
                    m_relation, proj_operator, transversal_tuple)
from .involutions import (BaseTriple, Involution, InvolutionError,
                          cayley_table, census_report, closure_report,
                          dual_involution, fixed_points, involution,
                          isotropic_census, ortho_involution,
                          standard_triple, torsor_G, translation_op,
                          unitary_group)
from .homotopes import (Homotope, classical_family, family_table_bridge,
                        graph_star_roundtrip, hull, lie_bracket_dual,
                        lie_bracket_formula, members, plain_triple,
                        star_triple, unitary_transport_bridge)
from .reports import CheckConfig, Report
from .rng import SplitMix64, trial_rng
from .checks import SUITES, SuiteNotApplicable, list_suites, run_all, run_suite

__version__ = "0.1.0"
