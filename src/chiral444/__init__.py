"""Toolkit for building and verifying two families of chiral {4,4,4} polytope
groups: coset enumeration, permutation groups, subgroup rewriting, and
polytope axiom verification."""

__version__ = "0.1.0"

from .words import (Generator, ParseError, Presentation, PresentationError,
                    Word, commutator, free_reduce, invert, parse_presentation,
                    substitute, word_str)
from .coset import CosetTable, EnumerationConfig, TableError, enumerate_cosets
from .perms import (PermGroup, Permutation, evaluate, extends_to_homomorphism,
                    perm_commutator)
from .rewrite import (IntMatrix, SubgroupPresentation, abelian_invariants,
                      is_commutator_relator, reidemeister_schreier,
                      simplify_presentation, smith_normal_form,
                      sublattice_index, tietze_simplify)
from .polytope import (AxiomReport, ChiralityReport, CosetGeometry,
                       RotationTriple, SchlafliType, TripleError,
                       build_coset_geometry, chirality_verdict,
                       coset_geometry_from_subgroups, enantiomorph,
                       intersection_condition, mirror_extends, mirror_images,
                       quotient_criterion, section_type,
                       validate_rotation_triple, verify_axioms)
from .families import (ConjugationCheck, CorollaryEntry, EnumerationIncomplete,
                       MemberReport, VerificationError, VerifyOptions,
                       bundled_presentation, conjugation_relations,
                       corollary_orders, expected_order, family_presentation,
                       member_triple, mirror_witness_relator,
                       normality_cross_check, presentation_U,
                       reference_triple, subgroup_seed_words,
                       verify_conjugation_action, verify_member)
