"""Toolkit for building and verifying two families of chiral {4,4,4} polytope
groups: coset enumeration, permutation groups, subgroup rewriting, and
polytope axiom verification."""

__version__ = "0.1.0"
