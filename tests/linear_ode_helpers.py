"""Small constructors over `liesym.linear_ode` that only the tests use.

`coeffs_from_roots` is the real-root case of `char_spec_coeffs`, the
symmetric-function route that `cramer_oracle` checks; `translation_symmetry`
is the field d/dx that leaves every constant-coefficient equation invariant.
"""

from fractions import Fraction
from typing import List, Sequence

from liesym.expr import ONE, ZERO
from liesym.jet import VectorField
from liesym.linear_ode import CharSpec, char_spec_coeffs


def coeffs_from_roots(roots: Sequence[Fraction]) -> List[Fraction]:
    """[A_0, ..., A_{n-1}] for y^(n) = sum A_i y^(i) with the given simple
    roots; raises DuplicateRoots on a repeated root."""
    return char_spec_coeffs(CharSpec(real_roots=tuple(roots)))


def translation_symmetry() -> VectorField:
    return VectorField(ONE, ZERO)
