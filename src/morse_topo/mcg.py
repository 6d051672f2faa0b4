"""Mapping-class-group generators and their action on first homology.

Homology computations are for orientable surfaces: curve classes live in
Z^(2g) over the standard symplectic basis, Dehn twists act as transvections,
and a circle-valued map with cohomology vector ``q`` singles out the class
of its regular level set.  The generator catalogues follow the standard
generating sets for mapping class groups of surfaces with boundary and tag
each generator with an admissibility verdict relative to the canonical map
of the given boundary signs.
"""
from __future__ import annotations

import enum
import math
import sys
from typing import Mapping, NamedTuple, Sequence

from .surface import Surface, Target, _int_vector
from .symplectic import (
    SpMatrix,
    Word,
    stabilizer_decompose,
    symplectic_completion,
    transvection,
)


def level_set_class(q: Sequence[int], g: int) -> tuple[int, ...]:
    """Homology class of a regular level set of a map with cohomology vector q.

    It is the unique class L with form(L, c) = q . c for every class c;
    concretely L = Omega q (the beta-part of q becomes the alpha-part of L
    and the alpha-part flips sign).
    """
    q, (g,) = _int_vector(q), _int_vector((g,), "genus")
    if len(q) != 2 * g:
        raise ValueError("q must have length 2g")
    return q[g:] + tuple(-x for x in q[:g])


def degree_along(q: Sequence[int], gamma: Sequence[int]) -> int:
    """Winding degree of the map along a curve: form(L, gamma) = q . gamma."""
    q, gamma = _int_vector(q), _int_vector(gamma)
    if len(q) != len(gamma):
        raise ValueError("q and gamma must have the same length")
    return sum(a * b for a, b in zip(q, gamma))


def twist_action(gamma: Sequence[int]) -> SpMatrix:
    """Action of the Dehn twist along gamma on homology: a transvection."""
    return transvection(gamma)


def twist_admissible(q: Sequence[int], gamma: Sequence[int]) -> bool:
    """Whether the twist along gamma preserves the map up to deformation.

    The homological criterion: the map restricted to gamma must be
    null-homotopic, i.e. have degree zero.
    """
    return degree_along(q, gamma) == 0


# ---------------------------------------------------------------------------
# Generator catalogues


class GeneratorKind(enum.Enum):
    DEHN_TWIST = "dehn_twist"
    BOUNDARY_PERMUTATION = "boundary_permutation"
    ORIENTATION_REVERSAL = "orientation_reversal"
    BOUNDARY_SLIDE = "boundary_slide"
    CROSSCAP_SLIDE = "crosscap_slide"


class Admissible(enum.Enum):
    YES = "Yes"
    NO = "No"
    YES_VIA_WORD = "YesViaWord"


class MCGGenerator(NamedTuple):
    """A catalogue entry, as an immutable tuple record ``(kind, name,
    admissible, curve, sparse_class)``: it unpacks, and it compares equal to
    the plain tuple of its fields.  ``sparse_class`` is a twist curve's
    homology class as its length 2g and its at most two non-zero ``(index,
    value)`` entries, or None."""

    kind: GeneratorKind
    name: str
    admissible: Admissible
    curve: str | None = None
    sparse_class: tuple[int, tuple[tuple[int, int], ...]] | None = None

    @property
    def curve_class(self) -> tuple[int, ...] | None:
        """The class as a dense 2g-tuple, built on each call, or None."""
        if self.sparse_class is None:
            return None
        n, entries = self.sparse_class
        v = [0] * n
        for i, x in entries:
            v[i] = x
        return tuple(v)


def _twist(curve: str, flag: Admissible, cls: tuple | None = None):
    return MCGGenerator(
        GeneratorKind.DEHN_TWIST, f"t_{curve}", flag, curve=curve, sparse_class=cls
    )


def _configuration_curves(g: int, b_minus: int, b_plus: int) -> list[tuple[str, tuple]]:
    """Curves of the reference configuration on an orientable surface,
    each named and with its homology class, stored by its non-zero entries.

    alpha_i/beta_i run over the g handles and are the basis classes,
    gamma_i joins consecutive handles and is homologous to
    alpha_i - alpha_{i+1}, delta_i encircles the i-th negative boundary
    circle and epsilon_i the i-th positive one (ordering by label); those
    are boundary-parallel and null-homologous.
    """
    n = 2 * g
    return (
        [(f"alpha_{i + 1}", (n, ((i, 1),))) for i in range(g)]
        + [(f"beta_{i + 1}", (n, ((g + i, 1),))) for i in range(g)]
        + [(f"gamma_{i + 1}", (n, ((i, 1), (i + 1, -1)))) for i in range(g - 1)]
        + [(f"delta_{i}", (n, ())) for i in range(1, b_minus + 1)]
        + [(f"epsilon_{i}", (n, ())) for i in range(1, b_plus + 1)]
    )


def _boundary_pair_generators(
    boundary: Sequence[str], eps: Mapping[str, int], *, minimal_has_extrema: bool
) -> list[MCGGenerator]:
    """Boundary permutations b_ij, split by the signs of the two circles.

    Equal signs give the permutation itself; mixed signs only its square,
    a Dehn twist along the curve separating the two circles.  That twist is
    a product of configuration twists (rather than directly a level-set
    component) exactly when the minimal map has no extrema and no third
    boundary circle to route through.
    """
    out = []
    n = len(boundary)
    for i in range(n):
        for j in range(i + 1, n):
            li, lj = boundary[i], boundary[j]
            if eps[li] == eps[lj]:
                out.append(
                    MCGGenerator(
                        GeneratorKind.BOUNDARY_PERMUTATION,
                        f"b_{i + 1},{j + 1}",
                        Admissible.YES,
                    )
                )
            else:
                direct = minimal_has_extrema or n > 2
                out.append(
                    _twist(
                        f"sigma_{i + 1},{j + 1}",
                        Admissible.YES if direct else Admissible.YES_VIA_WORD,
                    )
                )
    return out


def canonical_generator_set(
    s: Surface, eps: Mapping[str, int], target: Target
) -> list[MCGGenerator]:
    """Mapping-class-group generators adapted to the canonical map of (s, eps).

    Line targets admit every generator in the list (some boundary twists
    only through a known word in the others).  Circle targets are supported
    for orientable surfaces of positive genus only, where the twist along
    beta_1 changes the homotopy class and is the unique inadmissible entry.

    Non-orientable surfaces follow the genus cases of the standard
    generating sets: genus one needs only boundary slides and permutations;
    genus two adds the crosscap slide and one twist (beta_0); higher genus
    carries the reference configuration on its floor((g-1)/2) handles, with
    beta_0/delta_0 twists and a second boundary-slide family (omega_k) when
    the genus is even.  Admissibility flags describe the minimal canonical
    map for the given signs; that is the representative whose extrema exist
    exactly when a sign class is empty.

    A genus g with 2g(3g - 1) > sys.maxsize is rejected before anything is
    built: that is the number of class entries the orientable catalogue
    prints, more items than any Python sequence can hold.
    """
    if 2 * s.genus * (3 * s.genus - 1) > sys.maxsize:
        raise ValueError(f"genus {s.genus} is too large to list its generators")
    if set(eps) != set(s.boundary):
        raise ValueError("eps labels do not match surface boundary")
    b_minus = sum(1 for v in eps.values() if v < 0)
    b_plus = len(eps) - b_minus
    # extrema of the minimal map with these signs: one per empty sign class
    minimal_has_extrema = b_minus == 0 or b_plus == 0

    if target is Target.CIRCLE:
        if not s.orientable:
            raise ValueError(
                "circle-valued generator sets on non-orientable surfaces "
                "are not supported"
            )
        if s.genus < 1:
            raise ValueError("an essential circle-valued map needs genus >= 1")

    out: list[MCGGenerator] = []
    if s.orientable:
        out.append(
            MCGGenerator(
                GeneratorKind.ORIENTATION_REVERSAL, "O", Admissible.YES
            )
        )
        if s.genus >= 1:
            for curve, cls in _configuration_curves(s.genus, b_minus, b_plus):
                flag = Admissible.YES
                if target is Target.CIRCLE and curve == "beta_1":
                    flag = Admissible.NO
                out.append(_twist(curve, flag, cls))
        out.extend(
            _boundary_pair_generators(
                s.boundary, eps, minimal_has_extrema=minimal_has_extrema
            )
        )
        return out

    # non-orientable, Line target
    g = s.genus
    n = s.num_boundary
    if g >= 2:
        out.append(
            MCGGenerator(GeneratorKind.CROSSCAP_SLIDE, "y", Admissible.YES)
        )
    if g == 2:
        out.append(_twist("beta_0", Admissible.YES))
    elif g >= 3:
        r = (g - 1) // 2 if g % 2 else (g - 2) // 2
        for curve, _ in _configuration_curves(r, b_minus, b_plus):
            out.append(_twist(curve, Admissible.YES))
        if g % 2 == 0:
            out.append(_twist("beta_0", Admissible.YES))
            out.append(_twist("delta_0", Admissible.YES))
    for k in range(1, n + 1):
        out.append(
            MCGGenerator(GeneratorKind.BOUNDARY_SLIDE, f"nu_{k}", Admissible.YES)
        )
        if g >= 4 and g % 2 == 0:
            out.append(
                MCGGenerator(
                    GeneratorKind.BOUNDARY_SLIDE, f"omega_{k}", Admissible.YES
                )
            )
    out.extend(
        _boundary_pair_generators(
            s.boundary, eps, minimal_has_extrema=minimal_has_extrema
        )
    )
    return out


# ---------------------------------------------------------------------------
# Stabilizer factorisation for maps to the circle


def factor_stabilizer(
    h: SpMatrix, q: Sequence[int]
) -> tuple[Word, SpMatrix | None]:
    """Express a homology action fixing the level-set class in allowed twists.

    Checks that ``q`` has length 2g, that it is primitive (gcd 1) and that
    ``h`` fixes the level-set class L of ``q``, in that order.  Returns
    ``(word, C)``.  When L is the first basis vector e0, C is None and the
    word factors ``h`` itself; otherwise C = ``symplectic_completion(L)``,
    a symplectic matrix with C e0 = L, and the word factors C^-1 h C, which
    fixes e0.  Either way the word is built so that C * word * C^-1 = h
    (with C = I when None) and avoids Tb(1), Eta(1,*) and Nu(*,1), so the
    residual is the identity on homology and any geometric realisation
    differs by a homologically invisible mapping class.
    """
    L = level_set_class(q, h.g)
    if math.gcd(*L) != 1:  # L is q with its halves swapped and one negated
        raise ValueError("q must be primitive (gcd 1)")
    if h.apply(L) != L:
        raise ValueError("matrix does not fix the level-set class")
    if L == (1,) + (0,) * (len(L) - 1):
        return stabilizer_decompose(h), None
    change = symplectic_completion(L)
    return stabilizer_decompose(change.inverse() * h * change), change
