"""Surface descriptors and the critical-type invariant.

A surface is described by orientability, genus and an ordered list of
labelled boundary circles.  The critical type of a Morse mapping on such a
surface collects the homotopy-class vector ``q``, the numbers of critical
points of index 0, 1 and 2, and a sign per boundary circle recording whether
the mapping increases or decreases towards that circle.
"""
from __future__ import annotations

import enum
import json
import operator
from typing import AbstractSet, Iterable, Mapping, NamedTuple


class FormatError(ValueError):
    """Input text that does not parse; any other ValueError is a domain error."""


def _int_vector(v: Iterable[int], what: str = "vector entries") -> tuple[int, ...]:
    """The entries of ``v``, which must be integers: a float, fraction,
    numeric string or boolean is a ValueError, never truncated or read."""
    v = tuple(v)
    if bool not in map(type, v):
        try:
            return tuple(map(operator.index, v))
        except TypeError:
            pass
    raise ValueError(f"{what} must be integers")


def _decimal_int(text: str) -> int:
    """``int(text)`` for an ASCII decimal integer with an optional sign: a
    ValueError for the other forms ``int`` reads, such as ``1_0`` or
    non-ASCII digits."""
    if not text.isascii() or "_" in text:
        raise ValueError(f"not a decimal integer: {text!r}")
    return int(text)


def _int_reader(text: str):
    """The integer reader for the fields of ``text``: ``int`` when the text
    holds no ``_`` and no non-ASCII character, so no field can hold one,
    else ``_decimal_int``.  Labels and comments may hold either, so the
    whole text is tested once and single fields only when that finds one."""
    return int if text.isascii() and "_" not in text else _decimal_int


class Target(enum.Enum):
    """Codomain of a Morse mapping: the real line or the circle."""

    LINE = "Line"
    CIRCLE = "Circle"


class _Checked:
    """First base of the checked tuple records: ``_make``, and so
    ``_replace``, build through the record's class and check its fields."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class _Surface(NamedTuple):
    orientable: bool
    genus: int
    boundary: tuple[str, ...] = ()


class Surface(_Checked, _Surface):
    """A connected compact surface: orientability, genus, labelled boundary,
    as an immutable tuple record ``(orientable, genus, boundary)``: it
    unpacks, and it compares equal to the plain tuple of its fields.
    Construction, ``_make`` and ``_replace`` all check that ``orientable``
    is a bool and the genus an integer, and make the labels a tuple of
    distinct non-empty strings; a single string or a set is not a list of
    labels."""

    __slots__ = ()

    def __new__(cls, orientable, genus, boundary=()):
        if type(orientable) is not bool:
            raise ValueError("orientable must be True or False")
        (genus,) = _int_vector((genus,), "genus")
        if genus < 0:
            raise ValueError("genus must be non-negative")
        if not orientable and genus < 1:
            raise ValueError("a non-orientable surface has genus >= 1")
        if isinstance(boundary, str):
            raise ValueError("boundary must be a sequence of labels, not a string")
        if isinstance(boundary, AbstractSet):
            # a set's order follows the hash seed, and so would the labels'
            raise ValueError("boundary must be a sequence of labels, not a set")
        try:
            labels = tuple(boundary)
        except TypeError:
            raise ValueError("boundary must be a sequence of labels") from None
        if any(not isinstance(l, str) or not l for l in labels):
            raise ValueError("boundary labels must be non-empty strings")
        if len(set(labels)) != len(labels):
            raise ValueError("boundary labels must be distinct")
        return tuple.__new__(cls, (orientable, genus, labels))

    @property
    def num_boundary(self) -> int:
        return len(self.boundary)

    @property
    def homology_rank(self) -> int:
        """Rank of the first cohomology of the capped-off surface.

        2*genus for orientable surfaces, genus - 1 for non-orientable ones.
        """
        return 2 * self.genus if self.orientable else self.genus - 1


def euler_characteristic(s: Surface) -> int:
    """Euler characteristic from genus and boundary count."""
    if s.orientable:
        return 2 - 2 * s.genus - s.num_boundary
    return 2 - s.genus - s.num_boundary


def _check_target(target) -> Target:
    if not isinstance(target, Target):
        raise ValueError(f"target must be a Target, got {target!r}")
    return target


def _check_signs(eps: Mapping[str, int]) -> dict[str, int]:
    """A copy of ``eps``, which must map labels to +1 or -1."""
    if not isinstance(eps, Mapping):
        raise ValueError(f"boundary signs must be a mapping, got {type(eps).__name__}")
    signs = dict(zip(eps, _int_vector(eps.values(), "boundary signs")))
    for label, sign in signs.items():
        if sign not in (1, -1):
            raise ValueError(f"boundary sign for {label!r} must be +1 or -1")
    return signs


class _CriticalType(NamedTuple):
    target: Target
    q: tuple[int, ...]
    c0: int
    c1: int
    c2: int
    eps: Mapping[str, int] = {}


class CriticalType(_Checked, _CriticalType):
    """The complete path-component invariant of a Morse mapping.

    ``q`` is an integer vector of length ``homology_rank`` of the surface
    (all zero for LINE targets), ``c0``/``c1``/``c2`` count critical points
    by index, and ``eps`` maps each boundary label to +1 or -1.  On
    orientable surfaces the coordinates of ``q`` refer to the basis dual to
    the standard symplectic curve classes.  On the non-orientable surface
    N_g, whose capped first homology is spanned by one-sided curves
    a_1 .. a_g with 2(a_1 + ... + a_g) = 0, a class x takes values x_i on
    a_i with x_1 + ... + x_g = 0; ``q`` holds x_1 .. x_{g-1}, and
    x_g = -sum(q).  Instances are immutable tuple records ``(target, q, c0,
    c1, c2, eps)`` that compare equal to the plain tuple of their fields;
    construction, ``_make`` and ``_replace`` all check the integers and
    copy ``eps`` into a new dict, which callers treat as immutable.
    """

    __slots__ = ()

    # the default ``eps`` is only read: ``_check_signs`` copies it
    def __new__(cls, target, q, c0, c1, c2, eps={}):
        _check_target(target)
        q = _int_vector(q, "q entries")
        c0, c1, c2 = _int_vector((c0, c1, c2), "critical point counts")
        eps = _check_signs(eps)
        if min(c0, c1, c2) < 0:
            raise ValueError("critical point counts must be non-negative")
        return tuple.__new__(cls, (target, q, c0, c1, c2, eps))

    @property
    def b_minus(self) -> int:
        return sum(1 for v in self.eps.values() if v < 0)

    @property
    def b_plus(self) -> int:
        return sum(1 for v in self.eps.values() if v > 0)

    def total_critical_points(self) -> int:
        return self.c0 + self.c1 + self.c2


def validate_critical_type(s: Surface, k: CriticalType) -> list[str]:
    """Check a critical type against its surface.

    Returns a list of violated-identity descriptions, empty when the type is
    valid.  A mismatch between the eps domain and the surface's boundary
    labels is a usage error and raises instead of being reported.
    """
    if set(k.eps) != set(s.boundary):
        raise ValueError(
            "boundary sign labels %r do not match surface boundary %r"
            % (sorted(k.eps), list(s.boundary))
        )
    violations = []
    r = s.homology_rank
    if len(k.q) != r:
        violations.append(f"q must have length {r}, got {len(k.q)}")
    if k.target is Target.LINE and any(x != 0 for x in k.q):
        violations.append("q must be the zero vector for a Line target")
    chi = euler_characteristic(s)
    if k.c0 - k.c1 + k.c2 != chi:
        violations.append(
            "critical point counts violate c0 - c1 + c2 = chi: "
            f"{k.c0} - {k.c1} + {k.c2} != {chi}"
        )
    return violations


def flip_target_orientation(k: CriticalType) -> CriticalType:
    """Invariant of the same mapping after reversing the target orientation.

    Swaps c0 with c2 and negates every boundary sign and every entry of q.
    This is an involution.
    """
    return CriticalType(
        target=k.target,
        q=tuple(-x for x in k.q),
        c0=k.c2,
        c1=k.c1,
        c2=k.c0,
        eps={label: -sign for label, sign in k.eps.items()},
    )


# one encoder for every line: ``json.dumps`` with ``separators`` builds a
# new one per call
_json_line = json.JSONEncoder(separators=(",", ":")).encode


def critical_type_to_json(k: CriticalType) -> str:
    """Single-line JSON with keys target, q, c0, c1, c2, eps (eps sorted by label)."""
    payload = {
        "target": k.target.value,
        "q": list(k.q),
        "c0": k.c0,
        "c1": k.c1,
        "c2": k.c2,
        "eps": {label: k.eps[label] for label in sorted(k.eps)},
    }
    return _json_line(payload)


def critical_type_from_json(text: str) -> CriticalType:
    try:
        payload = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # bad JSON, an integer literal too long to convert, or a document
        # nested too deeply
        raise FormatError(f"invalid critical-type JSON: {exc}") from None
    try:
        if not isinstance(payload, dict):
            raise ValueError("the document must be an object")
        if not isinstance(payload["q"], list):
            raise ValueError('"q" must be a list')
        if not isinstance(payload["eps"], dict):
            raise ValueError('"eps" must be an object')
        target = Target(payload["target"])
        return CriticalType(
            target=target,
            q=payload["q"],
            c0=payload["c0"],
            c1=payload["c1"],
            c2=payload["c2"],
            eps=payload["eps"],
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"invalid critical-type JSON: {exc}") from None
