"""Command-line frontend.

Subcommands: ``reeb`` (mesh to DOT plus critical-type JSON), ``classify``
(compare two critical-type files), ``canonical`` (normal-form graph for a
requested type), ``sp-decompose`` (stabilizer word for a symplectic
matrix), ``admissible``/``factor``/``generators`` (homology action of
mapping classes).  Domain failures exit 1 with a one-line JSON error on
stderr; usage errors exit 2.  All output is deterministic.
"""
from __future__ import annotations

import argparse
import json
import sys

from . import canonical, classify, krgraph, mcg, mesh, surface, symplectic
from .surface import Surface, Target


class DomainError(Exception):
    def __init__(self, prefix: str, message: str):
        super().__init__(f"{prefix}: {message}")


def _read_file(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise DomainError("io", f"cannot read {path}: {exc.strerror}") from None


def _json_line(payload) -> str:
    return json.dumps(payload, separators=(",", ":"))


def _parse_vector(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise DomainError("format", f"bad integer vector {text!r}") from None


def _parse_boundary_items(text: str) -> tuple[list[str], dict[str, int]]:
    eps: dict[str, int] = {}
    labels: list[str] = []
    if text:
        for item in text.split(","):
            label, _, sign = item.partition(":")
            if sign not in ("+", "-") or not label:
                raise DomainError(
                    "format", f"boundary item {item!r} must be label:+ or label:-"
                )
            labels.append(label)
            eps[label] = 1 if sign == "+" else -1
    return labels, eps


def _parse_surface_descriptor(desc: str) -> tuple[Surface, dict[str, int]]:
    """Compact form 'orientable:g=2:V1:+,V2:-' (boundary part optional)."""
    head, _, rest = desc.partition(":")
    if head not in ("orientable", "nonorientable"):
        raise DomainError(
            "format", f"descriptor must start with orientable|nonorientable: {desc!r}"
        )
    gpart, _, boundary = rest.partition(":")
    if not gpart.startswith("g="):
        raise DomainError("format", f"descriptor needs a g=<genus> part: {desc!r}")
    try:
        genus = int(gpart[2:])
    except ValueError:
        raise DomainError("format", f"bad genus in descriptor {desc!r}") from None
    labels, eps = _parse_boundary_items(boundary)
    try:
        s = Surface(head == "orientable", genus, tuple(labels))
    except ValueError as exc:
        raise DomainError("domain", str(exc)) from None
    return s, eps


def _parse_surface(args) -> tuple[Surface, dict[str, int]]:
    if getattr(args, "surface", None):
        if args.genus is not None or args.boundary or args.nonorientable:
            raise DomainError(
                "format", "--surface replaces --genus/--nonorientable/--boundary"
            )
        return _parse_surface_descriptor(args.surface)
    if args.genus is None:
        raise DomainError("format", "one of --surface or --genus is required")
    labels, eps = _parse_boundary_items(args.boundary)
    try:
        s = Surface(not args.nonorientable, args.genus, tuple(labels))
    except ValueError as exc:
        raise DomainError("domain", str(exc)) from None
    return s, eps


def _add_surface_arguments(p: argparse.ArgumentParser):
    p.add_argument(
        "--surface",
        default=None,
        help="compact descriptor, e.g. orientable:g=2:V1:+,V2:-",
    )
    p.add_argument("--genus", type=int, default=None)
    p.add_argument(
        "--nonorientable", action="store_true", help="surface is non-orientable"
    )
    p.add_argument(
        "--boundary",
        default="",
        help="comma-separated boundary circles with signs, e.g. V1:+,V2:-",
    )
    p.add_argument(
        "--target", choices=["line", "circle"], default="line", help="map codomain"
    )


def _target(args) -> Target:
    return Target.CIRCLE if args.target == "circle" else Target.LINE


def cmd_reeb(args) -> int:
    text = _read_file(args.mesh)
    try:
        m = mesh.parse_hmesh(text)
    except mesh.MeshFormatError as exc:
        raise DomainError("format", str(exc)) from None
    except ValueError as exc:
        raise DomainError("domain", str(exc)) from None
    try:
        graph, ktype = mesh.extract_kr_graph(m)
    except ValueError as exc:
        raise DomainError("domain", str(exc)) from None
    sys.stdout.write(krgraph.to_dot(graph))
    sys.stdout.write("#KTYPE " + surface.critical_type_to_json(ktype) + "\n")
    return 0


def cmd_classify(args) -> int:
    types = []
    for path in (args.first, args.second):
        try:
            types.append(surface.critical_type_from_json(_read_file(path)))
        except ValueError as exc:
            raise DomainError("format", str(exc)) from None
    try:
        if args.up_to_flip:
            equal = classify.equivalent_up_to_flip(types[0], types[1])
            reason = "ok" if equal else classify.equivalence_reason(*types)
        else:
            reason = classify.equivalence_reason(*types)
            equal = reason == "ok"
    except ValueError as exc:
        raise DomainError("domain", str(exc)) from None
    print(_json_line({"equivalent": equal, "reason": reason}))
    return 0


def cmd_canonical(args) -> int:
    s, eps = _parse_surface(args)
    q = _parse_vector(args.q) if args.q is not None else None
    try:
        graph = canonical.canonical_kr_graph(s, eps, args.c0, args.c2, q, _target(args))
        ktype = krgraph.critical_type_of(
            graph, s, q if q is not None else (0,) * s.homology_rank
        )
    except ValueError as exc:
        raise DomainError("domain", str(exc)) from None
    sys.stdout.write(krgraph.to_dot(graph))
    sys.stdout.write("#KTYPE " + surface.critical_type_to_json(ktype) + "\n")
    return 0


def _read_matrix(path: str) -> symplectic.SpMatrix:
    try:
        return symplectic.parse_matrix(_read_file(path))
    except ValueError as exc:
        raise DomainError("format", str(exc)) from None


def cmd_sp_decompose(args) -> int:
    h = _read_matrix(args.matrix)
    if args.g is not None and args.g != h.g:
        raise DomainError(
            "domain", f"matrix file declares g={h.g}, flag says g={args.g}"
        )
    try:
        text = symplectic.format_word(symplectic.stabilizer_decompose(h))
    except ValueError as exc:
        raise DomainError("domain", str(exc)) from None
    print(text)
    return 0


def cmd_admissible(args) -> int:
    q = _parse_vector(args.q)
    gamma = _parse_vector(args.gamma)
    try:
        degree = mcg.degree_along(q, gamma)
    except ValueError as exc:
        raise DomainError("domain", str(exc)) from None
    print(_json_line({"admissible": degree == 0, "degree": degree}))
    return 0


def cmd_factor(args) -> int:
    q = _parse_vector(args.q)
    h = _read_matrix(args.matrix)
    try:
        L = mcg.level_set_class(q, h.g).vector
    except ValueError as exc:
        raise DomainError("domain", str(exc)) from None
    e0 = tuple(1 if i == 0 else 0 for i in range(2 * h.g))
    basis_change = None
    try:
        if L == e0:
            word = mcg.factor_stabilizer(h, q)
        else:
            change = symplectic.symplectic_completion(L)
            conjugated = change.inverse() * h * change
            word = symplectic.stabilizer_decompose(conjugated)
            basis_change = [list(row) for row in change.rows]
        text = symplectic.format_word(word)
    except ValueError as exc:
        raise DomainError("domain", str(exc)) from None
    print(
        _json_line(
            {
                "fixes_class": True,
                "torelli_residual": "identity",
                "basis_change": basis_change,
            }
        )
    )
    print(text)
    return 0


def cmd_generators(args) -> int:
    s, eps = _parse_surface(args)
    try:
        gens = mcg.canonical_generator_set(s, eps, _target(args))
    except ValueError as exc:
        raise DomainError("domain", str(exc)) from None
    for g in gens:
        print(
            _json_line(
                {
                    "kind": g.kind.value,
                    "name": g.name,
                    "curve": g.curve,
                    "curve_class": list(g.curve_class) if g.curve_class else None,
                    "admissible": g.admissible.value,
                }
            )
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="morse-topo",
        description="Critical types, Reeb graphs and integer symplectic words "
        "for Morse mappings on compact surfaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("reeb", help="extract the Reeb graph of a height mesh")
    p.add_argument("mesh", help="input .hmesh file")
    p.set_defaults(func=cmd_reeb)

    p = sub.add_parser("classify", help="compare two critical-type JSON files")
    p.add_argument("first")
    p.add_argument("second")
    p.add_argument("--up-to-flip", action="store_true")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("canonical", help="emit the normal-form graph for a type")
    _add_surface_arguments(p)
    p.add_argument("--c0", type=int, required=True, help="number of minima")
    p.add_argument("--c2", type=int, required=True, help="number of maxima")
    p.add_argument("--q", default=None, help="homotopy vector, e.g. 1,0")
    p.set_defaults(func=cmd_canonical)

    p = sub.add_parser(
        "sp-decompose",
        help="write a stabilizer element as a word in the allowed generators",
    )
    p.add_argument("matrix", help="matrix file ('SP <g>' header plus rows)")
    p.add_argument("--g", type=int, default=None, help="expected genus (checked)")
    p.set_defaults(func=cmd_sp_decompose)

    p = sub.add_parser("admissible", help="test a Dehn twist against a map class")
    p.add_argument("--q", required=True, help="cohomology vector of the map")
    p.add_argument("--gamma", required=True, help="homology class of the curve")
    p.set_defaults(func=cmd_admissible)

    p = sub.add_parser(
        "factor", help="factor a homology action fixing the fiber class"
    )
    p.add_argument("--q", required=True)
    p.add_argument("--matrix", required=True)
    p.set_defaults(func=cmd_factor)

    p = sub.add_parser("generators", help="list mapping-class generators and flags")
    _add_surface_arguments(p)
    p.set_defaults(func=cmd_generators)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DomainError as exc:
        sys.stderr.write(_json_line({"error": str(exc)}) + "\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
