"""Command-line frontend.

Subcommands: ``reeb`` (mesh to DOT plus critical-type JSON), ``classify``
(compare two critical-type files), ``canonical`` (normal-form graph for a
requested type), ``sp-decompose`` (stabilizer word for a symplectic
matrix), ``admissible``/``factor``/``generators`` (homology action of
mapping classes).  Bad input exits 1 with a one-line JSON error on stderr:
``io:`` for an unreadable file, ``format:`` for text that does not parse
(``FormatError``), ``domain:`` for any other ``ValueError``.  Any other
exception exits 3 with an ``internal:`` error, among them the
``AssertionError`` of a failed check of the package's own result, and is
logged to the ``morse_topo`` logger (``main`` imports ``logging`` on that
path alone and gives the logger a ``NullHandler`` there if it has no
handler); usage errors exit 2, among them an integer flag that is not an
ASCII decimal integer.  A standard output closed early (a pipe into
``head``) exits 1 with no error line.  All output is deterministic.

``main`` may be called many times in one process, and each call behaves
like a fresh process.  The argparse tree is built once per process.
Start-up loads only ``surface`` of the package: each ``cmd_<name>``
imports the modules it calls when it runs.  ``main`` finds the
subcommand's ``cmd_<name>`` function by name at call time, and that
function reads what it calls as module attributes at call time too, so a
module attribute replaced in a test is still the one that runs.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import surface
from .surface import FormatError, Surface, Target, _decimal_int, _json_line


class DomainError(Exception):
    """An error whose message carries its own prefix (``io:``)."""


def _read_file(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise DomainError(f"io: cannot read {path}: {exc.strerror}") from None


def _parse_ints(parts: list[str], what: str) -> tuple[int, ...]:
    try:
        return tuple(map(_decimal_int, parts))
    except ValueError:
        raise FormatError(f"bad {what}") from None


def integer(text: str) -> int:
    """The reader of the integer flags, named in argparse's usage error
    ("invalid integer value"): an ASCII decimal integer, no ``1_0``."""
    return _decimal_int(text)


def _parse_vector(text: str) -> tuple[int, ...]:
    text = text.strip()
    return _parse_ints(text.split(","), f"integer vector {text!r}") if text else ()


def _parse_boundary_items(text: str) -> tuple[list[str], dict[str, int]]:
    eps: dict[str, int] = {}
    labels: list[str] = []
    if text:
        for item in text.split(","):
            label, _, sign = item.partition(":")
            if sign not in ("+", "-") or not label:
                raise FormatError(f"boundary item {item!r} must be label:+ or label:-")
            labels.append(label)
            eps[label] = 1 if sign == "+" else -1
    return labels, eps


def _parse_surface_descriptor(desc: str) -> tuple[Surface, dict[str, int]]:
    """Compact form 'orientable:g=2:V1:+,V2:-' (boundary part optional)."""
    head, _, rest = desc.partition(":")
    if head not in ("orientable", "nonorientable"):
        raise FormatError(f"descriptor must start with orientable|nonorientable: {desc!r}")
    gpart, _, boundary = rest.partition(":")
    if not gpart.startswith("g="):
        raise FormatError(f"descriptor needs a g=<genus> part: {desc!r}")
    (genus,) = _parse_ints([gpart[2:]], f"genus in descriptor {desc!r}")
    labels, eps = _parse_boundary_items(boundary)
    return Surface(head == "orientable", genus, tuple(labels)), eps


def _parse_surface(args) -> tuple[Surface, dict[str, int]]:
    if args.surface:
        if args.genus is not None or args.boundary or args.nonorientable:
            raise FormatError("--surface replaces --genus/--nonorientable/--boundary")
        return _parse_surface_descriptor(args.surface)
    if args.genus is None:
        raise FormatError("one of --surface or --genus is required")
    labels, eps = _parse_boundary_items(args.boundary)
    return Surface(not args.nonorientable, args.genus, tuple(labels)), eps


def _add_surface_arguments(p: argparse.ArgumentParser):
    p.add_argument(
        "--surface",
        default=None,
        help="compact descriptor, e.g. orientable:g=2:V1:+,V2:-",
    )
    p.add_argument("--genus", type=integer, default=None)
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


def _write_graph(graph, ktype):
    from . import krgraph

    sys.stdout.write(krgraph.to_dot(graph))
    sys.stdout.write("#KTYPE " + surface.critical_type_to_json(ktype) + "\n")


def cmd_reeb(args) -> int:
    from . import mesh

    _write_graph(*mesh.extract_kr_graph(mesh.parse_hmesh(_read_file(args.mesh))))
    return 0


def cmd_classify(args) -> int:
    from . import classify

    types = [
        surface.critical_type_from_json(_read_file(path))
        for path in (args.first, args.second)
    ]
    if args.up_to_flip:
        equal = classify.equivalent_up_to_flip(types[0], types[1])
        reason = "ok" if equal else classify.equivalence_reason(*types)
    else:
        reason = classify.equivalence_reason(*types)
        equal = reason == "ok"
    print(_json_line({"equivalent": equal, "reason": reason}))
    return 0


def cmd_canonical(args) -> int:
    from . import canonical

    s, eps = _parse_surface(args)
    q = _parse_vector(args.q) if args.q is not None else None
    _write_graph(*canonical.canonical_kr_graph(s, eps, args.c0, args.c2, q, _target(args)))
    return 0


def cmd_sp_decompose(args) -> int:
    from . import symplectic

    h = symplectic.parse_matrix(_read_file(args.matrix))
    if args.g is not None and args.g != h.g:
        raise ValueError(f"matrix file declares g={h.g}, flag says g={args.g}")
    print(symplectic.format_word(symplectic.stabilizer_decompose(h)))
    return 0


def cmd_admissible(args) -> int:
    from . import mcg

    degree = mcg.degree_along(_parse_vector(args.q), _parse_vector(args.gamma))
    print(_json_line({"admissible": degree == 0, "degree": degree}))
    return 0


def cmd_factor(args) -> int:
    from . import mcg, symplectic

    q = _parse_vector(args.q)
    h = symplectic.parse_matrix(_read_file(args.matrix))
    word, change = mcg.factor_stabilizer(h, q)
    text = symplectic.format_word(word)
    basis_change = None if change is None else change.rows
    envelope = {"fixes_class": True, "torelli_residual": "identity", "basis_change": basis_change}
    print(_json_line(envelope))
    print(text)
    return 0


def _sparse_vector_json(n: int, entries) -> str:
    """``_json_line`` of the length-n integer list with the non-zero ``(index,
    value)`` ``entries``, in index order: the zeros between are written, not scanned."""
    parts = []
    last = -1
    for i, x in entries:
        parts += "0," * (i - last - 1), f"{x},"
        last = i
    parts.append("0," * (n - last - 1))
    return "[" + "".join(parts)[:-1] + "]"


# strings are escaped by the C escaper that ``_json_line`` uses, so a
# catalogue line is the bytes ``_json_line`` would write
_json_string = json.encoder.encode_basestring_ascii


@functools.cache
def _line_ends():
    """The fixed text of a catalogue line before its name, per kind, and
    after its class, per verdict; built on the first ``generators`` call."""
    from . import mcg

    head = {k: f'{{"kind":{_json_string(k.value)},"name":' for k in mcg.GeneratorKind}
    tail = {a: f',"admissible":{_json_string(a.value)}}}\n' for a in mcg.Admissible}
    return head, tail


def _generator_lines(generators):
    """The catalogue's lines, each generator's fields as one JSON object."""
    head, tail = _line_ends()
    for g in generators:
        curve = "null" if g.curve is None else _json_string(g.curve)
        cls = "null" if g.sparse_class is None else _sparse_vector_json(*g.sparse_class)
        yield (
            f'{head[g.kind]}{_json_string(g.name)},"curve":{curve},'
            f'"curve_class":{cls}{tail[g.admissible]}'
        )


def cmd_generators(args) -> int:
    from . import mcg

    s, eps = _parse_surface(args)
    sys.stdout.writelines(
        _generator_lines(mcg.canonical_generator_set(s, eps, _target(args)))
    )
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The process's one parser, shared with ``main``: do not change it."""
    parser = argparse.ArgumentParser(
        prog="morse-topo",
        description="Critical types, Reeb graphs and integer symplectic words "
        "for Morse mappings on compact surfaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("reeb", help="extract the Reeb graph of a height mesh")
    p.add_argument("mesh", help="input .hmesh file")

    p = sub.add_parser("classify", help="compare two critical-type JSON files")
    p.add_argument("first")
    p.add_argument("second")
    p.add_argument("--up-to-flip", action="store_true")

    p = sub.add_parser("canonical", help="emit the normal-form graph for a type")
    _add_surface_arguments(p)
    p.add_argument("--c0", type=integer, required=True, help="number of minima")
    p.add_argument("--c2", type=integer, required=True, help="number of maxima")
    p.add_argument("--q", default=None, help="homotopy vector, e.g. 1,0")

    p = sub.add_parser(
        "sp-decompose",
        help="write a stabilizer element as a word in the allowed generators",
    )
    p.add_argument("matrix", help="matrix file ('SP <g>' header plus rows)")
    p.add_argument("--g", type=integer, default=None, help="expected genus (checked)")

    p = sub.add_parser("admissible", help="test a Dehn twist against a map class")
    p.add_argument("--q", required=True, help="cohomology vector of the map")
    p.add_argument("--gamma", required=True, help="homology class of the curve")

    p = sub.add_parser(
        "factor", help="factor a homology action fixing the fiber class"
    )
    p.add_argument("--q", required=True)
    p.add_argument("--matrix", required=True)

    p = sub.add_parser("generators", help="list mapping-class generators and flags")
    _add_surface_arguments(p)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    command = globals()["cmd_" + args.command.replace("-", "_")]
    code = 1
    try:
        status = command(args)
        sys.stdout.flush()  # a reader that went away shows here, not at exit
        return status
    except BrokenPipeError:
        # as the Python docs advise on SIGPIPE: send what is left in the
        # buffer to devnull, so the flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except DomainError as exc:
        message = str(exc)
    except (FormatError, UnicodeDecodeError) as exc:  # not UTF-8: not parseable either
        message = f"format: {exc}"
    except ValueError as exc:
        message = f"domain: {exc}"
    except Exception as exc:
        # imported here, so that no other call pays for it at start-up
        import logging

        logger = logging.getLogger("morse_topo")
        if not logger.handlers:
            logger.addHandler(logging.NullHandler())
        logger.exception("morse-topo %s failed", args.command)
        message, code = f"internal: {type(exc).__name__}: {exc}", 3
    sys.stderr.write(_json_line({"error": message}) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
