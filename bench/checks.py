"""Output checks, run outside the timed region.

Each checker takes a job's expectation and its (exit code, stdout, stderr)
and returns None when the output is right, else a short reason.  They
parse the printed text themselves and recompute what they compare against
(the Euler identity, generator products, catalogue rules), so they accept
any correct output and trust nothing from the program under test.
"""
from __future__ import annotations

import json
import re
from fractions import Fraction

import spmath

DEGREE = {"Min": 1, "Max": 1, "Saddle3": 3, "Star2": 2, "BoundaryCircle": 1}
_VERTEX = re.compile(
    r'^  v(\d+) \[shape=\w+, kind="(\w+)", height="([-\d/]+)"(?:, boundary="([^"]*)")?\];$'
)
_EDGE = re.compile(r'^  (v\d+|loop) -> (v\d+|loop) \[id=(\d+)(?:, lift="([-\d/]+):([-\d/]+)")?\];$')


def crash_line(stderr: str) -> str | None:
    """Last line of a Python traceback, if stderr holds one."""
    if "Traceback (most recent call last)" not in stderr:
        return None
    lines = [ln for ln in stderr.strip().splitlines() if ln.strip()]
    return lines[-1] if lines else "traceback"


def parse_dot(text: str):
    """(target, vertices {id: (kind, height, label)}, edges [(tail, head, lift)])."""
    lines = text.splitlines()
    if not lines or lines[0] != "digraph kr {" or lines[-1] != "}":
        raise ValueError("not a kr digraph")
    m = re.match(r'^  graph \[target="(\w+)"\];$', lines[1])
    if not m:
        raise ValueError("missing graph target")
    vertices, edges = {}, []
    for line in lines[2:-1]:
        if line == '  loop [shape=none, label=""];':
            continue
        v = _VERTEX.match(line)
        if v:
            vertices[int(v[1])] = (v[2], Fraction(v[3]), v[4])
            continue
        e = _EDGE.match(line)
        if not e:
            raise ValueError(f"bad DOT line {line[:60]!r}")
        tail = None if e[1] == "loop" else int(e[1][1:])
        head = None if e[2] == "loop" else int(e[2][1:])
        lift = (Fraction(e[4]), Fraction(e[5])) if e[4] is not None else None
        edges.append((tail, head, lift))
    return m[1], vertices, edges


def split_graph_output(stdout: str):
    """DOT text and the KTYPE dict of a ``reeb``/``canonical`` output."""
    body, sep, last = stdout.rstrip("\n").rpartition("\n#KTYPE ")
    if not sep:
        raise ValueError("missing #KTYPE line")
    return parse_dot(body + "\n"), json.loads(last)


def canonical_form(vertices, edges):
    """The graph up to renumbering: vertices in height order, edges as
    sorted pairs of height ranks."""
    order = sorted(vertices, key=lambda v: vertices[v][1])
    rank = {v: i for i, v in enumerate(order)}
    return {
        "kinds": [vertices[v][0] for v in order],
        "labels": [vertices[v][2] for v in order],
        "heights": [str(vertices[v][1]) for v in order],
        "edges": sorted([rank[t], rank[h]] for t, h, _ in edges),
    }


def _graph_problems(vertices, edges, eps) -> str | None:
    """Degrees, boundary signs and connectivity of a parsed graph."""
    degree = dict.fromkeys(vertices, 0)
    sign = {}
    adj = {v: set() for v in vertices}
    for tail, head, _ in edges:
        if tail not in vertices or head not in vertices:
            return "edge to an unknown vertex"
        degree[tail] += 1
        degree[head] += 1
        adj[tail].add(head)
        adj[head].add(tail)
        sign.setdefault(head, 1)
        sign.setdefault(tail, -1)
    for v, (kind, _, label) in vertices.items():
        if kind not in DEGREE or degree[v] != DEGREE[kind]:
            return f"vertex {v} ({kind}) has degree {degree[v]}"
        if kind == "BoundaryCircle" and eps.get(label) != sign.get(v):
            return f"boundary {label} has the wrong sign"
    if vertices:
        seen, stack = set(), [next(iter(vertices))]
        while stack:
            v = stack.pop()
            if v not in seen:
                seen.add(v)
                stack.extend(adj[v])
        if len(seen) != len(vertices):
            return "graph is not connected"
    return None


def _ktype_counts(vertices):
    kinds = [k for k, _, _ in vertices.values()]
    return kinds.count("Min"), kinds.count("Saddle3") + kinds.count("Star2"), kinds.count("Max")


# ---------------------------------------------------------------------------
# per-kind checkers


def check_reeb(expect, stdout, refs) -> str | None:
    (target, vertices, edges), ktype = split_graph_output(stdout)
    if target != "Line":
        return "reeb target must be Line"
    c0, c1, c2 = ktype["c0"], ktype["c1"], ktype["c2"]
    if c0 - c1 + c2 != expect["chi"]:
        return f"KTYPE breaks the Euler identity: {c0}-{c1}+{c2} != {expect['chi']}"
    if ktype["q"] != [0] * expect["rank"] or sorted(ktype["eps"]) != expect["labels"]:
        return "KTYPE q or boundary labels do not fit the surface"
    if (c0, c1, c2) != _ktype_counts(vertices):
        return "KTYPE counts disagree with the DOT vertices"
    ref = refs[expect["ref"]]["graph"]
    scale, offset = expect["scale"], expect["offset"]
    want = dict(ref, heights=[str(scale * Fraction(h) + offset) for h in ref["heights"]])
    if canonical_form(vertices, edges) != want:
        return "graph differs from the recorded reference"
    return None


def check_word(expect, word_text: str, target) -> str | None:
    word = spmath.parse_word(word_text)
    for name, i, j, _ in word:
        if spmath.is_forbidden(name, i, j):
            return f"forbidden generator {name}{i},{j}"
        if max(i, j or 0) > expect["g"]:
            return "generator index beyond the genus"
    if spmath.evaluate(word, expect["g"]) != target:
        return "word does not evaluate to the input"
    return None


def check_decompose(expect, stdout) -> str | None:
    lines = stdout.splitlines()
    if len(lines) != 1:
        return "expected one word line"
    return check_word(expect, lines[0], expect["h"])


def check_factor(expect, stdout) -> str | None:
    lines = stdout.splitlines()
    if len(lines) != 2:
        return "expected a JSON line and a word line"
    head = json.loads(lines[0])
    change = head.get("basis_change")
    if head.get("fixes_class") is not True or not change:
        return "factor must report the class fixed and a basis change"
    if not spmath.is_symplectic(change) or [row[0] for row in change] != expect["level"]:
        return "basis change is not a symplectic completion of the level class"
    conjugated = spmath.matmul(spmath.matmul(spmath.inverse(change), expect["h"]), change)
    return check_word(expect, lines[1], conjugated)


def check_canonical(expect, stdout) -> str | None:
    (target, vertices, edges), ktype = split_graph_output(stdout)
    want = {key: expect[key] for key in ("target", "q", "c0", "c1", "c2")}
    want["eps"] = {label: expect["eps"][label] for label in sorted(expect["eps"])}
    if ktype != want or target != expect["target"]:
        return "KTYPE differs from the requested type"
    if _ktype_counts(vertices) != (want["c0"], want["c1"], want["c2"]):
        return "DOT vertex kinds disagree with the requested counts"
    if sorted(label for _, _, label in vertices.values() if label) != sorted(want["eps"]):
        return "boundary vertices differ from the requested circles"
    if expect["orientable"] and any(k == "Star2" for k, _, _ in vertices.values()):
        return "degree-two saddle on an orientable surface"
    problem = _graph_problems(vertices, edges, want["eps"])
    if problem:
        return problem
    for tail, head, lift in edges:
        lo, hi = vertices[tail][1], vertices[head][1]
        if target == "Line" and not lo < hi:
            return "edge does not increase in height"
        if target == "Circle":
            if lift is None or not lift[0] < lift[1]:
                return "circle edge needs an increasing lift"
            if (lift[0] - lo).denominator != 1 or (lift[1] - hi).denominator != 1:
                return "lift does not lift the endpoint heights"
    crit = [h for k, h, _ in vertices.values() if k != "BoundaryCircle"]
    if len(set(crit)) != len(crit):
        return "critical heights collide"
    loops = len(edges) - len(vertices) + 1
    if expect["orientable"]:
        want_loops = expect["genus"]
    else:
        want_loops = 0 if target == "Line" else 1
    if loops != want_loops:
        return f"graph has {loops} independent cycles, expected {want_loops}"
    return None


def _twist(curve, flag, cls):
    return {"kind": "dehn_twist", "name": f"t_{curve}", "curve": curve,
            "curve_class": cls, "admissible": flag}


def _other(kind, name):
    return {"kind": kind, "name": name, "curve": None, "curve_class": None, "admissible": "Yes"}


def _configuration_curves(g, b_minus, b_plus):
    return (
        [f"alpha_{i}" for i in range(1, g + 1)]
        + [f"beta_{i}" for i in range(1, g + 1)]
        + [f"gamma_{i}" for i in range(1, g)]
        + [f"delta_{i}" for i in range(1, b_minus + 1)]
        + [f"epsilon_{i}" for i in range(1, b_plus + 1)]
    )


def _curve_class(curve, g):
    kind, _, idx = curve.partition("_")
    i = int(idx)
    v = [0] * (2 * g)
    if kind == "alpha":
        v[i - 1] = 1
    elif kind == "beta":
        v[g + i - 1] = 1
    elif kind == "gamma":
        v[i - 1], v[i] = 1, -1
    return v


def expected_generators(orientable, genus, eps, circle) -> list[dict]:
    """The generator catalogue as documented for ``generators``."""
    labels = list(eps)
    b_minus = sum(1 for s in eps.values() if s < 0)
    b_plus = len(eps) - b_minus
    extrema = b_minus == 0 or b_plus == 0
    out = []
    if orientable:
        out.append(_other("orientation_reversal", "O"))
        if genus >= 1:
            for curve in _configuration_curves(genus, b_minus, b_plus):
                flag = "No" if circle and curve == "beta_1" else "Yes"
                out.append(_twist(curve, flag, _curve_class(curve, genus)))
    else:
        if genus >= 2:
            out.append(_other("crosscap_slide", "y"))
        if genus == 2:
            out.append(_twist("beta_0", "Yes", None))
        elif genus >= 3:
            r = (genus - 1) // 2 if genus % 2 else (genus - 2) // 2
            out += [_twist(c, "Yes", None) for c in _configuration_curves(r, b_minus, b_plus)]
            if genus % 2 == 0:
                out += [_twist("beta_0", "Yes", None), _twist("delta_0", "Yes", None)]
        for k in range(1, len(labels) + 1):
            out.append(_other("boundary_slide", f"nu_{k}"))
            if genus >= 4 and genus % 2 == 0:
                out.append(_other("boundary_slide", f"omega_{k}"))
    for i in range(len(labels)):
        for j in range(i + 1, len(labels)):
            if eps[labels[i]] == eps[labels[j]]:
                out.append(_other("boundary_permutation", f"b_{i + 1},{j + 1}"))
            else:
                flag = "Yes" if extrema or len(labels) > 2 else "YesViaWord"
                out.append(_twist(f"sigma_{i + 1},{j + 1}", flag, None))
    return out


def check_generators(expect, stdout) -> str | None:
    got = sorted(stdout.splitlines())
    want = expected_generators(expect["orientable"], expect["genus"], expect["eps"], expect["circle"])
    if got != sorted(json.dumps(w, separators=(",", ":")) for w in want):
        return "generator catalogue differs from the documented rules"
    return None


def flip(k: dict) -> dict:
    """The type of the same map with the target orientation reversed."""
    return {
        "target": k["target"],
        "q": [-x for x in k["q"]],
        "c0": k["c2"],
        "c1": k["c1"],
        "c2": k["c0"],
        "eps": {label: -s for label, s in k["eps"].items()},
    }


def classify_reason(k1, k2) -> str:
    for name in ("target", "q", "c0", "c1", "c2", "eps"):
        if k1[name] != k2[name]:
            return name
    return "ok"


def check_classify(expect, stdout) -> str | None:
    k1, k2 = expect["first"], expect["second"]
    reason = classify_reason(k1, k2)
    equal = reason == "ok" or (expect["up_to_flip"] and classify_reason(k1, flip(k2)) == "ok")
    want = {"equivalent": equal, "reason": "ok" if equal else reason}
    if stdout.splitlines() != [json.dumps(want, separators=(",", ":"))]:
        return f"expected {want}"
    return None


CHECKERS = {
    "sp-decompose": check_decompose,
    "factor": check_factor,
    "canonical": check_canonical,
    "generators": check_generators,
    "classify": check_classify,
}


def check(expect, code: int, stdout: str, stderr: str, refs) -> str | None:
    """None when the job's outcome is right, else why not."""
    crash = crash_line(stderr)
    if crash:
        return "traceback: " + crash
    if expect["kind"] == "error":
        lines = stderr.splitlines()
        if code != 1 or stdout or len(lines) != 1:
            return f"expected exit 1 with one JSON error line, got exit {code}"
        err = json.loads(lines[0]).get("error", "")
        if err.split(":", 1)[0] not in ("format", "domain", "io"):
            return f"unexpected error prefix in {err[:60]!r}"
        return None
    if code != 0 or stderr:
        return f"exit {code}: {stderr.strip()[:80]}"
    try:
        if expect["kind"] == "reeb":
            return check_reeb(expect, stdout, refs)
        return CHECKERS[expect["kind"]](expect, stdout)
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable output: {exc}"
