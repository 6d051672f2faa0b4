"""Seeded jobs for the four workloads.

A job is one CLI invocation: an argv for ``morse_topo.cli.main`` whose
input files are written under the run's work directory, plus the facts its
checker needs.  The same (workload, seed) always writes byte-identical
files and the same job list.  One pass is the whole list; ``run.py``
measures passes until its time is up.
"""
from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field

import meshgen
import spmath
from checks import flip

WORKLOADS = ("reeb-events", "reeb-bulk", "sp-factor", "forms-classify")
VARIANTS = 3  # recorded phase variants per mesh slot

# (family, N, f) per job of one pass.  The Baseline torus N=32, f=4 runs
# first so every run measures it at least once.
REEB_SLOTS = {
    "reeb-events": [("torus", 32, 4)]
    + [("torus", n, 3) for n in (20, 22, 24)]
    + [("torus", 12 + i % 7, 2) for i in range(38)],
    "reeb-bulk": [("plain", 24 + i, 1) for i in range(22)]
    + [("klein", 20 + 2 * i, 1) for i in range(9)]
    + [("holed", 20 + 2 * i, 1) for i in range(9)],
}

# Euler characteristic, cohomology rank and boundary labels per family
SURFACES = {
    "torus": (0, 2, []),
    "plain": (0, 2, []),
    "klein": (0, 1, []),
    "holed": (-1, 2, ["hole"]),
}

# Words per subcommand and genus.  format_word crashes when an exponent of
# the word has over 4300 decimal digits.  Largest exponent digits of the
# words for random allowed inputs of length 20g, over 60-240 inputs per
# genus at commit 8f2b71a: g=10 1175-3123, g=11 2818-5716, g=12
# 4914-12126, g=13 10969-24719.  g=11 crashes on about half the words and
# g=12 misses the limit now and then, so those sizes would make the
# failure count change with the seed.  The seeded words stop at g=10, over
# four log-standard deviations below the limit.  The crash is shown by
# SP_FIXED_WORDS: the same g=13 words on every seed, from a fixed stream;
# their largest exponents have 15826 (sp-decompose) and 21026 (factor)
# digits, so every pass fails the same 2 jobs.  Fixing them also keeps the
# pass's two slowest and most memory-hungry jobs, and so jobs_per_s and
# peak_rss_mb, the same from seed to seed; many g=10 words do the same for
# the rest of the pass.
SP_WORDS = {g: 8 for g in range(4, 10)} | {10: 24}
SP_FIXED_WORDS = {13: 1}


@dataclass
class Job:
    id: str
    argv: list[str]
    expect: dict = field(default_factory=dict)


def ref_key(family: str, n: int, f: int, variant: int) -> str:
    return f"{family}/{n}/{f}/{variant}"


def build(workload: str, seed: int, workdir: str, refs: dict) -> list[Job]:
    """Write the inputs of one pass under ``workdir`` and return its jobs."""
    rng = random.Random(f"{workload}:{seed}")
    os.makedirs(workdir, exist_ok=True)
    if workload in REEB_SLOTS:
        jobs = _reeb_jobs(workload, rng, workdir, refs)
    elif workload == "sp-factor":
        jobs = _sp_jobs(rng, workdir)
    elif workload == "forms-classify":
        jobs = _forms_jobs(rng, workdir)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    head, rest = jobs[:1], jobs[1:]
    rng.shuffle(rest)
    return head + rest


def _write(workdir: str, name: str, text: str) -> str:
    path = os.path.join(workdir, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


# ---------------------------------------------------------------------------
# reeb-events and reeb-bulk


def _reeb_jobs(workload, rng, workdir, refs) -> list[Job]:
    jobs = []
    for idx, (family, n, f) in enumerate(REEB_SLOTS[workload]):
        key = ref_key(family, n, f, rng.randrange(VARIANTS))
        mesh = meshgen.base_mesh(family, n, f, refs[key]["phases"])
        text, (scale, offset) = meshgen.relabelled_hmesh(mesh, rng)
        path = _write(workdir, f"m{idx:03d}.hmesh", text)
        chi, rank, labels = SURFACES[family]
        expect = {
            "kind": "reeb",
            "ref": key,
            "scale": scale,
            "offset": offset,
            "chi": chi,
            "rank": rank,
            "labels": labels,
        }
        jobs.append(Job(f"{idx:03d}-{family}-{n}-{f}", ["reeb", path], expect))
    return jobs


# ---------------------------------------------------------------------------
# sp-factor


def random_word(g: int, length: int, rng, allowed: bool, exps=(-2, -1, 1, 2)):
    word = []
    while len(word) < length:
        name, i, j = rng.choice(spmath.NAMES), rng.randint(1, g), None
        if name not in ("Ta", "Tb"):
            j = rng.randint(1, g)
            if j == i:
                continue
        if allowed and spmath.is_forbidden(name, i, j):
            continue
        word.append((name, i, j, rng.choice(exps)))
    return word


def _sp_jobs(rng, workdir) -> list[Job]:
    fixed = random.Random("sp-factor:fixed")
    sizes = [(g, n, rng) for g, n in SP_WORDS.items()]
    sizes += [(g, n, fixed) for g, n in SP_FIXED_WORDS.items()]
    jobs = []
    for g, count, source in sizes:
        for k in range(count):
            h = spmath.evaluate(random_word(g, 20 * g, source, allowed=True), g)
            path = _write(workdir, f"d{g:02d}-{k}.sp", spmath.format_matrix(h))
            jobs.append(
                Job(
                    f"decompose-g{g}-{k}",
                    ["sp-decompose", "--g", str(g), path],
                    {"kind": "sp-decompose", "g": g, "h": h},
                )
            )
        for k in range(count):
            # h fixes L = P e0, a primitive class other than e0, so the CLI
            # conjugates by a symplectic completion of L before factoring
            h0 = spmath.evaluate(random_word(g, 20 * g, source, allowed=True), g)
            e0 = [1] + [0] * (2 * g - 1)
            while True:
                p = spmath.evaluate(
                    random_word(g, 2 * g, source, allowed=False, exps=(-1, 1)), g
                )
                level = [row[0] for row in p]
                if level != e0:
                    break
            h = spmath.matmul(spmath.matmul(p, h0), spmath.inverse(p))
            q = [-x for x in level[g:]] + level[:g]
            path = _write(workdir, f"f{g:02d}-{k}.sp", spmath.format_matrix(h))
            jobs.append(
                Job(
                    f"factor-g{g}-{k}",
                    ["factor", "--q=" + ",".join(map(str, q)), "--matrix", path],
                    {"kind": "factor", "g": g, "h": h, "level": level},
                )
            )
    return jobs


# ---------------------------------------------------------------------------
# forms-classify


def _boundary(rng, count: int) -> dict[str, int]:
    return {f"B{i + 1}": rng.choice((1, -1)) for i in range(count)}


def _boundary_arg(eps: dict[str, int]) -> str:
    return ",".join(f"{label}:{'+' if s > 0 else '-'}" for label, s in eps.items())


def _primitive(rng, length: int) -> list[int]:
    q = [rng.randint(-3, 3) for _ in range(length)]
    q[rng.randrange(length)] = rng.choice((1, -1))
    return q


def _canonical_job(idx, rng, target, orientable, genus, nb) -> Job:
    eps = _boundary(rng, nb)
    c0, c2 = rng.randint(0, 2), rng.randint(0, 2)
    if target == "line":
        # the function must reach a minimum and a maximum
        c0 = max(c0, int(not any(s < 0 for s in eps.values())))
        c2 = max(c2, int(not any(s > 0 for s in eps.values())))
    elif nb == 0 and c0 + c2 == 0:
        c0 = 1
    if orientable and rng.random() < 0.5:
        argv = ["canonical", "--surface", f"orientable:g={genus}:{_boundary_arg(eps)}"]
    else:
        argv = ["canonical", "--genus", str(genus), "--boundary", _boundary_arg(eps)]
        if not orientable:
            argv.append("--nonorientable")
    argv += ["--c0", str(c0), "--c2", str(c2)]
    rank = 2 * genus if orientable else genus - 1
    q = [0] * rank
    if target == "circle":
        q = _primitive(rng, rank)
        argv += ["--target", "circle", "--q=" + ",".join(map(str, q))]
    chi = (2 - 2 * genus if orientable else 2 - genus) - nb
    expect = {
        "kind": "canonical",
        "target": "Circle" if target == "circle" else "Line",
        "orientable": orientable,
        "genus": genus,
        "q": q,
        "c0": c0,
        "c1": c0 + c2 - chi,
        "c2": c2,
        "eps": eps,
    }
    return Job(f"canonical-{idx:02d}-{target}-g{genus}-b{nb}", argv, expect)


def _generators_job(idx, rng, target, orientable, genus, nb) -> Job:
    eps = _boundary(rng, nb)
    argv = ["generators", "--genus", str(genus), "--boundary", _boundary_arg(eps)]
    if not orientable:
        argv.append("--nonorientable")
    if target == "circle":
        argv += ["--target", "circle"]
    expect = {
        "kind": "generators",
        "orientable": orientable,
        "genus": genus,
        "eps": eps,
        "circle": target == "circle",
    }
    return Job(f"generators-{idx:02d}-{target}-g{genus}-b{nb}", argv, expect)


def _ktype(rng) -> dict:
    target = rng.choice(("Line", "Circle"))
    rank = rng.randint(0, 6)
    q = [rng.randint(-3, 3) for _ in range(rank)] if target == "Circle" else [0] * rank
    return {
        "target": target,
        "q": q,
        "c0": rng.randint(0, 4),
        "c1": rng.randint(0, 6),
        "c2": rng.randint(0, 4),
        "eps": _boundary(rng, rng.randint(0, 4)),
    }


def _dump_ktype(k: dict, rng) -> str:
    """JSON with shuffled key and label order: the meaning stays the same."""
    keys = list(k)
    rng.shuffle(keys)
    labels = list(k["eps"])
    rng.shuffle(labels)
    payload = {key: k[key] for key in keys}
    payload["eps"] = {label: k["eps"][label] for label in labels}
    return json.dumps(payload, indent=rng.choice((None, 1)))


def _classify_job(idx, rng, workdir) -> Job:
    k1 = _ktype(rng)
    mode = rng.choice(("same", "field", "flip", "flip-flag"))
    if mode == "same":
        k2 = dict(k1)
    elif mode == "field":
        k2 = json.loads(json.dumps(k1))
        name = rng.choice(("target", "q", "c0", "c1", "c2", "eps"))
        if name == "target":
            k2["target"] = "Line" if k1["target"] == "Circle" else "Circle"
        elif name == "q" and k2["q"]:
            k2["q"][0] += 1
        elif name == "eps" and k2["eps"]:
            label = next(iter(k2["eps"]))
            k2["eps"][label] *= -1
        elif name in ("c0", "c1", "c2"):
            k2[name] += 1
    else:
        k2 = flip(k1)
    a = _write(workdir, f"k{idx:03d}a.ktype", _dump_ktype(k1, rng))
    b = _write(workdir, f"k{idx:03d}b.ktype", _dump_ktype(k2, rng))
    argv = ["classify", a, b]
    up_to_flip = mode == "flip-flag"
    if up_to_flip:
        argv.append("--up-to-flip")
    expect = {"kind": "classify", "first": k1, "second": k2, "up_to_flip": up_to_flip}
    return Job(f"classify-{idx:03d}-{mode}", argv, expect)


def _malformed_jobs(rng, workdir) -> list[Job]:
    """A fixed share of bad inputs; each must end in the one-line JSON error."""
    good = _ktype(rng)
    bad_eps = dict(good, eps=[])
    missing = {key: v for key, v in good.items() if key != "c1"}
    files = {
        "ktype-eps-list": ("bad1.ktype", json.dumps(bad_eps)),
        "ktype-missing-key": ("bad2.ktype", json.dumps(missing)),
        "ktype-not-json": ("bad3.ktype", "{target: Line"),
        "hmesh-bad-record": ("bad4.hmesh", "HMESH orientable\nv 0 1\nx 0 1 2\n"),
        "hmesh-not-manifold": (
            "bad5.hmesh",
            "HMESH orientable\nv 0 0\nv 1 1\nv 2 2\nt 0 1 2\n",
        ),
        "matrix-not-integer": ("bad6.sp", "SP 1\n1 x\n0 1\n"),
        "matrix-row-count": ("bad7.sp", "SP 2\n1 0 0 0\n0 1 0 0\n"),
        "matrix-not-symplectic": ("bad8.sp", "SP 1\n2 0\n0 1\n"),
    }
    good_path = _write(workdir, "good.ktype", json.dumps(good))
    jobs = []
    for name, (fname, text) in files.items():
        path = _write(workdir, fname, text)
        if fname.endswith(".ktype"):
            argv = ["classify", good_path, path]
        elif fname.endswith(".hmesh"):
            argv = ["reeb", path]
        else:
            argv = ["sp-decompose", path]
        jobs.append(Job(f"malformed-{name}", argv, {"kind": "error"}))
    return jobs


def _ladder(rng, count: int, low: int, high: int) -> list[int]:
    """``count`` sizes spread geometrically over [low, high], jittered by 2%:
    the seed changes the inputs but hardly their cost, so percentiles hold."""
    out = []
    for i in range(count):
        base = low * (high / low) ** (i / max(count - 1, 1))
        out.append(max(low, min(high, round(base * rng.uniform(0.98, 1.02)))))
    return out


def _forms_jobs(rng, workdir) -> list[Job]:
    jobs = []
    specs = (
        [("line", True, g, b) for g, b in zip(_ladder(rng, 12, 25, 400), _ladder(rng, 12, 25, 400))]
        + [("circle", True, g, b) for g, b in zip(_ladder(rng, 8, 25, 400), _ladder(rng, 8, 10, 400))]
        + [("line", False, g, b) for g, b in zip(_ladder(rng, 6, 25, 400), _ladder(rng, 6, 10, 200))]
    )
    for idx, spec in enumerate(specs):
        jobs.append(_canonical_job(idx, rng, *spec))
    gen_specs = (
        [("line", True, g, b) for g, b in zip(_ladder(rng, 6, 10, 400), _ladder(rng, 6, 2, 40))]
        + [("circle", True, g, b) for g, b in zip(_ladder(rng, 4, 10, 400), _ladder(rng, 4, 2, 40))]
        + [("line", False, g, b) for g, b in zip(_ladder(rng, 4, 2, 400), _ladder(rng, 4, 2, 40))]
    )
    for idx, spec in enumerate(gen_specs):
        jobs.append(_generators_job(idx, rng, *spec))
    jobs += [_classify_job(idx, rng, workdir) for idx in range(64)]
    jobs += _malformed_jobs(rng, workdir)
    return jobs

