"""Record the reference Reeb graphs the ``reeb-*`` checks compare against.

    python3 bench/record_refs.py

For every mesh slot of the ``reeb-*`` workloads and every variant it draws
phases, keeps the first draw that is a Morse mesh by the benchmark's own
lower-link test, runs ``morse_topo.cli reeb`` on it and stores the graph up
to renumbering (vertex kinds, labels and heights in height order, edges as
rank pairs) in ``bench/refs.json``.  Draws the test or the CLI rejects are
kept in the file's ``_rejected`` list rather than dropped silently.  Run it
on the commit whose output is the reference; later commits must reproduce
these graphs.
"""
from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import meshgen  # noqa: E402
from run import invoke  # noqa: E402
from workloads import REEB_SLOTS, VARIANTS, ref_key  # noqa: E402

from morse_topo.cli import main as cli_main  # noqa: E402

MAX_DRAWS = 20


def record(key, family, n, f, workdir, rejected):
    for draw in range(MAX_DRAWS):
        phases = meshgen.draw_phases(f"{key}#{draw}")
        mesh = meshgen.base_mesh(family, n, f, phases)
        if not meshgen.is_morse(mesh[1], mesh[2], mesh[3]):
            rejected.append({"key": key, "draw": draw, "by": "lower-link test"})
            continue
        text = meshgen.format_hmesh(*mesh)
        path = os.path.join(workdir, "ref.hmesh")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        code, out, err = invoke(cli_main, ["reeb", path])
        if code != 0:
            rejected.append({"key": key, "draw": draw, "by": "cli", "error": err.strip()[-200:]})
            continue
        (_, vertices, edges), ktype = checks.split_graph_output(out)
        return {
            "phases": list(phases),
            "draw": draw,
            "graph": checks.canonical_form(vertices, edges),
            "ktype": ktype,
        }
    raise RuntimeError(f"no Morse mesh for {key} in {MAX_DRAWS} draws")


def main() -> int:
    workdir = os.path.join(os.path.dirname(HERE), ".bench_work", "record")
    os.makedirs(workdir, exist_ok=True)
    refs, rejected = {}, []
    slots = sorted({slot for slots in REEB_SLOTS.values() for slot in slots})
    for family, n, f in slots:
        for variant in range(VARIANTS):
            key = ref_key(family, n, f, variant)
            refs[key] = record(key, family, n, f, workdir, rejected)
            print(key, "events:", len(refs[key]["graph"]["kinds"]), flush=True)
    refs["_rejected"] = rejected
    with open(os.path.join(HERE, "refs.json"), "w", encoding="utf-8") as fh:
        json.dump(refs, fh, separators=(",", ":"), sort_keys=True)
        fh.write("\n")
    print(f"{len(refs) - 1} references, {len(rejected)} rejected draws")
    return 0


if __name__ == "__main__":
    sys.exit(main())
