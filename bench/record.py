"""Record the benchmark's input pools and reference output digests.

Run from the repository root as `python3 bench/record.py`. It writes
bench/data/cone_e6.json, allwords_a4.json and census.json. The digests are
the reference every benchmark run checks against, so record them only from a
commit whose output is known to be right, and re-record only for a deliberate
change of the default output.
"""

from __future__ import annotations

import json
import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path.cwd() / "src"))

from tropicone import cli, decograph, stringcone, wordtools  # noqa: E402

import workloads  # noqa: E402
from sampler import random_reduced_word  # noqa: E402

E6_POOL_SIZE = 768
E6_POOL_SEED = 2207
CENSUS_DRAWS = 64
CENSUS_POOL_SEED = 8065


def cone_sizes(cd, w) -> tuple[int, int] | None:
    """Total (vertices, edges) over all indices, or None past the vertex cap."""
    vertices = edges = 0
    for i in range(1, cd.n + 1):
        budget = workloads.E6_CONE_VERTEX_CAP - vertices + 1
        try:
            g = decograph.build_graph(cd, w, i, force=True, max_vertices=budget)
        except decograph.GraphError:
            return None
        vertices += len(g.vertices)
        edges += len(g.edges)
    return (vertices, edges) if vertices <= workloads.E6_CONE_VERTEX_CAP else None


def record_cone_e6(scratch: Path) -> dict:
    cd = workloads.cartan("E6")
    rng = random.Random(E6_POOL_SEED)
    out = scratch / "cone.txt"
    seen: set[tuple[int, ...]] = set()
    entries = []
    drawn = 0
    while len(entries) < E6_POOL_SIZE:
        word = random_reduced_word(cd, rng)
        drawn += 1
        if word in seen:
            continue
        seen.add(word)
        sizes = cone_sizes(cd, wordtools.validate_word(cd, word))
        if sizes is None:
            continue
        text = ",".join(map(str, word))
        code = cli.main(["cone", "--type", "E6", "--word", text, "--force", "--out", str(out)])
        if code != 0:
            raise SystemExit(f"cone failed with exit code {code} on {text}")
        entries.append(
            {"word": text, "vertices": sizes[0], "edges": sizes[1], "cone_sha256": workloads.sha256(out)}
        )
    return {
        "pool_seed": E6_POOL_SEED,
        "vertex_cap": workloads.E6_CONE_VERTEX_CAP,
        "drawn": drawn,
        "distinct_drawn": len(seen),
        "words": entries,
    }


def record_allwords_a4(scratch: Path) -> dict:
    check_out, oracle_out = scratch / "check.json", scratch / "oracle.json"
    digests = {}
    for w in wordtools.enumerate_w0_words(workloads.cartan("A4")):
        word = str(w)
        codes = (
            cli.main(["check", "--type", "A4", "--word", word, "--out", str(check_out)]),
            cli.main(["oracle", "--type", "A4", "--word", word, "--census-bound", "1", "--out", str(oracle_out)]),
        )
        if codes != (0, 0):
            raise SystemExit(f"exit codes {codes} on {word}")
        digests[word] = [workloads.sha256(check_out), workloads.sha256(oracle_out)]
    return digests


def record_census() -> dict:
    rng = random.Random(CENSUS_POOL_SEED)
    pool = {}
    for ctype, bound in workloads.CENSUS_BOUNDS.items():
        cd = workloads.cartan(ctype)
        words = sorted({random_reduced_word(cd, rng) for _ in range(CENSUS_DRAWS)})
        entries = []
        for word in words:
            cone = stringcone.string_cone(cd, wordtools.validate_word(cd, word))
            start = time.process_time()
            for m in workloads.weights(cd.n, bound):
                stringcone.weight_census(cone, m)
            entries.append({"word": ",".join(map(str, word)), "cost_s": round(time.process_time() - start, 4)})
        pool[ctype] = entries
    return pool


def main() -> None:
    scratch = Path.cwd() / ".bench_run" / "record"
    scratch.mkdir(parents=True, exist_ok=True)
    workloads.DATA.mkdir(exist_ok=True)
    targets = {
        "allwords_a4.json": lambda: record_allwords_a4(scratch),
        "census.json": record_census,
        "cone_e6.json": lambda: record_cone_e6(scratch),
    }
    for name, make in targets.items():
        start = time.perf_counter()
        (workloads.DATA / name).write_text(json.dumps(make(), indent=1) + "\n")
        print(f"{name}: {time.perf_counter() - start:.1f} s", flush=True)


if __name__ == "__main__":
    main()
