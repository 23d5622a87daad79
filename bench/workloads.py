"""The benchmark workloads: their inputs, one timed item, and its checks.

Each workload is built from the run seed and holds one round: a fixed list of
items. The runner repeats the round, timing each item and checking its output
off the clock. Library functions are reached through their modules at call
time so that the layer tracer sees every call.

* cone-E6: `tropicone cone --type E6 --force` on seeded random E6 words, one
  word per edge-count stratum of a recorded pool. Output is compared with the
  digest recorded when the benchmark was added, and the graphs for the
  minuscule indices are compared with the i-trail oracle.
* allwords-A4: `tropicone check` and `tropicone oracle --census-bound 1` on
  every reduced word of A4, starting at a seeded offset in enumeration order;
  both outputs are compared with recorded digests.
* census: `weight_census` on the cones of a fixed panel of sampled B3, C3 and
  D4 words for every weight with 0 < |m| <= a per-type bound, in seeded
  order, compared with the dual Kostant partition count.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from pathlib import Path

from tropicone import cli, decograph, oracle, rootsystem, stringcone, wordtools

DATA = Path(__file__).resolve().parent / "data"

# Words with more cone vertices than this (over all six indices) are left out
# of the cone-E6 pool; see DESIGN.md.
E6_CONE_VERTEX_CAP = 4000
E6_STRATA = 96

# Census bounds on |m| per type, sized under the child's memory limit; the
# next bound up is where the dense product in weight_census blows up.
CENSUS_BOUNDS = {"B3": 6, "C3": 5, "D4": 3}
# The census panel: per type, the pool words at these quantiles of recorded
# cost, the heaviest included. Fixed rather than seeded; see DESIGN.md.
CENSUS_PANEL = (1 / 6, 1 / 2, 5 / 6, 1)


class SetupError(RuntimeError):
    """The recorded inputs do not match what the program enumerates."""


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def load(name: str):
    return json.loads((DATA / name).read_text())


def cartan(ctype: str):
    return rootsystem.cartan_matrix(rootsystem.CartanType.parse(ctype))


def letters(word: str) -> tuple[int, ...]:
    return tuple(int(x) for x in word.split(","))


def stratified(entries: list, key, strata: int, rng: random.Random) -> list:
    """One entry from each of `strata` equal-count slices of entries sorted by key."""
    ordered = sorted(entries, key=key)
    size = len(ordered)
    return [rng.choice(ordered[s * size // strata : (s + 1) * size // strata]) for s in range(strata)]


def weights(n: int, bound: int) -> list[tuple[int, ...]]:
    """Every nonnegative m of length n with 0 < |m| <= bound."""
    return [m for m in itertools.product(range(bound + 1), repeat=n) if 0 < sum(m) <= bound]


class ConeE6:
    name = "cone-E6"
    tail_percentile = 89

    def __init__(self, seed: int, scratch: Path) -> None:
        self.cd = cartan("E6")
        pool = load("cone_e6.json")
        rng = random.Random(seed)
        picks = stratified(pool["words"], lambda e: (e["edges"], e["word"]), E6_STRATA, rng)
        rng.shuffle(picks)
        self.round = [e["word"] for e in picks]
        self.words = {e["word"]: wordtools.validate_word(self.cd, letters(e["word"])) for e in picks}
        self.digests = {e["word"]: e["cone_sha256"] for e in picks}
        self.out = scratch / "cone.txt"
        self.trail_verdicts: dict[str, str | None] = {}

    @staticmethod
    def describe(word: str) -> str:
        return f"word {word}"

    def run(self, word: str):
        return cli.main(["cone", "--type", "E6", "--word", word, "--force", "--out", str(self.out)])

    def check(self, word: str, code) -> str | None:
        if code != 0:
            return f"exit code {code}"
        if sha256(self.out) != self.digests[word]:
            return "cone output differs from the recorded digest"
        if word not in self.trail_verdicts:
            self.trail_verdicts[word] = self._check_trails(word)
        return self.trail_verdicts[word]

    def _check_trails(self, word: str) -> str | None:
        w = self.words[word]
        for i in sorted(rootsystem.minuscule_indices(self.cd)):
            graph = set(decograph.build_graph(self.cd, w, i).vertices)
            if graph != oracle.minuscule_trail_monomials(self.cd, w, i):
                return f"graph for i={i} differs from the i-trail oracle"
        return None


class AllWordsA4:
    name = "allwords-A4"
    tail_percentile = 98

    def __init__(self, seed: int, scratch: Path) -> None:
        self.digests = load("allwords_a4.json")
        words = [str(w) for w in wordtools.enumerate_w0_words(cartan("A4"))]
        if words != list(self.digests):
            raise SetupError("the A4 enumeration differs from the recorded word list")
        start = random.Random(seed).randrange(len(words))
        self.round = words[start:] + words[:start]
        self.check_out = scratch / "check.json"
        self.oracle_out = scratch / "oracle.json"

    @staticmethod
    def describe(word: str) -> str:
        return f"word {word}"

    def run(self, word: str):
        check = cli.main(["check", "--type", "A4", "--word", word, "--out", str(self.check_out)])
        census = ["--census-bound", "1", "--out", str(self.oracle_out)]
        return check, cli.main(["oracle", "--type", "A4", "--word", word, *census])

    def check(self, word: str, codes) -> str | None:
        if codes != (0, 0):
            return f"exit codes {codes} for check and oracle"
        if [sha256(self.check_out), sha256(self.oracle_out)] != self.digests[word]:
            return "check or oracle output differs from the recorded digest"
        return None


class Census:
    name = "census"
    tail_percentile = 98

    def __init__(self, seed: int, scratch: Path) -> None:
        pool = load("census.json")
        self.round = []
        for ctype, bound in CENSUS_BOUNDS.items():
            cd = cartan(ctype)
            ranked = sorted(pool[ctype], key=lambda e: (e["cost_s"], e["word"]))
            for q in CENSUS_PANEL:
                w = wordtools.validate_word(cd, letters(ranked[round(q * (len(ranked) - 1))]["word"]))
                cone = stringcone.string_cone(cd, w)
                self.round += [(ctype, cd, cone, m) for m in weights(cd.n, bound)]
        random.Random(seed).shuffle(self.round)

    @staticmethod
    def describe(query) -> str:
        ctype, _, cone, m = query
        return f"{ctype} word {cone.word} m={m}"

    def run(self, query):
        _, cd, cone, m = query
        return stringcone.weight_census(cone, m), stringcone.dual_kostant_count(cd, m)

    def check(self, query, counts) -> str | None:
        census, kostant = counts
        if census != kostant:
            return f"census {census} differs from the dual Kostant count {kostant}"
        return None


WORKLOADS = {cls.name: cls for cls in (ConeE6, AllWordsA4, Census)}
