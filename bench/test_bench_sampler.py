"""The benchmark's word sampler yields valid words and can reach every word."""

import json
import random
from pathlib import Path

import pytest

from tropicone import CartanType, cartan_matrix, enumerate_w0_words, validate_word

import layertrace
from sampler import random_reduced_word


@pytest.mark.parametrize("ctype", ["A3", "B3", "C3", "D4", "G2", "F4", "E6"])
def test_sampled_words_validate(ctype):
    cd = cartan_matrix(CartanType.parse(ctype))
    rng = random.Random(0)
    for _ in range(20):
        word = random_reduced_word(cd, rng)
        assert validate_word(cd, word).letters == word


@pytest.mark.parametrize("ctype", ["A3", "B3"])
def test_sampler_reaches_every_word(ctype):
    cd = cartan_matrix(CartanType.parse(ctype))
    every = {w.letters for w in enumerate_w0_words(cd)}
    rng = random.Random(1)
    seen = set()
    for _ in range(20000):
        seen.add(random_reduced_word(cd, rng))
        if seen == every:
            break
    assert seen == every


def test_same_seed_same_words():
    cd = cartan_matrix(CartanType.parse("E6"))
    first = [random_reduced_word(cd, random.Random(7)) for _ in range(3)]
    again = [random_reduced_word(cd, random.Random(7)) for _ in range(3)]
    assert first == again


def test_per_layer_names_match_benchmark_json():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    listed = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    assert listed == list(layertrace.PER_LAYER)
