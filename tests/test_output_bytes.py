"""Byte-identity guard for `bchrom color`: the sha256 of its stdout, with and
without --trace, on five fixed inputs, two of them colored by the exact
search.  A change to how the coloring is built or written that moves a
single byte of either output fails here.  So does a change to the graphs
`bchrom generate` writes, pinned at 5,000 vertices."""

import hashlib
import random

import pytest

from bchrom.cli import main

TREE_N = 2000


def _random_tree_with_isolated_vertices() -> str:
    """A seeded random recursive tree on 1,900 of 2,000 vertices, the other
    100 isolated, with ids permuted so the isolated ones are scattered."""
    rng = random.Random(19)
    ids = list(range(TREE_N))
    rng.shuffle(ids)
    tree = ids[:1900]
    lines = [f"# n={TREE_N}\n"]
    for i in range(1, len(tree)):
        lines.append(f"{tree[rng.randrange(i)]} {tree[i]}\n")
    return "".join(lines)


def _generated_girth_nine(tmp_path) -> str:
    path = tmp_path / "g9.txt"
    assert main(["generate", "1000", "--edges", "1150", "--seed", "3", "-o", str(path)]) == 0
    return path.read_text()


ENCIRCLED_TREE = "0 1\n0 2\n1 3\n2 4\n1 5\n2 6\n3 7\n3 8\n4 9\n4 10\n"

# the Petersen graph (girth 5, so only `--oracle` colors it), labels 100..109 in scrambled order
_PETERSEN_LABELS = [103, 107, 100, 109, 104, 101, 108, 102, 106, 105]
_PETERSEN_EDGES = [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (0, 5), (1, 6), (2, 7), (3, 8), (4, 9),
                   (5, 7), (7, 9), (6, 9), (6, 8), (5, 8)]
PETERSEN = "".join(f"{_PETERSEN_LABELS[u]} {_PETERSEN_LABELS[v]}\n" for u, v in _PETERSEN_EDGES)


def _dense_graph() -> str:
    """A seeded G(12, 1/2) with degrees 2 to 8: unlike Petersen's, its
    degrees are unequal, so the exact search's basis rank, (-degree, id),
    is not the id order."""
    rng = random.Random(36)
    return "".join(f"{u} {v}\n" for u in range(12) for v in range(u + 1, 12) if rng.random() < 0.5)


# input -> (sha256 of `color` stdout, sha256 of `color --trace` stdout)
DIGESTS = {
    "dense-oracle": (
        "6118a53e6d24083e79e4c76d91876a12e44d5e095c2ad922bf103f2d3a6aec33",
        "6118a53e6d24083e79e4c76d91876a12e44d5e095c2ad922bf103f2d3a6aec33",
    ),
    "encircled-tree": (
        "e4a1f91128e8721c692a27c24068cb067bc5bc88de097f78811d860aa2bec346",
        "3cc2d3ff412ec0f8bcd3c1f4cf3c5447eb5c39929eb6bbf3e72263d58a0b1672",
    ),
    "girth-nine": (
        "a7fd700da1069a60dfe7d9b61a0017b3c68cfac1b21b404bdf3dbcacc7cce8ca",
        "c20c67421987aa510c4f99a83a20ae5dd613e859cb6726d5cc96b5e2b17663f9",
    ),
    "petersen-oracle": (
        "62a6146bd4785279da61b40ead622f6447a746b686b78c752c4e58114b6f3299",
        "62a6146bd4785279da61b40ead622f6447a746b686b78c752c4e58114b6f3299",
    ),
    "random-tree": (
        "672a5f1a0429402cfeb73eb3aad18c65d9324e249ceb17b9df82894aa5e2c65e",
        "cbdafaf334b19e4d40dad202e30df52c323c4cb5a2fd54c7d613976806f2b38d",
    ),
}


def _input_text(name, tmp_path):
    if name == "random-tree":
        return _random_tree_with_isolated_vertices(), []
    if name == "girth-nine":
        return _generated_girth_nine(tmp_path), []
    if name == "petersen-oracle":
        return PETERSEN, ["--oracle"]
    if name == "dense-oracle":
        return _dense_graph(), ["--oracle"]
    return ENCIRCLED_TREE, ["--oracle-limit", "5"]


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_color_output_bytes_are_pinned(name, tmp_path, capsys):
    text, extra = _input_text(name, tmp_path)
    path = tmp_path / "graph.txt"
    path.write_text(text)
    capsys.readouterr()
    digests = []
    for trace in ([], ["--trace"]):
        assert main(["color", str(path), *extra, *trace]) == 0
        digests.append(hashlib.sha256(capsys.readouterr().out.encode()).hexdigest())
    assert tuple(digests) == DIGESTS[name]


# name -> (the arguments that follow `generate 5000 --edges 10000 --seed 1`, sha256 of the file written)
GENERATED = {
    "girth-nine": ([], "dbad51deb12b2ffea5f2c4f81ca225a10a712c6390bf10f5b242cd74a16216a4"),
    "girth-seven": (["--min-girth", "7"], "63dc630e2b4ddea8e4000c1b1cc7b904c1f07c6becdc26feca65eced1dc43fad"),
}


@pytest.mark.parametrize("name", sorted(GENERATED))
def test_generate_output_bytes_are_pinned(name, tmp_path):
    extra, digest = GENERATED[name]
    path = tmp_path / "g.txt"
    assert main(["generate", "5000", "--edges", "10000", "--seed", "1", *extra, "-o", str(path)]) == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
