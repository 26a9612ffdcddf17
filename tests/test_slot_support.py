"""Subscript patterns, frame slots and gate locality against the loops they replaced.

The reference oracles below are the old per-generator computations: the
lambda-basis expansion walk for binary labels and subscript tables, the
per-entry loops and union-find of the KAK frame, and the scan over the whole
standard word basis for locality.
"""

import numpy as np
import pytest

import cartankak.kak as kak
import cartankak.partition as partition
from cartankak._linalg import STRUCT_TOL, dagger, frob, random_special_unitary
from cartankak.errors import NotBinaryPartitionedError, UnsupportedLabelError
from cartankak.generators import (
    Lambda,
    LambdaHat,
    TensorWord,
    site_factors,
    standard_sites,
    to_lambda_basis,
)
from cartankak.kak import classify_gate, recursive_decompose
from cartankak.partition import (
    binary_label_of,
    bits_of,
    build_quotient_algebra,
    diagonalize_abelian,
    intrinsic_center,
    lambda_basis,
    standard_basis,
    standard_quotient_algebra,
    subscript_table_of,
)

DIMS = range(2, 17)


def walk_patterns(gens):
    """XOR subscript patterns over the lambda terms; None when a d term occurs."""
    patterns = set()
    for g in gens:
        for _, label in to_lambda_basis(g.matrix):
            if not isinstance(label, (Lambda, LambdaHat)):
                return None
            patterns.add((label.i - 1) ^ (label.j - 1))
    return patterns


def walk_fragment_label(gens):
    patterns = walk_patterns(gens)
    return patterns.pop() if patterns is not None and len(patterns) == 1 else None


def walk_hat_parity(ws):
    kinds = {type(label) for g in ws for _, label in to_lambda_basis(g.matrix)}
    if kinds == {Lambda}:
        return False
    return True if kinds == {LambdaHat} else None


def walk_merge_pairs(raw_pairs):
    """partition._merge_pairs with the walk's labels and hat parity."""
    groups = {}
    for ws, hats in raw_pairs:
        key = walk_fragment_label(ws + hats)
        if key is None:
            groups[("opaque", len(groups))] = [(ws, hats)]
            continue
        if walk_hat_parity(ws):
            ws, hats = hats, ws
        groups.setdefault(key, []).append((ws, hats))
    return [([g for ws, _ in frags for g in ws], [g for _, hats in frags for g in hats],
             key if isinstance(key, int) else None) for key, frags in groups.items()]


def walk_subscript_rows(qa):
    rows = []
    for pair in qa.pairs:
        slots = set()
        for g in pair.w.generators + pair.w_hat.generators:
            for _, label in to_lambda_basis(g.matrix):
                assert isinstance(label, (Lambda, LambdaHat))
                slots.add((label.i, label.j))
        rows.append(tuple(sorted(slots)))
    return tuple(rows)


def loop_phase_frame(n, space_images, tol=1e-9):
    deltas = {}
    for images in space_images:
        for g in images:
            for i in range(n):
                for j in range(i + 1, n):
                    if abs(g[i, j]) < tol:
                        continue
                    delta = (-np.pi / 2.0 - np.angle(g[i, j])) % np.pi
                    if (i, j) in deltas:
                        diff = abs(deltas[(i, j)] - delta)
                        assert min(diff, abs(diff - np.pi)) <= 1e-7
                    else:
                        deltas[(i, j)] = delta
    phi = np.zeros(n)
    seen = [False] * n
    for start in range(n):
        if seen[start]:
            continue
        seen[start] = True
        queue = [start]
        while queue:
            a = queue.pop()
            for (i, j), delta in deltas.items():
                if a not in (i, j):
                    continue
                b = j if a == i else i
                if not seen[b]:
                    phi[b] = phi[a] - (delta if a == i else (-delta) % np.pi)
                    seen[b] = True
                    queue.append(b)
    return np.diag(np.exp(1j * phi))


def loop_space_slots(images, n, tol=1e-9):
    return tuple(sorted(
        {(i, j) for g in images for i in range(n) for j in range(i + 1, n) if abs(g[i, j]) > tol}
    ))


def loop_slot_coefficients(images, slots):
    c = np.zeros((len(images), len(slots)))
    for a, g in enumerate(images):
        for s, (i, j) in enumerate(slots):
            c[a, s] = -np.imag(g[i, j])
    return c


def union_find_components(n, edges):
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, j in edges:
        parent[find(i)] = find(j)
    groups = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return sorted(groups.values())


def scan_locality(g, words):
    """Locality by site matrices, matching unlabeled generators against every word."""
    if not isinstance(g.label, TensorWord):
        if len(standard_sites(g.dim)) == 1:
            return "local"
        for word in words:
            coef = np.trace(word.matrix.conj().T @ g.matrix) / np.trace(
                word.matrix.conj().T @ word.matrix
            )
            if abs(coef) > 1e-9 and frob(g.matrix - coef * word.matrix) < 1e-9 * frob(g.matrix):
                g = word
                break
        else:
            return None
    active = 0
    for symbol in g.label.sites:
        d, m = site_factors(symbol)
        active += frob(m - np.eye(d)) >= STRUCT_TOL
    return "local" if active == 1 else "nonlocal"


def pair_layout(qa):
    return [
        (pair.binary_label, [g.matrix for g in pair.w.generators],
         [g.matrix for g in pair.w_hat.generators])
        for pair in qa.pairs
    ]


@pytest.mark.parametrize("n", DIMS)
def test_pair_labels_and_order_match_the_walk(n, std_seq, monkeypatch):
    qa = std_seq(n).qa
    labels = [pair.binary_label for pair in qa.pairs]
    assert labels == sorted(labels)
    for pair in qa.pairs:
        pattern = walk_fragment_label(pair.w.generators + pair.w_hat.generators)
        assert bits_of(pattern, qa.p) == pair.binary_label
        assert binary_label_of(pair) == pair.binary_label

    # The reversed lambda basis seeds every fragment from its hat side.
    def builds():
        return [standard_quotient_algebra(n),
                build_quotient_algebra(intrinsic_center(n), lambda_basis(n)[::-1])]

    from_forms = builds()
    monkeypatch.setattr(partition, "_merge_pairs", walk_merge_pairs)
    for built, walked in zip(from_forms, builds(), strict=True):
        for (lab, ws, hats), (lab_w, ws_w, hats_w) in zip(pair_layout(built), pair_layout(walked),
                                                          strict=True):
            assert lab == lab_w
            assert all(np.array_equal(a, b) for a, b in zip(ws + hats, ws_w + hats_w, strict=True))


def test_binary_label_of_rejects_like_the_walk(std_seq):
    center = std_seq(4).qa.center
    center_pair = partition.ConjugatePair(w=center, w_hat=center)
    assert walk_patterns(center_pair.w.generators) is None
    with pytest.raises(NotBinaryPartitionedError, match="diagonal"):
        binary_label_of(center_pair)


@pytest.mark.parametrize("n", [4, 8])
def test_subscript_tables_match_the_walk(n, std_seq, lambda_qa):
    for qa in (std_seq(n).qa, lambda_qa(n)):
        table = subscript_table_of(qa)
        assert table.rows == walk_subscript_rows(qa)
        assert table.labels == tuple(pair.binary_label for pair in qa.pairs)


@pytest.fixture
def refuse_word_scan(monkeypatch):
    """Make any build of the word basis fail, with the cached bases emptied first."""

    def refuse(dim):
        raise AssertionError("classify_gate scanned the word basis")

    monkeypatch.setattr(kak, "standard_basis", refuse)
    kak._word_basis.cache_clear()
    yield
    kak._word_basis.cache_clear()


@pytest.mark.parametrize("n", DIMS)
def test_classify_gate_matches_the_word_scan_without_it(n, std_seq, refuse_word_scan):
    qa = std_seq(n).qa
    words = standard_basis(n)
    gens = list(qa.center.generators)
    gens += [g for pair in qa.pairs for g in pair.w.generators + pair.w_hat.generators]
    assert len(gens) == n * n - 1

    for g in gens:
        try:
            got = classify_gate(g)
        except UnsupportedLabelError:
            got = None
        assert got == scan_locality(g, words), g


@pytest.mark.parametrize("n", [9, 15])
def test_decompose_never_scans_the_word_basis(n, std_seq, refuse_word_scan):
    u = random_special_unitary(n, np.random.default_rng(n))
    fact = recursive_decompose(u, std_seq(n))
    assert fact.reconstruction_error < 1e-8
    assert fact.factors and all(f.locality is None for f in fact.factors)


@pytest.mark.parametrize("n", DIMS)
def test_frame_matches_the_per_entry_loops(n, std_seq):
    seq = std_seq(n)
    spaces = {lab: seq.space_at(lab) for lab in seq.levels[0].chosen_labels}
    frame = kak._build_frame(seq.qa, spaces)
    u_a = diagonalize_abelian(seq.qa.center)
    raw = {lab: [u_a @ g.matrix @ dagger(u_a) for g in sp.generators] for lab, sp in spaces.items()}
    v = loop_phase_frame(n, list(raw.values()))
    assert np.array_equal(frame.matrix, v @ u_a)
    for lab, images in raw.items():
        rotated = [v @ g @ dagger(v) for g in images]
        assert frame.slots[lab] == loop_space_slots(rotated, n)
        np.testing.assert_array_equal(
            kak._slot_coefficients(rotated, frame.slots[lab]),
            loop_slot_coefficients(rotated, frame.slots[lab]),
        )
    plan = kak._Plan(seq, frame)
    chosen = [level.chosen_labels for level in seq.levels] + [(seq.final.binary_label,)]
    for level, labels in enumerate(chosen, start=1):
        edges = [s for lab in labels for s in frame.slots[lab]]
        assert plan.components[level] == union_find_components(n, edges)
