"""JSON round trips for every artifact kind and the deterministic writer."""

import hashlib
import json
import math

import numpy as np
import pytest

from cartankak import serialize
from cartankak._linalg import frob, random_special_unitary
from cartankak.cartan import (
    _structure_of_center,
    build_cartan_split,
    build_decomposition_sequence,
    enumerate_maximal_abelian,
)
from cartankak.cli import main
from cartankak.generators import Generator, make_lambda, make_ortho_diag, make_tensor_word
from cartankak.kak import recursive_decompose
from cartankak.partition import (
    intrinsic_quotient_algebra,
    standard_quotient_algebra,
    verify_closure,
)
from oracle import reference_dumps

# sha256 of sequence_to_json for the default sequence of the standard and the
# intrinsic build, recorded when every level center was extended at build time.
PINNED_SEQUENCES = {
    2: ("d8f126b5728cb3de441e6a9533977d266020fa2b963967f26e5c6833fb47e74c",
        "665f56692ea838a5ea69170f0dd795bb390c5c923cd84230d1fcb0e4bfc2f83a"),
    3: ("dfa3669f318d633cb92efc41887d5df216e9e4cac23c770dd29b00e3bb78f507",
        "d702bdd6f312656184ec9205ecea6636023c94cd52d21939dcfa4f4fd2591e45"),
    4: ("67cacf0c15bb25fa1c5add0c2026cb23359b09cab9b95c459df1406e328c184c",
        "89072d3f218e2ae39331f686d258fe79e8197a851362e1c7c222832636485fcf"),
    5: ("968abea98905fd743fce3df849fd592f4916e2057716d66f6998e8d27f7bbb5b",
        "2349bee3b36e5c8c43a48cab167bc957156c53a940f678d54548c14a3b631c84"),
    6: ("281c9f56044102beef0ad5b15b59ed5c0ff8e2a995af8c98cd813d3f519b9304",
        "6a6150b71a10f9082d6eb1533302e34071d8da35e7ed8428ffa630a8ae06f933"),
    7: ("a0541696b10664d8c8cd9c0800bbf36ea5f58a46c166493026773c61ed57bf6a",
        "207cc7a01513039a25f2ee8179b4ebd74fd5646d44e38cd8ba1adf671a70a594"),
    8: ("7d1012b90c8a6321bd2ba846177e9d253260e4905bfbfe67b7b35a225d012d7b",
        "5e24f6710d52abe550d5c06cf43d27dea0a4db684e2d8a61ba84678db2a2120c"),
    9: ("ead2ad5eacc617f1217cc7a96a99cb03357ce6e6b6fb2b383ca602eda575cffd",
        "ead2ad5eacc617f1217cc7a96a99cb03357ce6e6b6fb2b383ca602eda575cffd"),
    10: ("d931cc4191f157408579dfd2aee8db566b90016d24fa0dd09150ab0fe209bd8e",
         "d931cc4191f157408579dfd2aee8db566b90016d24fa0dd09150ab0fe209bd8e"),
    11: ("1a5837d7123671ec3fa2fa243ce37f944420ccc2817dcac0d69f3561fcd7da72",
         "25a26089a393d656b9ad1d61943b342f6fb92636064a9242e1f4dcf6f7a5fe3a"),
    12: ("60189ed7d8232d2df45d1b0884240c35bad2d73689561b026848da68bc0a6397",
         "d98c46ca7c852286be904525fd2545779691bdfe98109aa9baac14a4b017ebba"),
    13: ("92a15defb7452c810031d2e68ea48ff0d77c137ae9a1ceef15550c7acd03e9e9",
         "6548bd682ab478ed05c1091039a95bc3147978666cc48e4816730cada3335aed"),
    14: ("92ce2a2e4b4da3a7eeff62252918f6d48869942f17e8b257b31996f064edb76a",
         "92ce2a2e4b4da3a7eeff62252918f6d48869942f17e8b257b31996f064edb76a"),
    15: ("1f03549dd7c4140dcc92dc2e9b12cca4cb4198509476d857f7bb861e11431eb0",
         "1f03549dd7c4140dcc92dc2e9b12cca4cb4198509476d857f7bb861e11431eb0"),
    16: ("4583fa95c5a8bae9fa18ac2a20d793026278d22a2b69182e7187c9bdcb5fe5f9",
         "1309c6141022382cf4c09b54e9fb59b0636c7db80bb775adda26841a45ef7b82"),
}


class Float(float):
    pass


class List(list):
    pass


class Dict(dict):
    pass


SPECIAL_FLOATS = [-0.0, 0.0, 5e-324, 1e-300, 2**-52, math.nan, math.inf, -math.inf, 0.1, 1e22,
                  np.pi]
ROWS = serialize._RECORD_ROWS  # the fewest rows that take a row template
WRITER_CASES = [
    SPECIAL_FLOATS, [SPECIAL_FLOATS] * 3, [[[x, -x] for x in SPECIAL_FLOATS]] * 2, [[0.5]],
    [0, -1, 10**20, True, False], [10**20, 1.0], [1.0, 2], [True, 1.0], [None, 1.0], None,
    "quote \" and \\ backslash", ["a\"", "b\\"], {"k\"ey": "v\\"},
    [np.float64(0.1), 0.2], [[np.float64(0.1), 0.2]], [np.int64(3), 4], np.float64(-0.0),
    [Float(0.1), 0.2], List([0.1, 0.2]), [List([0.1]), [0.2]], Dict(a=0.1), [Dict(a=1), {"a": 2}],
    (0.1, 0.2), [(0.1, 0.2), [0.3, 0.4]], [], [[]], [[], []], [[0.1], []], [[0.1], [0.2, 0.3]],
    [[[0.1]], [0.2]], {}, [{}] * ROWS,
    [{"a": x, "b": "x\"y", "c": None, "d": x > 0, "e": 3, "f": 10**20} for x in SPECIAL_FLOATS * 2],
    [{"a": 1, "b": 2}] * ROWS + [{"b": 1, "a": 2}], [{"a": 1}] * ROWS + [{"a": 1, "b": 2}],
    [{"a": {"x": 0.5, "y": "s"}}, {"a": {"x": 1, "y": None}}] * ROWS,
    [{"a": {"x": 0.5}}] * ROWS + [{"a": {"y": 0.5}}], [{"a": {"x": {"deep": 1}}}] * ROWS,
    [{"a": [0.1, 0.2]}] * ROWS, [{"a": {"m": [[0.1]]}}] * ROWS, [{"a": 0.1}] * (ROWS - 1),
    [{"a": 1, "b": np.float64(0.5)}] * ROWS, [{"a": Float(0.5)}] * ROWS, [{"a": (1, 2)}] * ROWS,
    [{"a%s": 0.1, "100%": "%d"}] * ROWS, [{1: "one", 2: "two"}] * ROWS, [{True: 1}] * ROWS,
    {1: 0.5, None: [0.25]}, [{"a": 0.1}] * ROWS + [Dict(a=0.2)], [{"a": 0.1}] * ROWS + [0.2],
]


def random_value(rng, depth):
    """A seeded nested value: float grids, records and every kind of scalar, mixed."""
    scalars = [lambda: float(rng.standard_normal() * 10.0 ** rng.integers(-300, 300)),
               lambda: SPECIAL_FLOATS[rng.integers(len(SPECIAL_FLOATS))],
               lambda: int(rng.integers(-10**6, 10**6)) * 10**int(rng.integers(0, 20)),
               lambda: bool(rng.integers(2)), lambda: None,
               lambda: "".join(rng.choice(list("ab\"\\%"), rng.integers(0, 5))),
               lambda: np.float64(rng.standard_normal()), lambda: np.int64(rng.integers(9))]
    kind = rng.integers(6) if depth else 0
    if kind == 0:
        return scalars[rng.integers(len(scalars))]()
    if kind == 1:  # a float grid, sometimes ragged or with one leaf of another kind
        grid = rng.standard_normal(rng.integers(1, 4, size=rng.integers(1, 4))).tolist()
        if rng.integers(3) == 0:
            grid.append(random_value(rng, depth - 1))
        return grid
    if kind == 2:  # records, sometimes with a key order or a value that breaks the pattern
        keys, exact = {"k%d" % i: rng.integers(4) for i in range(rng.integers(1, 4))}, scalars[:6]
        rows = [{k: (exact[rng.integers(6)]() if flat else
                     {"x": exact[rng.integers(6)](), "y": exact[rng.integers(6)]()})
                 for k, flat in keys.items()} for _ in range(rng.choice([2, ROWS, ROWS + 5]))]
        if rng.integers(3) == 0:
            rows.append(dict(reversed(rows[0].items())) if rng.integers(2) else
                        {k: random_value(rng, depth - 1) for k in keys})
        return rows
    items = [random_value(rng, depth - 1) for _ in range(rng.integers(0, 4))]
    if kind == 3:
        return {("k%d" % i if rng.integers(4) else i): v for i, v in enumerate(items)}
    return items if kind == 4 else tuple(items)


class TestWriter:
    def test_seventeen_significant_digits(self):
        text = serialize.dumps({"angle": np.pi / 4})
        assert "0.78539816339744828" in text

    def test_round_trip_values(self):
        payload = {"a": [1.0, -0.25, 3], "b": None, "c": True, "d": "x\"y"}
        again = json.loads(serialize.dumps(payload))
        assert again == payload

    def test_deterministic(self):
        payload = {"x": [np.pi, 1e-300, -0.0], "y": {"z": 2**-52}}
        assert serialize.dumps(payload) == serialize.dumps(payload)

    @pytest.mark.parametrize("value", WRITER_CASES, ids=range(len(WRITER_CASES)))
    def test_matches_the_reference(self, value):
        assert serialize.dumps(value) == reference_dumps(value)

    @pytest.mark.parametrize("seed", range(60))
    def test_seeded_values_match_the_reference(self, seed):
        value = random_value(np.random.default_rng(seed), 4)
        assert serialize.dumps(value) == reference_dumps(value)

    def test_artifact_shapes_take_the_fast_paths(self, word_qa):
        """Matrix entries are one float grid; the factor rows of N=8 are one record list."""
        entries = serialize.matrix_to_json(random_special_unitary(8, np.random.default_rng(0)))
        fact = recursive_decompose(random_special_unitary(8, np.random.default_rng(1)),
                                   build_decomposition_sequence(word_qa(8)))
        rows = serialize.factorization_to_json(fact)["factors"]
        assert serialize._grid(entries["entries"]) is not None
        assert len(rows) >= ROWS and serialize._columns(rows) is not None


class TestMatrixAndGenerator:
    def test_matrix_round_trip(self):
        u = random_special_unitary(5, np.random.default_rng(0))
        again = serialize.matrix_from_json(
            json.loads(serialize.dumps(serialize.matrix_to_json(u)))
        )
        assert frob(again - u) == 0.0

    def test_labeled_generators(self):
        for g in (
            make_lambda(1, 2, 4),
            make_ortho_diag(3, 4),
            make_tensor_word(["g4", "p3"]),
        ):
            obj = json.loads(serialize.dumps(serialize.generator_to_json(g)))
            back = serialize.generator_from_json(obj)
            assert back.label_str == g.label_str
            np.testing.assert_allclose(back.matrix, g.matrix, atol=1e-15)

    def test_matrix_entries_keep_every_value_and_sign(self):
        u = random_special_unitary(5, np.random.default_rng(2))
        u[0, 0], u[1, 2] = complex(-0.0, 0.0), complex(0.0, -0.0)
        for m in (u, u.T, u[::2, ::2], u.real):
            entries = [[[float(x.real), float(x.imag)] for x in row] for row in np.asarray(m, complex)]
            obj = serialize.matrix_to_json(m)
            assert obj == {"dim": m.shape[0], "entries": entries}
            assert np.array_equal(np.signbit(obj["entries"]), np.signbit(entries))
            assert all(type(x) is float for row in obj["entries"] for e in row for x in e)

    def test_transported_center_matrices_read_back(self, tmp_path):
        """The dense generators of a transported su(6) center's splits, written as float
        grids, read back equal entry for entry."""
        member = enumerate_maximal_abelian(6, 1)[9]
        qa = _structure_of_center(member)
        center = tmp_path / "c.json"
        center.write_text(serialize.dumps(serialize.space_to_json(member)))
        out = tmp_path / "splits.json"
        assert main(["splits", "--dim", "6", "--center", str(center), "--output", str(out)]) == 0
        splits = json.loads(out.read_text())
        dense = 0
        for obj in splits:
            split = build_cartan_split(qa, obj["choice_bits"])
            spaces = [*split.t, *split.p_part, split.chosen_center]
            written = [*obj["t"], *obj["p"], {"generators": obj["center"]}]
            for space, item in zip(spaces, written):
                for g, back in zip(space.generators, item["generators"]):
                    if g.label is None:
                        dense += 1
                        m = serialize.matrix_from_json(back["matrix"])
                        assert np.array_equal(m, g.matrix)
                        assert np.array_equal(np.signbit(m.view(float)),
                                              np.signbit(g.matrix.view(float)))
        assert dense > 0

    def test_unlabeled_generator_embeds_matrix(self):
        g = Generator(None, 2, np.diag([1.0, -1.0]))
        obj = json.loads(serialize.dumps(serialize.generator_to_json(g)))
        assert obj["label"] is None
        back = serialize.generator_from_json(obj)
        np.testing.assert_allclose(back.matrix, g.matrix)


class TestStructures:
    def test_qa_round_trip(self, word_qa):
        qa = word_qa(6)
        again = serialize.qa_from_json(json.loads(serialize.dumps(serialize.qa_to_json(qa))))
        assert again.dim == 6 and again.p == 3
        assert [p.binary_label for p in again.pairs] == [
            p.binary_label for p in qa.pairs
        ]
        assert verify_closure(again).passed

    def test_split_schema(self, word_qa):
        split = build_cartan_split(word_qa(4), "01")
        obj = json.loads(serialize.dumps(serialize.split_to_json(split)))
        assert set(obj) == {"choice_bits", "t", "p", "center"}
        assert obj["choice_bits"] == "01"

    def test_sequence_round_trip(self, word_qa):
        qa = word_qa(8)
        seq = build_decomposition_sequence(qa, ["011", "10", "1"])
        obj = json.loads(serialize.dumps(serialize.sequence_to_json(seq)))
        assert isinstance(obj["final"], list)
        again = serialize.sequence_from_json(obj, qa)
        assert [lv.label for lv in again.levels] == [lv.label for lv in seq.levels]
        assert [lv.choice_bits for lv in again.levels] == [
            lv.choice_bits for lv in seq.levels
        ]
        assert again.final.binary_label == seq.final.binary_label

    def test_factorization_schema(self, word_qa):
        seq = build_decomposition_sequence(word_qa(4))
        u = random_special_unitary(4, np.random.default_rng(3))
        fact = recursive_decompose(u, seq)
        obj = json.loads(serialize.dumps(serialize.factorization_to_json(fact)))
        assert set(obj) == {"dim", "global_phase", "reconstruction_error", "factors"}
        assert all(
            set(f) == {"tree_index", "ordinal", "generator", "angle", "locality"}
            for f in obj["factors"]
        )
        product = np.eye(4, dtype=complex)
        from cartankak._linalg import expm_hermitian

        for f in obj["factors"]:
            g = serialize.generator_from_json(f["generator"])
            product = product @ expm_hermitian(g.matrix, f["angle"])
        phase = complex(*obj["global_phase"])
        assert frob(product * phase - u) < 1e-8

    @pytest.mark.parametrize("n", sorted(PINNED_SEQUENCES))
    def test_sequence_json_matches_the_pin(self, n):
        texts = [serialize.dumps(serialize.sequence_to_json(build_decomposition_sequence(qa)))
                 for qa in (standard_quotient_algebra(n), intrinsic_quotient_algebra(n))]
        digests = tuple(hashlib.sha256(text.encode()).hexdigest() for text in texts)
        assert digests == PINNED_SEQUENCES[n]
