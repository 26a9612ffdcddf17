"""Command-line behavior: artifacts, exit codes, determinism."""

import hashlib
import itertools
import json
import os

import numpy as np
import pytest
import scipy.linalg

from cartankak import serialize
from cartankak.cartan import (
    CartanSplit,
    build_cartan_split,
    build_decomposition_sequence,
    enumerate_t_choices,
)
from cartankak._linalg import random_special_unitary
from cartankak.cli import main
from cartankak.generators import make_tensor_word
from cartankak.partition import (
    AbelianSpace,
    binary_label_of,
    build_quotient_algebra,
    intrinsic_quotient_algebra,
    standard_basis,
    standard_quotient_algebra,
    standard_word_center,
    subscript_table_of,
)


def word(*sites):
    return make_tensor_word(list(sites))


def write_json(path, payload):
    path.write_text(serialize.dumps(payload))
    return str(path)


class TestPartition:
    def test_su4_table_matches_figure_layout(self, capsys):
        assert main(["partition", "--dim", "4", "--format", "table"]) == 0
        out = capsys.readouterr().out
        assert "3 conjugate pairs" in out
        assert "W_01" in out and "W^_01" in out
        assert "tensor:p1,p1" in out

    def test_su6_seven_pairs(self, tmp_path):
        out = tmp_path / "qa6.json"
        assert main(["partition", "--dim", "6", "--output", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["dim"] == 6
        assert len(payload["pairs"]) == 7
        sizes = sorted((len(p["w"]) for p in payload["pairs"]), reverse=True)
        assert sizes == [3, 2, 2, 2, 2, 2, 2]

    def test_non_abelian_center_exits_2(self, tmp_path, capsys):
        bad = write_json(
            tmp_path / "bad.json",
            [serialize.generator_to_json(word("p1", "p0")),
             serialize.generator_to_json(word("p3", "p0"))],
        )
        assert main(["partition", "--dim", "4", "--center", bad]) == 2
        assert "abelian" in capsys.readouterr().err.lower()

    def test_center_leaving_word_basis_is_transported(self, tmp_path):
        # {g1, g8} leaves the word basis of su(3): the CLI builds its algebra as the
        # library does, the intrinsic one moved onto the center.
        center = write_json(
            tmp_path / "c3.json",
            [serialize.generator_to_json(word("g1")),
             serialize.generator_to_json(word("g8"))],
        )
        out = tmp_path / "qa3.json"
        assert main(["partition", "--dim", "3", "--center", center, "--output", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert [g["label"] for g in payload["center"]] == ["tensor:g1", "tensor:g8"]
        assert [pair["label"] for pair in payload["pairs"]] == ["01", "10", "11"]
        assert main(["verify", "--input", str(out), "--output", str(tmp_path / "r.json")]) == 0

    @pytest.mark.parametrize("generators, message", [
        ([("p3", "p0")], "center not maximal: center does not diagonalize to the intrinsic one"),
        ([("p3", "p0"), ("p0", "p3"), ("p3", "p0")], "space generators are linearly dependent"),
        ([("p3", "p0", "p0"), ("p0", "p3", "p0"), ("p0", "p0", "p3"), ("p3", "p3", "p0"),
          ("p3", "p0", "p3"), ("p0", "p3", "p3"), ("p3", "p3", "p3")], "center is in su(8), --dim is 4"),
    ], ids=["not maximal", "dependent", "other dimension"])
    def test_invalid_center_exits_2(self, generators, message, tmp_path, capsys):
        center = write_json(tmp_path / "c.json",
                            [serialize.generator_to_json(word(*g)) for g in generators])
        assert main(["partition", "--dim", "4", "--center", center]) == 2
        assert f"error: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("target", ["taken", "missing/qa.json"])
    def test_unwritable_output_exits_2(self, target, tmp_path, capsys):
        # A directory fails at the rename, a missing parent at the temp file.
        (tmp_path / "taken").mkdir()
        out = tmp_path / target
        assert main(["partition", "--dim", "4", "--output", str(out)]) == 2
        assert f"error: cannot write {out}: " in capsys.readouterr().err
        assert [f.name for f in tmp_path.rglob(".cartankak-*")] == []

    def test_closure_failure_exits_1(self, tmp_path, monkeypatch, caplog):
        import cartankak.cli as cli
        from cartankak.partition import ClosureCheck, ClosureReport

        failed = ClosureReport((ClosureCheck("disjoint", "all spaces", "", "", 1.0, False),), 1e-9)
        monkeypatch.setattr(cli, "verify_closure", lambda qa: failed)
        out = tmp_path / "qa4.json"
        assert main(["partition", "--dim", "4", "--output", str(out)]) == 1
        assert not out.exists()
        assert "constructed algebra failed closure (max residual 1.00e+00)" in caplog.text

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(["partition", "--dim", "6", "--output", str(a)])
        main(["partition", "--dim", "6", "--output", str(b)])
        assert a.read_bytes() == b.read_bytes()


class TestSplits:
    def test_enumerates_eight(self, tmp_path):
        out = tmp_path / "splits.json"
        assert main(["splits", "--dim", "8", "--output", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert len(payload) == 8

    def test_single_split(self, tmp_path):
        out = tmp_path / "split.json"
        assert main(
            ["splits", "--dim", "8", "--choice-bits", "011", "--output", str(out)]
        ) == 0
        payload = json.loads(out.read_text())
        assert payload["choice_bits"] == "011"
        sel = {s["label"]: s["hat"] for s in payload["t"]}
        assert sel["101"] is False and sel["111"] is True

    def test_per_pair_strings_write_the_selector_artifacts(self, tmp_path):
        a, b = tmp_path / "selector.json", tmp_path / "per_pair.json"
        for selector in (format(v, "03b") for v in range(8)):
            assert main(["splits", "--dim", "8", "--choice-bits", selector, "--output", str(a)]) == 0
            t = sorted(json.loads(a.read_text())["t"], key=lambda s: s["label"])
            per_pair = "".join("01"[s["hat"]] for s in t)
            assert main(["splits", "--dim", "8", "--choice-bits", per_pair, "--output", str(b)]) == 0
            assert a.read_bytes() == b.read_bytes()


# sha256 of the artifacts as first pinned. They hold labels and bits only, no
# floating-point values, so their bytes do not depend on the BLAS build.
PINNED_ARTIFACTS = {
    (3, "partition json"): "07521483b9fd2285920d73ecbf1ecd21c4f27e831391b55364cbcff6b6eaff65",
    (3, "partition table"): "7d77249c859ab1fb62540df8dba16bd89efb67379f695ea768a6f414b3260180",
    (3, "splits"): "f50cad45c102b90de9ca22aeb7acae8691ea3d9cdc4206ee1dfdd2b7b44e41b3",
    (4, "partition json"): "c992592fc120e065bfb5ac486a79127c36c6d787e6467e688effa091dfbd8887",
    (4, "partition table"): "c2aae458c3d66134438227d60172b152d9697ccf8a9a085245bb7aa5950517fb",
    (4, "splits"): "4476bce1b1dff3774c86c4d667ce87329e982278b3ece618d9e29c69efe8fcf0",
    (8, "partition json"): "eecffd601a1d21cb7510a2921fa3ebbdcb29e5cec0a223e6dff37a1da8d06cc8",
    (8, "partition table"): "9379617f60aea0038ce73a9dd1b7a19119b6acaf8c7466e92fe29c98fa4ef541",
    (8, "splits"): "60b69db6ca4775490a6864c2fb7f6f4c8d646c042ab48cfb6e7f5869825c6ff2",
    (9, "partition json"): "6d7b98208d56f3bfc39a24cb694936f6944d62cd2e3b8643b1d7c388b68c3596",
    (9, "partition table"): "b09b9dba7d6e9b796c5ad206b2f35283bd51559065eaa273b237a8279d47d5d9",
    (9, "splits"): "63d9275a286bb8843555ee6ce3e7b324395f94ab35c0f5d27ca11e8a66da9675",
    (12, "partition json"): "5088f37c9cf00a41e89acff9fefd130ff6c6d36d66b345a8558c37d5d666785f",
    (12, "partition table"): "7a6f95cec47b98f57a75bf79a6a45f6f4610f470b2841f604394abafbd58a096",
    (12, "splits"): "5f398ba44907d22dd40fee329f9dc5b2f0a78094b765baada8c011539e259631",
    (15, "partition json"): "3d50f0e31cda24061cdbe3438cf215d4f74fc898d72c278ab338074ddb3d8739",
    (15, "partition table"): "008888c787730772a60ade766b202f6e504929f00c696e1c7006b9e472f48b63",
    (15, "splits"): "6a65ef9560f08dcb4bd09f85ee0a2fd9a95105317076df14aab48c801dc0979d",
    (16, "partition json"): "40aed6f0ec42567451871eb1c40207e7f3eefa57b812504a596528fc2f7e5c17",
    (16, "partition table"): "5da1d4cb61dca8336a5a04f5934d0956b72ef6ef8805b51972d9c7eeb6c9acf5",
    (16, "splits"): "5d3d4c1f99841e244545642195ac3b59ec510a45aebfce3af9267d381ea0c9c9",
}

# build_digests(n) as first pinned. The texts hold labels only, so they too do
# not depend on the BLAS build.
PINNED_BUILDS = {
    2: ("6d66239d87845ff7cae239ac123b5b9abb96341e4f5aa07b92daf9a2f84da956",
        "6026f0712eb0bf1bb02b944da818d4676b3c1eb6f6d5cbd421059389975bef6d",
        "509fe0c32b68645bd758a15cfd603e59665b6a6223d8095e2f283dec9d327df2"),
    3: ("07521483b9fd2285920d73ecbf1ecd21c4f27e831391b55364cbcff6b6eaff65",
        "af0dbafa0287cfb7ee4c420cd89b8ef2da7e6e01ef1f66bd6893803ddc1763e9",
        "a558718b802597af99519d1faf19836bed67ccb00695211f7656dbe3e30a4ec2"),
    4: ("c992592fc120e065bfb5ac486a79127c36c6d787e6467e688effa091dfbd8887",
        "f0f873c56bb159ce6708eb7958c545655e139261868105e71025bc09de3f1367",
        "b2cace389af2015716f9f08b4cbd83cb08d9a9312a494eeacb7dfb69dd720924"),
    5: ("7ab35f095946d91eb87315fdeab7ff8db40856746075885bbdd84a025fb1e821",
        "f4eee4651f548a8fe394b77dfa9b76e34397b3bf9b8996c668f7f27376399887",
        "ecad5d280fad12fdad12eebd933eb7a18dac7caf3276240670020222a152f61c"),
    6: ("13eac999c7891537244c991dd33454a41786159b1a220ab0f422814371c889a0",
        "d6885b26943c603dfc963f8a4b4f7ef433b256d2c2402036279723a79d994adb",
        "0ac5bcd9cf6efde1cd5628d62c276d30937102e21b2ebe1d5f8381d07c248d6a"),
    7: ("af0f2492e4dfd9710ca4638324a4b9e6ee18b46f05639d37558bef01fd40c478",
        "69147024fcbd8dcfed2cfa606c7797657e12cab7d116f4f0bab91e17167a47ec",
        "dcd2062a59adf339f4c9c0d746ff5677f10880d6eb8a34ae7f863c7657da6cd4"),
    8: ("eecffd601a1d21cb7510a2921fa3ebbdcb29e5cec0a223e6dff37a1da8d06cc8",
        "b1377103bbd42679f6413c098678dee99cb9543e9c597b501d3ce7d2123a5609",
        "13a16acb79422c6d6032d66330f00e1252110de3548c578cc4413a3d71362203"),
    9: ("6d7b98208d56f3bfc39a24cb694936f6944d62cd2e3b8643b1d7c388b68c3596",
        "6d7b98208d56f3bfc39a24cb694936f6944d62cd2e3b8643b1d7c388b68c3596",
        "dce73fe717d576d717ead10b81f662834d1298dc022f269fb0fac8698ef62bb1"),
    10: ("e832cc37baad7508cc473182eff5685a7a1d89d0545b2f3caf05ab728ce1f5ac",
        "e832cc37baad7508cc473182eff5685a7a1d89d0545b2f3caf05ab728ce1f5ac",
        "8a70bbcb3d28405444fdbeba6a76a7c0f0ee785f6d1d27eb4932fdfa4cb90519"),
    11: ("5bdeb5bf53276b760ceaf2f0d3ab10e9175ef033f3e5c0a4ba2467fed169ec91",
        "3c06ff6cd3deb8cc3903adf57517d9125413bfd4a598ae33507b94ec1ffd8602",
        "2f1d7832adbcaa815f4eaba658dfc588287a58f0d3cb5cae8d98baf13f2f75fe"),
    12: ("5088f37c9cf00a41e89acff9fefd130ff6c6d36d66b345a8558c37d5d666785f",
        "a5671ffb0e7357c428fb4ff242751220842a430562e5d3fcd5fd127d5f98a89d",
        "8fa3bfaecd050307d50eb90e97fb29429819d548daee6324a30c701a9ef0c503"),
    13: ("65ed99532f990507567f454be0d3ff4d0522bac24ad0d94e642e4227e55edab8",
        "89d0ea6aa164b5e9380e500dc4f16efba4d4923487a1ffd992d3bfb665bea8c8",
        "c0a0ab07cdf7b0f5545e26f14f1a7c2ebfd32f062fd3af8b7987e349c50a1976"),
    14: ("69a386c884d2d4f2af8346f6e5e9fdd0dfc1a373f2d99aa4c2e783bdf0f451f5",
        "69a386c884d2d4f2af8346f6e5e9fdd0dfc1a373f2d99aa4c2e783bdf0f451f5",
        "0f9edd8bba048a43468ad4891ec7a79aa91d0a2a01c7c988df1950665df21f04"),
    15: ("3d50f0e31cda24061cdbe3438cf215d4f74fc898d72c278ab338074ddb3d8739",
        "3d50f0e31cda24061cdbe3438cf215d4f74fc898d72c278ab338074ddb3d8739",
        "2a39b60010f6ba00356ce32cada6a3043d7cf6924243e77471af75561aefe7e8"),
    16: ("40aed6f0ec42567451871eb1c40207e7f3eefa57b812504a596528fc2f7e5c17",
        "edabad0215e40da0ec55a4a00a1a6648d62b54c330e9ee0cb5571f1b1b72aed3",
        "ad5b9c485eb2660502af495cf77fbf045feaabcc4a974ee98bb638d529322c16"),
    32: ("0dd644a90df9cddc4d12bbd88787f8264dcc20cbd9314f872e32664e04aa2c5e",
         "ad45980887276947a938ea22e633765a3a90de1cf34df06987d59148abaaf822",
         "58fff1ce7743c48c3d76e875ca844e80c01414ca035106800bc4d060bb28a442"),
}


class TestPinnedArtifacts:
    @pytest.mark.parametrize("n, kind", sorted(PINNED_ARTIFACTS))
    def test_byte_identical_to_the_pin(self, n, kind, tmp_path):
        out = tmp_path / "artifact"
        command, *fmt = kind.split()
        args = [command, "--dim", str(n), "--output", str(out)]
        assert main(args + (["--format", *fmt] if fmt else [])) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == PINNED_ARTIFACTS[n, kind]

    @pytest.mark.parametrize("n", sorted(PINNED_BUILDS))
    def test_builds_match_the_pin(self, n):
        assert build_digests(n) == PINNED_BUILDS[n]


def build_digests(n):
    """sha256 of qa_to_json for the standard and the intrinsic build, and of the
    intrinsic algebra's subscript rows with its binary_label_of strings."""
    std, lam = standard_quotient_algebra(n), intrinsic_quotient_algebra(n)
    views = (subscript_table_of(lam).rows, [binary_label_of(pair) for pair in lam.pairs])
    texts = [serialize.dumps(serialize.qa_to_json(qa)) for qa in (std, lam)] + [repr(views)]
    return tuple(hashlib.sha256(text.encode()).hexdigest() for text in texts)


class TestMaximalAbelian:
    @pytest.mark.parametrize("n, shells, sample", [(4, 3, None), (8, 1, None), (6, 2, 3),
                                                   (9, 1, 3), (12, 1, 2)])
    def test_every_member_is_a_center(self, n, shells, sample, tmp_path):
        """partition, splits and decompose exit 0 on each member that maximal-abelian writes
        (a seeded sample where the whole set takes over a second)."""
        listing = tmp_path / "members.json"
        assert main(["maximal-abelian", "--dim", str(n), "--shells", str(shells),
                     "--output", str(listing)]) == 0
        members = json.loads(listing.read_text())["members"]
        if sample:
            picks = np.random.default_rng(n).choice(len(members), sample, replace=False)
            members = [members[i] for i in sorted(picks)]
        u = write_json(tmp_path / "u.json",
                       serialize.matrix_to_json(random_special_unitary(n, np.random.default_rng(n))))
        for member in members:
            center = write_json(tmp_path / "c.json", member)
            for command in (["partition"], ["splits"], ["decompose", "--input", u]):
                argv = command + ["--dim", str(n), "--center", center]
                assert main(argv + ["--output", str(tmp_path / "out.json")]) == 0, member["index"]

    def test_su4_fifteen(self, tmp_path):
        out = tmp_path / "maxab.json"
        assert main(
            ["maximal-abelian", "--dim", "4", "--shells", "2", "--output", str(out)]
        ) == 0
        payload = json.loads(out.read_text())
        assert payload["count"] == 15

    def test_su3_two_shells(self, tmp_path):
        out = tmp_path / "maxab3.json"
        assert main(
            ["maximal-abelian", "--dim", "3", "--shells", "2", "--output", str(out)]
        ) == 0


class TestDecompose:
    def test_identity_dim8(self, tmp_path, capsys):
        inp = write_json(tmp_path / "u.json", serialize.matrix_to_json(np.eye(8)))
        out = tmp_path / "fact.json"
        code = main(["decompose", "--dim", "8", "--input", inp, "--output", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["factors"] == []
        assert payload["reconstruction_error"] == 0.0
        assert "factors=0" in capsys.readouterr().err

    def test_random_su6(self, tmp_path, capsys):
        u = random_special_unitary(6, np.random.default_rng(12))
        inp = write_json(tmp_path / "u6.json", serialize.matrix_to_json(u))
        out = tmp_path / "fact6.json"
        assert main(["decompose", "--dim", "6", "--input", inp, "--output", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["reconstruction_error"] < 1e-8
        assert all(f["locality"] in ("local", "nonlocal") for f in payload["factors"])
        err = capsys.readouterr().err
        assert "reconstruction_error" in err

    def test_missing_input_exits_2(self, caplog):
        assert main(["decompose", "--dim", "4"]) == 2
        assert "decompose needs --input" in caplog.text

    def test_non_unitary_exits_2(self, tmp_path):
        inp = write_json(
            tmp_path / "m.json", serialize.matrix_to_json(np.ones((4, 4)))
        )
        assert main(["decompose", "--dim", "4", "--input", inp]) == 2

    def test_internal_failure_exits_3(self, tmp_path, monkeypatch, caplog):
        import cartankak.cli as cli
        from cartankak.errors import DecompositionError

        def boom(*args, **kwargs):
            raise DecompositionError("decomposition failed: level 2, branch L: synthetic failure")

        monkeypatch.setattr(cli, "recursive_decompose", boom)
        u = random_special_unitary(4, np.random.default_rng(0))
        inp = write_json(tmp_path / "u.json", serialize.matrix_to_json(u))
        assert main(["decompose", "--dim", "4", "--input", inp]) == 3
        assert caplog.text.count("decomposition failed:") == 1

    def test_near_collision_exits_0(self, tmp_path, near_collision):
        u, _ = near_collision(6, 1e-7, 0)
        inp = write_json(tmp_path / "u6.json", serialize.matrix_to_json(u))
        out = tmp_path / "fact6.json"
        assert main(["decompose", "--dim", "6", "--input", inp, "--output", str(out)]) == 0
        assert json.loads(out.read_text())["reconstruction_error"] < 1e-8

    def test_noisy_unitary_exits_0(self, tmp_path, noisy_unitary):
        m = noisy_unitary(8, np.random.default_rng(8))
        inp = write_json(tmp_path / "m8.json", serialize.matrix_to_json(m))
        out = tmp_path / "fact8.json"
        assert main(["decompose", "--dim", "8", "--input", inp, "--output", str(out)]) == 0
        assert json.loads(out.read_text())["reconstruction_error"] < 1e-8

    def test_unfactorable_sequence_exits_2(self, tmp_path, capsys):
        # At N = 6 the level-1 t space 010 as level 2's center leaves the first level-2
        # component two center slots for sides of 3 rows: the sequence build rejects it.
        seq = build_decomposition_sequence(standard_quotient_algebra(6), ["000", "10", "0"])
        obj = serialize.sequence_to_json(seq)
        obj["levels"][1].update(label="010",
                                center_core=serialize.space_to_json(seq.space_at("010")))
        seq_file = write_json(tmp_path / "seq6.json", obj)
        u = random_special_unitary(6, np.random.default_rng(6))
        inp = write_json(tmp_path / "u6.json", serialize.matrix_to_json(u))
        assert main(["decompose", "--dim", "6", "--input", inp, "--sequence", seq_file]) == 2
        err = capsys.readouterr().err
        message = "level 2, branch L: 2 center slots cannot pair blocks of sizes 3 and 3"
        assert f"error: {message}\n" in err

    def test_choice_bits_flag(self, tmp_path):
        u = random_special_unitary(8, np.random.default_rng(3))
        inp = write_json(tmp_path / "u8.json", serialize.matrix_to_json(u))
        out = tmp_path / "f8.json"
        assert main(
            ["decompose", "--dim", "8", "--input", inp, "--output", str(out),
             "--choice-bits", "011,10,1"]
        ) == 0
        assert json.loads(out.read_text())["reconstruction_error"] < 1e-8

    def test_sequence_file(self, tmp_path):
        from cartankak.cartan import build_decomposition_sequence

        qa = build_quotient_algebra(standard_word_center(4), standard_basis(4))
        seq = build_decomposition_sequence(qa, ["10", "1"])
        seq_file = write_json(tmp_path / "seq.json", serialize.sequence_to_json(seq))
        u = random_special_unitary(4, np.random.default_rng(4))
        inp = write_json(tmp_path / "u4.json", serialize.matrix_to_json(u))
        out = tmp_path / "f4.json"
        assert main(
            ["decompose", "--dim", "4", "--input", inp, "--sequence", seq_file,
             "--output", str(out)]
        ) == 0
        assert json.loads(out.read_text())["reconstruction_error"] < 1e-8

    def test_sequence_of_another_dim_exits_2(self, tmp_path, capsys):
        from cartankak.cartan import build_decomposition_sequence
        from cartankak.partition import intrinsic_quotient_algebra

        seq = build_decomposition_sequence(intrinsic_quotient_algebra(9))
        seq_file = write_json(tmp_path / "seq9.json", serialize.sequence_to_json(seq))
        u = random_special_unitary(16, np.random.default_rng(16))
        inp = write_json(tmp_path / "u16.json", serialize.matrix_to_json(u))
        assert main(["decompose", "--dim", "16", "--input", inp, "--sequence", seq_file]) == 2
        assert "sequence JSON has dim 9 but the algebra has dim 16" in capsys.readouterr().err


class TestVerify:
    def _qa_file(self, tmp_path, n=4):
        qa = build_quotient_algebra(standard_word_center(n), standard_basis(n))
        return qa, write_json(tmp_path / f"qa{n}.json", serialize.qa_to_json(qa))

    def test_good_algebra_passes(self, tmp_path):
        _, path = self._qa_file(tmp_path, 4)
        out = tmp_path / "report.json"
        assert main(["verify", "--input", path, "--output", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["passed"] is True
        assert len(payload["cartan_splits"]) == 4

    def test_corrupted_algebra_fails_with_diagnosis(self, tmp_path):
        qa, _ = self._qa_file(tmp_path, 4)
        payload = serialize.qa_to_json(qa)
        # Move one generator across pairs: swap a W_01 entry into W_10.
        payload["pairs"][0]["w"][0], payload["pairs"][1]["w"][0] = (
            payload["pairs"][1]["w"][0],
            payload["pairs"][0]["w"][0],
        )
        path = write_json(tmp_path / "broken.json", payload)
        out = tmp_path / "report.json"
        assert main(["verify", "--input", path, "--output", str(out)]) == 1
        report = json.loads(out.read_text())
        assert report["passed"] is False
        assert report["failures"]
        assert any("W_" in f["left"] for f in report["failures"])

    def test_each_split_validated_once(self, tmp_path, monkeypatch):
        calls = []
        validate = CartanSplit.validate

        def counted(self, *args, **kwargs):
            calls.append(self.choice_bits)
            return validate(self, *args, **kwargs)

        monkeypatch.setattr(CartanSplit, "validate", counted)
        _, path = self._qa_file(tmp_path, 8)
        assert main(["verify", "--input", path]) == 0
        assert sorted(calls) == [format(b, "03b") for b in range(8)]

    @pytest.mark.parametrize("n", [15, 16])
    def test_verify_partition_output(self, tmp_path, n):
        qa, report = tmp_path / f"qa{n}.json", tmp_path / "report.json"
        assert main(["partition", "--dim", str(n), "--output", str(qa)]) == 0
        assert main(["verify", "--input", str(qa), "--output", str(report)]) == 0
        payload = json.loads(report.read_text())
        assert payload["passed"] is True and payload["failures"] == []
        assert [s["choice_bits"] for s in payload["cartan_splits"]] == [
            format(b, "04b") for b in range(16)
        ]
        assert all(s["ok"] for s in payload["cartan_splits"])

    def test_bell_center_round_trip(self, tmp_path):
        # The center {p1p1, p2p2, p3p3}: its pairs get labels from structure alone.
        center = write_json(tmp_path / "bell.json", serialize.space_to_json(AbelianSpace(
            tuple(word(s, s) for s in ("p1", "p2", "p3")))))
        qa, report = tmp_path / "qa.json", tmp_path / "report.json"
        assert main(["partition", "--dim", "4", "--center", center, "--output", str(qa)]) == 0
        assert main(["verify", "--input", str(qa), "--output", str(report)]) == 0
        assert all(s["ok"] for s in json.loads(report.read_text())["cartan_splits"])

    def test_removed_su6_passes(self, tmp_path, lambda_qa):
        path = write_json(tmp_path / "qa6l.json", serialize.qa_to_json(lambda_qa(6)))
        assert main(["verify", "--input", path]) == 0

    @pytest.mark.parametrize("p", [0, 1, 3])
    def test_wrong_p_exits_2(self, tmp_path, p, capsys):
        qa, _ = self._qa_file(tmp_path, 4)
        payload = dict(serialize.qa_to_json(qa), p=p)
        path = write_json(tmp_path / "wrong_p.json", payload)
        assert main(["verify", "--input", path]) == 2
        assert f"algebra JSON has p={p}; dim 4 needs p=2" in capsys.readouterr().err

    def test_generator_dim_other_than_dim_exits_2(self, tmp_path, capsys):
        qa, _ = self._qa_file(tmp_path, 4)
        payload = dict(serialize.qa_to_json(qa), dim=8, p=3)
        path = write_json(tmp_path / "wrong_dim.json", payload)
        assert main(["verify", "--input", path]) == 2
        assert "algebra JSON has dim 8 but a generator of dim 4" in capsys.readouterr().err

    def test_malformed_json_exits_2(self, tmp_path):
        bad = tmp_path / "junk.json"
        bad.write_text("{not json")
        assert main(["verify", "--input", bad.as_posix()]) == 2

    def test_missing_input_exits_2(self):
        assert main(["verify"]) == 2

    def test_object_without_pairs_is_malformed_input(self, tmp_path, capsys):
        qa, _ = self._qa_file(tmp_path, 4)
        payload = serialize.qa_to_json(qa)
        del payload["pairs"]
        path = write_json(tmp_path / "no_pairs.json", payload)
        assert main(["verify", "--input", path]) == 2
        assert "error: malformed input ('pairs')" in capsys.readouterr().err


class TestEveryDimensionReadsBack:
    """Both representations at N = 2..16: the algebra's JSON reads back to the
    same bytes, and verify passes on it (on partition's own output for the
    standard algebra)."""

    @pytest.mark.parametrize("build", [standard_quotient_algebra, intrinsic_quotient_algebra],
                             ids=["standard", "intrinsic"])
    @pytest.mark.parametrize("n", range(2, 17))
    def test_verify_passes_and_the_json_round_trips(self, n, build, tmp_path):
        text = serialize.dumps(serialize.qa_to_json(build(n)))
        again = serialize.qa_from_json(json.loads(text))
        assert serialize.dumps(serialize.qa_to_json(again)) == text
        qa, report = tmp_path / "qa.json", tmp_path / "report.json"
        if build is standard_quotient_algebra:
            assert main(["partition", "--dim", str(n), "--output", str(qa)]) == 0
            assert qa.read_text() == text
        else:
            qa.write_text(text)
        assert main(["verify", "--input", str(qa), "--output", str(report)]) == 0
        assert json.loads(report.read_text())["passed"] is True

    @pytest.mark.parametrize("build", [standard_quotient_algebra, intrinsic_quotient_algebra],
                             ids=["standard", "intrinsic"])
    @pytest.mark.parametrize("n", range(2, 17))
    def test_splits_and_sequences_read_back(self, n, build):
        """The algebra read back from its JSON writes every split to the same bytes,
        and a sequence read back from its JSON writes itself to the same bytes, for
        the default sequence and the all-ones one."""
        qa = build(n)
        again = serialize.qa_from_json(json.loads(serialize.dumps(serialize.qa_to_json(qa))))
        for bits in enumerate_t_choices(qa):
            text = serialize.dumps(serialize.split_to_json(build_cartan_split(qa, bits, False)))
            assert serialize.dumps(serialize.split_to_json(
                build_cartan_split(again, bits, False))) == text, bits
        for choices in (None, ["1" * (qa.p - k) for k in range(qa.p)]):
            text = serialize.dumps(serialize.sequence_to_json(
                build_decomposition_sequence(qa, choices)))
            seq = serialize.sequence_from_json(json.loads(text), qa)
            assert serialize.dumps(serialize.sequence_to_json(seq)) == text, choices

    @pytest.mark.parametrize("n, center", [(4, None), (8, None), (9, None), (16, None),
                                           (4, "x-word"), (8, "x-word")])
    def test_decompose_artifact_rebuilds_its_input(self, n, center, tmp_path):
        """The product of expm(i angle G) over the artifact's factors, each G read from
        its label or matrix, times the global phase, is as far from the input as
        the artifact's reconstruction_error says."""
        u = np.exp(0.5j) * random_special_unitary(n, np.random.default_rng(2100 + n))
        args = ["decompose", "--dim", str(n), "--output", str(tmp_path / "f.json"),
                "--input", write_json(tmp_path / "u.json", serialize.matrix_to_json(u))]
        if center:  # every word of p0 and p1 but the identity: a center that is not diagonal
            words = itertools.islice(itertools.product(("p0", "p1"), repeat=n.bit_length() - 1),
                                     1, None)
            space = [serialize.generator_to_json(word(*w)) for w in words]
            args += ["--center", write_json(tmp_path / "c.json", space)]
        assert main(args) == 0
        artifact = json.loads((tmp_path / "f.json").read_text())
        rebuilt = np.eye(n, dtype=complex)
        for f in artifact["factors"]:
            g = serialize.generator_from_json(f["generator"]).matrix
            rebuilt = rebuilt @ scipy.linalg.expm(1j * f["angle"] * g)
        rebuilt *= complex(*artifact["global_phase"])
        assert artifact["factors"]
        assert abs(np.linalg.norm(rebuilt - u) - artifact["reconstruction_error"]) < 1e-12


class TestOptions:
    # Each option here is one that this subcommand does not read.
    @pytest.mark.parametrize("argv", [
        ["splits", "--dim", "4", "--format", "json"],
        ["maximal-abelian", "--dim", "4", "--format", "json"],
        ["decompose", "--dim", "4", "--format", "table"],
        ["verify", "--format", "json"],
        ["partition", "--dim", "4", "--input", "qa.json"],
        ["splits", "--dim", "4", "--input", "qa.json"],
        ["maximal-abelian", "--dim", "4", "--input", "qa.json"],
        ["maximal-abelian", "--dim", "4", "--center", "intrinsic"],
        ["verify", "--center", "intrinsic"],
    ])
    def test_removed_option_exits_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {argv[-2]}" in capsys.readouterr().err


class TestEntryPoint:
    def test_console_script_help(self):
        import subprocess
        import sys

        result = subprocess.run(
            [sys.executable, "-m", "cartankak.cli", "--help"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert "partition" in result.stdout and "decompose" in result.stdout

    def test_no_cli_command_loads_scipy(self, tmp_path):
        """partition, verify and decompose at N=4 and N=9 run on NumPy alone."""
        import subprocess
        import sys
        from pathlib import Path

        import cartankak

        script = (
            "import sys\n"
            "from cartankak import cli\n"
            "for n in (4, 9):\n"
            "    d = sys.argv[1]\n"
            "    qa = f'{d}/qa{n}.json'\n"
            "    assert cli.main(['partition', '--dim', str(n), '--output', qa]) == 0\n"
            "    assert cli.main(['verify', '--input', qa, '--output', f'{d}/r{n}.json']) == 0\n"
            "    argv = ['--input', f'{d}/u{n}.json', '--output', f'{d}/f{n}.json']\n"
            "    assert cli.main(['decompose', '--dim', str(n)] + argv) == 0\n"
            "assert 'scipy' not in sys.modules, sorted(m for m in sys.modules if 'scipy' in m)\n"
        )
        for n in (4, 9):
            u = random_special_unitary(n, np.random.default_rng(n))
            write_json(tmp_path / f"u{n}.json", serialize.matrix_to_json(u))
        src = str(Path(cartankak.__file__).resolve().parent.parent)
        result = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path)],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert result.returncode == 0, result.stderr

    def test_decompose_does_not_import_numpy_ma(self, tmp_path):
        """A fresh decompose process finds unique slots without np.unique, whose first
        call imports numpy.ma (about 9 ms)."""
        import subprocess
        import sys
        from pathlib import Path

        import cartankak

        script = (
            "import sys\n"
            "from cartankak import cli\n"
            "d = sys.argv[1]\n"
            "argv = ['--input', f'{d}/u9.json', '--output', f'{d}/f9.json']\n"
            "assert cli.main(['decompose', '--dim', '9'] + argv) == 0\n"
            "assert 'numpy.ma' not in sys.modules\n"
        )
        u = random_special_unitary(9, np.random.default_rng(9))
        write_json(tmp_path / "u9.json", serialize.matrix_to_json(u))
        src = str(Path(cartankak.__file__).resolve().parent.parent)
        result = subprocess.run([sys.executable, "-c", script, str(tmp_path)], capture_output=True,
                                text=True, env={**os.environ, "PYTHONPATH": src})
        assert result.returncode == 0, result.stderr


class TestLambdaDimension:
    @staticmethod
    def _session(root, inp):
        root.mkdir()
        qa, report, fact = root / "qa9.json", root / "report.json", root / "fact9.json"
        assert main(["partition", "--dim", "9", "--output", str(qa)]) == 0
        assert main(["verify", "--input", str(qa), "--output", str(report)]) == 0
        assert main(["decompose", "--dim", "9", "--input", inp, "--output", str(fact)]) == 0
        return [path.read_bytes() for path in (qa, report, fact)]

    def test_su9_partition_verify_decompose(self, tmp_path):
        u = random_special_unitary(9, np.random.default_rng(9))
        inp = write_json(tmp_path / "u9.json", serialize.matrix_to_json(u))
        first = self._session(tmp_path / "a", inp)
        factors = json.loads(first[2])["factors"]
        assert factors and all(f["locality"] is None for f in factors)
        assert self._session(tmp_path / "b", inp) == first
