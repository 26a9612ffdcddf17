"""Command-line behavior: artifacts, exit codes, determinism."""

import hashlib
import json
import os

import numpy as np
import pytest

from cartankak import serialize
from cartankak.cartan import CartanSplit
from cartankak._linalg import random_special_unitary
from cartankak.cli import main
from cartankak.generators import make_tensor_word
from cartankak.partition import build_quotient_algebra, standard_basis, standard_word_center


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

    def test_center_leaving_word_basis_exits_2(self, tmp_path):
        center = write_json(
            tmp_path / "c3.json",
            [serialize.generator_to_json(word("g1")),
             serialize.generator_to_json(word("g8"))],
        )
        assert main(["partition", "--dim", "3", "--center", center]) == 2

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


# sha256 of the artifacts as first pinned. They hold labels and bits only, no
# floating-point values, so their bytes do not depend on the BLAS build.
PINNED_ARTIFACTS = {
    (4, "partition json"): "c992592fc120e065bfb5ac486a79127c36c6d787e6467e688effa091dfbd8887",
    (4, "partition table"): "c2aae458c3d66134438227d60172b152d9697ccf8a9a085245bb7aa5950517fb",
    (4, "splits"): "4476bce1b1dff3774c86c4d667ce87329e982278b3ece618d9e29c69efe8fcf0",
    (9, "partition json"): "6d7b98208d56f3bfc39a24cb694936f6944d62cd2e3b8643b1d7c388b68c3596",
    (9, "partition table"): "b09b9dba7d6e9b796c5ad206b2f35283bd51559065eaa273b237a8279d47d5d9",
    (9, "splits"): "63d9275a286bb8843555ee6ce3e7b324395f94ab35c0f5d27ca11e8a66da9675",
    (12, "partition json"): "5088f37c9cf00a41e89acff9fefd130ff6c6d36d66b345a8558c37d5d666785f",
    (12, "partition table"): "7a6f95cec47b98f57a75bf79a6a45f6f4610f470b2841f604394abafbd58a096",
    (12, "splits"): "5f398ba44907d22dd40fee329f9dc5b2f0a78094b765baada8c011539e259631",
    (16, "partition json"): "40aed6f0ec42567451871eb1c40207e7f3eefa57b812504a596528fc2f7e5c17",
    (16, "partition table"): "5da1d4cb61dca8336a5a04f5934d0956b72ef6ef8805b51972d9c7eeb6c9acf5",
    (16, "splits"): "5d3d4c1f99841e244545642195ac3b59ec510a45aebfce3af9267d381ea0c9c9",
}


class TestPinnedArtifacts:
    @pytest.mark.parametrize("n, kind", sorted(PINNED_ARTIFACTS))
    def test_byte_identical_to_the_pin(self, n, kind, tmp_path):
        out = tmp_path / "artifact"
        command, *fmt = kind.split()
        args = [command, "--dim", str(n), "--output", str(out)]
        assert main(args + (["--format", *fmt] if fmt else [])) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == PINNED_ARTIFACTS[n, kind]


class TestMaximalAbelian:
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

    def test_non_unitary_exits_2(self, tmp_path):
        inp = write_json(
            tmp_path / "m.json", serialize.matrix_to_json(np.ones((4, 4)))
        )
        assert main(["decompose", "--dim", "4", "--input", inp]) == 2

    def test_internal_failure_exits_3(self, tmp_path, monkeypatch):
        import cartankak.cli as cli
        from cartankak.errors import DecompositionError

        def boom(*args, **kwargs):
            raise DecompositionError("level 2, left branch: synthetic failure")

        monkeypatch.setattr(cli, "recursive_decompose", boom)
        u = random_special_unitary(4, np.random.default_rng(0))
        inp = write_json(tmp_path / "u.json", serialize.matrix_to_json(u))
        assert main(["decompose", "--dim", "4", "--input", inp]) == 3

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

    def test_seed_does_not_change_factors(self, tmp_path):
        u = random_special_unitary(4, np.random.default_rng(5))
        inp = write_json(tmp_path / "u4.json", serialize.matrix_to_json(u))
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["decompose", "--dim", "4", "--input", inp, "--output", str(a)]) == 0
        assert main(["decompose", "--dim", "4", "--input", inp, "--output", str(b),
                     "--seed", "7"]) == 0
        assert a.read_bytes() == b.read_bytes()

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
