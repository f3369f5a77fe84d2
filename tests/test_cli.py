import numpy as np
import pytest

from kashin import cli, conversion, formats, frames, linalg, quantize, uncertainty


def _value(out: str, label: str) -> float:
    for line in out.splitlines():
        if line.startswith(label):
            return float(line.rsplit(":", 1)[1])
    raise AssertionError(f"no line starting with {label!r} in:\n{out}")


def _write_input(tmp_path, n, seed=3):
    g = linalg.rng_from_seed(seed)
    x = g.standard_normal(n) + 1j * g.standard_normal(n)
    x /= np.linalg.norm(x)
    path = tmp_path / "x.vec"
    formats.write_vector(path, x)
    return path, x


@pytest.fixture()
def frame_file(tmp_path):
    path = tmp_path / "f.kfrm"
    assert cli.run([
        "gen-frame", "--family", "orthogonal", "--n", "8", "--N", "16",
        "--seed", "11", "--out", str(path),
    ]) == 0
    return path


class TestExitCodes:
    def test_missing_required_flag(self, tmp_path):
        assert cli.run(["gen-frame", "--family", "orthogonal"]) == 1

    def test_unknown_subcommand(self):
        assert cli.run(["transmogrify"]) == 1

    def test_unknown_family(self, tmp_path):
        assert cli.run([
            "gen-frame", "--family", "wavelet", "--n", "4", "--N", "8",
            "--out", str(tmp_path / "f.kfrm"),
        ]) == 1

    def test_missing_file(self, tmp_path):
        assert cli.run(["info", str(tmp_path / "nope.kfrm")]) == 1

    def test_corrupt_magic(self, tmp_path):
        bad = tmp_path / "bad.kfrm"
        bad.write_bytes(b"JUNKJUNKJUNKJUNKJUNK")
        assert cli.run(["info", str(bad)]) == 1

    def test_encode_needs_exactly_one_stopping_rule(self, tmp_path,
                                                    frame_file):
        vec, _ = _write_input(tmp_path, 8)
        out = str(tmp_path / "c.kcof")
        base = ["encode", str(frame_file), "--in", str(vec), "--eta", "0.97",
                "--delta", "0.125", "--out", out]
        assert cli.run(base) == 1
        assert cli.run(base + ["--iters", "2", "--accuracy", "0.5"]) == 1

    def test_contract_violations_exit_two(self, tmp_path, frame_file):
        vec, _ = _write_input(tmp_path, 8)
        out = str(tmp_path / "c.kcof")
        # clipping losses stack with eta until contraction is impossible
        assert cli.run([
            "encode", str(frame_file), "--in", str(vec), "--eta", "0.8",
            "--delta", "0.125", "--iters", "2", "--approx-trunc", "0.9,0.5",
            "--out", out,
        ]) == 2
        # support fraction too small for even one coordinate
        assert cli.run([
            "up-check", str(frame_file), "--delta", "0.001", "--exact",
        ]) == 2
        # real-only quantization of coefficients with imaginary parts
        assert cli.run([
            "encode", str(frame_file), "--in", str(vec), "--eta", "0.97",
            "--delta", "0.125", "--iters", "2", "--out", out,
        ]) == 0
        assert cli.run([
            "quantize", "--in", out, "--levels", "8", "--real",
            "--out", str(tmp_path / "q.kcof"),
        ]) == 2

    def test_malformed_approx_trunc_flag(self, tmp_path, frame_file):
        vec, _ = _write_input(tmp_path, 8)
        assert cli.run([
            "encode", str(frame_file), "--in", str(vec), "--eta", "0.9",
            "--delta", "0.125", "--iters", "1", "--approx-trunc", "0.9",
            "--out", str(tmp_path / "c.kcof"),
        ]) == 1


class TestFrameCommands:
    def test_gen_and_info_golden(self, tmp_path, capsys):
        path = tmp_path / "f.kfrm"
        assert cli.run([
            "gen-frame", "--family", "orthogonal", "--n", "4", "--N", "8",
            "--seed", "7", "--out", str(path),
        ]) == 0
        out = capsys.readouterr().out
        assert _value(out, "tightness epsilon") <= 1e-9

        assert cli.run(["info", str(path)]) == 0
        out = capsys.readouterr().out
        assert "kind: dense" in out
        assert _value(out, "n") == 4
        assert _value(out, "N") == 8
        assert abs(_value(out, "frame-norm sum") - 4.0) <= 1e-8

    def test_fourier_family(self, tmp_path, capsys):
        path = tmp_path / "pf.kfrm"
        assert cli.run([
            "gen-frame", "--family", "fourier", "--n", "4", "--N", "8",
            "--seed", "2", "--out", str(path),
        ]) == 0
        capsys.readouterr()
        assert cli.run(["info", str(path)]) == 0
        out = capsys.readouterr().out
        assert "partial-fourier" in out
        assert abs(_value(out, "frame-norm sum") - 4.0) <= 1e-8

    def test_up_check_exact_matches_library(self, tmp_path, capsys):
        path = tmp_path / "f.kfrm"
        cli.run([
            "gen-frame", "--family", "orthogonal", "--n", "4", "--N", "8",
            "--seed", "7", "--out", str(path),
        ])
        capsys.readouterr()
        assert cli.run([
            "up-check", str(path), "--delta", "0.125", "--exact",
        ]) == 0
        out = capsys.readouterr().out
        eta_cli = _value(out, "eta (exact)")
        frame = formats.read_frame(path)
        eta_lib, witness = uncertainty.up_check_exact(frame, 0.125)
        assert eta_cli == float(format(eta_lib, ".17g"))
        assert f"worst support: {list(witness.support)}" in out
        assert eta_cli == pytest.approx(0.83796101854304927, abs=1e-12)

    def test_up_check_estimated_matches_library(self, frame_file, capsys):
        assert cli.run([
            "up-check", str(frame_file), "--delta", "0.125", "--trials", "50",
            "--seed", "4",
        ]) == 0
        out = capsys.readouterr().out
        frame = formats.read_frame(frame_file)
        eta_lib, _ = uncertainty.up_estimate(frame, 0.125, trials=50, seed=4)
        assert _value(out, "eta (estimated") == float(format(eta_lib, ".17g"))


class TestCodecCommands:
    def test_encode_is_a_thin_wrapper(self, tmp_path, frame_file, capsys):
        vec, x = _write_input(tmp_path, 8)
        out = tmp_path / "c.kcof"
        assert cli.run([
            "encode", str(frame_file), "--in", str(vec), "--eta", "0.97",
            "--delta", "0.125", "--iters", "3", "--out", str(out),
        ]) == 0
        printed = capsys.readouterr().out

        frame = formats.read_frame(frame_file)
        cfg = conversion.ConversionConfig(
            up=uncertainty.UPParams(eta=0.97, delta=0.125),
            truncation=conversion.TruncationSpec(),
            iterations=3,
            frame_epsilon=frame.tightness_eps + 1e-12,
        )
        rep = conversion.kashin_encode(frame, x, cfg)
        assert out.read_bytes() == formats.representation_to_bytes(rep)
        assert _value(printed, "level K") == float(
            format(rep.level_K, ".17g")
        )
        assert _value(printed, "iterations") == rep.iterations_used

    def test_encode_decode_round_trip_within_printed_bound(
            self, tmp_path, frame_file, capsys):
        vec, x = _write_input(tmp_path, 8)
        coef = tmp_path / "c.kcof"
        assert cli.run([
            "encode", str(frame_file), "--in", str(vec), "--eta", "0.97",
            "--delta", "0.125", "--iters", "4", "--exact-last",
            "--out", str(coef),
        ]) == 0
        bound = _value(capsys.readouterr().out, "residual bound")
        back = tmp_path / "xhat.vec"
        assert cli.run([
            "decode", str(frame_file), "--in", str(coef), "--out", str(back),
        ]) == 0
        x_hat = formats.read_vector(back)
        assert np.linalg.norm(x - x_hat) <= bound + 1e-12

    def test_binary_vector_format_flag(self, tmp_path, frame_file):
        g = linalg.rng_from_seed(9)
        x = g.standard_normal(8) + 1j * g.standard_normal(8)
        vec = tmp_path / "x.vec"
        formats.write_vector(vec, x, fmt=formats.BINARY)
        coef = tmp_path / "c.kcof"
        assert cli.run([
            "encode", str(frame_file), "--in", str(vec), "--format", "bin",
            "--eta", "0.97", "--delta", "0.125", "--iters", "2",
            "--out", str(coef),
        ]) == 0
        back = tmp_path / "xhat.vec"
        assert cli.run([
            "decode", str(frame_file), "--in", str(coef), "--format", "bin",
            "--out", str(back),
        ]) == 0
        x_hat = formats.read_vector(back, fmt=formats.BINARY)
        assert x_hat.shape == (8,)

    def test_quantize_stores_midpoints(self, tmp_path, frame_file, capsys):
        vec, _ = _write_input(tmp_path, 8)
        coef = tmp_path / "c.kcof"
        cli.run([
            "encode", str(frame_file), "--in", str(vec), "--eta", "0.97",
            "--delta", "0.125", "--iters", "3", "--out", str(coef),
        ])
        capsys.readouterr()
        quantized = tmp_path / "q.kcof"
        assert cli.run([
            "quantize", "--in", str(coef), "--levels", "8",
            "--out", str(quantized),
        ]) == 0
        printed = capsys.readouterr().out

        rep = formats.read_representation(coef)
        spec = quantize.QuantizerSpec.from_representation(
            rep, 8, complex_mode=True
        )
        want = quantize.quantize_coeffs(rep.coefficients, spec)[1]
        got = formats.read_representation(quantized)
        assert np.array_equal(got.coefficients, want)
        assert got.level_K == pytest.approx(rep.level_K * np.sqrt(2),
                                            rel=1e-12)
        assert got.residual_bound > rep.residual_bound
        assert _value(printed, "step") == float(format(spec.step, ".17g"))


class TestSimulate:
    def test_rows_and_bounds(self, tmp_path, frame_file, capsys):
        vec, _ = _write_input(tmp_path, 8)
        csv_path = tmp_path / "sim.csv"
        assert cli.run([
            "simulate", str(frame_file), "--in", str(vec),
            "--model", "erasure", "--eta", "0.97", "--delta", "0.125",
            "--damage", "0.125", "--levels", "16", "--trials", "4",
            "--seed", "21", "--csv", str(csv_path),
        ]) == 0
        out = capsys.readouterr().out
        rows = formats.read_experiment_csv(csv_path)
        assert len(rows) == 4
        assert [r.seed for r in rows] == [21, 22, 23, 24]
        assert all(r.model == "erasure" for r in rows)
        assert all(r.bound_ok for r in rows)
        assert _value(out, "trials") == 4
        assert _value(out, "bound violations") == 0

    def test_parallel_schedule_independent(self, tmp_path, frame_file):
        vec, _ = _write_input(tmp_path, 8)
        serial = tmp_path / "serial.csv"
        parallel = tmp_path / "parallel.csv"
        args = [
            "simulate", str(frame_file), "--in", str(vec),
            "--model", "adversarial", "--eta", "0.97", "--delta", "0.125",
            "--damage", "0.25", "--trials", "6", "--seed", "5",
        ]
        assert cli.run(args + ["--jobs", "1", "--csv", str(serial)]) == 0
        assert cli.run(args + ["--jobs", "3", "--csv", str(parallel)]) == 0
        assert serial.read_bytes() == parallel.read_bytes()

    def test_bit_flip_model(self, tmp_path, frame_file):
        vec, _ = _write_input(tmp_path, 8)
        csv_path = tmp_path / "flips.csv"
        assert cli.run([
            "simulate", str(frame_file), "--in", str(vec),
            "--model", "bitflip", "--eta", "0.97", "--delta", "0.125",
            "--flips", "3", "--trials", "3", "--csv", str(csv_path),
        ]) == 0
        rows = formats.read_experiment_csv(csv_path)
        assert len(rows) == 3
        assert all(r.model == "bit-flip" for r in rows)
        assert all(r.bound_ok for r in rows)


class TestBench:
    def test_decay_suite(self, tmp_path, capsys):
        csv_path = tmp_path / "decay.csv"
        assert cli.run([
            "bench", "--suite", "decay", "--trials", "2",
            "--csv", str(csv_path),
        ]) == 0
        rows = formats.read_experiment_csv(csv_path)
        assert len(rows) == 2
        assert all(r.model == "decay" for r in rows)
        assert all(r.bound_ok for r in rows)
        assert _value(capsys.readouterr().out, "bound violations") == 0

    def test_quantization_suite(self, tmp_path):
        csv_path = tmp_path / "quant.csv"
        assert cli.run([
            "bench", "--suite", "quantization", "--trials", "2",
            "--csv", str(csv_path),
        ]) == 0
        rows = formats.read_experiment_csv(csv_path)
        assert len(rows) == 6
        assert sorted({r.L for r in rows}) == [16, 64, 256]
        assert all(r.bound_ok for r in rows)

    def test_corruption_suite(self, tmp_path):
        csv_path = tmp_path / "adv.csv"
        assert cli.run([
            "bench", "--suite", "corruption", "--trials", "2",
            "--csv", str(csv_path),
        ]) == 0
        rows = formats.read_experiment_csv(csv_path)
        assert len(rows) == 6
        assert sorted({round(r.damage_fraction * 128) for r in rows}) == [1, 4, 8]
        assert all(r.bound_ok for r in rows)
