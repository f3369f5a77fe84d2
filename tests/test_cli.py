import argparse
import csv
import dataclasses
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from kashin import (
    cli, conversion, formats, frames, linalg, quantize, sweeps, uncertainty,
)

README = Path(__file__).resolve().parents[1] / "README.md"


def _value(out: str, label: str) -> float:
    for line in out.splitlines():
        if line.startswith(label):
            return float(line.rsplit(":", 1)[1])
    raise AssertionError(f"no line starting with {label!r} in:\n{out}")


def _csv_rows(path) -> list[dict[str, str]]:
    """The rows of an experiment CSV, as the standard csv module reads them."""
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


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

    def test_usage_errors_keep_their_text(self, capsys):
        assert cli.run([]) == 1
        assert capsys.readouterr().err == (
            "error: kashin: the following arguments are required: command\n"
        )
        assert cli.run(["--verbose"]) == 1
        assert "required: command" in capsys.readouterr().err
        assert cli.run(["transmogrify"]) == 1
        assert capsys.readouterr().err.startswith(
            "error: kashin: argument command: invalid choice: 'transmogrify' "
            "(choose from 'gen-frame', 'info', "
        )

    # every required argument of each subcommand, with placeholder values
    _REQUIRED = {
        "gen-frame": ["--family", "orthogonal", "--n", "4", "--N", "8", "--out", "f"],
        "info": ["f"],
        "up-check": ["f", "--delta", "0.1"],
        "encode": ["f", "--in", "x", "--eta", "0.9", "--delta", "0.1", "--iters", "3",
                   "--out", "c"],
        "decode": ["f", "--in", "c", "--out", "x"],
        "quantize": ["--in", "c", "--levels", "4", "--out", "q"],
        "simulate": ["f", "--in", "x", "--model", "erasure", "--eta", "0.9",
                     "--delta", "0.1", "--csv", "s"],
        "bench": ["--suite", "decay", "--csv", "s"],
    }

    @pytest.mark.parametrize("command", sorted(cli._COMMANDS))
    def test_bad_flag_on_each_subcommand(self, capsys, command):
        assert sorted(self._REQUIRED) == sorted(cli._COMMANDS)
        assert cli.run([command, *self._REQUIRED[command], "--bogus"]) == 1
        assert capsys.readouterr().err == (
            "error: kashin: unrecognized arguments: --bogus\n"
        )
        assert cli.run([command, "--bogus"]) == 1
        assert capsys.readouterr().err.startswith(
            f"error: kashin {command}: the following arguments are required: "
        )

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

    def test_contract_violations_exit_two(self, tmp_path, frame_file):
        vec, _ = _write_input(tmp_path, 8)
        out = str(tmp_path / "c.kcof")
        gaussian = str(tmp_path / "g.kfrm")
        assert cli.run([
            "gen-frame", "--family", "gaussian", "--n", "8", "--N", "16",
            "--out", gaussian,
        ]) == 0
        # the frame's tightness defect stacks with eta until contraction is
        # impossible
        assert cli.run([
            "encode", gaussian, "--in", str(vec), "--eta", "0.8",
            "--delta", "0.125", "--iters", "2", "--out", out,
        ]) == 2
        # support fraction too small for even one coordinate
        assert cli.run([
            "up-check", str(frame_file), "--delta", "0.001", "--exact",
        ]) == 2

    # F, X and C stand for valid frame, vector and coefficient files, OUT
    # for the output path
    @pytest.mark.parametrize("argv, message", [
        (["up-check", "F", "--delta", "0.125", "--trials", "0"],
         "argument --trials: must be at least 1, got 0"),
        (["up-check", "F", "--delta", "0", "--exact"],
         "argument --delta: must lie in (0, 1), got 0.0"),
        (["up-check", "F", "--delta", "1", "--exact"],
         "argument --delta: must lie in (0, 1), got 1.0"),
        (["encode", "F", "--in", "X", "--eta", "0.97", "--delta", "0.125",
          "--iters", "0", "--out", "OUT"],
         "argument --iters: must be at least 1, got 0"),
        (["encode", "F", "--in", "X", "--eta", "0.97", "--delta", "0.125",
          "--iters", "2.0", "--out", "OUT"],
         "argument --iters: invalid count value: '2.0'"),
        (["encode", "F", "--in", "X", "--eta", "0.97", "--delta", "1.5",
          "--iters", "2", "--out", "OUT"],
         "argument --delta: must lie in (0, 1), got 1.5"),
        (["encode", "F", "--in", "X", "--eta", "1.5", "--delta", "0.125",
          "--iters", "2", "--out", "OUT"],
         "argument --eta: must lie in (0, 1), got 1.5"),
        (["quantize", "--in", "C", "--levels", "1", "--out", "OUT"],
         "argument --levels: must be at least 2, got 1"),
        (["simulate", "F", "--in", "X", "--model", "erasure", "--eta", "0.97",
          "--delta", "0.125", "--iters", "0", "--csv", "OUT"],
         "argument --iters: must be at least 1, got 0"),
        (["simulate", "F", "--in", "X", "--model", "erasure", "--eta", "0.97",
          "--delta", "0.125", "--levels", "1", "--csv", "OUT"],
         "argument --levels: must be at least 2, got 1"),
        (["simulate", "F", "--in", "X", "--model", "bitflip", "--eta", "0.97",
          "--delta", "0.125", "--flips", "-1", "--csv", "OUT"],
         "argument --flips: must be at least 0, got -1"),
        (["simulate", "F", "--in", "X", "--model", "erasure", "--eta", "0.97",
          "--delta", "0.125", "--damage", "1.5", "--csv", "OUT"],
         "argument --damage: must lie in [0, 1), got 1.5"),
        (["simulate", "F", "--in", "X", "--model", "erasure", "--eta", "0.97",
          "--delta", "-0.5", "--csv", "OUT"],
         "argument --delta: must lie in (0, 1), got -0.5"),
        (["simulate", "F", "--in", "X", "--model", "erasure", "--eta", "0",
          "--delta", "0.125", "--csv", "OUT"],
         "argument --eta: must lie in (0, 1), got 0.0"),
        (["gen-frame", "--family", "orthogonal", "--n", "0", "--N", "8",
          "--out", "OUT"],
         "n must be a whole number >= 1, got 0"),
        (["gen-frame", "--family", "fourier", "--n", "8", "--N", "33554432",
          "--out", "OUT"],
         "partial Fourier frames need N <= 2^24, got N=33554432"),
        (["bench", "--suite", "decay", "--families", "orthogonal", "fourier",
          "--shapes", "8x16", "8x33554432", "--csv", "OUT"],
         "partial Fourier frames need N <= 2^24, got N=33554432"),
    ])
    def test_count_and_fraction_flags_are_usage_errors(self, tmp_path, capsys,
                                                       frame_file, argv,
                                                       message):
        vec, _ = _write_input(tmp_path, 8)
        kcof = tmp_path / "c.kcof"
        assert cli.run(["encode", str(frame_file), "--in", str(vec), "--eta",
                        "0.97", "--delta", "0.125", "--iters", "2",
                        "--out", str(kcof)]) == 0
        capsys.readouterr()
        out = tmp_path / "out"
        files = {"F": frame_file, "X": vec, "C": kcof, "OUT": out}
        assert cli.run([str(files.get(arg, arg)) for arg in argv]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: kashin {argv[0]}: {message}\n"
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("command", ["encode", "simulate"])
    @pytest.mark.parametrize("fmt", [formats.ASCII, formats.BINARY])
    def test_a_non_finite_vector_entry_is_a_malformed_file(
            self, tmp_path, capsys, frame_file, command, fmt):
        vec = tmp_path / "x.vec"
        x = np.full(8, 0.25 + 0j)
        x[5] = complex(0.25, math.nan)
        formats.write_vector(vec, x, fmt)
        capsys.readouterr()
        out = tmp_path / "out"
        argv = {
            "encode": ["--iters", "2", "--out", str(out)],
            "simulate": ["--model", "erasure", "--csv", str(out)],
        }[command]
        assert cli.run([command, str(frame_file), "--in", str(vec),
                        "--format", fmt, "--eta", "0.97", "--delta", "0.125",
                        *argv]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: vector entry 6 is NaN or infinite\n"
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["gen-frame", "--family", "orthogonal", "--n", "8", "--N", "16",
         "--out", "OUT"],
        ["up-check", "F", "--delta", "0.125"],
        ["simulate", "F", "--in", "X", "--model", "erasure", "--eta", "0.97",
         "--delta", "0.125", "--csv", "OUT"],
        ["bench", "--suite", "decay", "--csv", "OUT"],
    ])
    def test_a_negative_seed_is_a_usage_error(self, tmp_path, capsys,
                                              frame_file, argv):
        vec, _ = _write_input(tmp_path, 8)
        capsys.readouterr()
        out = tmp_path / "out"
        files = {"F": frame_file, "X": vec, "OUT": out}
        assert cli.run([str(files.get(arg, arg)) for arg in argv]
                       + ["--seed", "-1"]) == 1
        captured = capsys.readouterr()
        assert captured.err == (f"error: kashin {argv[0]}: argument --seed: "
                                "must be at least 0, got -1\n")
        assert captured.out == ""
        assert not out.exists()

    # flags whose values argparse reads as plain numbers, each with the
    # reason its rule is checked elsewhere
    UNTYPED = {
        "gen-frame --n": "1 <= n <= N spans two flags; FrameFamily checks it",
        "gen-frame --N": "1 <= n <= N spans two flags; FrameFamily checks it",
    }

    def test_every_numeric_flag_checks_its_rule_as_it_parses(self):
        untyped = set()
        for name, (_, _, add_arguments) in cli._COMMANDS.items():
            parser = argparse.ArgumentParser(add_help=False)
            add_arguments(parser)
            untyped |= {f"{name} {flag}" for action in parser._actions
                        if action.type in (int, float)
                        for flag in action.option_strings}
        assert untyped == set(self.UNTYPED)


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

    @pytest.mark.parametrize("family", ["orthogonal", "fourier", "gaussian", "bernoulli"])
    def test_gen_frame_writes_the_generated_frame(self, tmp_path, capsys, family):
        path = tmp_path / "f.kfrm"
        assert cli.run([
            "gen-frame", "--family", family, "--n", "6", "--N", "16",
            "--seed", "5", "--out", str(path),
        ]) == 0
        frame = frames.generate(frames.FrameFamily(cli._FAMILY_FLAGS[family], 6, 16, 5))
        expected = tmp_path / "expected.kfrm"
        formats.write_frame(expected, frame)
        assert path.read_bytes() == expected.read_bytes()
        assert capsys.readouterr().out == (
            f"wrote {path}: {family} n=6 N=16\n"
            f"tightness epsilon: {frame.tightness_eps:.6e}\n"
        )
        assert cli.run([
            "gen-frame", "--family", family, "--n", "16", "--N", "6",
            "--out", str(tmp_path / "bad.kfrm"),
        ]) == 1

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

    def test_decode_does_not_measure_tightness(self, tmp_path, frame_file,
                                               monkeypatch):
        vec, x = _write_input(tmp_path, 8)
        coef = tmp_path / "c.kcof"
        assert cli.run([
            "encode", str(frame_file), "--in", str(vec), "--eta", "0.97",
            "--delta", "0.125", "--iters", "4", "--exact-last",
            "--out", str(coef),
        ]) == 0

        def refuse(frame):
            raise AssertionError("decode measured the frame's tightness")

        monkeypatch.setattr(frames, "measure_tightness", refuse)
        back = tmp_path / "xhat.vec"
        assert cli.run([
            "decode", str(frame_file), "--in", str(coef), "--out", str(back),
        ]) == 0
        assert formats.read_vector(back).shape == (8,)

    def test_encode_on_tight_frame_runs_no_eigen_solve(self, tmp_path,
                                                       monkeypatch):
        frame = tmp_path / "f.kfrm"
        assert cli.run([
            "gen-frame", "--family", "orthogonal", "--n", "64", "--N", "128",
            "--seed", "5", "--out", str(frame),
        ]) == 0
        vec, _ = _write_input(tmp_path, 64)

        def refuse(*args, **kwargs):
            raise AssertionError("encode ran an eigen-solve")

        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        monkeypatch.setattr(np.linalg, "eigh", refuse)
        assert cli.run([
            "encode", str(frame), "--in", str(vec), "--eta", "0.95",
            "--delta", "0.05", "--iters", "8",
            "--out", str(tmp_path / "c.kcof"),
        ]) == 0

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

    @pytest.mark.parametrize("family", ["orthogonal", "fourier"])
    def test_quantize_picks_the_mode_from_the_coefficients(self, tmp_path,
                                                          family):
        frame_path, vec = tmp_path / "f.kfrm", tmp_path / "x.vec"
        coef, quantized = tmp_path / "c.kcof", tmp_path / "q.kcof"
        back = tmp_path / "xhat.vec"
        assert cli.run([
            "gen-frame", "--family", family, "--n", "64", "--N", "128",
            "--seed", "7", "--out", str(frame_path),
        ]) == 0
        x = linalg.rng_from_seed(2).standard_normal(64)
        formats.write_vector(vec, x / np.linalg.norm(x))
        x = formats.read_vector(vec)
        for argv in (
            ["encode", str(frame_path), "--in", str(vec), "--eta", "0.95",
             "--delta", "0.05", "--iters", "20", "--out", str(coef)],
            ["quantize", "--in", str(coef), "--levels", "64",
             "--out", str(quantized)],
            ["decode", str(frame_path), "--in", str(quantized),
             "--out", str(back)],
        ):
            assert cli.run(argv) == 0

        rep = formats.read_representation(coef)
        spec = quantize.QuantizerSpec.from_representation(rep, 64)
        assert spec.complex_mode == (family == "fourier")
        got = formats.read_representation(quantized)
        assert np.array_equal(
            got.coefficients, quantize.quantize_coeffs(rep.coefficients, spec)[1])
        assert got.residual_bound == (
            rep.residual_bound + spec.error_bound(rep.coefficients))
        x_hat = formats.read_vector(back)
        if family == "orthogonal":
            # a real frame's coefficients are quantized in real mode, so the
            # decoded vector stays real
            assert got.level_K == rep.level_K
            assert not np.any(x_hat.imag)
        else:
            assert got.level_K == rep.level_K * math.sqrt(2.0)
            assert np.any(got.coefficients.imag)
        assert np.linalg.norm(x - x_hat) <= got.residual_bound

    @pytest.mark.parametrize("family", ["orthogonal", "fourier"])
    @pytest.mark.parametrize("norm", [1e-13, 1e-100, 1e-300])
    def test_quantize_keeps_imaginary_parts_at_tiny_norms(self, tmp_path,
                                                         family, norm):
        frame_path = tmp_path / "f.kfrm"
        coef, quantized = tmp_path / "c.kcof", tmp_path / "q.kcof"
        vec, x = _write_input(tmp_path, 64)
        formats.write_vector(vec, x * norm)
        for argv in (
            ["gen-frame", "--family", family, "--n", "64", "--N", "128",
             "--seed", "7", "--out", str(frame_path)],
            ["encode", str(frame_path), "--in", str(vec), "--eta", "0.95",
             "--delta", "0.05", "--iters", "20", "--out", str(coef)],
            ["quantize", "--in", str(coef), "--levels", "64",
             "--out", str(quantized)],
        ):
            assert cli.run(argv) == 0
        rep, got = formats.read_representation(coef), formats.read_representation(quantized)
        assert got.level_K == rep.level_K * math.sqrt(2.0)
        assert np.any(got.coefficients.imag)

    @pytest.mark.parametrize("family", ["orthogonal", "fourier"])
    def test_quantize_writes_a_zero_input_back_unchanged(self, tmp_path, capsys,
                                                         family):
        frame_path, vec = tmp_path / "f.kfrm", tmp_path / "x.vec"
        coef, quantized = tmp_path / "c.kcof", tmp_path / "q.kcof"
        formats.write_vector(vec, np.zeros(8))
        assert cli.run([
            "gen-frame", "--family", family, "--n", "8", "--N", "16",
            "--out", str(frame_path),
        ]) == 0
        assert cli.run([
            "encode", str(frame_path), "--in", str(vec), "--eta", "0.97",
            "--delta", "0.125", "--iters", "3", "--out", str(coef),
        ]) == 0
        capsys.readouterr()
        assert cli.run([
            "quantize", "--in", str(coef), "--levels", "16",
            "--out", str(quantized),
        ]) == 0
        printed = capsys.readouterr().out
        assert quantized.read_bytes() == coef.read_bytes()
        assert _value(printed, "levels") == 16
        assert _value(printed, "residual bound") == 0.0
        assert "step: " in printed

    def test_quantize_has_no_real_flag(self, capsys):
        assert cli.run([
            "quantize", "--in", "c.kcof", "--levels", "8", "--real",
            "--out", "q.kcof",
        ]) == 1
        assert capsys.readouterr().err == (
            "error: kashin: unrecognized arguments: --real\n"
        )


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
        rows = _csv_rows(csv_path)
        assert len(rows) == 4
        assert [r["seed"] for r in rows] == ["21", "22", "23", "24"]
        assert all(r["model"] == "erasure" for r in rows)
        assert all(r["bound_ok"] == "true" for r in rows)
        assert _value(out, "trials") == 4
        assert _value(out, "bound violations") == 0

    @pytest.mark.parametrize("family", ["orthogonal", "fourier"])
    @pytest.mark.parametrize("flag", sorted(cli._MODEL_FLAGS))
    def test_rows_equal_per_trial_reports(self, tmp_path, family, flag):
        path = tmp_path / "f.kfrm"
        assert cli.run([
            "gen-frame", "--family", family, "--n", "16", "--N", "32",
            "--seed", "4", "--out", str(path),
        ]) == 0
        g = linalg.rng_from_seed(6)
        x = g.standard_normal(16)
        vec = tmp_path / "x.vec"
        formats.write_vector(vec, x / np.linalg.norm(x))
        csv_path = tmp_path / "sim.csv"
        assert cli.run([
            "simulate", str(path), "--in", str(vec), "--model", flag,
            "--eta", "0.97", "--delta", "0.125", "--damage", "0.125",
            "--flips", "3", "--trials", "5", "--seed", "40",
            "--csv", str(csv_path),
        ]) == 0

        frame = formats.read_frame(path)
        x = formats.read_vector(vec)
        cfg = conversion.ConversionConfig(
            up=uncertainty.UPParams(eta=0.97, delta=0.125),
            truncation=conversion.TruncationSpec(),
            iterations=8,
            frame_epsilon=frame.tightness_eps + 1e-12,
        )
        rep = conversion.kashin_encode(frame, x, cfg)
        complex_mode = quantize.has_imaginary_mass(rep.coefficients, rep.input_norm)
        assert complex_mode == (family == "fourier")
        spec = quantize.QuantizerSpec.from_representation(
            rep, 64, complex_mode=complex_mode
        )
        rows = _csv_rows(csv_path)
        assert [int(r["seed"]) for r in rows] == list(range(40, 45))
        # a .kfrm records the frame's kind, not the family that generated it
        kind = {"orthogonal": "dense", "fourier": "partial-fourier"}[family]
        assert all(r["family"] == kind for r in rows)
        for row in rows:
            model = quantize.ErrorModel(
                tag=cli._MODEL_FLAGS[flag], damage_fraction=0.125,
                flip_count=3, seed=int(row["seed"]),
            )
            report = quantize.distortion_experiment(frame, x, rep, spec, model)
            assert row["model"] == model.tag
            assert (float(row["l2_error"]), float(row["bound"]), row["bound_ok"]) == (
                report.l2_error, report.theoretical_bound,
                str(report.bound_satisfied).lower(),
            )

    @pytest.mark.parametrize("trials", ["0", "-2"])
    def test_trial_count_below_one_is_a_usage_error(self, tmp_path, frame_file,
                                                     capsys, trials):
        vec, _ = _write_input(tmp_path, 8)
        csv_path = tmp_path / "sim.csv"
        assert cli.run([
            "simulate", str(frame_file), "--in", str(vec),
            "--model", "erasure", "--eta", "0.97", "--delta", "0.125",
            "--trials", trials, "--csv", str(csv_path),
        ]) == 1
        captured = capsys.readouterr()
        assert captured.err == (
            "error: kashin simulate: argument --trials: must be at least 1, "
            f"got {trials}\n"
        )
        assert captured.out == ""
        assert not csv_path.exists()

    def test_bit_flip_model(self, tmp_path, frame_file):
        vec, _ = _write_input(tmp_path, 8)
        csv_path = tmp_path / "flips.csv"
        assert cli.run([
            "simulate", str(frame_file), "--in", str(vec),
            "--model", "bitflip", "--eta", "0.97", "--delta", "0.125",
            "--flips", "3", "--trials", "3", "--csv", str(csv_path),
        ]) == 0
        rows = _csv_rows(csv_path)
        assert len(rows) == 3
        assert all(r["model"] == "bit-flip" for r in rows)
        assert all(r["bound_ok"] == "true" for r in rows)


class TestBench:
    def test_decay_suite(self, tmp_path, capsys):
        csv_path = tmp_path / "decay.csv"
        assert cli.run([
            "bench", "--suite", "decay", "--trials", "2",
            "--csv", str(csv_path),
        ]) == 0
        rows = _csv_rows(csv_path)
        assert len(rows) == 2
        assert all(r["model"] == "decay" for r in rows)
        assert all(r["bound_ok"] == "true" for r in rows)
        assert _value(capsys.readouterr().out, "bound violations") == 0

    @pytest.mark.parametrize("trials", ["0", "-2"])
    def test_trial_count_below_one_is_a_usage_error(self, tmp_path, capsys,
                                                     trials):
        csv_path = tmp_path / "decay.csv"
        assert cli.run([
            "bench", "--suite", "decay", "--trials", trials,
            "--csv", str(csv_path),
        ]) == 1
        assert capsys.readouterr().err == (
            "error: kashin bench: argument --trials: must be at least 1, "
            f"got {trials}\n"
        )
        assert not csv_path.exists()

    def test_decay_bound_uses_adjusted_eta(self, tmp_path):
        csv_path = tmp_path / "decay.csv"
        assert cli.run([
            "bench", "--suite", "decay", "--trials", "2",
            "--csv", str(csv_path),
        ]) == 0
        frame = frames.gen_random_orthogonal(64, 128, 0)
        for row in _csv_rows(csv_path):
            cfg = conversion.ConversionConfig(
                up=uncertainty.UPParams(eta=float(row["up_eta"]),
                                        delta=float(row["up_delta"])),
                truncation=conversion.TruncationSpec(),
                iterations=20,
                frame_epsilon=frame.tightness_eps + 1e-12,
            )
            expected = conversion.adjusted_parameters(cfg)[0] ** 20 + 1e-13
            assert float(row["bound"]) == pytest.approx(expected, rel=1e-13, abs=0)

    def test_quantization_suite(self, tmp_path):
        csv_path = tmp_path / "quant.csv"
        assert cli.run([
            "bench", "--suite", "quantization", "--trials", "2",
            "--csv", str(csv_path),
        ]) == 0
        rows = _csv_rows(csv_path)
        assert len(rows) == 6
        assert sorted({int(r["L"]) for r in rows}) == [16, 64, 256]
        assert all(r["bound_ok"] == "true" for r in rows)

    def test_corruption_suite(self, tmp_path):
        csv_path = tmp_path / "adv.csv"
        assert cli.run([
            "bench", "--suite", "corruption", "--trials", "2",
            "--csv", str(csv_path),
        ]) == 0
        rows = _csv_rows(csv_path)
        assert len(rows) == 6
        assert sorted({round(float(r["damage_fraction"]) * 128)
                       for r in rows}) == [1, 4, 8]
        assert all(r["bound_ok"] == "true" for r in rows)

    def test_decay_over_all_families(self, tmp_path, capsys):
        csv_path = tmp_path / "decay.csv"
        assert cli.run([
            "bench", "--suite", "decay", "--shapes", "16x32", "--trials", "2",
            "--families", "orthogonal", "fourier", "gaussian", "bernoulli",
            "--csv", str(csv_path),
        ]) == 0
        rows = _csv_rows(csv_path)
        # subgaussian frames at n = N/2 are too far from tight to contract
        # (eta' >= 1), so they are skipped rather than swept
        assert [r["family"] for r in rows] == [frames.RANDOM_ORTHOGONAL] * 2 + [
            frames.PARTIAL_FOURIER] * 2
        assert all((r["n"], r["N"], r["model"], r["L"]) == ("16", "32", "decay", "0")
                   for r in rows)
        assert all(r["bound_ok"] == "true" for r in rows)
        out = capsys.readouterr().out
        assert out.count("skipped: adjusted eta") == 2
        assert out.count("worst per-pass ratio=") == 2

    def test_channel_cells_with_baseline(self, tmp_path, capsys):
        csv_path = tmp_path / "sweep.csv"
        assert cli.run([
            "bench", "--suite", "quantization", "--levels", "16", "64",
            "--models", "quantize", "erasure", "--baseline", "--trials", "2",
            "--csv", str(csv_path),
        ]) == 0
        rows = _csv_rows(csv_path)
        # per level: 2 codec + 2 baseline quantize-only rows, 2 erasure rows
        assert len(rows) == 12
        assert {r["family"] for r in rows} == {frames.RANDOM_ORTHOGONAL}
        assert [(r["L"], r["model"]) for r in rows[:6]] == [
            ("16", quantize.QUANTIZE_ONLY), ("16", "baseline")] * 2 + [
            ("16", quantize.ERASURE)] * 2
        assert sorted({int(r["L"]) for r in rows}) == [16, 64]
        assert all(float(r["damage_fraction"]) == (
            4 / 128 if r["model"] == quantize.ERASURE else 0.0) for r in rows)
        assert all(r["bound_ok"] == "true" for r in rows)
        assert capsys.readouterr().out.count("baseline median=") == 2

    def test_adversarial_rows_without_baseline(self, tmp_path):
        csv_path = tmp_path / "sweep.csv"
        assert cli.run([
            "bench", "--suite", "quantization", "--levels", "16", "--trials", "2",
            "--models", "adversarial", "--csv", str(csv_path),
        ]) == 0
        rows = _csv_rows(csv_path)
        assert [(r["model"], r["seed"]) for r in rows] == [
            (quantize.ADVERSARIAL, "0"), (quantize.ADVERSARIAL, "1")]
        assert all(r["bound_ok"] == "true" for r in rows)

    @pytest.mark.parametrize("flags, message", [
        (["quantization", "--passes", "0"],
         "argument --passes: must be at least 1, got 0"),
        (["quantization", "--levels", "16", "1"],
         "argument --levels: must be at least 2, got 1"),
        (["quantization", "--shapes", "64by128"],
         "argument --shapes: expected NxM, got '64by128'"),
        (["decay", "--levels", "16"],
         "argument --levels: does not apply to --suite decay"),
        (["decay", "--models", "erasure"],
         "argument --models: does not apply to --suite decay"),
        (["decay", "--damage", "0.1"],
         "argument --damage: does not apply to --suite decay"),
        (["decay", "--baseline"],
         "argument --baseline: does not apply to --suite decay"),
        (["quantization", "--delta", "0"],
         "argument --delta: must lie in (0, 1), got 0.0"),
        (["quantization", "--delta", "1.5"],
         "argument --delta: must lie in (0, 1), got 1.5"),
        (["corruption", "--damage", "1.5"],
         "argument --damage: must lie in [0, 1), got 1.5"),
        (["quantization", "--models", "erasure", "--damage", "-0.1"],
         "argument --damage: must lie in [0, 1), got -0.1"),
        (["decay", "--shapes", "64x32"],
         "N must be a whole number >= 64, got 32"),
        (["decay", "--shapes", "0x32"],
         "n must be a whole number >= 1, got 0"),
    ])
    def test_bad_sweep_flag_is_a_usage_error(self, tmp_path, capsys, flags,
                                             message):
        csv_path = tmp_path / "sweep.csv"
        assert cli.run([
            "bench", "--suite", *flags, "--csv", str(csv_path),
        ]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: kashin bench: {message}\n"
        # rejected before any frame is generated or calibrated
        assert captured.out == ""
        assert not csv_path.exists()

    def test_bound_violation_exits_two(self, tmp_path, capsys, monkeypatch):
        decay_sweep = sweeps.decay_sweep

        def violating(*args):
            sweep = decay_sweep(*args)
            row = dataclasses.replace(sweep.rows[0], bound=0.0, bound_ok=False)
            return dataclasses.replace(sweep, rows=[row, *sweep.rows[1:]])

        monkeypatch.setattr(sweeps, "decay_sweep", violating)
        csv_path = tmp_path / "decay.csv"
        assert cli.run([
            "bench", "--suite", "decay", "--trials", "2", "--csv", str(csv_path),
        ]) == 2
        assert _value(capsys.readouterr().out, "bound violations") == 1
        assert [r["bound_ok"] for r in _csv_rows(csv_path)] == ["false", "true"]


def _readme_commands() -> list[list[str]]:
    """Every ``kashin ...`` command line in the README's ``sh`` blocks."""
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(), re.S)
    text = "\n".join(blocks).replace("\\\n", " ")
    return [shlex.split(line)[1:] for line in text.splitlines()
            if line.startswith("kashin ")]


class TestReadme:
    def test_every_cli_example_parses(self):
        commands = _readme_commands()
        assert {argv[0] for argv in commands} == set(cli._COMMANDS)
        for argv in commands:
            cli._build_parser(argv[0]).parse_args(argv)

    def test_every_cli_flag_is_documented(self):
        text = README.read_text()
        missing = []
        for name, (_, _, add_arguments) in cli._COMMANDS.items():
            parser = argparse.ArgumentParser(add_help=False)
            add_arguments(parser)
            for action in parser._actions:
                for flag in action.option_strings:
                    # "--exact-last" does not name "--exact"
                    if not re.search(rf"(?<![\w-]){re.escape(flag)}(?![\w-])", text):
                        missing.append(f"{name} {flag}")
        assert not missing

    def test_names_no_script_path(self):
        assert "scripts/" not in README.read_text()

    def test_every_python_example_runs(self, tmp_path):
        blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
        assert len(blocks) >= 2
        env = dict(os.environ, PYTHONPATH=str(README.parent / "src"))
        done = subprocess.run(
            [sys.executable, "-c", "\n".join(blocks)], cwd=tmp_path, env=env,
            capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
