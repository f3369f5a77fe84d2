#!/usr/bin/env python3
"""Benchmark of the kashin package, end to end and layer by layer.

Run from the root of a kashin checkout:

    python3 perfbench/run.py --workload dense-codec --seed 1 --seconds 10 --trace 0

Workloads: dense-codec, fourier-codec, calibrate, channel-sim (see
perfbench/README.md).  With ``--trace 0`` the last line of standard
output is a JSON object with the end-to-end metrics; with ``--trace 1``
the package's public functions are wrapped in timing spans and the
per-layer metrics are printed instead.  Every output is checked; a
failed check makes ``correct`` false and the exit code 1.  ``--toy``
runs the same workload at toy sizes, for the benchmark's own tests.
"""

import os

# One BLAS thread, set before numpy loads so no inherited setting applies:
# the benchmark is a single process that starts no threads of its own.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from checks import CheckFailed  # noqa: E402

OUT_DIR = Path("perfbench") / "out"
# metric names, units and order, as BENCHMARK.json declares them
SPEC = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())


def _metrics(kind: str, values: dict) -> dict:
    """``values`` as the result's metrics, in the order and with the
    units of ``BENCHMARK.json``'s ``kind`` list."""
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in SPEC[kind]}


def _parse(argv, workload_names):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workload_names)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--toy", action="store_true", help="toy sizes, for self-tests")
    return p.parse_args(argv)


def _import_package(root: Path):
    """Import kashin from the checkout's src/ and nowhere else."""
    src = root / "src"
    if not (src / "kashin" / "__init__.py").is_file():
        raise SystemExit(f"error: {src / 'kashin'} not found; run from the root of a kashin checkout")
    sys.path.insert(0, str(src))
    import kashin

    if Path(kashin.__file__).resolve().parent != (src / "kashin").resolve():
        raise SystemExit(f"error: imported kashin from {kashin.__file__}, not from {src}")
    return kashin


def _threads() -> int:
    """Threads of this process, read from /proc (0 where unavailable)."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


class Runner:
    """Times set-up, operations and CLI samples of one workload."""

    def __init__(self, workload, seed: int, tracer=None):
        self.w = workload
        self.rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
        self.tracer = tracer
        self.failures: list[str] = []  # failed checks
        self.errors: list[str] = []  # operations that raised
        self.failed = 0

    def _span(self, name, **attrs):
        return self.tracer.span(name, **attrs) if self.tracer else nullcontext()

    def _checked(self, check, *args) -> None:
        """Run one check, untraced: checks are not program work."""
        try:
            with self.tracer.paused() if self.tracer else nullcontext():
                check(*args)
        except CheckFailed as exc:
            self.failures.append(str(exc))

    def setup_once(self) -> float:
        with self._span("setup"):
            t0 = time.perf_counter()
            self.w.setup()
            dt = time.perf_counter() - t0
        self._checked(self.w.check_setup)
        return dt

    def cli_once(self) -> float:
        with self._span("cli"):
            t0 = time.perf_counter()
            self.w.cli_sample()
            return time.perf_counter() - t0

    def round_once(self, span: str = "op") -> list[tuple[str, float]]:
        """One round of operations; returns (class label, seconds) per op
        that did not raise."""
        from kashin.errors import KashinError

        samples = []
        for op in self.w.round(self.rng):
            with self._span(span, cls=op.cls, input=op.cls.rsplit("/", 1)[-1]):
                t0 = time.perf_counter()
                try:
                    out = op.run()
                except KashinError as exc:
                    out = exc
                dt = time.perf_counter() - t0
            if isinstance(out, KashinError):
                self.failed += 1
                self.errors.append(f"{op.cls}: {type(out).__name__}: {out}")
                continue
            self._checked(op.check, out)
            samples.append((op.label(out), dt))
        return samples

    def rounds(self, seconds: float, interludes=()) -> list:
        """Whole rounds until ``seconds`` of round wall time have passed.
        ``interludes`` are (fraction, action) pairs: each action runs once
        the round wall time passes ``fraction * seconds``, so set-up and
        CLI samples spread over the whole run rather than sampling one
        stretch of it."""
        pending = sorted(interludes, key=lambda item: item[0])
        samples = []
        spent = 0.0
        while True:
            t0 = time.perf_counter()
            samples += self.round_once()
            spent += time.perf_counter() - t0
            while pending and pending[0][0] * seconds <= spent:
                pending.pop(0)[1]()
            if spent >= seconds:
                for _, action in pending:
                    action()
                return samples


def _classes(samples) -> dict:
    """Per-class counts and latencies, each class's rank range in the
    sorted latencies, and the class each percentile falls in."""
    order = sorted(range(len(samples)), key=lambda i: samples[i][1])
    ranks: dict[str, list[int]] = {}
    for rank, i in enumerate(order):
        ranks.setdefault(samples[i][0], []).append(rank)
    n = len(samples)
    total = sum(dt for _, dt in samples)
    out = {}
    for label, rs in sorted(ranks.items(), key=lambda kv: kv[1][0]):
        lat = [samples[order[r]][1] * 1e3 for r in rs]
        out[label] = {
            "count": len(rs),
            "share": len(rs) / n,
            "time_share": sum(lat) / 1e3 / total,
            "ms_median": statistics.median(lat),
            "rank_range": [rs[0] / (n - 1), rs[-1] / (n - 1)] if n > 1 else [0.0, 0.0],
        }
    for q in (50, 90):
        label = samples[order[int(round(q / 100 * (n - 1)))]][0]
        out.setdefault("percentiles", {})[f"p{q}"] = label
    return out


def main(argv=None) -> int:
    root = Path.cwd()
    _import_package(root)
    import workloads

    args = _parse(argv, list(workloads.WORKLOADS))
    from kashin import cli, conversion, formats, frames, linalg, quantize, uncertainty

    cls = workloads.WORKLOADS[args.workload]
    if args.toy:
        cls = workloads.toy(cls)
    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    out_dir = root / OUT_DIR
    workdir = out_dir / f"work-{run_id}"
    workdir.mkdir(parents=True, exist_ok=True)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "toy": args.toy, "blas_threads": BLAS_THREADS,
        "numpy": np.__version__, "python": sys.version.split()[0],
    }
    try:
        w = cls(args.seed, workdir)
        if args.trace:
            from layers import per_layer
            from spans import Tracer

            tracer = Tracer()
            modules = [cli, conversion, formats, frames, linalg, quantize, uncertainty]
            traced = Runner(w, args.seed, tracer)
            plain = Runner(w, args.seed)
            tracer.install(modules)
            traced.setup_once()
            with tracer.paused():
                w.prepare_cli()
            traced.round_once(span="warmup")
            tracer.uninstall()
            # traced and untraced rounds alternate, so a drift in machine
            # speed affects both sides of the overhead alike
            t_samples, u_samples = [], []
            spent, t0 = 0.0, time.perf_counter()
            while spent < args.seconds:
                tracer.install(modules)
                t_samples += traced.round_once()
                tracer.uninstall()
                u_samples += plain.round_once()
                spent = time.perf_counter() - t0
            tracer.install(modules)
            traced.cli_once()
            tracer.uninstall()
            traced._checked(w.check_cli)
            traced_rate = len(t_samples) / sum(dt for _, dt in t_samples)
            plain_rate = len(u_samples) / sum(dt for _, dt in u_samples)
            overhead = 100.0 * (plain_rate - traced_rate) / plain_rate
            metrics = _metrics("per_layer", per_layer(tracer.spans, overhead))
            tracer.write(out_dir / f"spans-{run_id}.jsonl.gz")
            runners = (traced, plain)
            attempted = len(t_samples) + len(u_samples)
            record["classes"] = _classes(t_samples)
        else:
            runner = Runner(w, args.seed)
            setup_times = [runner.setup_once()]
            w.prepare_cli()
            runner.round_once(span="warmup")
            cli_times = []
            interludes = [((j + 0.5) / (w.setup_reps - 1),
                           lambda: setup_times.append(runner.setup_once()))
                          for j in range(w.setup_reps - 1)]
            interludes += [((j + 0.5) / w.cli_reps,
                            lambda: cli_times.append(runner.cli_once()))
                           for j in range(w.cli_reps)]
            samples = runner.rounds(seconds=args.seconds, interludes=interludes)
            runner._checked(w.check_cli)
            lat = np.array([dt for _, dt in samples])
            values = {
                "setup_s": float(np.median(setup_times)),
                "ops_per_s": len(lat) / float(lat.sum()),
                "op_p50_ms": float(np.percentile(lat, 50)) * 1e3,
                "op_p90_ms": float(np.percentile(lat, 90)) * 1e3,
                "cli_s": float(np.median(cli_times)),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            metrics = _metrics("end_to_end", values)
            runners = (runner,)
            attempted = len(samples)
            record.update(setup_times=setup_times, cli_times=cli_times,
                          classes=_classes(samples))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failed = sum(r.failed for r in runners)
    errors = [e for r in runners for e in r.errors]
    failures = [f for r in runners for f in r.failures]
    record["threads"] = _threads()
    if record["threads"] > 1:
        failures.append(f"process runs {record['threads']} threads, expected 1")
    for message in failures[:5]:
        print(f"check failed: {message}", file=sys.stderr)
    for message in errors[:5]:
        print(f"operation failed: {message}", file=sys.stderr)
    result = {"correct": not failures, "attempted": attempted + failed,
              "failed": failed, "metrics": metrics}
    record["errors"] = errors[:20]
    record.update(result=result, failures=failures[:20])
    (out_dir / f"result-{run_id}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
