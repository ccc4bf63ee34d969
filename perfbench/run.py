"""pmsquare benchmark: end-to-end metrics per workload, per-layer metrics from a traced run.

    python3 perfbench/run.py --workload <cli-readme|model-sweep|sampling> \\
        --seed N --seconds S --trace <0|1>

Run from the root of a checkout; the program is imported from its src/.
Every workload is a closed loop with one caller: the next op is submitted
when the previous one has returned and been checked.  ``--trace 0``
reports the end-to-end metrics of BENCHMARK.json.  ``--trace 1`` spends
half the time untraced and half traced and reports the per-layer metrics,
including the tracing overhead on the median op.  The command prints one
line per metric with its unit, then one JSON line with the result; the
full record (machine, input profile, failures, sources) goes to
.bench_out/results/, and the spans of a traced run to .bench_out/spans/.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Iterable, Iterator

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

WORKLOADS = ("cli-readme", "model-sweep", "sampling")
END_TO_END = (
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("peak_mb", "MB"),
)
#: Set-up is measured this many times per run; the median is reported.
SETUP_REPEATS = 5
IMPORT_REPEATS = 3
#: The tail percentile, lowered when fewer than TAIL_BEYOND samples lie above it.
TAIL_PERCENTILE = 90
TAIL_BEYOND = 10
#: model-sweep measures memory on a replay of this many ops of its cycle.
SWEEP_PEAK_OPS = 36
#: Probe ops: run traced once per run, for layers the workload's ops bypass.
PROBE_LINES = (("model", "3", "--state", "psi1"),)


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds <= 0 or args.seed < 0:
        parser.error("--seconds must be positive and --seed nonnegative")
    return args


def child_env() -> dict[str, str]:
    return dict(os.environ, PYTHONPATH=str(SRC))


def machine() -> dict[str, Any]:
    import numpy

    cpu = platform.processor()
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as info:
        for line in info:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def tail(latencies: list[float]) -> tuple[float, float]:
    """(percentile, value): TAIL_PERCENTILE, or the highest with TAIL_BEYOND samples above."""
    import numpy as np

    n = len(latencies)
    percentile = min(TAIL_PERCENTILE, math.floor(100.0 * (1.0 - TAIL_BEYOND / n))) if n else 0
    percentile = max(percentile, 50)
    return percentile, float(np.percentile(latencies, percentile))


class Run:
    """State shared by one benchmark run: checks, failures, the work directory."""

    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.tag = f"{args.workload}-s{args.seed}-t{args.trace}"
        self.work = OUT / "work" / f"{self.tag}-{os.getpid()}"
        self.work.mkdir(parents=True, exist_ok=True)
        self.seen: dict[str, str] = {}
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, what: str, fn: Callable[[], None], detail: str = "") -> None:
        """Run one op's check; a failure is recorded, printed and counted, never fatal."""
        from checks import CheckError

        self.attempted += 1
        try:
            fn()
        except CheckError as exc:
            self.fail(what, f"{exc}{'; ' + detail if detail else ''}")

    def fail(self, what: str, reason: str) -> None:
        self.failures.append(f"{what}: {reason}")
        if len(self.failures) <= 20:
            print(f"FAILED {what}: {reason}", file=sys.stderr)

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


# --- child processes --------------------------------------------------------------


def setup_seconds(run: Run, index: int) -> float:
    """Fresh interpreter to first op can be submitted, measured in a child process."""
    directory = run.work / f"setup-{index}"
    argv = [sys.executable, str(HERE / "child.py"), "setup",
            run.args.workload, str(run.args.seed), str(directory)]
    start = perf_counter()
    with subprocess.Popen(argv, stdout=subprocess.PIPE, env=child_env(), cwd=ROOT) as proc:
        line = proc.stdout.readline()
        ready = perf_counter() - start
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != b"ready":
        raise RuntimeError(f"set-up child failed with exit code {proc.returncode}")
    return ready


def import_times(run: Run, module: str) -> dict[str, float]:
    """Medians of `python -X importtime -c "import <module>"`, split by layers.import_split."""
    from layers import import_split

    samples = []
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", f"import {module}"],
            capture_output=True, text=True, env=child_env(), cwd=ROOT, check=True,
        )
        samples.append(import_split(proc.stderr))
    return {key: statistics.median(s[key] for s in samples) for key in samples[0]}


def run_process(run: Run, argv: list[str]) -> tuple[float, int, bytes, str, int]:
    """Run one child to completion: (seconds, exit code, stdout, last stderr line, max RSS KiB).

    The child is reaped with wait4 to read its own resource usage.
    """
    stderr_path = run.work / "stderr.txt"
    with open(stderr_path, "wb") as err:
        start = perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err, env=child_env(), cwd=ROOT)
        stdout = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        elapsed = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    lines = stderr_path.read_text(errors="replace").strip().splitlines()
    return elapsed, proc.returncode, stdout, lines[-1] if lines else "", usage.ru_maxrss


# --- workloads ------------------------------------------------------------------------


class Workload:
    """One workload: its inputs, how an op is submitted and checked, and its memory figure."""

    import_module = "pmsquare.cli"

    def __init__(self, run: Run):
        self.run = run
        self.tracer = None
        self.submitted: list[Any] = []
        #: (spans, op id) recorded by traced child processes
        self.spans: list[tuple[Any, int]] = []

    def prepare(self) -> None:
        """The program's untimed set-up, done in this process."""

    def warm_up(self) -> None:
        """Ops that fill the program's caches before timing (checked, untimed)."""

    def ops(self) -> Iterator[Any]:
        raise NotImplementedError

    def submit(self, op: Any, op_id: int | None) -> float:
        """Submit and check one op; returns its latency in seconds.  ``op_id``: traced."""
        raise NotImplementedError

    def peak_mb(self) -> float:
        raise NotImplementedError

    def profile(self) -> dict[str, Any]:
        raise NotImplementedError


def cli_call(argv: tuple[str, ...]) -> tuple[int, str]:
    """`pmsquare.cli.main(argv)` in this process: (exit code, captured stdout)."""
    from pmsquare import cli

    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli.main(list(argv))
    return code, buffer.getvalue()


class CliReadme(Workload):
    """Fresh `python -m pmsquare ... --json` processes over the README lines."""

    def __init__(self, run: Run):
        super().__init__(run)
        self.max_rss_kib = 0

    def ops(self) -> Iterator[Any]:
        import workloads

        return workloads.cli_readme_ops(self.run.args.seed)

    def warm_up(self) -> None:
        self.submit(next(self.ops()), None)

    def submit(self, op: Any, op_id: int | None) -> float:
        from checks import check_cli
        from spans import SpanFrame

        if op_id is None:
            argv = [sys.executable, "-m", "pmsquare", *op.argv]
        else:
            spans_path = self.run.work / f"spans-{op_id}.npz"
            argv = [sys.executable, str(HERE / "child.py"), "trace", str(spans_path), *op.argv]
        elapsed, code, stdout, stderr, rss = run_process(self.run, argv)
        self.max_rss_kib = max(self.max_rss_kib, rss)
        self.run.check(op.key, lambda: check_cli(op, code, stdout, self.run.seen), stderr)
        if op_id is not None:
            self.spans.append((SpanFrame.load(spans_path), op_id))
            spans_path.unlink()
        return elapsed

    def peak_mb(self) -> float:
        return self.max_rss_kib * 1024 / 1e6

    def profile(self) -> dict[str, Any]:
        import workloads

        return workloads.profile("cli-readme", self.submitted)


class InProcess(Workload):
    """A workload whose ops are calls into the program in this process."""

    def call(self, op: Any) -> Any:
        raise NotImplementedError

    def check(self, op: Any, result: Any) -> None:
        raise NotImplementedError

    def ops(self) -> Iterator[Any]:
        while True:
            yield from self.inputs.ops

    def submit(self, op: Any, op_id: int | None, measure: Callable | None = None) -> float:
        span = self.tracer.span("op", op_id) if op_id is not None else contextlib.nullcontext()
        with span:
            start = perf_counter()
            try:
                result = measure(lambda: self.call(op)) if measure else self.call(op)
            except Exception as exc:  # the program raised: a failed op, not a crash of the run
                self.run.attempted += 1
                self.run.fail(op.key, f"raised {exc!r}")
                return perf_counter() - start
            elapsed = perf_counter() - start
        self.run.check(op.key, lambda: self.check(op, result))
        return elapsed

    def replay_peak_mb(self, ops: Iterable[Any]) -> float:
        """Largest tracemalloc peak of one op, over a checked replay of ``ops``."""
        from layers import traced_peak

        peaks = []

        def measure(fn):
            result, peak = traced_peak(fn)
            peaks.append(peak)
            return result

        for op in ops:
            self.submit(op, None, measure)
        return max(peaks) / 1e6


class ModelSweep(InProcess):
    """In-process `model k --state <file> --json`, k cycling 1, 2, 3."""

    def prepare(self) -> None:
        import workloads

        self.inputs = workloads.model_sweep_inputs(self.run.args.seed, self.run.work / "states")

    def warm_up(self) -> None:
        import workloads

        for k in (1, 2, 3):
            argv = ("model", str(k), "--state", "psi1", "--json")
            self.submit(workloads.Op(key=" ".join(argv), argv=argv), None)

    def call(self, op: Any) -> tuple[int, str]:
        return cli_call(op.argv)

    def check(self, op: Any, result: tuple[int, str]) -> None:
        from checks import check_cli

        check_cli(op, *result, self.run.seen)

    def peak_mb(self) -> float:
        return self.replay_peak_mb(self.inputs.ops[:SWEEP_PEAK_OPS])

    def profile(self) -> dict[str, Any]:
        import workloads
        from pmsquare import hvmodels

        positive = {}
        for path, state in self.inputs.states.items():
            positive[f"1 {path}"] = workloads.positive_share(hvmodels.build_model1(state))
            if workloads.chsh_max_abs(state) <= workloads.REFUSAL_THRESHOLD:
                share = workloads.positive_share(hvmodels.build_model23(state, 3))
                positive[f"2 {path}"] = positive[f"3 {path}"] = share
        return workloads.profile("model-sweep", self.submitted, positive)


class Sampling(InProcess):
    """In-process `hvmodels.sample_model` on models built during set-up."""

    import_module = "pmsquare.hvmodels"

    def prepare(self) -> None:
        import workloads

        self.inputs = workloads.sampling_inputs(self.run.args.seed)
        self.models = workloads.build_models(self.inputs)

    def warm_up(self) -> None:
        first = {}
        for op in self.inputs.ops:
            first.setdefault(op.props["k"], op)
        for op in first.values():
            self.submit(op, None)

    def call(self, op: Any) -> Any:
        from pmsquare import hvmodels

        p = op.props
        state = self.inputs.states[p["state"]]
        return hvmodels.sample_model(self.models[(p["k"], p["state"])], state, p["shots"], p["seed"])

    def check(self, op: Any, report: Any) -> None:
        from checks import check_sample

        check_sample(op, self.models[(op.props["k"], op.props["state"])], report, self.run.seen)

    def peak_mb(self) -> float:
        return self.replay_peak_mb({op.key: op for op in self.submitted}.values())

    def profile(self) -> dict[str, Any]:
        import workloads

        positive = {f"{k} {s}": workloads.positive_share(m) for (k, s), m in self.models.items()}
        return workloads.profile("sampling", self.submitted, positive)


def closed_loop(workload: Workload, ops: Iterator[Any], seconds: float, traced: bool) -> list[float]:
    """Submit ops one at a time until ``seconds`` have passed; their latencies."""
    latencies = []
    deadline = perf_counter() + seconds
    while perf_counter() < deadline:
        op = next(ops)
        op_id = len(workload.submitted) if traced else None
        latencies.append(workload.submit(op, op_id))
        workload.submitted.append(op)
    return latencies


# --- the two kinds of run -----------------------------------------------------------


def end_to_end(run: Run, workload: Workload) -> tuple[dict[str, float], dict[str, Any]]:
    setup_seconds(run, 0)  # warms bytecode and file caches; not reported
    workload.prepare()
    workload.warm_up()
    # set-up samples are spread over the run so one slow spell of the host cannot hit them all
    ops, setups, latencies = workload.ops(), [], []
    for i in range(SETUP_REPEATS):
        setups.append(setup_seconds(run, i + 1))
        latencies += closed_loop(workload, ops, run.args.seconds / SETUP_REPEATS, traced=False)
    percentile, p_tail = tail(latencies)
    metrics = {
        "setup_s": statistics.median(setups),
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_p90_ms": p_tail * 1e3,
        "ops_per_s": len(latencies) / math.fsum(latencies),
        "peak_mb": workload.peak_mb(),
    }
    inputs = list(dict.fromkeys(op.key for op in workload.submitted))
    index = {key: i for i, key in enumerate(inputs)}
    extra = {
        "setup_samples_s": setups,
        "ops": len(latencies),
        "tail_percentile": percentile,
        "samples_beyond_tail": sum(x > p_tail for x in latencies),
        "input_profile": workload.profile(),
        "inputs": inputs,
        "latencies_ms": [[index[op.key], x * 1e3] for op, x in zip(workload.submitted, latencies)],
    }
    if isinstance(workload, Sampling):
        shots = sum(op.props["shots"] for op in workload.submitted)
        extra["mshots_per_s"] = shots / math.fsum(latencies) / 1e6
    return metrics, extra


def traced(run: Run, workload: Workload) -> tuple[dict[str, float], dict[str, Any]]:
    import numpy as np

    import layers
    from spans import NO_OP, SpanFrame, Tracer

    imports = import_times(run, workload.import_module)
    tracer = workload.tracer = Tracer()
    workload.prepare()
    tracer.install()
    workload.warm_up()
    tracer.uninstall()

    ops = workload.ops()
    untraced = closed_loop(workload, ops, run.args.seconds / 2, traced=False)
    untraced_ops = len(workload.submitted)
    workload.submitted.clear()
    tracer.install()
    try:
        traced_latencies = closed_loop(workload, ops, run.args.seconds / 2, traced=True)
        n = len(workload.submitted)
        probe_ids = probe(run, tracer, n)
    finally:
        tracer.uninstall()

    frames = [tracer.frame()] + [frame for frame, _ in workload.spans]
    offsets = [0] + [op_id for _, op_id in workload.spans]
    frame = SpanFrame.concat(frames, offsets)
    frame.save(OUT / "spans" / f"{run.tag}.npz")

    own_ops = np.arange(n)
    from_ops = layers.span_metrics(frame, own_ops)
    from_probe = layers.span_metrics(frame, probe_ids)
    from_ops["realizations.build_realization.cold_ms"] = layers.cold_realization_ms(
        frame, np.append(own_ops, NO_OP))
    from_probe["realizations.build_realization.cold_ms"] = layers.cold_realization_ms(
        frame, probe_ids)
    calls = layers.sample_calls(frame, own_ops)
    peaks = layers.sample_peaks(calls or layers.sample_calls(frame, probe_ids))

    metrics: dict[str, float] = {
        **imports,
        "trace.overhead_ratio": statistics.median(traced_latencies) / statistics.median(untraced),
        "hvmodels.sample_model.peak_bytes_per_shot": statistics.median(
            row["bytes_per_shot"] for row in peaks),
    }
    sources = {name: "import-time children" for name in imports}
    sources["trace.overhead_ratio"] = "workload"
    sources["hvmodels.sample_model.peak_bytes_per_shot"] = "workload" if calls else "probe"
    for name, _ in layers.PER_LAYER:
        if name in metrics:
            continue
        if from_ops.get(name) is not None:
            metrics[name], sources[name] = from_ops[name], "workload"
        elif from_probe.get(name) is not None:
            metrics[name], sources[name] = from_probe[name], "probe"
        else:
            raise RuntimeError(f"no traced call measured {name}")
    metrics = {name: metrics[name] for name, _ in layers.PER_LAYER}
    observed_refused = None
    if isinstance(workload, ModelSweep):
        refused_ops = {int(frame.op[i]) for i in frame.select("hvmodels.build_model23", own_ops)
                       if i not in frame.attrs}
        observed_refused = len(refused_ops) / n if n else None
    extra = {
        "untraced_ops": untraced_ops,
        "traced_ops": n,
        "probe_ops": len(probe_ids),
        "untraced_op_p50_ms": statistics.median(untraced) * 1e3,
        "traced_op_p50_ms": statistics.median(traced_latencies) * 1e3,
        "spans": len(frame.name),
        "sources": sources,
        "sample_peak_table": peaks,
        "input_profile": workload.profile(),
        "observed_refused_share": observed_refused,
    }
    return metrics, extra


def probe(run: Run, tracer: Any, first_id: int) -> "np.ndarray":
    """The README lines plus model 3 on psi1, once each, traced in this process."""
    import numpy as np

    import workloads
    from checks import check_cli

    lines = [*workloads.README_LINES, *PROBE_LINES]
    for i, line in enumerate(lines):
        argv = (*line, "--json")
        op = workloads.Op(key=f"probe {' '.join(line)}", argv=argv,
                          expected_exit=3 if line[:2] == ("model", "2") else 0)
        with tracer.span("op", first_id + i):
            code, stdout = cli_call(argv)
        run.check(op.key, lambda: check_cli(op, code, stdout, run.seen))
    return np.arange(first_id, first_id + len(lines))


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "pmsquare" / "__init__.py").is_file():
        print(f"run.py: no pmsquare sources at {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import pmsquare

    if Path(pmsquare.__file__).resolve().parent != (SRC / "pmsquare").resolve():
        print(f"run.py: imported pmsquare from {pmsquare.__file__}, not {SRC}", file=sys.stderr)
        return 2
    for sub in ("results", "spans"):
        (OUT / sub).mkdir(parents=True, exist_ok=True)

    run = Run(args)
    workload = {"cli-readme": CliReadme, "model-sweep": ModelSweep, "sampling": Sampling}[
        args.workload](run)
    try:
        if args.trace:
            import layers

            metrics, extra = traced(run, workload)
            units = dict(layers.PER_LAYER)
        else:
            metrics, extra = end_to_end(run, workload)
            units = dict(END_TO_END)
    finally:
        run.close()

    failed = len(run.failures)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine(),
        "attempted": run.attempted,
        "failed": failed,
        "error_rate": failed / run.attempted,
        "failures": run.failures[:50],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
        **extra,
    }
    (OUT / "results" / f"{run.tag}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")

    m = record["machine"]
    print(f"# {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace} "
          f"nproc={m['nproc']} cpu={m['cpu_model']!r} python={m['python']} numpy={m['numpy']}")
    print(f"# input profile: {json.dumps(extra['input_profile'], sort_keys=True)}")
    for name, value in metrics.items():
        source = extra.get("sources", {}).get(name)
        suffix = f"  [{source}]" if source and source != "workload" else ""
        print(f"{name:48s} {value:14.6g} {units[name]}{suffix}")
    if "mshots_per_s" in extra:
        print(f"{'mshots_per_s':48s} {extra['mshots_per_s']:14.6g} 1e6/s  (not in BENCHMARK.json)")
    print(f"{'error_rate':48s} {record['error_rate']:14.6g} ratio  ({failed}/{run.attempted})")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
