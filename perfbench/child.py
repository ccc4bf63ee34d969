"""Child processes of the benchmark.

    child.py setup <workload> <seed> <dir>   do the workload's set-up, print "ready"
    child.py trace <spans.npz> <args...>     run `pmsquare <args...>` with spans recorded

Both run with the checkout's src/ on PYTHONPATH.  The traced run installs
its wrappers after `import pmsquare.cli`, so import time is not traced.
"""

from __future__ import annotations

import sys
from pathlib import Path


def setup(workload: str, seed: int, directory: Path) -> None:
    if workload == "sampling":
        import pmsquare.hvmodels  # noqa: F401

        import workloads

        workloads.build_models(workloads.sampling_inputs(seed))
    else:
        import pmsquare.cli  # noqa: F401

        if workload == "model-sweep":
            import workloads

            workloads.model_sweep_inputs(seed, directory)
    print("ready", flush=True)


def trace(spans_path: Path, argv: list[str]) -> int:
    import pmsquare.cli

    from spans import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        with tracer.span("op", 0):
            code = pmsquare.cli.main(argv)
    finally:
        tracer.uninstall()
        sys.stdout.flush()
        tracer.frame().save(spans_path)
    return code


if __name__ == "__main__":
    mode = sys.argv[1]
    if mode == "setup":
        setup(sys.argv[2], int(sys.argv[3]), Path(sys.argv[4]))
    elif mode == "trace":
        sys.exit(trace(Path(sys.argv[2]), sys.argv[3:]))
    else:
        sys.exit(f"child.py: unknown mode {mode!r}")
