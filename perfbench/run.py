"""Benchmark of the sgp-hawkes package, run from the root of a source checkout.

    python3 perfbench/run.py --workload dense-case1 --seed 1 --seconds 40 --trace 0

Workloads (see ``workloads.py`` for why each exists):

* ``dense-case1``: simulate -> fit em|vi|mle -> eval through the CLI, in-process,
  on case1 data, where admissible pairs outnumber events about 20 to 1.
* ``small-batch-case2``: many small case2 fits through the library, where
  fixed per-fit costs (theta search, Gaussian solves) dominate.
* ``gof-roundtrip``: simulate from fitted models, then score and time-rescale;
  no fit is timed.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end timings with
``--trace 0``, the per-layer metrics of a traced pass with ``--trace 1``. The
line before it holds the environment, the input sizes, the unscaled seconds
and the quality figures (held-out log likelihood, estimation error, KS pass
share). Both, and with ``--trace 1`` every span, are also written under
``.perfbench_out/``. ``failed`` counts operations that raised or failed an
output check. The timed fits run fixed sweep budgets; with ``--trace 1`` the
data are also fitted with the program's own stop rule, and the sweeps, the
``converged=False`` verdicts and the failed share of those fits are reported.

End-to-end timings are seconds scaled to a reference kernel timed before,
after and inside each block (``workloads.timer``), so that host interference
cancels; their unit is ``ref-s`` (``setup_s`` is scaled too, under the unit
``s``). They are comparable between commits measured on the same kind of
host, and differ from wall seconds by the host's speed on the reference
kernel. gof-roundtrip's ``simulate_s`` and ``eval_s`` are rescaled to a fixed
number of simulated admissible pairs per model (``GofRoundtrip.round``).

Inputs come only from ``--seed``. Seeds 1 to 25 were used to tune the
benchmark; seed 104729 was not, and is kept for confirming later claims.

The BLAS/OpenMP pools and the CLI worker pool are fixed to one thread before
numpy is imported, so that timings do not depend on how busy the machine's
other cores are and the tracer sees a single thread.
"""

import argparse
import json
import os
import sys
from pathlib import Path

THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "HAWKES_SGP_THREADS")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="sgp-hawkes benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "sgp_hawkes" / "__init__.py").is_file():
        print(f"error: no src/sgp_hawkes package under {root}; run from a source checkout", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = str(THREADS)
    sys.path.insert(0, str(root / "src"))

    import harness
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    result, info = harness.run(
        args.workload,
        args.seed,
        args.seconds,
        bool(args.trace),
        root,
        threads={var: os.environ[var] for var in THREAD_VARS},
    )
    print(json.dumps({"info": info}))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
