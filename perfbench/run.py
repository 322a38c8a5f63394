"""Run one ctckit benchmark workload and print its metrics.

    python3 perfbench/run.py --workload train-short --seed 1 --seconds 20 --trace 0

Run from the root of a ctckit checkout; the package is imported from
its ``src/`` directory. With ``--trace 0`` the workload runs untraced
and the last line of standard output is a JSON object carrying the
end-to-end metrics; with ``--trace 1`` it alternates untraced and
traced groups and the JSON carries the per-layer metrics. The lines
before it list every metric by name and unit, the timing samples
behind each end-to-end number, and the machine facts of the run.
Exits 2, printing no result, when the checkout has no ctckit sources.
"""

import argparse
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

# Set-ups are timed before every group rather than all at the start, so
# that their samples span the whole run the way the groups' samples do.
SETUPS_PER_GROUP = 3

# end-to-end metrics: name -> unit (see BENCHMARK.json)
END_TO_END = {"setup_s": "s", "frames_per_s": "frames/s", "peak_rss_mb": "MB"}

# Named end-to-end figures behind frames_per_s, printed per workload:
# name -> (unit, whether higher is better)
DETAIL_UNITS = {
    "fit_frames_per_s": ("frames/s", True),
    "train_loss_last": ("nats", None),  # deterministic, not a timing
    "predict_greedy_seq_per_s": ("seq/s", True),
    "predict_beam_seq_per_s": ("seq/s", True),
    "get_loss_seq_per_s": ("seq/s", True),
    "get_probas_seq_per_s": ("seq/s", True),
    "evaluate_seq_per_s": ("seq/s", True),
    "pipeline_s": ("s", False),
    "frames_per_s": ("frames/s", True),
}

# per-layer metrics: name -> (unit, span or count it reads); every
# span and count is divided by the number of traced epochs, rounds or
# pipelines, so the figures do not depend on how many fit in a run
LAYER_SECONDS = {
    "net.forward_s": "net.forward",
    "net.backward_s": "net.backward",
    "net.optimizer_step_s": "net.optimizer_step",
    "net.clip_s": "net.clip",
    "lattice.ctc_gradient_s": "lattice.ctc_gradient",
    "lattice.ctc_loss_s": "lattice.ctc_loss",
    "decode.best_path_s": "decode.best_path",
    "decode.beam_s": "decode.beam",
    "metrics.label_error_rate_s": "metrics.label_error_rate",
    "data.make_batches_s": "data.make_batches",
    "data.read_dataset_s": "data.read_dataset",
    "data.write_dataset_s": "data.write_dataset",
    "model.save_s": "model.save",
    "model.load_s": "model.load",
    "cli.gen_data_s": "cli.gen_data",
    "cli.train_s": "cli.train",
    "cli.evaluate_s": "cli.evaluate",
    "cli.predict_greedy_s": "cli.predict_greedy",
    "cli.predict_beam_s": "cli.predict_beam",
    "cli.loss_s": "cli.loss",
    "cli.probas_s": "cli.probas",
}
LAYER_COUNTS = {
    "net.forward_calls": ("count", "net.forward.calls"),
    "net.backward_calls": ("count", "net.backward.calls"),
    "net.optimizer_steps": ("count", "net.optimizer_step.calls"),
    "net.clip_events": ("count", "net.clip_events"),
    "lattice.ctc_gradient_calls": ("count", "lattice.ctc_gradient.calls"),
    "lattice.ctc_loss_calls": ("count", "lattice.ctc_loss.calls"),
    "lattice.cells": ("count", "lattice.cells"),
    "decode.best_path_calls": ("count", "decode.best_path.calls"),
    "decode.beam_frames": ("count", "decode.beam_frames"),
    "metrics.label_error_rate_calls": ("count", "metrics.label_error_rate.calls"),
    "data.jsonl_bytes": ("B", "data.jsonl_bytes"),
    "model.weights_bytes": ("B", "model.weights_bytes"),
}
LAYER_DERIVED = {
    "net.gflop": "GFLOP",
    "net.gflop_per_s": "GFLOP/s",
    "lattice.cells_per_s": "1/s",
    "decode.beam_us_per_frame": "us",
    "data.padding_ratio": "ratio",
    "model.overhead_s": "s",
    "trace.overhead_ratio": "ratio",
    "trace.consistent": "bool",
    "trace.groups": "count",
}


def per_layer_units():
    units = {name: "s" for name in LAYER_SECONDS}
    units.update({name: unit for name, (unit, _) in LAYER_COUNTS.items()})
    units.update(LAYER_DERIVED)
    return units


class Run:
    """Timing samples and checked operations of one benchmark run."""

    def __init__(self):
        self.samples = {}
        self.keep = True
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def sample(self, name, value):
        if self.keep:
            self.samples.setdefault(name, []).append(value)

    def operation(self, ok, what):
        """One timed call and its correctness check."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)


def summarize(values, higher_is_better):
    """Median, plus the value with ten samples worse than it when n > 10."""
    out = {"median": statistics.median(values), "n": len(values),
           "samples": values}
    if higher_is_better is not None and len(values) > 10:
        worst_first = sorted(values, reverse=not higher_is_better)
        pct = math.floor(100 * (len(values) - 10) / len(values))
        out["p%d" % pct] = worst_first[10]
    return out


def blas_facts(np):
    info = {"blas": "unknown", "blas_threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = "%s %s" % (blas.get("name"), blas.get("version"))
    except (KeyError, TypeError):
        return info
    import ctypes
    import glob
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for lib in glob.glob(os.path.join(libdir, "*openblas*")):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                info["blas_threads"] = getattr(handle, symbol)()
                return info
    return info


def reference_chunks(np, seconds=0.3):
    """Times of a fixed small numpy-plus-interpreter chunk, for ``seconds``.

    Context for machine drift only; it gates nothing. On a shared
    machine the fastest chunk tracks the uncontended speed and the
    median how much of the time the CPU was contended.
    """
    matrix = np.random.default_rng(0).standard_normal((64, 64)) / 8.0
    times = []
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        start = time.perf_counter()
        v = np.ones(64)
        for _ in range(200):
            v = np.tanh(matrix @ v)
        acc = 0
        for i in range(5000):
            acc += i * i % 7
        times.append(time.perf_counter() - start)
    return times


def machine_facts(np):
    facts = {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
    facts.update(blas_facts(np))
    return facts


def layer_metrics(tracer, units, untraced_wall, traced_wall, consistent, groups):
    s, c = tracer.seconds, tracer.counts
    out = {name: s[span] / units for name, span in LAYER_SECONDS.items()}
    out.update({name: c[key] / units for name, (_, key) in LAYER_COUNTS.items()})
    net_s = s["net.forward"] + s["net.backward"]
    cell_s = s["lattice.ctc_gradient"] + s["lattice.ctc_loss"]
    layer_s = sum(v for k, v in s.items() if not k.startswith("cli."))
    out.update({
        "net.gflop": c["net.flop"] / 1e9 / units,
        "net.gflop_per_s": c["net.flop"] / 1e9 / net_s if net_s else 0.0,
        "lattice.cells_per_s": c["lattice.cells"] / cell_s if cell_s else 0.0,
        "decode.beam_us_per_frame":
            1e6 * s["decode.beam"] / c["decode.beam_frames"]
            if c["decode.beam_frames"] else 0.0,
        "data.padding_ratio": c["data.padded_frames"] / c["data.true_frames"]
            if c["data.true_frames"] else 0.0,
        "model.overhead_s": (traced_wall - layer_s) / units,
        "trace.overhead_ratio":
            traced_wall / untraced_wall if untraced_wall else 0.0,
        "trace.consistent": 1.0 if consistent else 0.0,
        "trace.groups": float(groups),
    })
    shares = {}
    if traced_wall:
        shares = {span: s[span] / traced_wall for span in sorted(s) if s[span]}
        shares["model.overhead"] = out["model.overhead_s"] * units / traced_wall
    return out, shares


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every input (smoke test)")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None):
    args = parse_args(argv)
    # let a terminated run still remove its scratch directory
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isfile(os.path.join(SRC, "ctckit", "__init__.py")):
        print("error: no ctckit sources under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print("error: unknown workload %r (expected one of %s)"
              % (args.workload, ", ".join(WORKLOADS)), file=sys.stderr)
        return 2

    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        return measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def guarded(run, group, *args):
    """Run one group; an exception fails an operation instead of the run."""
    try:
        return group(run, *args)
    except Exception:  # a broken program must still yield a result line
        run.operation(False, traceback.format_exc(limit=3))
        return None


def measure(args, workdir):
    import numpy as np
    from tracing import Tracer
    from workloads import make_workload

    facts = machine_facts(np)
    reference = reference_chunks(np)
    workload = make_workload(args.workload, args.seed, args.tiny, workdir)
    setup_times = []

    def set_up():
        # every set-up rebuilds the same inputs and model from the seed
        for _ in range(SETUPS_PER_GROUP):
            start = time.perf_counter()
            workload.setup()
            setup_times.append(time.perf_counter() - start)

    run = Run()
    set_up()
    run.keep = False  # the first group warms caches and sets references
    guarded(run, workload.untraced)
    run.keep = True
    tracer = Tracer() if args.trace else None
    untraced_wall = traced_wall = 0.0
    consistent = True
    groups = 0
    deadline = time.perf_counter() + args.seconds
    while groups < 2 or time.perf_counter() < deadline:
        set_up()
        untraced_wall += guarded(run, workload.untraced) or 0.0
        if tracer is not None:
            wall, same = guarded(run, workload.traced, tracer) or (0.0, False)
            traced_wall += wall
            consistent = consistent and same
        groups += 1

    reference += reference_chunks(np)
    facts["reference_loop_s"] = statistics.median(reference)
    facts["reference_loop_min_s"] = min(reference)
    lines = ["workload %s seed %d trace %d: %d %s group(s) of %d %s(s)"
             % (args.workload, args.seed, args.trace, groups,
                "untraced+traced" if tracer else "untraced",
                workload.units_per_group, workload.unit)]
    detail = {"workload": args.workload, "seed": args.seed, "facts": facts,
              "error_rate": run.failed / run.attempted,
              "setup_s": summarize(setup_times, False)}
    for name, values in sorted(run.samples.items()):
        detail[name] = summarize(values, DETAIL_UNITS[name][1])
    if tracer is None:
        metrics = {
            "setup_s": statistics.median(setup_times),
            "frames_per_s": statistics.median(
                run.samples.get("frames_per_s", [0.0])),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        }
        units = END_TO_END
    else:
        metrics, shares = layer_metrics(
            tracer, groups * workload.units_per_group, untraced_wall,
            traced_wall, consistent, groups)
        units = per_layer_units()
        detail["layer_share_of_traced_wall"] = shares
        lines.append("tracing overhead: traced %.3f s vs untraced %.3f s "
                     "(ratio %.3f); trace %s the untraced results"
                     % (traced_wall, untraced_wall,
                        metrics["trace.overhead_ratio"],
                        "matches" if consistent else "DOES NOT match"))
        for span, share in sorted(shares.items(), key=lambda kv: -kv[1]):
            lines.append("  share %-28s %6.1f%%" % (span, 100 * share))
    for name in sorted(detail):
        if name in DETAIL_UNITS:
            lines.append("  %-28s %s %s" % (name, DETAIL_UNITS[name][0],
                                            json.dumps(detail[name])))
    for name in sorted(metrics):
        lines.append("  %-28s %.6g %s" % (name, metrics[name], units[name]))
    lines.append("  error_rate %.6g (%d failed of %d attempted)"
                 % (detail["error_rate"], run.failed, run.attempted))
    for problem in run.problems[:10]:
        lines.append("  FAILED: %s" % problem)
    print("\n".join(lines))
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
