"""Layered benchmark of the hgpoly CLI: `model homology`, `model check` and
`hg realize`.

    python3 benchmarks/run.py --workload homology --seed 1 --seconds 35 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 35

One process, one thread, one client, closed loop: each op calls
`hgpoly.cli.main(argv)` in process on a generated JSON file, captures its
stdout, and the next op starts only after the previous one is checked.
`--trace 0` reports the end-to-end metrics; `--trace 1` replays a fixed
subset of the inputs layer by layer (see traced.py) and reports the
per-layer metrics.  The last line of stdout is one JSON object; a fuller
record, with the environment and output digests, is written under
`.bench_out/` at the repository root.  See README.md for the workloads and
what each metric is expected to move.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import tracemalloc
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import inputs

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 5
# Nominal time of one reference_kernel() call; see Gauge.
REFERENCE_S = 0.004

END_TO_END = {
    "ops_per_s": "1/s",
    "op_p50_s": "s",
    "op_p90_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

PER_LAYER_TIMES = (
    "hypergraph.saturation",
    "constructs.enumerate",
    "constructs.covers",
    "constructs.face_poset",
    "graphs.load",
    "graphs.alpha_roundtrip",
    "minimodel.boundary_matrix",
    "minimodel.boundary_of_basis",
    "minimodel.rho",
    "homology.complex_init",
    "homology.verify",
    "homology.rank",
    "homology.diamond_sign",
    "pipeline.cover_signs",
    "games.convexity",
    "games.realize",
    "games.brute_force",
)
PER_LAYER_COUNTS = (
    "hypergraph.saturated_edges",
    "constructs.faces",
    "constructs.split_attempts",
    "constructs.splits_accepted",
    "graphs.alpha_calls",
    "minimodel.boundary_matrix_calls",
    "minimodel.nonzeros",
    "homology.verify_calls",
    "homology.pivots",
    "games.convexity_pairs",
    "games.vertices",
    "games.feasibility_terms",
    "games.brute_force_systems",
)
PER_LAYER_RATIOS = {
    "constructs.split_accept_ratio": ("constructs.splits_accepted", "constructs.split_attempts"),
    "games.brute_force_hit_ratio": ("games.brute_force_vertices", "games.brute_force_systems"),
}
PER_LAYER_PEAKS = {
    "minimodel.boundary_matrix_peak_mb": "minimodel.boundary_matrix",
    "homology.rank_peak_mb": "homology.rank",
    "games.realize_peak_mb": "games.realize",
}


def per_layer_units() -> dict:
    """Every per-layer metric name with its unit, in report order."""
    units = {f"{name}_s": "s" for name in PER_LAYER_TIMES}
    units.update({name: "count" for name in PER_LAYER_COUNTS})
    units.update({name: "ratio" for name in PER_LAYER_RATIOS})
    units.update({name: "MB" for name in PER_LAYER_PEAKS})
    units["trace.overhead_ratio"] = "ratio"
    return units


class CheckFailed(Exception):
    """An op exited nonzero or printed output that fails its check."""


def _require(ok, message):
    if not ok:
        raise CheckFailed(message)


def _acyclic(betti) -> bool:
    return isinstance(betti, list) and betti[:1] == [1] and not any(betti[1:])


def check_homology(op, out):
    report = json.loads(out)
    _require(_acyclic(report["betti"]), f"betti {report['betti']}")
    _require(report["d_squared_zero"] is True, "d_squared_zero is not true")
    euler = sum((-1) ** k * f for k, f in enumerate(report["f_vector"]))
    _require(euler == 1, f"Euler characteristic {euler}")


CHECK_FIELDS = (
    "d_squared_zero",
    "support_plus_minus_one",
    "diamond_signs",
    "chain_map",
    "alpha_roundtrip",
)


def check_check(op, out):
    report = json.loads(out)
    for field in CHECK_FIELDS:
        _require(report[field] is True, f"{field} is not true")
    _require(_acyclic(report["betti"]), f"betti {report['betti']}")


def check_realize(op, out):
    report = json.loads(out)
    points = [tuple(Fraction(x) for x in v["coordinates"]) for v in report["vertices"]]
    total = 3 ** len(report["ground"])
    _require(all(sum(p) == total for p in points), f"a point's coordinates do not sum to {total}")
    _require(len(set(points)) == len(points), "points are not pairwise distinct")
    _require(len(points) == op.expected_vertices(), "vertex count differs from rank 0 of hg constructs")
    if op.brute_force:
        _require(report["verification"]["brute_force_agrees"] is True, "brute force disagrees")


@dataclass(frozen=True)
class Workload:
    check: object
    replay: str
    pool: int  # generated inputs; the timed loop cycles through them
    trace_inputs: int  # inputs replayed in each pass of the traced run
    memory_inputs: int  # inputs replayed under tracemalloc for the peaks


WORKLOADS = {
    "homology": Workload(check_homology, "traced_homology", 48, 8, 2),
    "check": Workload(check_check, "traced_check", 34, 8, 2),
    "realize": Workload(check_realize, "traced_realize", 48, 6, 3),
}


class Op:
    """One generated input and the CLI call made on it."""

    def __init__(self, workload, path, data):
        self.workload = workload
        self.path = path
        self.brute_force = workload == "realize" and len(data["vertices"]) == inputs.ORACLE_VERTICES
        self._expected = None

    def argv(self) -> list:
        if self.workload == "realize":
            flags = ["--verify-brute-force"] if self.brute_force else []
            return ["hg", "realize", str(self.path), "--game", "pow3"] + flags
        return ["model", self.workload, str(self.path)]

    def expected_vertices(self) -> int:
        """Rank-0 count from `hg constructs --count`, asked once per input."""
        if self._expected is None:
            code, out, err = call_cli(["hg", "constructs", str(self.path), "--count"])
            _require(code == 0, f"hg constructs exited {code}: {err.strip()}")
            self._expected = json.loads(out)["by_rank"][0]
        return self._expected


def call_cli(argv):
    from hgpoly import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def timed_op(op):
    """Run one op; returns (seconds, stdout, problem or None)."""
    start = time.perf_counter()
    try:
        code, out, err = call_cli(op.argv())
    except Exception as exc:  # a traceback is a failed op, not a failed run
        return time.perf_counter() - start, "", f"raised {exc!r}"
    elapsed = time.perf_counter() - start
    try:
        _require(code == 0, f"exit {code}: {err.strip()}")
        WORKLOADS[op.workload].check(op, out)
    except (CheckFailed, ValueError, KeyError, TypeError) as exc:
        return elapsed, out, f"{type(exc).__name__}: {exc}"
    return elapsed, out, None


class Outputs:
    """sha256 of each input's output; a repeat must reproduce it exactly."""

    def __init__(self):
        self.digests = {}

    def add(self, op, out):
        digest = hashlib.sha256(out.encode()).hexdigest()
        name = op.path.name
        if self.digests.setdefault(name, digest) != digest:
            return "output differs from an earlier run on the same input"
        return None

    def summary(self) -> dict:
        lines = "".join(f"{k} {v}\n" for k, v in sorted(self.digests.items()))
        return {
            "sha256": hashlib.sha256(lines.encode()).hexdigest(),
            "per_input": dict(sorted(self.digests.items())),
        }


class Gauge:
    """Machine speed, read by timing a fixed reference kernel between ops.

    On a shared 2-vCPU VM, speed drifted by up to 60% within minutes as
    other tenants came and went, and the reference kernel slowed down with
    it.  Each timing is multiplied by `scale()`, REFERENCE_S over the median
    of the kernel times around it, which reports it as if the kernel took
    REFERENCE_S, about its time on that VM when idle.  Both raw and scaled
    times are kept."""

    def __init__(self):
        self.samples = []

    def sample(self):
        start = time.perf_counter()
        reference_kernel()
        self.samples.append(time.perf_counter() - start)

    def scale(self, index) -> float:
        """Scale for work that ended just before sample `index`, from the
        two samples before that work and the three after it."""
        return REFERENCE_S / statistics.median(self.samples[max(index - 2, 0) : index + 3])

    def scaled(self, times, first) -> list:
        """`times` scaled, the i-th of which ended just before sample
        `first + i`; takes the samples that the last ones need."""
        self.sample()
        self.sample()
        return [t * self.scale(first + i) for i, t in enumerate(times)]

    def scale_since(self, index) -> float:
        """Scale from every sample taken from `index` on."""
        return REFERENCE_S / statistics.median(self.samples[index:])


def reference_kernel():
    """Fixed pure-Python work of the kind hgpoly does: exact fractions,
    tuple keys, dictionaries and sorting.  It uses no hgpoly code."""
    acc = Fraction(0)
    table = {}
    for i in range(1, 1500):
        acc += Fraction(i % 7 - 3, i % 5 + 1)
        table[(i % 13, i)] = acc
    return sorted(table.items())[-1]


def setup(workload, seed, gauge):
    """Import hgpoly afresh, generate the inputs and write them, SETUP_REPEATS
    times; returns the ops and the raw and scaled time of each repeat."""
    wl = WORKLOADS[workload]
    directory = OUT / "inputs" / f"{workload}-seed{seed}"
    raw = []
    first = len(gauge.samples) + 1
    gauge.sample()
    for _ in range(SETUP_REPEATS):
        for name in [m for m in sys.modules if m == "hgpoly" or m.startswith("hgpoly.")]:
            del sys.modules[name]
        start = time.perf_counter()
        cli = importlib.import_module("hgpoly.cli")
        items = inputs.make_inputs(workload, seed, wl.pool)
        paths = inputs.write_inputs(directory, items)
        raw.append(time.perf_counter() - start)
        gauge.sample()
    scaled = gauge.scaled(raw, first)
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: hgpoly was imported from {cli.__file__}, not {SRC}")
    ops = [Op(workload, path, data) for path, (_, data) in zip(paths, items)]
    return ops, raw, scaled


def run_timed(ops, seconds, gauge):
    """Closed loop over the ops until `seconds` of raw op time have passed;
    returns raw and scaled per-op times."""
    raw, failures, outputs = [], [], Outputs()
    first = len(gauge.samples) + 1
    gauge.sample()
    while sum(raw) < seconds:
        op = ops[len(raw) % len(ops)]
        elapsed, out, problem = timed_op(op)
        gauge.sample()
        raw.append(elapsed)
        problem = problem or outputs.add(op, out)
        if problem:
            failures.append({"input": op.path.name, "problem": problem})
    return raw, gauge.scaled(raw, first), failures, outputs


def harrell_davis(samples, q) -> float:
    """Harrell-Davis estimate of the q-quantile: the order statistics
    averaged with Beta((n+1)q, (n+1)(1-q)) weights.  A single order
    statistic jumps when inputs of different cost trade places; this moves
    smoothly, which keeps the percentiles steady from seed to seed."""
    x = sorted(samples)
    n = len(x)
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    steps = 32  # midpoint rule for the Beta density over each [i/n, (i+1)/n]
    logs = [
        [(a - 1) * math.log(t) + (b - 1) * math.log1p(-t) for t in ((i + (j + 0.5) / steps) / n for j in range(steps))]
        for i in range(n)
    ]
    top = max(max(row) for row in logs)
    weights = [sum(math.exp(v - top) for v in row) for row in logs]
    return sum(w * v for w, v in zip(weights, x)) / sum(weights)


def end_to_end(samples, setup_times, pool) -> dict:
    """Op `i` ran on input `i % pool`.  The percentiles are taken over the
    inputs, each at the median of its runs, so that the part of the pool a
    run repeats does not tilt the mix of cheap and expensive inputs."""
    per_input = [statistics.median(samples[i::pool]) for i in range(min(pool, len(samples)))]
    return {
        "ops_per_s": len(samples) / sum(samples),
        "op_p50_s": harrell_davis(per_input, 0.5),
        "op_p90_s": harrell_davis(per_input, 0.9),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": statistics.median(setup_times),
    }


def run_traced(ops, seconds, gauge, spans_path):
    """Passes over a fixed subset of the ops until `seconds` have passed:
    each op once through the CLI, untraced, then replayed with spans.  Layer
    times are medians over passes of each pass's scaled self time; counts
    are per pass.  The tracemalloc peaks come from one more pass over fewer
    inputs, so that they add nothing to the layer times."""
    sys.modules.pop("traced", None)  # bind to the hgpoly modules imported by setup
    import traced

    wl = WORKLOADS[ops[0].workload]
    subset = ops[: wl.trace_inputs]
    passes, self_times, failures, outputs = [], [], [], Outputs()
    untraced_s = traced_s = 0.0
    op_id = 0
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        tr = traced.Tracer()
        first_sample = len(gauge.samples)
        for op in subset:
            elapsed, out, problem = timed_op(op)
            untraced_s += elapsed
            tr.op = op_id
            op_id += 1
            op_span = len(tr.spans)
            try:
                with tr.span("op"):
                    replayed = replay(traced, tr, op)
            except (traced.OpFailed, ValueError, KeyError) as exc:
                replayed, problem = None, problem or f"replay: {exc!r}"
            traced_s += tr.spans[op_span][2] - tr.spans[op_span][1]
            if replayed is not None and replayed != out:
                problem = problem or "replayed report differs from the CLI output"
            problem = problem or outputs.add(op, out)
            if problem:
                failures.append({"input": op.path.name, "problem": problem})
            gauge.sample()
        passes.append(tr)
        scale = gauge.scale_since(first_sample)
        self_times.append({k: v * scale for k, v in tr.self_times().items()})
    if any(tr.counts != passes[0].counts for tr in passes):
        failures.append({"input": "*", "problem": "layer counts differ between passes"})

    memory = traced.Tracer(peaks=True)
    tracemalloc.start()
    try:
        for op in ops[: wl.memory_inputs]:
            replay(traced, memory, op)
    finally:
        tracemalloc.stop()

    write_spans(spans_path, passes)
    counts = passes[0].counts
    values = {}
    for name in PER_LAYER_TIMES:
        values[f"{name}_s"] = statistics.median(t.get(name, 0.0) for t in self_times)
    for name in PER_LAYER_COUNTS:
        values[name] = counts.get(name, 0)
    for name, (num, den) in PER_LAYER_RATIOS.items():
        values[name] = counts[num] / counts[den] if counts.get(den) else 0.0
    for name, span in PER_LAYER_PEAKS.items():
        values[name] = memory.peaks.get(span, 0) / 2**20
    values["trace.overhead_ratio"] = traced_s / untraced_s
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in per_layer_units().items()}
    return len(passes) * len(subset), failures, outputs, metrics


def replay(traced, tr, op) -> str:
    """Replay `op` layer by layer with tracer `tr`; returns its report."""
    fn = getattr(traced, WORKLOADS[op.workload].replay)
    return fn(tr, op.path, op.brute_force) if op.workload == "realize" else fn(tr, op.path)


def write_spans(path, passes):
    with open(path, "w") as fh:
        for tr in passes:
            for span in tr.spans:
                fh.write(json.dumps(span) + "\n")


def git_commit():
    """HEAD of the checkout's git directory, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "commit": git_commit(),
    }


def run_workload(workload, seed, seconds, trace) -> dict:
    gauge = Gauge()
    ops, setup_raw, setup_scaled = setup(workload, seed, gauge)
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{trace}"
    if trace:
        spans_path = results / f"{stem}-spans.jsonl"
        attempted, failures, outputs, metrics = run_traced(ops, seconds, gauge, spans_path)
        wall = {}
    else:
        raw, scaled, failures, outputs = run_timed(ops, seconds, gauge)
        attempted = len(raw)
        values = end_to_end(scaled, setup_scaled, len(ops))
        wall = end_to_end(raw, setup_raw, len(ops))
        wall["op_s"], wall["op_scaled_s"] = raw, scaled
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    failed = min(len(failures), attempted)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    record = {
        "environment": environment(seed),
        "workload": workload,
        "seconds": seconds,
        "trace": trace,
        "fail_ratio": failed / attempted,
        "setup_repeats_s": setup_raw,
        "wall": wall,
        "reference_kernel_s": gauge.samples,
        "outputs": outputs.summary(),
        "failures": failures,
        **result,
    }
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    for name, metric in metrics.items():
        note = f" (wall {wall[name]:.6g})" if name in wall and name != "peak_rss_mb" else ""
        print(f"{workload} {name} {metric['value']:.6g} {metric['unit']}{note}")
    print(f"{workload} fail_ratio {failed / attempted:.6g} ratio ({failed} of {attempted} ops)")
    print(f"{workload} ops {attempted}; output sha256 {record['outputs']['sha256']}")
    for failure in failures[:5]:
        print(f"{workload} FAILED {failure['input']}: {failure['problem']}")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "hgpoly" / "cli.py").is_file():
        sys.stderr.write(f"error: no hgpoly sources under {SRC}\n")
        return 2
    sys.path.insert(0, str(SRC))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    ok = True
    for name in names:
        result = run_workload(name, args.seed, args.seconds, args.trace)
        print(json.dumps(result), flush=True)
        ok = ok and result["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
