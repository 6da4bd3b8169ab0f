#!/usr/bin/env python3
"""metasim benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Generates the workload's input files from the seed, runs the workload's
operation repeatedly for about S seconds, checks every output, and
prints as the last line of stdout one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. With --trace 0
the metrics are the end-to-end ones declared in BENCHMARK.json; with
--trace 1 they are the per-layer ones, taken from spans the benchmark
records around calls into metasim's modules. The line before it holds
the provenance: machine, versions, commit, seed, drawn inputs and the
sample count behind every timing. The full record, spans included, is
written to .bench_work/results/.

The program is measured from outside only: operations go through the
public entry points (``metasim.cli.main`` in-process, ``run_scenario``,
``run_sweep``). Each operation runs in a child forked from the
benchmark after metasim is imported, so every operation starts from the
state a fresh CLI process has once its imports finish: cold caches and
no heap left by earlier operations. Memory and cache growth therefore
do not depend on how many operations fit into S seconds.

Every printed time is scaled to reference speed: a fixed NumPy task is
timed just before and after each operation and probe, and the time is
scaled by REF_S over the reference's mean time around it. This takes
the host's own changes of speed out of the numbers (see ``REF_S``).

See README.md for why each workload exists and which end-to-end
metric each layer metric should move.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import inputs  # noqa: E402
from spans import Tracer, call_counts, rebound, self_times  # noqa: E402

PROBES = 3
MIN_OPS = 2
# The host's speed changes by up to 1.7x in spells that last from
# seconds to minutes (see README, Steadiness). Every operation and probe
# is bracketed by a fixed NumPy task, the reference, and its wall time
# is scaled by REF_S / (the reference's mean time around it): the time
# it would have taken on a host where the reference takes REF_S, which
# is about its time on the development host in its fast spell.
REF_CELLS = 480
REF_ITERS = 3000
REF_S = 0.047
# never start an operation that is expected to end past this point, so
# a run ends well within 180 s even when the program gets much slower
HARD_LIMIT_S = 140.0


class Metasim:
    """The metasim modules the benchmark calls into or rebinds."""

    def __init__(self):
        import metasim.cli
        import metasim.observables
        import metasim.runner
        import metasim.scenarios
        import metasim.spectral

        self.cli = metasim.cli
        self.observables = metasim.observables
        self.runner = metasim.runner
        self.scenarios = metasim.scenarios
        self.spectral = metasim.spectral


def reference_s() -> float:
    """Wall time of the reference: NumPy calls on arrays the size of the
    base scenario's live cohorts, the kind of work a metasim step does,
    but no metasim code, so a change to the program cannot move it."""
    import numpy as np

    a = np.linspace(0.0, 1.0, REF_CELLS)
    b = np.ones(REF_CELLS)
    t0 = time.perf_counter()
    for _ in range(REF_ITERS):
        b = np.exp(-(a * b + a)).sum() * b / REF_CELLS
    return time.perf_counter() - t0


def bracketed(fn):
    """``(fn(), mean reference time just before and just after it)``."""
    before = reference_s()
    out = fn()
    return out, (before + reference_s()) / 2.0


def at_ref(seconds: float, ref: float) -> float:
    """``seconds`` measured while the reference took ``ref``, scaled to
    a host where the reference takes ``REF_S``."""
    return seconds * REF_S / ref


def run_cli(ms: Metasim, argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = ms.cli.main(argv)
    return code, buf.getvalue()


class Workload:
    """One named workload: its inputs, operation, checks and steps."""

    name = ""
    probe_kind = "scenario"

    def __init__(self, seed: int, inputs_dir: Path, nproc: int):
        self.seed = seed
        self.inputs_dir = inputs_dir
        self.nproc = nproc

    def op_inputs(self, k: int) -> list[Path]:
        """Input files of operation ``k``; written before it is timed."""
        return [self.path]

    def bindings(self, ms: Metasim, tracer: Tracer) -> list:
        """``(module, attr, make_replacement)`` for the traced run."""
        t = tracer.wrapper
        return [
            (ms.cli, "main", t("cli.main")),
            (ms.cli, "load_scenario", t("scenarios.load_scenario")),
            (ms.cli, "run_scenario", t("runner.run_scenario")),
            (ms.scenarios, "load_scenario", t("scenarios.load_scenario")),
            (ms.runner, "run_scenario", t("runner.run_scenario")),
            (ms.runner, "simulate", t("engine.simulate")),
            (ms.runner, "oscillation_metrics", t("observables.oscillation_metrics")),
            (ms.runner, "line_chart", t("svgplot.line_chart")),
            (ms.observables, "histogram", t("observables.histogram")),
        ]

    def workers(self) -> int:
        return 1

    def steps(self, payload: dict, metas: list[dict]) -> int:
        return sum(meta["n_steps"] for meta in metas)


class BaseRun(Workload):
    name = "base-run"

    def prepare(self) -> dict:
        doc = inputs.base_run(self.seed)
        self.path = inputs.write_json(self.inputs_dir / "base.json", doc)
        self.scenario_name = doc["name"]
        self.reference_csv = None
        return doc

    def run(self, ms: Metasim, paths: list[Path], out_dir: Path) -> dict:
        code, _ = run_cli(ms, ["run", str(paths[0]), "--out", str(out_dir)])
        return {"exit": code}

    def check(self, payload: dict, out_dir: Path) -> list[str]:
        if payload["exit"] != 0:
            return [f"metasim run exited with {payload['exit']}"]
        ts = out_dir / f"{self.scenario_name}_timeseries.csv"
        if self.reference_csv is None and ts.is_file():
            self.reference_csv = ts.read_bytes()
        return checks.base_run(out_dir, self.scenario_name, self.reference_csv)


class DenseCohorts(Workload):
    name = "dense-cohorts"
    min_live = 10_000

    def prepare(self) -> dict:
        doc = inputs.dense_cohorts(self.seed)
        self.path = inputs.write_json(self.inputs_dir / "dense.json", doc)
        self.scenario_name = doc["name"]
        return doc

    def run(self, ms: Metasim, paths: list[Path], out_dir: Path) -> dict:
        sc = ms.scenarios.load_scenario(str(paths[0]))
        ms.runner.run_scenario(sc, out_dir=str(out_dir))
        return {}

    def check(self, payload: dict, out_dir: Path) -> list[str]:
        return checks.dense_cohorts(out_dir, self.scenario_name, self.min_live)


class ESweep(Workload):
    name = "e-sweep"
    probe_kind = "sweep"

    def prepare(self) -> dict:
        doc = inputs.e_sweep(self.seed)
        self.path = inputs.write_json(self.inputs_dir / "sweep.json", doc)
        self.doc = doc
        return doc

    def bindings(self, ms: Metasim, tracer: Tracer) -> list:
        # Sweep points run in forked workers, which would inherit any
        # wrapper inside the runner, so only the calls made in this
        # process are rebound; point numbers come from their run.json.
        t = tracer.wrapper
        return [
            (ms.scenarios, "load_sweep", t("scenarios.load_sweep")),
            (ms.runner, "run_sweep", t("runner.run_sweep")),
        ]

    def workers(self) -> int:
        return min(self.nproc, len(self.doc["values"]))

    def run(self, ms: Metasim, paths: list[Path], out_dir: Path) -> dict:
        sw = ms.scenarios.load_sweep(str(paths[0]))
        ms.runner.run_sweep(sw, out_dir=str(out_dir), jobs=self.nproc)
        return {}

    def check(self, payload: dict, out_dir: Path) -> list[str]:
        return checks.sweep(out_dir, self.doc["axis"], self.doc["values"])


class Lambda0Cold(Workload):
    name = "lambda0-cold"

    def prepare(self) -> dict:
        self.drawn = []
        return {"batches": self.drawn}

    def op_inputs(self, k: int) -> list[Path]:
        if k == len(self.drawn):
            self.drawn.append(
                [doc["params"].get("b", 1.0) for doc in inputs.lambda0_batch(self.seed, k)]
            )
        return inputs.write_lambda0_batch(self.seed, k, self.inputs_dir)

    def bindings(self, ms: Metasim, tracer: Tracer) -> list:
        spectral = ms.spectral

        def split(malthus_exponent):
            # flow build = the first characteristic_flow call on the new
            # key; root solve = malthus_exponent on the now-warm flow
            def traced(p):
                with tracer.span("spectral.flow_build"):
                    spectral.characteristic_flow(0.0, p)
                with tracer.span("spectral.root_solve"):
                    return malthus_exponent(p)

            return traced

        t = tracer.wrapper
        return [
            (ms.cli, "main", t("cli.main")),
            (ms.cli, "load_scenario", t("scenarios.load_scenario")),
            (ms.cli, "malthus_exponent", split),
        ]

    def run(self, ms: Metasim, paths: list[Path], out_dir: Path) -> dict:
        docs, codes = {}, []
        for path in paths:
            code, out = run_cli(ms, ["lambda0", str(path)])
            codes.append(code)
            if code == 0:
                doc = json.loads(out)
                docs[doc["name"]] = doc
        return {"exit": codes, "docs": docs}

    def check(self, payload: dict, out_dir: Path) -> list[str]:
        bad = [c for c in payload["exit"] if c != 0]
        problems = [f"{len(bad)} lambda0 call(s) exited non-zero: {bad}"] if bad else []
        return problems + checks.lambda0(payload["docs"], "anchor")

    def steps(self, payload: dict, metas: list[dict]) -> int:
        # the quadrature runs on the flow's RK grid: one node per step
        return sum(doc["quadrature_nodes"] - 1 for doc in payload["docs"].values())


WORKLOADS = {w.name: w for w in (BaseRun, DenseCohorts, ESweep, Lambda0Cold)}


def run_metas(out_dir: Path) -> list[dict]:
    """Every run.json an operation wrote, sweep points included."""
    out = []
    for p in sorted(out_dir.rglob("*_run.json")):
        try:
            out.append(json.loads(p.read_text()))
        except (OSError, ValueError):
            continue
    return out


def in_child(fn) -> dict:
    """Run ``fn()`` in a forked child; return ``{"ok": result}`` or
    ``{"error": traceback}``. The child's result travels back as JSON
    over a pipe, and the child is always waited for."""
    sys.stdout.flush()
    sys.stderr.flush()
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(r)
        try:
            try:
                payload = {"ok": fn()}
            except BaseException:
                payload = {"error": traceback.format_exc()}
            with os.fdopen(w, "w") as fh:
                json.dump(payload, fh)
        finally:
            os._exit(0)
    os.close(w)
    with os.fdopen(r) as fh:
        data = fh.read()
    _, status = os.waitpid(pid, 0)
    try:
        return json.loads(data)
    except ValueError:
        return {"error": f"operation child ended with status {status} and no result"}


def probe(workload: Workload) -> dict:
    """Time a fresh interpreter from spawn until it has imported metasim
    and loaded the inputs of operation 0."""
    files = [str(p) for p in workload.op_inputs(0)]
    cmd = [sys.executable, str(BENCH / "probe.py"), str(SRC), workload.probe_kind, *files]

    def spawn():
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            ready = time.perf_counter() - t0
            proc.stdout.read()
            code = proc.wait(timeout=60)
        if code != 0 or not line:
            raise RuntimeError(f"set-up probe failed with exit code {code}")
        return ready, line

    (ready, line), ref = bracketed(spawn)
    return {"setup_s": ready, "ref": ref, **json.loads(line)}


def git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            sha, _, name = line.partition(" ")
            if name == ref:
                return sha
    except OSError:
        pass
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for p in sorted((SRC / "metasim").glob("*.py")):
        h.update(p.name.encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def peak_rss_mib() -> float:
    """Largest resident set of this process and of its waited-for
    children (sweep workers, inside an operation's child)."""
    kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kib / 1024.0


def median(values, default=0.0) -> float:
    return statistics.median(values) if values else default


def layer_values(workload: Workload, op: dict) -> dict[str, float]:
    """Per-layer numbers of one traced operation, times at reference
    speed."""
    spans = op["spans"]
    scale = REF_S / op["ref"]
    st = {name: t * scale for name, t in self_times(spans).items()}
    calls = call_counts(spans)
    metas = op["metas"]
    # runtime_s is the program's own raw timing; utilisation is a ratio
    # of raw times, the point times are scaled like every other time
    raw_runtimes = [m["runtime_s"] for m in metas]
    runtimes = [t * scale for t in raw_runtimes]
    steps = sum(m["n_steps"] for m in metas)
    simulate_s = st.get("engine.simulate", sum(runtimes, 0.0))
    return {
        "scenarios.load_s": st.get("scenarios.load_scenario", 0.0)
        + st.get("scenarios.load_sweep", 0.0),
        "cli.self_s": st.get("cli.main", 0.0),
        "engine.simulate_self_s": simulate_s,
        "engine.us_per_step": 1e6 * simulate_s / steps if steps else 0.0,
        "engine.steps": steps,
        "engine.live_cohorts_final": max((m["final"]["n_live"] for m in metas), default=0),
        "observables.histogram_s": st.get("observables.histogram", 0.0),
        "observables.oscillation_metrics_s": st.get("observables.oscillation_metrics", 0.0),
        "runner.self_s": st.get("runner.run_scenario", 0.0),
        "runner.artifact_bytes": op["artifact_bytes"],
        "runner.point_runtime_s": median(runtimes),
        "runner.point_runtime_max_s": max(runtimes, default=0.0),
        "runner.pool_utilisation": sum(raw_runtimes) / (workload.workers() * op["wall"]),
        "svgplot.line_chart_s": st.get("svgplot.line_chart", 0.0),
        "svgplot.calls": calls.get("svgplot.line_chart", 0),
        "spectral.flow_build_s": st.get("spectral.flow_build", 0.0),
        "spectral.root_solve_s": st.get("spectral.root_solve", 0.0),
        "spectral.quadrature_nodes": sum(
            d["quadrature_nodes"] for d in op["payload"].get("docs", {}).values()
        ),
    }


def load_declared() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def error_ratio(ops: list[dict]) -> float:
    return sum(1 for op in ops if op["problems"]) / len(ops)


def end_to_end_values(probes: list[dict], ops: list[dict]) -> dict[str, float]:
    timed = [op for op in ops if "wall" in op and not op["traced"]]
    return {
        "setup_s": median([at_ref(p["setup_s"], p["ref"]) for p in probes]),
        "wall_s": median([at_ref(op["wall"], op["ref"]) for op in timed]),
        "steps_per_s": median([op["steps"] / at_ref(op["wall"], op["ref"]) for op in timed]),
        "peak_rss_mib": median([op["rss_mib"] for op in timed]),
    }


# stands in for the traced operations when none completed: every layer reads 0
EMPTY_OP = {"spans": [], "metas": [], "payload": {}, "artifact_bytes": 0, "wall": 1.0, "ref": REF_S}


def per_layer_values(workload: Workload, probes: list[dict], ops: list[dict]) -> dict[str, float]:
    """Medians over the traced operations, plus the set-up layer from
    the probes and the tracing overhead against the untraced operations
    of the same run."""
    timed = [op for op in ops if "wall" in op]
    traced = [op for op in timed if op["traced"]]
    layers = [layer_values(workload, op) for op in traced] or [layer_values(workload, EMPTY_OP)]
    values = {name: median([lv[name] for lv in layers]) for name in layers[0]}
    wall_t = median([at_ref(op["wall"], op["ref"]) for op in traced])
    wall_u = median([at_ref(op["wall"], op["ref"]) for op in timed if not op["traced"]])
    values.update(
        {
            "cli.import_s": median([at_ref(p["import_s"], p["ref"]) for p in probes]),
            "host.ref_s": median([op["ref"] for op in timed]),
            "trace.wall_s": wall_t,
            "trace.overhead_ratio": wall_t / wall_u - 1.0 if wall_t and wall_u else 0.0,
            "error_ratio": error_ratio(ops),
        }
    )
    return values


def as_metrics(values: dict[str, float], declared: list[dict]) -> dict[str, dict]:
    """Values in declaration order with their declared units; a value
    without a declaration, or the reverse, is a benchmark defect."""
    names = [m["name"] for m in declared]
    if sorted(values) != sorted(names):
        raise RuntimeError(f"metrics {sorted(values)} do not match declared {sorted(names)}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}


def measure(ms: Metasim, workload: Workload, run_dir: Path, seconds: float, trace: bool):
    """Operations for about ``seconds``: never start one expected to
    end past the deadline once the minimum count is reached. A traced
    run measures untraced and traced operations in pairs, alternating
    which goes first."""
    ops: list[dict] = []
    deadline = min(float(seconds), HARD_LIMIT_S)
    per_round = 2 if trace else 1
    min_rounds = 1 if trace else MIN_OPS
    t_start = time.perf_counter()
    rounds = 0
    while True:
        elapsed = time.perf_counter() - t_start
        est = per_round * median([op["wall"] for op in ops if "wall" in op])
        if rounds >= min_rounds and elapsed + est > deadline:
            break
        if rounds and elapsed + est > HARD_LIMIT_S:
            break
        sides = ([False, True] if rounds % 2 == 0 else [True, False]) if trace else [False]
        for traced in sides:
            ops.append(run_op(ms, workload, len(ops), run_dir, traced))
        rounds += 1
    return ops


def benchmark(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    ms = Metasim()
    nproc = len(os.sched_getaffinity(0))
    WORK.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{workload_name}-{seed}-", dir=WORK))
    try:
        workload = WORKLOADS[workload_name](seed, run_dir / "inputs", nproc)
        drawn = workload.prepare()
        probes = [probe(workload) for _ in range(PROBES)]
        ops = measure(ms, workload, run_dir, seconds, trace)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    declared = load_declared()
    if trace:
        metrics = as_metrics(per_layer_values(workload, probes, ops), declared["per_layer"])
    else:
        metrics = as_metrics(end_to_end_values(probes, ops), declared["end_to_end"])
    failed = [op for op in ops if op["problems"]]
    provenance = {
        "workload": workload_name,
        "seed": seed,
        "trace": int(trace),
        "run_seconds": seconds,
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": sys.modules["numpy"].__version__,
        "scipy": sys.modules["scipy"].__version__,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "drawn": drawn,
        "reference": {
            "REF_S": REF_S,
            "measured_s_median": median([op["ref"] for op in ops if "ref" in op]),
            "raw_wall_s_median": median([op["wall"] for op in ops if "wall" in op]),
        },
        "samples": {
            "setup_s": len(probes),
            "untraced_ops": sum(1 for op in ops if "wall" in op and not op["traced"]),
            "traced_ops": sum(1 for op in ops if "wall" in op and op["traced"]),
        },
        "error_ratio": error_ratio(ops),
    }
    record = {
        "provenance": provenance,
        "metrics": metrics,
        "probes": probes,
        "ops": [{k: v for k, v in op.items() if k not in ("payload", "metas")} for op in ops],
    }
    results = WORK / "results"
    results.mkdir(exist_ok=True)
    with open(results / f"{workload_name}-seed{seed}-trace{int(trace)}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    for op in failed:
        print(f"op {op['index']}: " + "; ".join(op["problems"][:5]), file=sys.stderr)
    return {
        "provenance": provenance,
        "result": {
            "correct": not failed,
            "attempted": len(ops),
            "failed": len(failed),
            "metrics": metrics,
        },
    }


def run_op(ms: Metasim, workload: Workload, k: int, run_dir: Path, traced: bool) -> dict:
    """One operation in a forked child, then its checks in this process."""
    paths = workload.op_inputs(k)
    out_dir = run_dir / f"op{k}"

    def child():
        tracer = Tracer()
        bindings = workload.bindings(ms, tracer) if traced else []
        with rebound(bindings):
            t0 = time.perf_counter()
            with tracer.span("bench.op") if traced else contextlib.nullcontext():
                payload = workload.run(ms, paths, out_dir)
            wall = time.perf_counter() - t0
        return {
            "wall": wall,
            "rss_mib": peak_rss_mib(),
            "payload": payload,
            "spans": tracer.spans if traced else [],
        }

    res, ref = bracketed(lambda: in_child(child))
    op = {"index": k, "traced": traced, "ref": ref}
    if "error" in res:
        op["problems"] = [res["error"].strip().splitlines()[-1]]
        op["traceback"] = res["error"]
    else:
        op.update(res["ok"])
        op["problems"] = workload.check(op["payload"], out_dir)
        op["metas"] = run_metas(out_dir)
        op["steps"] = workload.steps(op["payload"], op["metas"])
        op["artifact_bytes"] = sum(
            p.stat().st_size
            for p in out_dir.rglob("*")
            if p.is_file() and not p.name.endswith("_run.json")
        )
    shutil.rmtree(out_dir, ignore_errors=True)
    return op


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if not (SRC / "metasim" / "__init__.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"error: no metasim source tree under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    out = benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"provenance": out["provenance"]}))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
