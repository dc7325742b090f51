#!/usr/bin/env python3
"""hlsl benchmark: one workload, end to end or per layer, in this process.

    python3 perfbench/run.py --workload mine-dense --seed 1 --seconds 20 --trace 0

Run from the repository root. The package is imported from `src/` of the same
checkout, so nothing needs installing. One run:

  1. writes the workload's inputs from `--seed` nine times (`setup_s` is the
     median);
  2. runs the workload's command list once untimed as a warm-up; its output
     files are the reference for the repeat checks;
  3. `--trace 0`: repeats the command list through `hlsl.cli.main(argv)`
     until `--seconds` have passed and reports the median of every
     end-to-end metric;
     `--trace 1`: alternates untraced and traced repeats for `--seconds`,
     reports the median per-layer numbers of the traced repeats and, from
     the pairs, the tracing overhead; then computes the ppll KKT residual
     outside the timed section;
  4. checks every command's outputs (see `check_outputs`); each failed check
     counts in `failed`, none aborts the run.

End-to-end times are wall seconds divided by the machine's slowdown over the
same repeat (see `Probe`); the raw wall seconds are in the report.

Standard output ends with one JSON line: correct, attempted, failed, metrics.
The line before it is the full report (upper percentiles, sample counts,
every repeat's samples, run facts). Exit status is 0 whenever a result was
printed.
"""
from __future__ import annotations

import argparse
import glob
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 9
MIN_REPEATS = 2  # timed repeats even when --seconds is already spent
REF_CHUNK_S = 0.005  # one reference chunk at nominal speed (see `Probe`)


def declared_metrics() -> tuple[dict[str, str], dict[str, str]]:
    """(end-to-end, per-layer) metric name -> unit, as BENCHMARK.json lists
    them; a run prints exactly these."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def _reference_chunk() -> float:
    """Seconds one fixed chunk of interpreter and numpy work takes now."""
    import numpy as np

    started = time.perf_counter()
    table = {}
    for i in range(20000):
        table[(i % 97, i)] = i
    sum(v for k, v in table.items() if k[0] == 3)
    a = np.arange(50000, dtype=np.float64)
    np.bincount((a % 1000).astype(np.int64), weights=a)
    np.sort(a[::-1])
    return time.perf_counter() - started


class Probe:
    """How much slower than nominal the machine runs over a stretch of
    calls. Shared machines drift by tens of percent within a minute, so
    `timed` runs three reference chunks before and after every call it
    times, and `slowdown()` is the median of all of them over REF_CHUNK_S.
    Dividing the stretch's wall times by it removes most of the drift; one
    slowdown per stretch (a pipeline repeat) rather than per call keeps the
    chunks' own jitter out. The chunk is the benchmark's own code, so no
    change to the package can move it."""

    def __init__(self) -> None:
        self.chunks: list[float] = []

    def timed(self, fn, *args):
        """(result, wall seconds) of fn(*args)."""
        self.chunks.extend(_reference_chunk() for _ in range(3))
        started = time.perf_counter()
        result = fn(*args)
        wall = time.perf_counter() - started
        self.chunks.extend(_reference_chunk() for _ in range(3))
        return result, wall

    def slowdown(self) -> float:
        return statistics.median(self.chunks) / REF_CHUNK_S


class Ledger:
    """Attempted and failed operations (commands and output checks)."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed.append(what)


def _sha256(path: str) -> str | None:
    try:
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()
    except OSError:
        return None


def _rows(path: str) -> list[list[str]]:
    try:
        with open(path, encoding="utf-8") as fh:
            return [line.rstrip("\n").split("\t") for line in fh if line.strip() and not line.startswith("#")]
    except OSError:
        return []


class Runner:
    """One workload's inputs, commands, checks and collected numbers."""

    def __init__(self, workload: str, seed: int, work: str, size: str = "full") -> None:
        from workloads import SIZES, make_inputs, plan

        self.work = work
        self.sizes = SIZES[workload][size]
        probe, self.setup_wall = Probe(), []
        for _ in range(SETUP_REPEATS):
            self.inputs, wall = probe.timed(make_inputs, workload, seed, os.path.join(work, "inputs"), size)
            self.setup_wall.append(wall)
        self.setup_times = [w / probe.slowdown() for w in self.setup_wall]
        self.commands = plan(workload, self.inputs, work, size)
        self.ledger = Ledger()
        self.digests: dict[str, str | None] = {}  # output path -> warm-up sha256
        self.objectives: list[float] = []  # MAP objectives of this pipeline run
        self.reference_objectives: list[float] | None = None
        self.aucs: dict[str, float] = {}

    def pipeline(self, tracer=None) -> tuple[dict[str, float], dict[str, float]]:
        """Run every command once. Returns normalised and wall seconds per
        stage, and their sums under "pipeline"."""
        import hlsl.cli
        from workloads import write_prefix

        def main(argv):
            try:
                if tracer is None:
                    return hlsl.cli.main(argv)
                return tracer.call(f"cli.{argv[0]}", hlsl.cli.main, argv)[0]
            except Exception as exc:  # a crash is a failed operation, not a failed benchmark
                print(f"command {argv[0]} raised {type(exc).__name__}: {exc}", file=sys.stderr)
                return -1

        for name in os.listdir(self.work):  # stale outputs must not pass a check
            if name.endswith(".tsv"):
                os.remove(os.path.join(self.work, name))
        probe, wall = Probe(), {"pipeline": 0.0}
        self.objectives = []
        for cmd in self.commands:
            if cmd.prefix:
                write_prefix(*cmd.prefix)
            rc, w = probe.timed(main, cmd.argv)
            wall[cmd.stage] = wall.get(cmd.stage, 0.0) + w
            wall["pipeline"] += w
            self.ledger.check(rc == 0, f"{cmd.stage} exited {rc}")
        self.check_outputs()
        slow = probe.slowdown()
        return {stage: w / slow for stage, w in wall.items()}, wall

    def check_outputs(self) -> None:
        """Output checks of one pipeline run (untimed):
        - clause, model and prediction files repeat byte for byte;
        - predictions cover every held-out atom with a finite value in [0, 1];
        - the learned models' held-out AUC is above the workload's floor;
        - ppll keeps every planted clause its pool contains;
        - every MAP objective repeats exactly (the fixed coupled model's on
          map-coupled among them)."""
        from workloads import PLANTED

        led, work = self.ledger, self.work
        expected = set(self.inputs.test_keys)
        for cmd in self.commands:
            for path in cmd.outputs:
                digest = _sha256(path)
                ref = self.digests.setdefault(path, digest)
                led.check(digest is not None and digest == ref, f"{os.path.basename(path)} changed")
            if cmd.stage == "infer":
                seen, ok = set(), True
                for row in _rows(cmd.outputs[0]):
                    try:
                        value = float(row[3])
                        ok = ok and len(row) == 4 and math.isfinite(value) and 0.0 <= value <= 1.0
                    except (IndexError, ValueError):
                        ok = False
                    seen.add(tuple(row[:3]))
                led.check(ok and seen == expected, f"{os.path.basename(cmd.outputs[0])} incomplete or out of range")
            if cmd.stage.startswith("eval_"):
                tag = cmd.stage[len("eval_"):]
                try:
                    auc = float(_rows(os.path.join(work, f"metrics_{tag}.tsv"))[1][0])
                except (IndexError, ValueError):
                    auc = math.nan
                self.aucs[tag] = auc
                floor = self.sizes.auc_floor
                if tag != "fixed":  # the fixed coupled model is a MAP load, not a learned model
                    led.check(floor is None or auc > floor, f"auc_{tag}={auc} not above {floor}")
        pool = {row[0] for row in _rows(self.inputs.pool or os.path.join(work, "clauses.tsv"))}
        kept = {row[1] for row in _rows(os.path.join(work, "model_ppll.tsv")) if len(row) == 2}
        missing = [c for c in PLANTED if c in pool and c not in kept]
        led.check(not missing, f"ppll dropped planted clauses {missing}")
        if self.reference_objectives is None:
            self.reference_objectives = self.objectives
        led.check(self.objectives == self.reference_objectives,
                  f"MAP objectives {self.objectives} != {self.reference_objectives}")

    def kkt_residual(self) -> float:
        """Projected-gradient residual of the ppll weights over the whole
        pool: dropped clauses count at w = 0, the gradient is the public
        `objective_gradient(..., "ppll", l2_sigma)`, projected on [0, w_max]."""
        import numpy as np
        from hlsl import (LearnConfig, WeightedModel, format_clause, ground_clauses, load_database,
                          objective_gradient, read_model)
        from hlsl.clauses import read_clause_file

        inp, cfg = self.inputs, LearnConfig()
        db = load_database(inp.schema, [inp.observed, inp.train])
        pool_path = inp.pool or os.path.join(self.work, "clauses.tsv")
        with open(pool_path, encoding="utf-8") as fh:
            pool = read_clause_file(fh, db)
        with open(os.path.join(self.work, "model_ppll.tsv"), encoding="utf-8") as fh:
            model = read_model(fh, db)
        kept = {format_clause(c): w for c, w in zip(model.clauses, model.weights)}
        w = np.array([kept.get(format_clause(c), 0.0) for c in pool])
        grad = objective_gradient(WeightedModel(pool, w), ground_clauses(pool, db), db.value_vector(),
                                  "ppll", cfg.l2_sigma, cfg.p)
        return float(np.abs(np.clip(w + grad, 0.0, cfg.w_max) - w).max())

    def layer_metrics(self, tracer) -> dict[str, float]:
        c = tracer.counts
        iters = len(_rows(os.path.join(self.work, "trace_ppll.tsv")))
        return {
            "data.load_s": tracer.total("data.load"),
            "data.atoms": c.get("data.atoms", 0),
            "data.edges": c.get("data.edges", 0),
            "clauses.generate_s": tracer.total("clauses.generate"),
            "clauses.bfs_calls": c.get("clauses.bfs_calls", 0),
            "clauses.paths": c.get("clauses.paths", 0),
            "clauses.bfs_max_ms": c.get("clauses.bfs_max_ms", 0.0),
            "clauses.candidates": c.get("clauses.candidates", 0),
            "grounding.ground_s": tracer.total("grounding.ground"),
            "grounding.ground_clause_calls": c.get("grounding.ground_clause_calls", 0),
            "grounding.grounds": c.get("grounding.grounds", 0),
            "grounding.terms": c.get("grounding.terms", 0),
            "grounding.restrict_s": tracer.total("grounding.restrict"),
            "grounding.restrict_calls": c.get("grounding.restrict_calls", 0),
            "engine.workspace_s": tracer.total("engine.workspace"),
            "engine.workspace_builds": c.get("engine.workspace_builds", 0),
            "engine.pairs": c.get("engine.pairs", 0),
            "engine.segments": c.get("engine.segments", 0),
            "engine.combos": c.get("engine.combos", 0),
            "engine.gradient_s": tracer.total("engine.gradient"),
            "engine.gradient_calls": c.get("engine.gradient_calls", 0),
            "engine.objective_s": tracer.total("engine.objective"),
            "engine.objective_calls": c.get("engine.objective_calls", 0),
            "learning.ppll_s": tracer.total("learning.ppll"),
            "learning.ppll_iters": iters,
            "learning.evals_per_iter": c.get("engine.ppll_objective_calls", 0) / max(iters, 1),
            "learning.ppll_kept": c.get("learning.ppll_kept", 0),
            "learning.gls_s": tracer.total("learning.gls"),
            "learning.gls_rounds": len(_rows(os.path.join(self.work, "trace_gls.tsv"))),
            "inference.ground_s": tracer.total("grounding.ground", under="cli.infer"),
            "inference.map_s": tracer.total("inference.map"),
            "inference.free_atoms": c.get("inference.free_atoms", 0),
            "inference.map_objective": c.get("inference.map_objective", 0.0),
            "inference.auc_s": tracer.total("inference.auc"),
            "cli.self_s": tracer.self_time("cli."),
        }


def _spread(values: list[float]) -> dict[str, float]:
    """Median, the highest percentile with ten samples beyond it (the
    maximum while there are fewer than eleven samples), and the count."""
    ordered = sorted(values)
    n = len(ordered)
    label, upper = (f"p{100 * (n - 10) // n}", ordered[n - 11]) if n > 10 else ("max", ordered[-1])
    return {"median": statistics.median(ordered), label: upper, "n": n}


def run_facts() -> dict[str, object]:
    import numpy as np

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    caches: dict[str, int | None] = {"l1d_kb": None, "l2_kb": None, "l3_kb": None}
    for index in glob.glob("/sys/devices/system/cpu/cpu0/cache/index*"):
        try:
            fields = {}
            for key in ("level", "type", "size"):
                with open(os.path.join(index, key), encoding="utf-8") as fh:
                    fields[key] = fh.read().strip()
        except OSError:
            continue
        if fields["type"] == "Instruction" or not fields["size"].endswith("K"):
            continue
        name = "l1d_kb" if fields["level"] == "1" else f"l{fields['level']}_kb"
        caches[name] = int(fields["size"][:-1])
    src_lines = 0
    for path in glob.glob(os.path.join(SRC, "**", "*.py"), recursive=True):
        with open(path, encoding="utf-8") as fh:
            src_lines += sum(1 for _ in fh)
    return {"nproc": os.cpu_count(), "cpu": cpu, **caches, "python": platform.python_version(),
            "numpy": np.__version__, "src_lines": src_lines}


def run(workload: str, seed: int, seconds: float, trace: bool, work: str, size: str = "full") -> dict:
    """Run one workload and return the result object (plus a `report` key
    with the detail that does not fit the result line)."""
    import hlsl.cli
    from tracer import Tracer

    runner = Runner(workload, seed, work, size)
    # The MAP objective repeat check needs the solver's return value; this
    # one wrapper costs a function call per `infer` and is on in every run.
    map_infer = hlsl.cli.map_infer

    def probe(*args, **kwargs):
        solution = map_infer(*args, **kwargs)
        runner.objectives.append(solution.objective)
        return solution

    hlsl.cli.map_infer = probe
    try:
        runner.pipeline()  # warm-up and reference outputs
        samples: dict[str, list[float]] = {}  # normalised seconds per repeat
        wall: dict[str, list[float]] = {}  # wall seconds per repeat
        layers: dict[str, list[float]] = {}
        started = time.perf_counter()
        tracer = Tracer() if trace else None
        reps = 0
        while reps < MIN_REPEATS or time.perf_counter() - started < seconds:
            for out, times in zip((samples, wall), runner.pipeline()):
                for stage, value in times.items():
                    out.setdefault(stage, []).append(value)
            if tracer is not None:
                tracer.reset()
                tracer.install()
                try:
                    traced = runner.pipeline(tracer)[1]
                finally:
                    tracer.uninstall()
                for name, value in runner.layer_metrics(tracer).items():
                    layers.setdefault(name, []).append(value)
                layers.setdefault("trace.pipeline_traced_s", []).append(traced["pipeline"])
            reps += 1
        kkt = runner.kkt_residual() if trace else None
    finally:
        hlsl.cli.map_infer = map_infer

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    facts = run_facts()
    facts["peak_rss_mb"] = peak_rss_mb
    if facts["l3_kb"]:
        facts["peak_rss_over_l3"] = peak_rss_mb * 1024 / facts["l3_kb"]
    samples["setup"], wall["setup"] = runner.setup_times, runner.setup_wall
    timing = {stage: _spread(v) for stage, v in samples.items()}
    wall_timing = {stage: _spread(v) for stage, v in wall.items()}
    if trace:
        layers["trace.pipeline_untraced_s"] = wall["pipeline"]
        metrics = {name: statistics.median(v) for name, v in layers.items()}
        metrics["learning.ppll_kkt"] = kkt
        facts["trace_overhead_s"] = metrics["trace.pipeline_traced_s"] - metrics["trace.pipeline_untraced_s"]
        units = declared_metrics()[1]
    else:
        med = {stage: statistics.median(v) for stage, v in samples.items()}
        metrics = {
            "setup_s": statistics.median(runner.setup_times),
            "pipeline_s": med["pipeline"],
            "generate_s": med["generate"],
            "learn_ppll_s": med["learn_ppll"],
            "learn_gls_s": med["learn_gls"],
            "infer_s": med["infer"],
            "auc_ppll": runner.aucs.get("ppll", float("nan")),
            "auc_gls": runner.aucs.get("gls", float("nan")),
            "peak_rss_mb": peak_rss_mb,
        }
        units = declared_metrics()[0]
    ledger = runner.ledger
    return {
        "correct": not ledger.failed,
        "attempted": ledger.attempted,
        "failed": len(ledger.failed),
        # A value is only non-finite when an operation failed, which `failed`
        # already counts; 0 keeps the line valid JSON.
        "metrics": {name: {"value": metrics[name] if math.isfinite(metrics[name]) else 0.0, "unit": unit}
                    for name, unit in units.items()},
        "report": {
            "workload": workload, "seed": seed, "trace": int(trace), "repeats": reps,
            "timing_s": timing, "wall_timing_s": wall_timing,
            "samples_s": samples, "wall_samples_s": wall, "aucs": runner.aucs,
            "ops_failed": len(ledger.failed) / max(ledger.attempted, 1),
            "failures": ledger.failed[:20], "facts": facts,
            "spans": tracer.summary() if trace else None,  # the last traced repeat
        },
    }


def main(argv: list[str] | None = None) -> int:
    sys.path.insert(0, HERE)
    from workloads import SIZES

    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(SIZES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="length of the timed section")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "hlsl", "cli.py")):
        print(f"error: no package source at {SRC}/hlsl; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    work = os.path.join(ROOT, ".perfbench", f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    report = result.pop("report")
    print(json.dumps(report, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
