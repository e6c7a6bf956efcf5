"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload messy --seed 1 --seconds 55 --trace 0

Run from anywhere inside a checkout; the package is imported from ``src/``.
With ``--trace 0`` the run imports ``nfc`` and builds the inputs, then
repeats the workload's op list until ``--seconds`` is used up, checks every
output against ``reference.json`` and the independent checks, and prints the
end-to-end metrics.  Set-up is timed again between ops, spread over the run,
and ``setup_s`` is the median of these samples, so that it sees the same
machine load as ``run_s``.  With
``--trace 1`` it times one plain pass and one pass with ``spans.Tracer``
installed, and prints the per-layer metrics; the spans go to
``bench/out/trace-<workload>-<seed>.json``.  The last line of standard
output is the JSON result; without ``src/nfc`` the run exits with status 2
and prints none.  See README.md for the metric definitions.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from spans import Tracer  # noqa: E402
from workloads import OUT_DIR, WORKLOADS, cli_env  # noqa: E402

SETUP_SAMPLES = 25      # set-up timings per run, spread over --seconds
IMPORT_REPEATS = 5
CLI_PARSE = ("cli.build_parser", "cli.parse_expression", "cli.parse_surface_spec",
             "cli.parse_map_spec", "cli.parse_field_spec")


def nfc_modules() -> dict:
    return {k: m for k, m in sys.modules.items() if k == "nfc" or k.startswith("nfc.")}


def import_nfc():
    """Import ``nfc`` and ``nfc.cli`` afresh from ``src/``."""
    for key in nfc_modules():
        del sys.modules[key]
    nfc = importlib.import_module("nfc")
    importlib.import_module("nfc.cli")
    return nfc


def setup(workload, seed: int) -> tuple:
    """Import ``nfc`` afresh and build the inputs: (seconds, nfc, items)."""
    gc.collect()        # the garbage of an earlier import is not collected inside the timing
    start = perf_counter()
    nfc = import_nfc()
    items = workload.inputs(nfc, seed)
    return perf_counter() - start, nfc, items


def setup_sample(workload, seed: int) -> float:
    """Time one more set-up, then give the run back its own ``nfc`` modules."""
    saved = nfc_modules()
    try:
        return setup(workload, seed)[0]
    finally:
        for key in nfc_modules():
            del sys.modules[key]
        sys.modules.update(saved)


def timed_passes(workload, nfc, items, seconds: float, on_pass, tracer=None,
                 between_ops=None) -> tuple:
    """Repeat the op list while another pass fits in ``seconds`` (at least once).

    A pass's time is the sum of its ops' latencies, so ``between_ops``, called
    after each op, is not timed.  ``on_pass`` receives each pass's outputs
    after its timed region; the outputs are dropped afterwards, so memory does
    not grow with the passes.
    """
    latencies, pass_times = [], []
    while True:
        outs = []
        first = len(latencies)
        for op_id, (_, item) in enumerate(items):
            if tracer is not None:
                tracer.op = op_id
            t = perf_counter()
            try:
                out = workload.run(nfc, item)
            except Exception as exc:  # noqa: BLE001 - a raising op is a failed op
                out = exc
            latencies.append(perf_counter() - t)
            outs.append(out)
            if between_ops is not None:
                between_ops()
        pass_times.append(sum(latencies[first:]))
        on_pass(outs)
        if sum(pass_times) + statistics.median(pass_times) > seconds:
            return latencies, pass_times


class Verdict:
    """Checks outputs against the references; counts failures and coefficient bits."""

    def __init__(self, workload, nfc, items, refs):
        self.workload, self.nfc, self.items, self.refs = workload, nfc, items, refs
        self.attempted = self.failed = self.known = self.bits = 0
        self.unexpected: list = []

    def __call__(self, outs):
        for (key, item), out in zip(self.items, outs):
            self.attempted += 1
            if isinstance(out, Exception):
                kind, why = "fail", f"raised {type(out).__name__}: {out}"
            elif key not in self.refs:
                kind, why = "fail", "no reference output"
            else:
                try:
                    kind, why = self.workload.check(self.nfc, key, item, out, self.refs[key])
                    self.bits = max(self.bits, self.workload.coeff_bits(out))
                except Exception as exc:  # noqa: BLE001 - a check that raises is a failure
                    kind, why = "fail", f"check raised {type(exc).__name__}: {exc}"
            self.failed += kind != "ok"
            self.known += kind == "known"
            if kind == "fail":
                self.unexpected.append(f"{key}: {why}")


def load_references(name: str) -> dict:
    with open(BENCH / "reference.json") as fh:
        return json.load(fh)[name]


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_plain(workload, seed: int, seconds: float) -> tuple:
    elapsed, nfc, items = setup(workload, seed)
    workload.prepare(items)
    setups = [elapsed]
    interval = seconds / SETUP_SAMPLES
    next_at = perf_counter() + interval

    def sample_setup():
        nonlocal next_at
        if perf_counter() >= next_at and len(setups) < SETUP_SAMPLES:
            setups.append(setup_sample(workload, seed))
            next_at = perf_counter() + interval

    verdict = Verdict(workload, nfc, items, load_references(workload.name))
    latencies, pass_times = timed_passes(workload, nfc, items, seconds, verdict,
                                         between_ops=sample_setup)
    metrics = {
        "setup_s": metric(statistics.median(setups), "s"),
        "run_s": metric(statistics.median(pass_times), "s"),
        "op_ms.p50": metric(statistics.median(latencies) * 1e3, "ms"),
        "peak_rss_mb": metric(peak_rss_mb(children=workload.cli), "MB"),
    }
    extra = {"passes": len(pass_times), "ops per pass": len(items), "latency samples": len(latencies),
             "setup samples": len(setups), "errors": verdict.failed / verdict.attempted}
    # a 90th percentile needs ten samples beyond it; op lists under 100 ops
    # (messy, families) report the median only
    if len(items) >= 100:
        extra["op_ms.p90"] = statistics.quantiles(latencies, n=10)[-1] * 1e3
    return metrics, verdict, extra


def idempotency(nfc, calls) -> float:
    """Share of normalize outputs that normalize accepts again and leaves unchanged."""
    if not calls:
        return 1.0
    same = 0
    for args, kwargs, res in calls:
        K = args[1] if len(args) > 1 else kwargs["K"]
        policy = args[2] if len(args) > 2 else kwargs.get("policy", "gauge_zero")
        try:
            again = nfc.normalize(res.normal_form, K, policy)
        except Exception:  # noqa: BLE001 - rejecting its own output is the measured defect
            continue
        same += again.map.is_identity() and again.normal_form == res.normal_form
    return same / len(calls)


def cli_import_s() -> float:
    times = []
    for _ in range(IMPORT_REPEATS):
        start = perf_counter()
        subprocess.run([sys.executable, "-c", "import nfc.cli"], cwd=ROOT, env=cli_env(),
                       check=True, timeout=60)
        times.append(perf_counter() - start)
    return statistics.median(times)


def layer_metrics(tr: Tracer, nfc, workload, bits: int, overhead: float) -> dict:
    results = [res for _, _, res in tr.normalize_calls]
    s, count, ratio = "s", "count", "ratio"
    values = {
        "series.invert_real_triple.s": (tr.inclusive("series.invert_real_triple"), s),
        "series.invert_real_triple.passes": (
            tr.child_calls("series.invert_real_triple", "series.substitute") / 2, count),
        "series.substitute.calls": (tr.calls("series.substitute"), count),
        "series.substitute.self_s": (tr.self_time("series.substitute"), s),
        "series.mul.calls": (tr.calls("series.mul"), count),
        "series.mul.self_s": (tr.self_time("series.mul"), s),
        "series.mul.term_pairs": (tr.counts.get("series.mul.term_pairs", 0), count),
        "surface.transform.calls": (tr.calls("surface.transform"), count),
        "surface.transform.s": (tr.inclusive("surface.transform"), s),
        "surface.transform.self_s": (tr.self_time("surface.transform"), s),
        "normalizer.stage_system.s": (tr.inclusive("normalizer.stage_system"), s),
        "normalizer.solve_stage.s": (tr.inclusive("normalizer.solve_stage"), s),
        "normalizer.prenormalize_level1.s": (tr.inclusive("normalizer.prenormalize_level1"), s),
        "normalizer.stages": (sum(len(r.stages) for r in results), count),
        "normalizer.resonant_stages": (
            sum(st.status == "resonant" for r in results for st in r.stages), count),
        "normalizer.gauge_unknowns": (sum(len(st.gauge) for r in results for st in r.stages), count),
        "normalizer.dropped_conditions": (tr.counts.get("normalizer.dropped_conditions", 0), count),
        "normalizer.idempotent_ratio": (idempotency(nfc, tr.normalize_calls), ratio),
        "scalar.arith.calls": (tr.counts.get("scalar.arith", 0), count),
        "scalar.coeff_bits.max": (bits, "bits"),
        "scalar.integer_roots_ge2.s": (tr.inclusive("scalar.integer_roots_ge2"), s),
        "scalar.kpoly_eval.calls": (tr.calls("scalar.kpoly_eval"), count),
        "resonance.char_poly.s": (tr.inclusive("resonance.char_poly"), s),
        "resonance.det.s": (tr.inclusive("resonance.det"), s),
        "resonance.matrix_B.s": (tr.inclusive("resonance.matrix_B"), s),
        "families.generate.s": (tr.inclusive("families.generate"), s),
        "cli.import_s": (cli_import_s() if workload.cli else 0.0, s),
        "cli.parse.s": (tr.inclusive(CLI_PARSE), s),
        "cli.emit.s": (tr.inclusive("cli.emit"), s),
        "cli.main.s": (tr.inclusive("cli.main"), s),
        "trace.overhead_ratio": (overhead, ratio),
    }
    return {name: metric(value, unit) for name, (value, unit) in values.items()}


def run_traced(workload, seed: int) -> tuple:
    _, nfc, items = setup(workload, seed)
    workload.prepare(items)
    _, plain_times = timed_passes(workload, nfc, items, 0, on_pass=lambda outs: None)
    tr = Tracer()
    tr.install()
    try:
        traced_items = workload.inputs(nfc, seed)     # set-up spans carry op id -1
        workload.prepare(traced_items)
        traced = []
        _, traced_times = timed_passes(workload, nfc, traced_items, 0, traced.extend, tracer=tr)
    finally:
        tr.remove()
    verdict = Verdict(workload, nfc, traced_items, load_references(workload.name))
    verdict(traced)
    overhead = traced_times[0] / plain_times[0]
    metrics = layer_metrics(tr, nfc, workload, verdict.bits, overhead)
    out_dir = ROOT / OUT_DIR
    out_dir.mkdir(parents=True, exist_ok=True)
    trace_path = out_dir / f"trace-{workload.name}-{seed}.json"
    tr.write(trace_path, {"workload": workload.name, "seed": seed})
    by_self = sorted(tr.self_time_by_name().items(), key=lambda kv: -kv[1])[:8]
    extra = {
        "traced pass s": traced_times[0],
        "share under surface.transform": tr.inclusive("surface.transform") / traced_times[0],
        "share under normalizer.solve_stage + stage_system":
            tr.inclusive(("normalizer.solve_stage", "normalizer.stage_system")) / traced_times[0],
        "top self time": ", ".join(f"{name} {t / traced_times[0]:.0%}" for name, t in by_self),
        "spans": f"{len(tr.names)} written to {trace_path.relative_to(ROOT)}",
        "errors": verdict.failed / verdict.attempted,
    }
    return metrics, verdict, extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "nfc" / "__init__.py").is_file():
        print(f"bench: no src/nfc package under {ROOT}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    cls = WORKLOADS[args.workload]
    workload = cls(in_process=True) if args.trace and cls.cli else cls()
    if args.trace:
        metrics, verdict, extra = run_traced(workload, args.seed)
    else:
        metrics, verdict, extra = run_plain(workload, args.seed, args.seconds)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name, m in metrics.items():
        print(f"  {name:36s} {m['value']:>14.6g} {m['unit']}")
    for name, value in extra.items():
        shown = f"{value:>14.6g}" if isinstance(value, float) else value
        print(f"  {name:36s} {shown}")
    print(f"  failed ops {verdict.failed}/{verdict.attempted} "
          f"({verdict.known} known defects, {len(verdict.unexpected)} unexpected)")
    for line in verdict.unexpected[:10]:
        print(f"  unexpected: {line}")
    print(json.dumps({"correct": not verdict.unexpected, "attempted": verdict.attempted,
                      "failed": verdict.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
