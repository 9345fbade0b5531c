"""The blockiso benchmark: CLI invocations timed in fresh processes.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Runs the workload's invocation list (see `workloads.py`) pass after pass,
one child process at a time: `--seconds / PASS_S` passes, at least two.
Every invocation's exit code and stdout SHA-256 must equal the ones
recorded in `expected.json`, and its stderr must hold no traceback.  With `--trace 1` each pass is run twice,
untraced and then traced (wrappers from `tracer.py`), and the per-layer
metrics are reported together with the tracing overhead.

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; the lines before it give every metric
by name and unit, and the environment.  A full result with one row per
invocation is written to `bench/out/`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import tracer
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
EXPECTED = BENCH / "expected.json"
CHILD = BENCH / "child.py"
# A run must end well within 180 s, whatever --seconds asks for.
HARD_LIMIT_S = 150.0
# A run makes --seconds / PASS_S passes, at least MIN_PASSES: a count that
# does not depend on how fast the program is, so that the least of each
# invocation's samples is taken over as many samples on every commit.
# PASS_S is about one pass of either workload on a slow phase of a 2-vCPU
# Xeon VM, so a run of --seconds seldom takes longer.
PASS_S = 16.0
MIN_PASSES = 2
P90_MIN_INVOCATIONS = 100
MODULES = (
    "wreath", "symchar", "perfect", "isometry", "abacus",
    "partitions", "lattice", "modular", "cli", "reporting",
)


def key(argv: list[str]) -> str:
    return json.dumps(argv)


def load_expected() -> dict:
    with open(EXPECTED, encoding="utf-8") as fh:
        return json.load(fh)


def child_env() -> dict:
    """The program is imported from this checkout's `src`, never elsewhere."""
    return dict(os.environ, PYTHONPATH=f"{SRC}{os.pathsep}{BENCH}")


def run_invocation(argv: list[str], traced: bool, timeout: float, cpu: int | None = None) -> dict:
    """Run one CLI invocation in a fresh process (pinned to `cpu`) and measure it."""
    opts = (["--trace"] if traced else []) + (["--cpu", str(cpu)] if cpu is not None else [])
    cmd = [sys.executable, str(CHILD), *opts, "--", *argv]
    with tempfile.TemporaryFile(dir=OUT) as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, env=child_env(), cwd=ROOT)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            out = proc.stdout.read()
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        err_lines = err.read().decode("utf-8", "replace").splitlines()
    row = {
        "argv": argv,
        "traced": traced,
        "wall_s": wall,
        "exit": proc.returncode,
        "bytes": len(out),
        "sha256": hashlib.sha256(out).hexdigest(),
        "rss_mb": usage.ru_maxrss / 1024,
        "import_s": None,
        "parser_s": None,
        "trace": None,
        "stderr": [],
    }
    for line in err_lines:
        if line.startswith("bench-setup "):
            row["import_s"], row["parser_s"] = map(float, line.split()[1:3])
        elif line.startswith("bench-trace "):
            row["trace"] = json.loads(line[len("bench-trace "):])
        else:
            row["stderr"].append(line)
    return row


def gate(expected: dict, row: dict) -> bool:
    """True when the invocation matches its recorded exit code and digest."""
    want = expected.get(key(row["argv"]))
    return (
        want is not None
        and row["exit"] == want["exit"]
        and row["sha256"] == want["sha256"]
        and row["import_s"] is not None
        and (row["trace"] is not None) == row["traced"]
        and not any("Traceback" in line for line in row["stderr"])
    )


def host_probe() -> float:
    """A fixed pure-Python loop; its time tracks the host's speed."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        for i in range(1_000_000):
            acc = (acc * 31 + i) % 1_000_003
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
    }


def host_sample(label: str) -> dict:
    return {"at": label, "loadavg": list(os.getloadavg()), "host_probe_s": host_probe()}


def run_passes(name: str, seed: int, seconds: float, trace: bool, expected: dict) -> list[dict]:
    """Run the workload's passes; stop early on a failure or near HARD_LIMIT_S."""
    invocations, rng = workloads.build(name, seed)
    missing = [inv for inv in invocations if key(inv) not in expected]
    if missing:
        raise SystemExit(f"no recorded output for {len(missing)} invocations, e.g. {missing[0]}")
    # Successive passes run on successive CPUs: when one CPU of the host is
    # slowed by other work for a while, another pass still finds a quiet one.
    cpus = sorted(os.sched_getaffinity(0))
    passes: list[dict] = []
    start = time.perf_counter()
    for number in range(1, max(MIN_PASSES, int(seconds // PASS_S)) + 1):
        group_start = time.perf_counter()
        order = workloads.next_pass(invocations, rng)
        cpu = cpus[number % len(cpus)]
        for traced in (False, True) if trace else (False,):
            rows = []
            for argv in order:
                left = HARD_LIMIT_S - (time.perf_counter() - start)
                row = run_invocation(argv, traced, max(left, 1.0), cpu)
                row["ok"] = gate(expected, row)
                rows.append(row)
            passes.append({"traced": traced, "rows": rows})
        now = time.perf_counter()
        if any(not r["ok"] for p in passes for r in p["rows"]):
            break
        if now - start + (now - group_start) > HARD_LIMIT_S:
            break
    return passes


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(rows: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced pass (children that died are left out)."""
    rows = [r for r in rows if r["trace"] is not None and r["import_s"] is not None]
    spans = [s for r in rows for s in r["trace"]["spans"]]
    calls: dict[str, int] = {}
    inclusive: dict[str, float] = {}
    own: dict[str, float] = {}
    for name, parent, n, total, self_s in spans:
        calls[name] = calls.get(name, 0) + n
        own[name] = own.get(name, 0) + self_s
        if parent != name:
            inclusive[name] = inclusive.get(name, 0) + total
    hits: dict[str, list[int]] = {}
    for r in rows:
        for cname, (h, m, size) in r["trace"]["caches"].items():
            acc = hits.setdefault(cname, [0, 0, 0])
            acc[0] += h
            acc[1] += m
            acc[2] = max(acc[2], size)

    def hit_ratio(cname: str) -> float:
        h, m, _ = hits.get(cname, (0, 0, 0))
        return _ratio(h, h + m)

    def distinct(name: str) -> int:
        return sum(r["trace"]["distinct"].get(name, 0) for r in rows)

    rows_zeta = ("wreath.zeta_irr", "wreath.zeta_class_function")
    zeta_calls = sum(calls.get(n, 0) for n in rows_zeta)
    module_self = tracer.self_times(spans)
    m = {f"{mod}.self_s": module_self.get(mod, 0.0) for mod in MODULES}
    m.update({
        "wreath.zeta_value_calls": calls.get("wreath.zeta_value", 0),
        "wreath.zeta_row_calls": zeta_calls,
        "wreath.zeta_row_distinct_ratio": _ratio(sum(distinct(n) for n in rows_zeta), zeta_calls),
        "wreath.inner_calls": calls.get("wreath.wreath_inner_product", 0),
        "wreath.inner_self_s": own.get("wreath.wreath_inner_product", 0.0),
        "wreath.classes_hit_ratio": hit_ratio("wreath.enumerate_wreath_classes"),
        "symchar.inner_calls": calls.get("symchar.inner_product", 0),
        "symchar.inner_self_s": own.get("symchar.inner_product", 0.0),
        "symchar.irr_row_calls": calls.get("symchar.irr_class_function", 0),
        "symchar.irr_row_distinct_ratio": _ratio(
            distinct("symchar.irr_class_function"), calls.get("symchar.irr_class_function", 0)
        ),
        "symchar.char_value_calls": calls.get("symchar.character_value", 0),
        "symchar.mn_hit_ratio": hit_ratio("symchar._mn"),
        "symchar.mn_cache_size": hits.get("symchar._mn", (0, 0, 0))[2],
        "perfect.transfer_calls": calls.get("perfect.R_mu", 0) + calls.get("perfect.I_mu", 0),
        "perfect.mu_build_s": inclusive.get("perfect.build_mu", 0.0),
        "isometry.image_calls": calls.get("isometry.isometry_image", 0),
        "isometry.pushdown_s": inclusive.get("isometry.pushdown_to_wreath", 0.0),
        "isometry.scan_s": inclusive.get("isometry.compute_W", 0.0),
        "abacus.calls": sum(n for name, n in calls.items() if name.startswith("abacus.")),
        "partitions.enum_hit_ratio": hit_ratio("partitions.enumerate_partitions"),
        "lattice.hnf_calls": calls.get("lattice.hnf", 0),
        "lattice.hnf_max_bits": max((r["trace"]["max_bits"].get("lattice.hnf", 0) for r in rows), default=0),
        "cli.emit_s": sum(
            total for name, parent, _, total, _ in spans
            if name in tracer.EMIT and parent not in tracer.EMIT
        ),
        "cli.output_bytes": sum(r["bytes"] for r in rows),
        "cli.import_s": low_decile([r["import_s"] for r in rows]),
        "cli.parser_s": low_decile([r["parser_s"] for r in rows]),
        "reporting.records": calls.get("reporting.record", 0),
    })
    return m


def unit_of(name: str) -> str:
    for suffix, unit in (("_s", "s"), ("_mb", "MB"), ("_ratio", "ratio"), ("_bytes", "bytes"), ("_bits", "bits")):
        if name.endswith(suffix):
            return unit
    return "count"


def is_count(name: str) -> bool:
    return unit_of(name) != "s"


def best_total(passes: list[dict]) -> tuple[float, list[float]]:
    """Sum over the invocation list of each invocation's least wall time.

    Contention from other work on the host only ever adds time, and comes
    in bursts, so the least of several samples is the steadiest estimate of
    what the code costs."""
    best: dict[str, float] = {}
    for p in passes:
        for r in p["rows"]:
            k = key(r["argv"])
            best[k] = min(best.get(k, r["wall_s"]), r["wall_s"])
    return sum(best.values()), list(best.values())


def low_decile(values: list[float]) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10, method="inclusive")[0]


def summarize(passes: list[dict], trace: bool) -> tuple[dict, dict]:
    """Reported metrics and the informational extras."""
    plain = [p for p in passes if not p["traced"]]
    rows = [r for p in plain for r in p["rows"]]
    walls = [r["wall_s"] for r in rows]
    wall, best = best_total(plain)
    extra = {
        "passes": len(plain),
        "invocations_per_pass": len(best),
        "call_samples": len(walls),
        "wall_s": wall,
        "setup_s": low_decile([r["import_s"] + r["parser_s"] for r in rows if r["import_s"] is not None]),
        "call_p50_s": statistics.median(best),
        "peak_rss_mb": max(r["rss_mb"] for r in rows),
    }
    if len(walls) >= P90_MIN_INVOCATIONS:
        extra["call_p90_s"] = statistics.quantiles(walls, n=10)[8]
    if not trace:
        names = ("wall_s", "setup_s", "peak_rss_mb")
        return {n: extra[n] for n in names}, extra
    traced = [p for p in passes if p["traced"]]
    per_pass_layers = [layer_metrics(p["rows"]) for p in traced]
    layers = {}
    for name in per_pass_layers[0]:
        values = [lm[name] for lm in per_pass_layers]
        layers[name] = values[0] if is_count(name) else min(values)
    extra["counts_repeat"] = all(
        lm[n] == per_pass_layers[0][n] for lm in per_pass_layers for n in lm if is_count(n)
    )
    layers["trace.wall_s"] = best_total(traced)[0]
    layers["trace.overhead_s"] = layers["trace.wall_s"] - extra["wall_s"]
    return layers, extra


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "blockiso" / "cli.py").is_file() or not EXPECTED.is_file():
        print(f"bench: needs {SRC / 'blockiso'} and {EXPECTED}", file=sys.stderr)
        return 2
    expected = load_expected()
    OUT.mkdir(exist_ok=True)

    env = environment()
    before = host_sample("start")
    passes = run_passes(args.workload, args.seed, args.seconds, bool(args.trace), expected)
    after = host_sample("end")

    rows = [r for p in passes for r in p["rows"]]
    failed = sum(not r["ok"] for r in rows)
    metrics, extra = summarize(passes, bool(args.trace))
    extra["fail_ratio"] = failed / len(rows)

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "samples": [before, after],
        "metrics": metrics,
        "extra": extra,
        "rows": [
            {k: r[k] for k in ("argv", "traced", "wall_s", "exit", "bytes", "ok", "rss_mb", "import_s", "parser_s")}
            | {"digest_match": r["sha256"] == expected[key(r["argv"])]["sha256"], "stderr": r["stderr"][-5:]}
            for r in rows
        ],
    }
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  result {path.relative_to(ROOT)}")
    print(f"env python {env['python']}  nproc {env['nproc']}  cpu {env['cpu_model']}")
    for s in (before, after):
        load = " ".join(f"{x:.2f}" for x in s["loadavg"])
        print(f"env {s['at']}: loadavg {load}  host_probe_s {s['host_probe_s']:.4f}")
    print(
        f"{extra['passes']} untraced passes of {extra['invocations_per_pass']} invocations;"
        f" {extra['call_samples']} call samples; times are each invocation's least"
    )
    notes = {
        "call_p50_s": f"(median of {extra['invocations_per_pass']} invocations)",
        "call_p90_s": f"(of all {extra['call_samples']} samples)",
        "fail_ratio": f"({failed} of {len(rows)})",
    }
    for name in ("wall_s", "setup_s", "call_p50_s", "call_p90_s", "peak_rss_mb", "fail_ratio"):
        if name in extra:
            print(f"{name} {extra[name]!r} {unit_of(name)} {notes.get(name, '')}".rstrip())
    if args.trace:
        print(f"counts_repeat {extra['counts_repeat']}")
        for name, value in metrics.items():
            print(f"{name} {value!r} {unit_of(name)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(rows),
        "failed": failed,
        "metrics": {n: {"value": v, "unit": unit_of(n)} for n, v in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
