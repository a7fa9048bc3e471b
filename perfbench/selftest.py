"""Self-test of the benchmark's own output; run from the repository root:

    python3 perfbench/selftest.py [--seconds 1]

For every workload it runs ``run.py`` untraced and traced and checks that

- the last stdout line is a JSON object with exactly the keys ``correct``,
  ``attempted``, ``failed`` and ``metrics``, ``correct`` is true and the
  counts are whole numbers;
- every end-to-end metric in BENCHMARK.json (untraced) and every per-layer
  metric (traced) is reported, with its declared unit and a finite value;
- in the written trace, every span's self time is non-negative and no larger
  than the span, and each layer's self time is no larger than its spans.

It also copies BENCHMARK.json and perfbench/ alone into a scratch directory
and checks that the benchmark fails there without printing a result.
Exits 0 when everything holds, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRATCH = ROOT / ".perfbench" / "selftest"
EPS = 1e-9  # seconds; perf_counter differences are exact to well below this


def run(cwd: Path, workload: str, seconds: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "42", "--seconds", seconds,
           "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def check_result(proc, declared: dict, label: str) -> list[str]:
    errors = []
    if proc.returncode != 0:
        return [f"{label}: exit {proc.returncode}: {proc.stderr.strip()[-300:]}"]
    result = json.loads(proc.stdout.splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{label}: result keys {sorted(result)}")
    if result.get("correct") is not True:
        errors.append(f"{label}: correct is {result.get('correct')!r}")
    for key in ("attempted", "failed"):
        if not isinstance(result.get(key), int) or result[key] < (1 if key == "attempted" else 0):
            errors.append(f"{label}: {key} = {result.get(key)!r}")
    metrics = result.get("metrics", {})
    if set(metrics) != set(declared):
        missing, extra = sorted(set(declared) - set(metrics)), sorted(set(metrics) - set(declared))
        errors.append(f"{label}: missing {missing}, extra {extra}")
    for name, unit in declared.items():
        entry = metrics.get(name, {})
        if entry.get("unit") != unit:
            errors.append(f"{label}: {name} unit {entry.get('unit')!r}, declared {unit!r}")
        value = entry.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            errors.append(f"{label}: {name} value {value!r}")
    return errors


def check_trace(path: Path, label: str) -> list[str]:
    doc = json.loads(path.read_text())
    errors = []
    layer_self: dict[str, float] = {}
    layer_span: dict[str, float] = {}
    for name, start, end, parent, self_s in doc["spans"]:
        duration = end - start
        if self_s < -EPS or self_s > duration + EPS:
            errors.append(f"{label}: span {name} self {self_s} outside [0, {duration}]")
        layer = name.split(".", 1)[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + self_s
        layer_span[layer] = layer_span.get(layer, 0.0) + duration
    for layer, total in layer_self.items():
        if total < -EPS or total > layer_span[layer] + EPS:
            errors.append(f"{label}: layer {layer} self {total} outside [0, {layer_span[layer]}]")
    if not doc["spans"]:
        errors.append(f"{label}: no spans recorded")
    return errors


def check_bare_directory() -> list[str]:
    """The benchmark must refuse to run where only its own files are."""
    bare = SCRATCH / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(bare, "sizing", "1", 0)
    shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout.strip()[:200]!r}"]
    return []


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="check the benchmark's own output")
    p.add_argument("--seconds", default="1")
    args = p.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    errors = check_bare_directory()
    for workload in (w["name"] for w in bench["workloads"]):
        errors += check_result(run(ROOT, workload, args.seconds, 0), end_to_end, f"{workload} trace=0")
        errors += check_result(run(ROOT, workload, args.seconds, 1), per_layer, f"{workload} trace=1")
        errors += check_trace(ROOT / ".perfbench" / "traces" / f"{workload}-seed42.json", f"{workload} trace")
        print(f"selftest: {workload} checked", flush=True)
    for e in errors:
        print(f"selftest: FAIL {e}")
    print(f"selftest: {'ok' if not errors else f'{len(errors)} failure(s)'}")
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
