"""Correctness side of the benchmark: what counts as a failed operation.

An operation is one (method, seed) run, one aggregate row group, one bound
check, one named acceptance check, one CLI command, or one output file
compared across thread counts.  Config-driven passes are compared with a
stored reference digest when one exists for the seed, else with
invariants only.  ``continuum-checks`` is judged by the acceptance
tolerances of criteria 6, 7 and 9 and by the ``verify`` report.

Reference digests hold, per run and per aggregated method, the status,
the record count, the sum of the indices and, for every numeric column,
the plain and the (position+1)-weighted sum of its values.  These columns
are non-negative (times, norms, and gaps above a zero optimum), so values
that each agree to 1e-12 relative give sums that agree to 1e-12 relative;
the weighted sum also catches reordered records.
"""

from __future__ import annotations

import csv
import gzip
import hashlib
import json
import math
import re
from pathlib import Path

REL_TOL = 1e-12
TRACE_HEADER = ("run_id", "method", "seed", "index", "time",
                "f_gap", "grad_norm", "step_norm", "status")
AGGREGATE_HEADER = ("method", "index", "time", "n_runs", "f_gap_mean", "f_gap_ci",
                    "grad_norm_mean", "grad_norm_ci", "step_norm_mean",
                    "step_norm_ci")
STATUS = re.compile(r"completed|diverged@\d+")


class Tally:
    """Operations attempted and the ones that failed, with a reason each."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}" if detail else name)


# ----------------------------------------------------------------------
# Digests of the trace and aggregate CSVs
# ----------------------------------------------------------------------

def _column_digest(values: list) -> list:
    """[sum, weighted sum, empty cells] of one column of one group."""
    present = [(i + 1, v) for i, v in enumerate(values) if v is not None]
    return [math.fsum(v for _, v in present), math.fsum(w * v for w, v in present),
            len(values) - len(present)]


def _digest_csv(path: Path, header: tuple, index_col: int, value_cols: tuple,
                status_col: int | None = None) -> dict:
    """Digest per group of rows sharing the first column (run id or method)."""
    groups: dict[str, dict] = {}
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        if tuple(next(reader, ())) != header:
            raise ValueError(f"unexpected header in {path.name}")
        for row in reader:
            group = groups.setdefault(row[0], {"rows": [], "status": set()})
            group["rows"].append(row)
            if status_col is not None:
                group["status"].add(row[status_col])
    out = {}
    for key, group in groups.items():
        rows = group["rows"]
        index = [int(r[index_col]) for r in rows]
        columns = [[float(r[c]) if r[c] != "" else None for r in rows]
                   for c in value_cols]
        finite = all(v is None or math.isfinite(v) for col in columns for v in col)
        entry = {
            "n": len(rows),
            "index_sum": sum(index),
            "values": [_column_digest(col) for col in columns],
            "ordered": index[0] == 0 and all(a < b for a, b in zip(index, index[1:])),
            "finite": finite,
        }
        if status_col is not None:
            entry["status"] = ",".join(sorted(group["status"]))
        out[key] = entry
    return out


def digest_outputs(out_dir: Path) -> dict:
    """Digest of traces.csv and aggregates.csv in one output directory."""
    return {
        "traces": _digest_csv(out_dir / "traces.csv", TRACE_HEADER, 3, (4, 5, 6, 7),
                              status_col=8),
        "aggregates": _digest_csv(out_dir / "aggregates.csv", AGGREGATE_HEADER, 1,
                                  (2, 3, 4, 5, 6, 7, 8, 9)),
    }


REFERENCE_FIELDS = ("status", "n", "index_sum", "values")


def reference_view(digest: dict) -> dict:
    """The part of a digest that is stored as a reference."""
    return {
        part: {key: {f: entry[f] for f in REFERENCE_FIELDS if f in entry}
               for key, entry in groups.items()}
        for part, groups in digest.items()
    }


def reference_path(root: Path, workload: str, seed: int) -> Path:
    return root / "bench" / "reference" / workload / f"seed-{seed}.json.gz"


def load_reference(root: Path, workload: str, seed: int) -> dict | None:
    path = reference_path(root, workload, seed)
    if not path.is_file():
        return None
    with gzip.open(path, "rt", encoding="utf-8") as fh:
        return json.load(fh)


def _close(a: float, b: float) -> bool:
    return a == b or abs(a - b) <= REL_TOL * max(abs(a), abs(b))


def _mismatch(entry: dict, ref: dict, columns: tuple) -> str:
    for f in ("status", "n", "index_sum"):
        if f in ref and entry.get(f) != ref[f]:
            return f"{f} {entry.get(f)!r} != reference {ref[f]!r}"
    for col, new, old in zip(columns, entry["values"], ref["values"]):
        if new[2] != old[2] or not (_close(new[0], old[0]) and _close(new[1], old[1])):
            return f"{col} differs from reference beyond {REL_TOL:g} relative"
    return ""


# ----------------------------------------------------------------------
# Config-driven passes (optimize)
# ----------------------------------------------------------------------

def expected_runs(cfg: dict) -> int:
    n = 0
    for entry in cfg["methods"]:
        combos = 1
        for values in entry.get("grid", {}).values():
            combos *= len(values)
        n += combos
    return n * int(cfg["run"].get("n_seeds", 1))


def expected_records(cfg: dict) -> int:
    """Records of a completed run: index 0, every stride-th step, the last."""
    run = cfg["run"]
    stride = int(run.get("record_stride", 1))
    steps = int(run["iterations"])
    return 1 + steps // stride + (1 if steps % stride else 0)


def check_command(tally: Tally, command: dict) -> None:
    name = f"command {command['argv'][0]}"
    if command["error"] is not None:
        tally.check(name, False, command["error"].strip().splitlines()[-1])
    else:
        tally.check(name, command["code"] == 0, f"exit code {command['code']}")


def check_config_pass(tally: Tally, cfg: dict, command: dict, out_dir: Path,
                      reference: dict | None) -> None:
    """Runs, aggregates and bound checks of one optimize pass."""
    check_command(tally, command)
    for bound in cfg.get("bounds", []):
        prefix = f"bound {bound['kind']} on {bound['method']}: "
        lines = [ln for ln in command["stdout"].splitlines() if ln.startswith(prefix)]
        status = lines[0][len(prefix):].split()[0] if lines else "missing"
        tally.check(f"bound {bound['kind']} on {bound['method']}", status == "ok",
                    f"status {status}")
    try:
        digest = digest_outputs(out_dir)
    except (OSError, ValueError, IndexError) as err:
        tally.check("outputs", False, f"unreadable: {err}")
        return
    traces, aggregates = digest["traces"], digest["aggregates"]
    if reference is not None:
        for part, groups, header in (("run", traces, TRACE_HEADER[4:8]),
                                     ("aggregate", aggregates, AGGREGATE_HEADER[2:])):
            refs = reference["traces" if part == "run" else "aggregates"]
            for key in sorted(set(refs) | set(groups)):
                if key not in groups or key not in refs:
                    tally.check(f"{part} {key}", False,
                                "missing" if key not in groups else "not in reference")
                    continue
                detail = _mismatch(groups[key], refs[key], header)
                tally.check(f"{part} {key}", not detail, detail)
        return
    tally.check("run count", len(traces) == expected_runs(cfg),
                f"{len(traces)} runs, expected {expected_runs(cfg)}")
    n_complete = expected_records(cfg)
    for key, entry in sorted(traces.items()):
        problem = ""
        if not STATUS.fullmatch(entry["status"]):
            problem = f"status {entry['status']!r}"
        elif not (entry["ordered"] and entry["finite"]):
            problem = "records out of order or not finite"
        elif entry["status"] == "completed" and entry["n"] != n_complete:
            problem = f"{entry['n']} records, expected {n_complete}"
        tally.check(f"run {key}", not problem, problem)
    for key, entry in sorted(aggregates.items()):
        tally.check(f"aggregate {key}", entry["ordered"] and entry["finite"],
                    "rows out of order or not finite")


# ----------------------------------------------------------------------
# continuum-checks
# ----------------------------------------------------------------------

def _variance_ode_rows(path: Path) -> list[tuple[float, ...]]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        if tuple(next(reader, ())) != ("t", "p1", "p2", "p3"):
            raise ValueError(f"unexpected header in {path.name}")
        return [tuple(float(v) for v in row) for row in reader]


def check_variance_ode(tally: Tally, model: str, path: Path) -> None:
    """Criterion 7's long-run shape and the Cauchy-Schwarz constraint."""
    try:
        rows = _variance_ode_rows(path)
    except (OSError, ValueError) as err:
        tally.check(f"variance-ode {model} output", False, str(err))
        return
    worst = max(p2 * p2 - p1 * p3 - 1e-9 * max(1.0, abs(p1 * p3))
                for _, p1, p2, p3 in rows)
    tally.check(f"variance-ode {model} cauchy-schwarz", worst <= 0.0,
                f"p2^2 - p1 p3 exceeds tolerance by {worst:.3e}")
    p3 = [r[3] for r in rows]
    if model == "nesterov":
        tail = [r[3] for r in rows if r[0] >= 20.0]
        ok = len(tail) > 1 and all(a < b for a, b in zip(tail, tail[1:]))
        tally.check("variance-ode nesterov shape", ok,
                    "bare-noise second moment not increasing beyond t = 20")
    else:
        tally.check(f"variance-ode {model} shape", max(p3) < 100.0,
                    f"carried-noise sup p3 = {max(p3):.4g} >= 100")


def check_warp(tally: Tally, command: dict) -> None:
    match = re.search(r"sup path gap = (\S+)", command["stdout"])
    gap = float(match.group(1)) if match else math.inf
    tally.check("warp gap", gap < 1e-3, f"sup path gap {gap:.3e} >= 1e-3")


def check_ensemble(tally: Tally, ensemble: dict | None) -> None:
    """Criterion 6: Var[V] laws t/7 (bare noise) and 9/(5t) (carried)."""
    if ensemble is None or "error" in ensemble:
        tally.check("ensemble", False, (ensemble or {}).get("error", "not run"))
        return
    n = ensemble["n_paths"]
    targets = {"nesterov": lambda t: t / 7.0,
               "quadratic_forgetting": lambda t: 9.0 / (5.0 * t)}
    for model, target in targets.items():
        for t, var in zip(ensemble["times"], ensemble["variances"][model]):
            z = abs(var - target(t)) / (var * math.sqrt(2.0 / (n - 1)))
            tally.check(f"ensemble {model} t={t:g}", z < 3.0, f"|z| = {z:.2f}")


def check_verify_report(tally: Tally, path: Path) -> None:
    try:
        report = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as err:
        tally.check("verify report", False, str(err))
        return
    for check in report["checks"]:
        tally.check(f"verify {check['name']}", bool(check["passed"]), check["detail"])


# ----------------------------------------------------------------------
# Thread-count invariance
# ----------------------------------------------------------------------

def file_hashes(out_dir: Path) -> dict[str, str]:
    if not out_dir.is_dir():
        return {}
    return {
        str(p.relative_to(out_dir)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out_dir.rglob("*")) if p.is_file()
    }


def check_same_bytes(tally: Tally, label: str, base: dict, other: dict) -> None:
    for name in sorted(set(base) | set(other)):
        tally.check(f"{label} {name}", base.get(name) == other.get(name),
                    "bytes differ" if name in base and name in other else "missing")
