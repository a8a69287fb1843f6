"""Traced runs: a CLI worker that records spans, and the per-layer metrics.

As a script this runs one tgf command with spans around the library:

    python tracing.py REPORT.json ARG...

It wraps every public function of the layer modules (tgf.ladder,
tgf.formats, tgf.sequences, tgf.spectral, tgf.density, tgf.verify) by
replacing module attributes in this process only, runs
``tgf.cli.main(ARGS)``, and writes the spans (name, layer, start, end,
parent), kept in memory until then, to REPORT.json.  Nothing in the tgf
package is changed.

The kernel (tgf.kernel.compose_keys) is too fine-grained for a span per
call, so it is measured by replay.  After each ladder level the keys of the
level it was built from are composed again with the ladder factors; the
products made inside the brute-force oracles are recorded and composed
again after the command.  Replay time is taken off the trace clock, so no
span contains it.  Each ladder level is timed between two yields of
``ladder_levels``.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time

LAYERS = ("ladder", "formats", "sequences", "spectral", "density", "verify")
BRUTE_FORCE = {"brute_force_sequences", "brute_force_ladder_element"}

# per-layer metrics that are the self time of a group of public functions
SELF_TIME_GROUPS = {
    "formats.ckpt_write_s": {"write_checkpoint"},
    "formats.ckpt_read_s": {"read_checkpoint", "latest_checkpoint_pair"},
    "sequences.transforms_s": {
        "table_from_ladder", "xi_from_h2norm", "h2norm_from_xi", "eta_from_xi",
        "xi_from_eta", "zeta_from_eta", "eta_from_zeta", "m_from_zeta", "zeta_from_m"},
    "sequences.moebius_s": {"moebius_verify", "check_chain_bounds", "moebius"},
    "sequences.brute_force_s": BRUTE_FORCE,
    "sequences.group_ring_s": {"group_ring_check"},
    "spectral.hankel_s": {"hankel_ladder"},
    "spectral.jacobi_s": {"jacobi_coefficients"},
    "spectral.bounds_s": {"bounds_table", "lambda_max"},
    "spectral.fit_s": {"fit_extrapolation"},
    "density.project_s": {"project_density", "expansion_moment"},
    "density.evaluate_s": {"evaluate_curve", "tail_average", "evaluate",
                           "free_density_curve", "free_density"},
}


def _rss_bytes() -> int:
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


class Tracer:
    def __init__(self, kernel, thompson_cls):
        self.kernel = kernel
        self.compose = kernel.compose_keys
        self.thompson_cls = thompson_cls
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.paused = 0.0
        self.levels: list[dict] = []
        self.in_brute_force = 0
        self.right_pairs: list[tuple[bytes, bytes]] = []
        self.other_composes = 0
        self.right_s = 0.0
        self.rss_base = _rss_bytes()

    def now(self) -> float:
        return time.perf_counter() - self.paused

    def open(self, name: str, layer: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, layer, self.now(), None, parent])
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def close(self, idx: int) -> None:
        self.spans[idx][3] = self.now()
        self.stack.pop()

    def counting_compose(self, a: bytes, b: bytes) -> bytes:
        if self.in_brute_force:
            self.right_pairs.append((a, b))
        else:
            self.other_composes += 1
        return self.compose(a, b)

    def wrap(self, fn, layer: str):
        if fn.__name__ == "ladder_levels":
            return self.wrap_levels(fn)
        if inspect.isgeneratorfunction(fn):
            return None
        brute = fn.__name__ in BRUTE_FORCE

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(fn.__name__, layer)
            self.in_brute_force += brute
            try:
                return fn(*args, **kwargs)
            finally:
                self.in_brute_force -= brute
                self.close(idx)
        return traced

    def wrap_levels(self, fn):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            gen = bound.arguments["gen"]
            window = list(bound.arguments.get("seed") or ())
            e = gen.backend.identity_key()
            factors = {0: [g for g in gen.keys() if g != e],
                       1: [g for g in gen.inverse_keys() if g != e]}
            replay = isinstance(gen.backend, self.thompson_cls)
            levels = fn(*args, **kwargs)
            while True:
                idx = self.open("ladder_levels", "ladder")
                # the ladder's own composes are counted from its sizes, not
                # by a wrapper that would slow them down
                self.kernel.compose_keys = self.compose
                try:
                    vec = next(levels)
                except StopIteration:
                    return
                finally:
                    self.kernel.compose_keys = self.counting_compose
                    self.close(idx)
                start, end = self.spans[idx][2:4]
                rss = _rss_bytes() - self.rss_base
                src = window[-1] if window else None
                plain = factors[src.n % 2] if src is not None else []
                products = len(src.entries) * len(plain) if src is not None else 0
                replay_s = self.replay_left(src.entries, plain) if replay and products else 0.0
                window = (window + [vec])[-3:]
                self.levels.append({
                    "label": gen.label, "n": vec.n, "keys": len(vec.entries),
                    "products": products, "seconds": end - start, "replay_s": replay_s,
                    "keys_live": sum(len(v.entries) for v in window), "rss": rss,
                })
                yield vec
        return traced

    def replay_left(self, keys, plain) -> float:
        compose = self.compose
        start = time.perf_counter()
        for k in keys:
            for g in plain:
                compose(g, k)
        seconds = time.perf_counter() - start
        self.paused += seconds
        return seconds

    def replay_right(self) -> None:
        compose = self.compose
        start = time.perf_counter()
        for a, b in self.right_pairs:
            compose(a, b)
        self.right_s = time.perf_counter() - start

    def instrument(self) -> None:
        import tgf

        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"tgf.{layer}")
            for name, obj in vars(mod).items():
                if (not name.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    wrapped = self.wrap(obj, layer)
                    if wrapped is not None:
                        wrappers[obj] = wrapped
        # callers hold the functions under their own names (from-imports)
        for mod in list(sys.modules.values()):
            if mod is tgf or getattr(mod, "__name__", "").startswith("tgf."):
                for name, obj in list(vars(mod).items()):
                    if inspect.isfunction(obj) and obj in wrappers:
                        setattr(mod, name, wrappers[obj])
        self.kernel.compose_keys = self.counting_compose

    def report(self, rc: int) -> dict:
        return {
            "rc": rc, "spans": self.spans, "levels": self.levels,
            "right_composes": len(self.right_pairs), "right_s": self.right_s,
            "other_composes": self.other_composes,
            "replay_s": self.paused + self.right_s,
        }


def worker(argv: list[str]) -> int:
    report_path, args = argv[0], argv[1:]
    import tgf.cli
    import tgf.groups
    import tgf.kernel

    tracer = Tracer(tgf.kernel, tgf.groups.ThompsonF)
    tracer.instrument()
    try:
        rc = tgf.cli.main(args)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    sys.stdout.flush()
    tracer.replay_right()
    with open(report_path, "w") as fh:
        json.dump(tracer.report(rc), fh)
    return rc


# -- aggregation (benchmark side) ---------------------------------------------

def _self_times(spans: list[list]) -> list[float]:
    own = [end - start for _, _, start, end, _ in spans]
    for _, _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_metrics(untraced, traced, ckpt_bytes: int, install_s: float) -> dict:
    """Per-layer metrics of one traced repetition of a workload.

    `untraced` and `traced` are the outcomes of one plain and one traced
    repetition; times are summed over the workload's commands."""
    reports = [o.report for o in traced if o.report is not None]
    sums: dict[str, float] = {name: 0.0 for name in SELF_TIME_GROUPS}
    layer_self = {layer: 0.0 for layer in LAYERS}
    suite_s = library_s = 0.0
    levels = []
    right_n = other_n = 0
    right_s = 0.0
    for rep in reports:
        for (name, layer, start, end, parent), own in zip(rep["spans"],
                                                          _self_times(rep["spans"])):
            layer_self[layer] += own
            for metric, names in SELF_TIME_GROUPS.items():
                if name in names and metric.startswith(layer + "."):
                    sums[metric] += own
            if parent < 0:
                library_s += end - start
            if name == "run_suite":
                suite_s += end - start
        levels += rep["levels"]
        right_n += rep["right_composes"]
        right_s += rep["right_s"]
        other_n += rep["other_composes"]

    worked = [lv for lv in levels if lv["products"]]
    products = sum(lv["products"] for lv in worked)
    level_s = sum(lv["seconds"] for lv in worked)
    replay_s = sum(lv["replay_s"] for lv in worked)
    top = {}
    for lv in levels:
        top[lv["label"]] = max(top.get(lv["label"], 0), lv["keys"])
    biggest = max(levels, key=lambda lv: lv["keys_live"], default=None)

    checks = failed_checks = 0
    for o in traced:
        if o.argv[0] == "verify" and o.proc.rc in (0, 2):
            # exit 2 still prints the report, with the failed checks in it
            report = json.loads(o.stdout)
            checks += len(report["checks"])
            failed_checks += sum(not c["ok"] for c in report["checks"])

    untraced_s = sum(o.proc.seconds for o in untraced)
    traced_s = sum(o.proc.seconds - o.report["replay_s"] for o in traced if o.report)

    def ns(seconds, count):
        return seconds / count * 1e9 if count else 0.0

    values = {
        "kernel.left_ns_per_compose": (ns(replay_s, products), "ns"),
        "kernel.right_ns_per_compose": (ns(right_s, right_n), "ns"),
        "kernel.composes": (products + right_n + other_n, "count"),
        "ladder.ns_per_product": (ns(level_s, products), "ns"),
        "ladder.accumulate_ns_per_product": (ns(level_s - replay_s, products), "ns"),
        "ladder.products": (products, "count"),
        "ladder.keys_top.case1": (top.get("case1", 0), "count"),
        "ladder.keys_top.case2": (top.get("case2", 0), "count"),
        "ladder.rss_bytes_per_key": (
            biggest["rss"] / biggest["keys_live"] if biggest else 0.0, "B/key"),
        "formats.ckpt_bytes": (ckpt_bytes, "B"),
        "verify.suite_s": (suite_s, "s"),
        "verify.checks": (checks, "count"),
        "verify.checks_failed": (failed_checks, "count"),
        "cli.overhead_s": (traced_s - library_s, "s"),
        "build.install_s": (install_s, "s"),
        "trace.overhead_s": (traced_s - untraced_s, "s"),
    }
    values.update({metric: (seconds, "s") for metric, seconds in sums.items()})
    values.update({f"{layer}.self_s": (seconds, "s") for layer, seconds in layer_self.items()})
    return {name: {"value": value, "unit": unit} for name, (value, unit) in sorted(values.items())}


if __name__ == "__main__":
    sys.exit(worker(sys.argv[1:]))
