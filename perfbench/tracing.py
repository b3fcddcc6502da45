"""Span tracing of the leoican layers, done from outside the package.

Each wrapped call records one span: name, start, end, parent span and the
context it ran in, where a context is one (workload, pass, seed, scheme).
Spans stay in flat in-memory arrays while the workload runs and are written
out once at the end. Nothing under ``src/`` is changed: functions are
replaced, for the duration of a ``with tracer.patched():`` block, under the
module attribute that their caller looks up. The package imports functions
by name (``from .convex_kernel import solve_surrogate``), so patching only
the defining module would miss those callers.
"""

import contextlib
import importlib
import math
import time
from array import array
from collections import namedtuple

import numpy as np

SCHEMES = ("cfg-dc", "gdop_greedy-dc", "cfg-mrt", "cfg-zf", "gdop_greedy-mrt", "gdop_greedy-zf")


# Payloads turn a call's arguments and result into the (work, flag) integers
# recorded on its span; both are 0 for targets without a payload.
def _iterations(_args, solution):
    return solution.iterations, int(not solution.converged)


def _dc_run(_args, result):
    trace = result[1]
    return trace.iterations, int(not trace.converged)


def _stack_size(args, _result):
    x = args[0]
    return (x.shape[0] if x.ndim == 3 else 1), 0


def _length(_args, result):
    return len(result), 0


def _switches(_args, result):
    log = result[2]
    return len(log), sum(1 for record in log if record.accepted)


# (module, attribute or Class.method, span name, payload). The module is
# the one whose global the caller reads, which is not always the module that
# defines the function.
TARGETS = (
    ("harness", "run_seed", "harness.run_seed", None),
    ("harness", "run_scheme", "harness.run_scheme", None),
    ("harness", "emit_reports", "harness.emit_reports", None),
    ("harness", "generate_scenario", "geometry.generate_scenario", None),
    ("harness", "build_channel_map", "channel.build_channel_map", _length),
    ("harness", "cfg_selection", "selection.cfg_selection", _switches),
    ("harness", "gdop_selection", "selection.gdop_selection", None),
    ("harness", "per_ue_rates", "metrics.per_ue_rates", None),
    ("selection", "build_preference_list", "selection.build_preference_list", _length),
    ("selection", "gdop_greedy_selection", "selection.gdop_greedy_selection", None),
    ("selection", "gdop", "metrics.gdop", None),
    ("selection", "satellite_rates", "metrics.satellite_rates", None),
    ("metrics", "satellite_rates", "metrics.satellite_rates", None),
    ("beamforming", "MrtEngine.beams_for_satellite", "beamforming.engine", None),
    ("beamforming", "ZfEngine.beams_for_satellite", "beamforming.engine", None),
    ("beamforming", "DcEngine.beams_for_satellite", "beamforming.engine", None),
    ("beamforming", "dc_beamforming", "beamforming.dc_beamforming", _dc_run),
    ("beamforming", "mrt_weight", "beamforming.mrt_weight", None),
    ("beamforming", "zf_satellite", "beamforming.zf_satellite", None),
    ("beamforming", "rank1_extract", "beamforming.rank1_extract", None),
    ("beamforming", "true_rates_from_q", "beamforming.true_rates_from_q", None),
    ("beamforming", "solve_surrogate", "convex_kernel.solve_surrogate", _iterations),
    ("beamforming", "surrogate_components", "convex_kernel.surrogate_components", None),
    ("convex_kernel", "project_capped_psd", "convex_kernel.project_capped_psd", _stack_size),
    ("convex_kernel", "validate_psd_set", "convex_kernel.validate_psd_set", None),
)

LayerStat = namedtuple("LayerStat", "calls self_s total_s work work_max flag")


class Tracer:
    """In-memory span store plus the patching that feeds it."""

    def __init__(self, workload):
        self.workload = workload
        self.names = []
        self._name_ids = {}
        self.contexts = []
        self._context_ids = {}
        self._context_pass = []
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.context = array("i")
        self.work = array("q")
        self.flag = array("q")
        self._stack = []
        self._pass = 0
        self._seed = None
        self._context = self._context_id()

    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _context_id(self, scheme=None):
        key = f"{self.workload}/pass{self._pass}"
        if self._seed is not None:
            key += f"/seed{self._seed}"
        if scheme is not None:
            key += f"/{scheme}"
        if key not in self._context_ids:
            self._context_ids[key] = len(self.contexts)
            self.contexts.append(key)
            self._context_pass.append(self._pass)
        return self._context_ids[key]

    def begin_pass(self, index):
        self._pass = index
        self._seed = None
        self._context = self._context_id()

    def _record(self, name, fn, payload, args, kwargs):
        index = len(self.start)
        self.name.append(self._name_id(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.context.append(self._context)
        self.end.append(math.nan)
        self.work.append(0)
        self.flag.append(0)
        self._stack.append(index)
        self.start.append(time.perf_counter())
        try:
            result = fn(*args, **kwargs)
        finally:
            self.end[index] = time.perf_counter()
            self._stack.pop()
        if payload is not None:
            self.work[index], self.flag[index] = payload(args, result)
        return result

    def _wrap(self, name, fn, payload):
        if name == "harness.run_seed":
            def wrapper(config, seed, *args, **kwargs):
                outer = self._context
                self._seed = int(seed)
                self._context = self._context_id()
                try:
                    return self._record(name, fn, payload, (config, seed) + args, kwargs)
                finally:
                    self._seed = None
                    self._context = outer
        elif name == "harness.run_scheme":
            def wrapper(scheme, *args, **kwargs):
                outer = self._context
                self._context = self._context_id(scheme.name)
                try:
                    return self._record(f"{name}.{scheme.name}", fn, payload,
                                        (scheme,) + args, kwargs)
                finally:
                    self._context = outer
        else:
            def wrapper(*args, **kwargs):
                return self._record(name, fn, payload, args, kwargs)
        wrapper.__wrapped__ = fn
        return wrapper

    @contextlib.contextmanager
    def patched(self):
        """Route every target through the span recorder; restore on exit."""
        originals = []
        try:
            for module_name, attribute, name, payload in TARGETS:
                owner = importlib.import_module(f"leoican.{module_name}")
                *path, leaf = attribute.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = owner.__dict__[leaf]
                originals.append((owner, leaf, original))
                setattr(owner, leaf, self._wrap(name, original, payload))
            yield self
        finally:
            for owner, leaf, original in reversed(originals):
                setattr(owner, leaf, original)

    def _arrays(self):
        name = np.frombuffer(self.name, dtype=np.int32)
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        duration = end - start
        covered = np.zeros_like(duration)
        has_parent = parent >= 0
        # children of one span run one after another, so their union is their sum
        np.add.at(covered, parent[has_parent], duration[has_parent])
        return name, parent, duration, duration - covered

    def _in_passes(self, passes):
        pass_of_span = np.array(self._context_pass, dtype=np.int32)[
            np.frombuffer(self.context, dtype=np.int32)]
        return np.isin(pass_of_span, list(passes))

    def layer_stats(self, passes):
        """Per span name over spans of the given pass indices: calls, self and
        total seconds, work sum and maximum, and flag sum."""
        name, _parent, duration, self_time = self._arrays()
        work = np.frombuffer(self.work, dtype=np.int64)
        flag = np.frombuffer(self.flag, dtype=np.int64)
        keep = self._in_passes(passes)
        stats = {}
        for name_id, label in enumerate(self.names):
            mask = keep & (name == name_id)
            calls = int(mask.sum())
            if calls:
                stats[label] = LayerStat(
                    calls, float(self_time[mask].sum()), float(duration[mask].sum()),
                    int(work[mask].sum()), int(work[mask].max()), int(flag[mask].sum()))
        return stats

    def child_calls(self, child, parent, passes):
        """Number of ``child`` spans whose direct parent is a ``parent`` span."""
        name, parent_index, _duration, _self_time = self._arrays()
        if child not in self._name_ids or parent not in self._name_ids:
            return 0
        mask = (name == self._name_ids[child]) & self._in_passes(passes)
        parents = parent_index[mask]
        parents = parents[parents >= 0]
        return int(np.sum(name[parents] == self._name_ids[parent]))

    def write(self, path):
        """Write every span to a compressed ``.npz`` file."""
        np.savez_compressed(
            path,
            names=np.array(self.names), contexts=np.array(self.contexts),
            name=np.frombuffer(self.name, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            context=np.frombuffer(self.context, dtype=np.int32),
            work=np.frombuffer(self.work, dtype=np.int64),
            flag=np.frombuffer(self.flag, dtype=np.int64))


def span_cost_s(repeats=20000):
    """Seconds that tracing adds to one call, measured on a wrapped no-op."""
    probe = Tracer("probe")

    def noop():
        return None

    wrapped = probe._wrap("probe", noop, None)
    start = time.perf_counter()
    for _ in range(repeats):
        noop()
    bare = time.perf_counter() - start
    start = time.perf_counter()
    for _ in range(repeats):
        wrapped()
    return (time.perf_counter() - start - bare) / repeats


def deterministic_counts(stats):
    """The counts that two runs of the same code must reproduce exactly."""
    return {name: (s.calls, s.work, s.work_max, s.flag) for name, s in sorted(stats.items())}


def layer_metrics(tracer, passes):
    """Per-layer metrics averaged over ``passes`` (counts are per pass).

    Times are self times except ``harness.run_scheme.<scheme>.s``, which is
    the scheme's total time so that the schemes split ``seed_s``.
    """
    n = len(passes)
    stats = tracer.layer_stats(passes)
    out = {}

    def s(name):
        return stats.get(name, LayerStat(0, 0.0, 0.0, 0, 0, 0))

    def count(metric, value):
        out[metric] = (value / n, "count")

    def seconds(metric, value):
        out[metric] = (value / n, "s")

    def ratio(metric, num, den):
        out[metric] = (num / den if den else 0.0, "ratio")

    solve = s("convex_kernel.solve_surrogate")
    count("convex_kernel.solve_surrogate.calls", solve.calls)
    seconds("convex_kernel.solve_surrogate.s", solve.self_s)
    count("convex_kernel.spg_iters", solve.work)
    out["convex_kernel.spg_iters_max"] = (float(solve.work_max), "count")
    ratio("convex_kernel.spg_iters_per_solve", solve.work, solve.calls)
    count("convex_kernel.nonconverged", solve.flag)
    project = s("convex_kernel.project_capped_psd")
    count("convex_kernel.project_capped_psd.calls", project.calls)
    seconds("convex_kernel.project_capped_psd.s", project.self_s)
    count("convex_kernel.project_capped_psd.matrices", project.work)
    for fn in ("validate_psd_set", "surrogate_components"):
        stat = s(f"convex_kernel.{fn}")
        count(f"convex_kernel.{fn}.calls", stat.calls)
        seconds(f"convex_kernel.{fn}.s", stat.self_s)

    dc = s("beamforming.dc_beamforming")
    count("beamforming.dc_runs", dc.calls)
    seconds("beamforming.dc_beamforming.s", dc.self_s)
    count("beamforming.dc_outer_iters", dc.work)
    count("beamforming.dc_nonconverged", dc.flag)
    for fn in ("rank1_extract", "zf_satellite", "mrt_weight", "true_rates_from_q"):
        stat = s(f"beamforming.{fn}")
        count(f"beamforming.{fn}.calls", stat.calls)
        seconds(f"beamforming.{fn}.s", stat.self_s)

    prefs = s("selection.build_preference_list")
    count("selection.build_preference_list.calls", prefs.calls)
    seconds("selection.build_preference_list.s", prefs.self_s)
    count("selection.preference_entries", prefs.work)
    seconds("selection.gdop_greedy_selection.s", s("selection.gdop_greedy_selection").self_s)
    cfg = s("selection.cfg_selection")
    seconds("selection.cfg_selection.s", cfg.self_s)
    count("selection.switch_trials", cfg.work)
    count("selection.switch_accepts", cfg.flag)
    ratio("selection.accept_ratio", cfg.flag, cfg.work)
    engine = s("beamforming.engine")
    count("selection.engine_calls", engine.calls)
    ratio("selection.engine_calls_per_trial",
          tracer.child_calls("beamforming.engine", "selection.cfg_selection", passes), cfg.work)

    for fn in ("gdop", "satellite_rates"):
        stat = s(f"metrics.{fn}")
        count(f"metrics.{fn}.calls", stat.calls)
        seconds(f"metrics.{fn}.s", stat.self_s)
    seconds("metrics.per_ue_rates.s", s("metrics.per_ue_rates").self_s)

    seconds("geometry.generate_scenario.s", s("geometry.generate_scenario").self_s)
    channels = s("channel.build_channel_map")
    seconds("channel.build_channel_map.s", channels.self_s)
    count("channel.links", channels.work)

    for scheme in SCHEMES:
        seconds(f"harness.run_scheme.{scheme}.s", s(f"harness.run_scheme.{scheme}").total_s)
    seconds("harness.emit_reports.s", s("harness.emit_reports").self_s)
    return out
