"""Out-of-process span tracing for the benchmark's traced runs.

``Tracer.install`` wraps the package's public functions from outside, at the
module attribute each caller looks the name up from (``fednetsim.protocol.
local_train``, not ``fednetsim.models.local_train``), so no file under
``src/`` changes. Spans are ``[name, start, end, parent, trial, count]``
lists kept in memory and written once, when the operation ends.
``layer_metrics`` turns the spans of one operation into the per-layer
metrics; it needs neither numpy nor the package, so the runner can call it.
"""

import functools
import math
import os
import time

NAME, START, END, PARENT, TRIAL, COUNT = range(6)


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _sgd_steps(args, kwargs):
    # local_train(global_params, spec, shard, epochs, lr, batch_size=None, seed=0)
    # takes ceil(len(shard) / step) steps per epoch, step being the batch size
    # clamped to the shard (a missing or non-positive batch size is the shard).
    n = len(_arg(args, kwargs, 2, "shard"))
    epochs = _arg(args, kwargs, 3, "epochs")
    batch = _arg(args, kwargs, 5, "batch_size")
    step = n if batch is None or batch <= 0 else min(batch, n)
    return epochs * math.ceil(n / step) if n else 0


class Tracer:
    """Span recorder; one per traced operation."""

    def __init__(self):
        self.spans = []
        self.trial = None
        self._stack = []
        # Per-trial ground truth for the drop hit ratio, captured from the
        # partition plan and the poisoner the harness builds.
        self._holders = frozenset()
        self._compromised = frozenset()

    def current(self):
        return self.spans[self._stack[-1]][NAME] if self._stack else None

    def call(self, name, fn, *args, count=None, **kwargs):
        """Run ``fn`` inside a span; ``count(args, kwargs, result)`` fills its count."""
        span = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1, self.trial, None]
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        try:
            result = fn(*args, **kwargs)
        finally:
            span[END] = time.perf_counter()
            self._stack.pop()
        if count is not None:
            span[COUNT] = count(args, kwargs, result)
        return result

    def wrap(self, name, fn, count=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = name(self) if callable(name) else name
            return self.call(span, fn, *args, count=count, **kwargs)

        return wrapper

    def _patch(self, owner, attr, name, count=None):
        setattr(owner, attr, self.wrap(name, getattr(owner, attr), count))

    def install(self):
        """Wrap every traced function of the package (call once per process)."""
        import fednetsim.adversary as adversary
        import fednetsim.cli as cli
        import fednetsim.defense as defense
        import fednetsim.harness as harness
        import fednetsim.poisoning as poisoning
        import fednetsim.protocol as protocol

        run_trial = harness.run_trial

        def traced_trial(cfg, trial_seed, *args, **kwargs):
            self.trial = int(trial_seed)
            try:
                return self.call("harness.run_trial", run_trial, cfg, trial_seed, *args, **kwargs)
            finally:
                self.trial = None

        harness.run_trial = traced_trial

        def holders(args, kwargs, plan):
            self._holders = frozenset(plan.target_client_ids)
            self._compromised = frozenset()

        poisoner_cls = harness.ModelReplacementPoisoner

        def make_poisoner(*args, **kwargs):
            poisoner = poisoner_cls(*args, **kwargs)
            self._compromised = frozenset(poisoner.plan.compromised_ids)
            return poisoner

        harness.ModelReplacementPoisoner = make_poisoner

        def rows(args, kwargs, result):
            return len(_arg(args, kwargs, 2, "batch"))

        def aggregate_counts(args, kwargs, result):
            updates = _arg(args, kwargs, 1, "updates")
            clip = _arg(args, kwargs, 3, "clip_norm")
            clipped = 0
            if clip is not None:
                clipped = sum(1 for u in updates if math.sqrt(float(u.delta @ u.delta)) > clip)
            return (len(updates), clipped)

        def dropped(args, kwargs, kept):
            kept_ids = {u.client_id for u in kept}
            ids = [u.client_id for u in _arg(args, kwargs, 1, "updates") if u.client_id not in kept_ids]
            honest = self._holders - self._compromised
            return (len(ids), sum(1 for j in ids if j in honest))

        def observer_eval(tracer):
            return "defense.eval" if tracer.current() == "defense.observe" else "adversary.eval"

        self._patch(harness, "gen_synthetic", "datasets.gen_synthetic")
        self._patch(harness, "partition", "datasets.partition", holders)
        self._patch(harness, "run_protocol", "protocol.run")
        self._patch(protocol, "select_participants", "protocol.select")
        self._patch(protocol, "local_train", "models.local_train", lambda a, k, r: _sgd_steps(a, k))
        self._patch(poisoning, "local_train", "models.local_train", lambda a, k, r: _sgd_steps(a, k))
        self._patch(protocol, "aggregate", "protocol.aggregate", aggregate_counts)
        self._patch(protocol, "forward_eval", "protocol.eval", rows)
        self._patch(adversary, "forward_eval", observer_eval, rows)
        self._patch(adversary.TargetedDropAttacker, "filter_updates", "adversary.filter", dropped)
        self._patch(adversary.TargetedDropAttacker, "observe", "adversary.observe")
        self._patch(defense.UpsamplingDefender, "observe", "defense.observe")
        self._patch(defense.UpsamplingDefender, "resample", "defense.resample")
        self._patch(
            poisoning.ModelReplacementPoisoner,
            "poison_update",
            "poisoning.poison_update",
            lambda a, k, r: int(r is not None),
        )
        self._patch(
            cli,
            "emit_metrics",
            "harness.emit",
            lambda a, k, paths: sum(os.path.getsize(p) for p in paths),
        )


# Per-layer metrics: name -> unit. Layers that do not run on a workload read 0.
PER_LAYER_UNITS = {
    "models.local_train.calls": "count",
    "models.local_train.busy_s": "s",
    "models.local_train.steps": "count",
    "protocol.eval.calls": "count",
    "protocol.eval.busy_s": "s",
    "protocol.eval.rows": "count",
    "protocol.select.busy_s": "s",
    "protocol.aggregate.busy_s": "s",
    "protocol.aggregate.updates": "count",
    "protocol.aggregate.clipped": "count",
    "protocol.round_ms.p50": "ms",
    "protocol.round_ms.p90": "ms",
    "protocol.self_s": "s",
    "adversary.observe.calls": "count",
    "adversary.observe.busy_s": "s",
    "adversary.eval.calls": "count",
    "adversary.eval.rows": "count",
    "adversary.filter.dropped": "count",
    "adversary.filter.drop_hits": "count",
    "adversary.drop_hit_ratio": "ratio",
    "defense.observe.busy_s": "s",
    "defense.eval.rows": "count",
    "defense.resample.busy_s": "s",
    "poisoning.poison_update.calls": "count",
    "poisoning.poison_update.crafted": "count",
    "poisoning.poison_update.busy_s": "s",
    "datasets.gen_synthetic.busy_s": "s",
    "datasets.partition.busy_s": "s",
    "harness.world_s": "s",
    "harness.emit.busy_s": "s",
    "harness.emit.bytes": "bytes",
    "cli.import_s": "s",
    "analysis.mc_plain.busy_s": "s",
    "analysis.mc_encrypted.busy_s": "s",
    "analysis.mc_encrypted.sim_rounds": "count",
    "trace.overhead_frac": "fraction",
}


def _percentile(values, q):
    """Linear-interpolated percentile, q in [0, 100]."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def self_times(spans):
    """Per span name: (calls, busy seconds, self seconds, summed counts).

    Self time is a span's duration minus that of its direct children; the
    program is single-threaded, so children never overlap.
    """
    child = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child[span[PARENT]] += span[END] - span[START]
    layers = {}
    for i, span in enumerate(spans):
        dur = span[END] - span[START]
        calls, busy, own, count = layers.get(span[NAME], (0, 0.0, 0.0, None))
        c = span[COUNT]
        if c is not None:
            c = tuple(c) if isinstance(c, (list, tuple)) else (c,)
            count = c if count is None else tuple(a + b for a, b in zip(count, c))
        layers[span[NAME]] = (calls + 1, busy + dur, own + dur - child[i], count)
    return layers


def layer_metrics(spans, import_s):
    """Per-layer metrics of one traced operation (without the overhead ratio)."""
    layers = self_times(spans)

    def calls(name):
        return layers[name][0] if name in layers else 0

    def busy(name):
        return layers[name][1] if name in layers else 0.0

    def own(name):
        return layers[name][2] if name in layers else 0.0

    def count(name, index=0):
        summed = layers[name][3] if name in layers else None
        return summed[index] if summed else 0

    # A round runs from one participant selection to the next one (or to the
    # end of its protocol run).
    rounds_ms = []
    ends = {i: s[END] for i, s in enumerate(spans) if s[NAME] == "protocol.run"}
    starts = {}
    for s in spans:
        if s[NAME] == "protocol.select" and s[PARENT] in ends:
            starts.setdefault(s[PARENT], []).append(s[START])
    for run, marks in starts.items():
        bounds = marks + [ends[run]]
        rounds_ms += [(b - a) * 1e3 for a, b in zip(bounds, bounds[1:])]

    dropped, hits = count("adversary.filter", 0), count("adversary.filter", 1)
    return {
        "models.local_train.calls": calls("models.local_train"),
        "models.local_train.busy_s": busy("models.local_train"),
        "models.local_train.steps": count("models.local_train"),
        "protocol.eval.calls": calls("protocol.eval"),
        "protocol.eval.busy_s": busy("protocol.eval"),
        "protocol.eval.rows": count("protocol.eval"),
        "protocol.select.busy_s": busy("protocol.select"),
        "protocol.aggregate.busy_s": busy("protocol.aggregate"),
        "protocol.aggregate.updates": count("protocol.aggregate", 0),
        "protocol.aggregate.clipped": count("protocol.aggregate", 1),
        "protocol.round_ms.p50": _percentile(rounds_ms, 50) if rounds_ms else 0.0,
        "protocol.round_ms.p90": _percentile(rounds_ms, 90) if rounds_ms else 0.0,
        "protocol.self_s": own("protocol.run"),
        "adversary.observe.calls": calls("adversary.observe"),
        "adversary.observe.busy_s": busy("adversary.observe"),
        "adversary.eval.calls": calls("adversary.eval"),
        "adversary.eval.rows": count("adversary.eval"),
        "adversary.filter.dropped": dropped,
        "adversary.filter.drop_hits": hits,
        "adversary.drop_hit_ratio": hits / dropped if dropped else 0.0,
        "defense.observe.busy_s": busy("defense.observe"),
        "defense.eval.rows": count("defense.eval"),
        "defense.resample.busy_s": busy("defense.resample"),
        "poisoning.poison_update.calls": calls("poisoning.poison_update"),
        "poisoning.poison_update.crafted": count("poisoning.poison_update"),
        "poisoning.poison_update.busy_s": busy("poisoning.poison_update"),
        "datasets.gen_synthetic.busy_s": busy("datasets.gen_synthetic"),
        "datasets.partition.busy_s": busy("datasets.partition"),
        "harness.world_s": busy("harness.run_trial") - busy("protocol.run"),
        "harness.emit.busy_s": busy("harness.emit"),
        "harness.emit.bytes": count("harness.emit"),
        "cli.import_s": import_s,
        "analysis.mc_plain.busy_s": busy("analysis.mc_plain"),
        "analysis.mc_encrypted.busy_s": busy("analysis.mc_encrypted"),
        "analysis.mc_encrypted.sim_rounds": count("analysis.mc_encrypted"),
    }
