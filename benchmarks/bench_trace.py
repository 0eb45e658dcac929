"""Per-layer tracing of avstress from outside the program.

`Tracer.install` replaces the program's layer entry points with wrappers, at
every binding a caller looks the name up through (a module attribute, a
name imported into another module, or a class attribute), and `uninstall`
puts the originals back. Timed layers record one span each call (name,
start, end, parent span), kept in memory and aggregated at the end; the
self time of a layer is its span time minus that of its child spans.
Counted layers only count calls, because they run hundreds of thousands of
times per campaign.
"""
from __future__ import annotations

import functools
import json
import time
from collections import Counter, defaultdict


def _layers(av):
    """(layer name, [(owner, attribute), ...]) for timed and counted layers."""
    opt, sur, sim, per, met, scn, pla = (
        av.optimizer, av.surrogate, av.sim, av.persist, av.metrics, av.scenario, av.planner,
    )
    timed = [
        ("optimizer.suggest_next", [(opt, "suggest_next")]),
        ("surrogate.fit", [(sur, "fit")]),
        ("surrogate.posterior_batch", [(sur, "posterior_batch")]),
        # calls into the sobol module from its callers; sobol_points' own
        # calls to sobol_point are inside the span
        ("sobol", [(opt, "sobol_point"), (opt, "sobol_points"), (sur, "sobol_points")]),
        ("sim.simulate_episode", [(opt, "simulate_episode")]),
        ("planner.plan", [(pla.LatticePlanner, "plan")]),
        ("sim.policy_step", [(sim.ReactivePolicy, "step")]),
        ("sim.collision_check", [(sim, "_find_collision")]),
        ("metrics.score_episode", [(opt, "score_episode"), (met, "score_episode")]),
        ("metrics.campaign_stats", [(met, "campaign_stats")]),
        ("persist.write", [(per, "write_manifest"), (per, "write_episode"),
                           (per, "campaign_record_to_json"), (per, "write_stats_csv")]),
        ("persist.read_episode", [(per, "read_episode")]),
        ("scenario.load", [(scn, "load_scenario")]),
    ]
    counted = [
        ("planner.predict", [(pla, "predict_constant_velocity")]),
        ("planner.rollout_step", [(pla, "bicycle_step")]),
        ("geom.point_at_arclength", [(pla, "point_at_arclength"), (scn, "point_at_arclength")]),
        ("geom.project_to_polyline", [(pla, "project_to_polyline"), (scn, "project_to_polyline")]),
        ("scenario.nearest_lane", [(scn.MapModel, "nearest_lane")]),
        ("surrogate.lml_evals", [(sur, "log_marginal_likelihood")]),
    ]
    return timed, counted


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index]
        self.counts = Counter()
        self._stack = []
        self._saved = []

    def _timed(self, name, fn):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, time.perf_counter(), None, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if name == "sim.simulate_episode":
                counts["sim.steps"] += len(result.trace) - 1
            elif name == "surrogate.posterior_batch":
                counts["optimizer.candidates_scored"] += len(args[1])
            elif name == "sobol":
                many = fn.__name__ == "sobol_points"
                counts["sobol.points_generated"] += len(result) if many else 1
            return result

        return wrapper

    def _counted(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self, avstress_pkg):
        timed, counted = _layers(avstress_pkg)
        for make, layers in ((self._timed, timed), (self._counted, counted)):
            for name, bindings in layers:
                for owner, attr in bindings:
                    original = owner.__dict__[attr]
                    self._saved.append((owner, attr, original))
                    setattr(owner, attr, make(name, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def totals(self):
        """{layer: (calls, span seconds, self seconds)} over all spans."""
        child = defaultdict(float)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for i, (name, start, end, parent) in enumerate(self.spans):
            agg = out[name]
            agg[0] += 1
            agg[1] += end - start
            agg[2] += end - start - child[i]
        return {name: tuple(v) for name, v in out.items()}

    def write_spans(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps([name, start, end, parent]) + "\n")
