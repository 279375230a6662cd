"""Layer spans for the traced run, recorded from outside the package.

The tracer replaces public functions of ``conjrisk`` with wrappers that
record a ``perf_counter`` span (name, parent, start, end, attributes). A
function is replaced under its name in every ``conjrisk`` module that holds
it, so ``conjrisk.detection.pc_circular`` is traced as well as
``conjrisk.probability.pc_circular``. Spans stay in memory until the run
ends. ``restore`` puts every original back.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter, defaultdict
from collections.abc import Callable

#: (span name, module, attribute, class or None, attributes from the call).
#: The CLI handlers' library calls are all listed, so that the self time of
#: ``run_command`` is the CLI's own work: argparse, config, file read and
#: formatting.
TRACED: list[tuple[str, str, str, str | None, Callable | None]] = [
    ("fileio.parse_conjunction", "fileio", "parse_conjunction", None, None),
    ("fileio.parse_json", "fileio", "_parse_json", None, None),
    ("fileio.parse_kvn", "fileio", "_parse_kvn", None, None),
    ("fileio.to_joint_state", "fileio", "to_joint_state", "ConjunctionFile", None),
    ("geometry.joint_state", "geometry", "__post_init__", "JointState", None),
    ("geometry.standardized_encounter", "geometry", "standardized_encounter", None, None),
    ("geometry.relative_covariance", "geometry", "relative_covariance", None, None),
    ("geometry.encounter_frame", "geometry", "encounter_frame", None, None),
    ("geometry.standardize", "geometry", "standardize", None, None),
    ("probability.pc_contour", "probability", "pc_contour", None,
     lambda args, result: {"n_quad": result.n_quad, "quad_error_est": result.quad_error_est}),
    ("probability.pc_circular", "probability", "pc_circular", None, None),
    ("probability.pc_circular_batch", "probability", "pc_circular_batch", None,
     lambda args, result: {"points": int(result.size)}),
    ("probability.dilution_curve", "probability", "dilution_curve", None, None),
    ("detection.default_threshold_grid", "detection", "default_threshold_grid", None, None),
    ("detection.detection_curve", "detection", "detection_curve", None, None),
    ("detection.critical_displacement", "detection", "critical_displacement", None, None),
    ("detection.ncx2_cdf", "detection", "ncx2_cdf", None, None),
    ("detection.dilution_boundary", "detection", "dilution_boundary", None, None),
    ("detection.proof_halfwidth", "detection", "proof_halfwidth", None, None),
    ("detection.false_confidence_demo", "detection", "false_confidence_demo", None, None),
    ("rng.stream", "rng", "stream", None, None),
    ("ellipsoids.build_ellipsoid", "ellipsoids", "build_ellipsoid", None, None),
    ("ellipsoids.standardized_range", "ellipsoids", "standardized_range", None, None),
    ("ellipsoids.min_distance", "ellipsoids", "min_distance", None, None),
    ("ellipsoids.project_point", "ellipsoids", "project_point", None, None),
    ("screening.screen_conjunction", "screening", "screen_conjunction", None, None),
    ("screening.position_ellipsoids", "screening", "position_ellipsoids", None, None),
    ("propositions.contains_region", "propositions", "contains_region", None, None),
    ("propositions.intersects_region", "propositions", "intersects_region", None, None),
    ("validity.validity_check", "validity", "validity_check", None, None),
    ("validity.gaussian_region_rule", "validity", "gaussian_region_rule", None, None),
    ("validity.gaussian_sampling_model", "validity", "gaussian_sampling_model", None, None),
    ("validity.additive_rule", "validity", "__init__", "AdditiveGaussianRule", None),
    ("validity.region_belief", "validity", "region_belief", None, None),
    ("validity.belief", "validity", "belief", "ConfidenceRegionRule", None),
    ("validity.belief", "validity", "belief", "AdditiveGaussianRule", None),
]


class Tracer:
    """Records spans of wrapped functions; one instance per traced run."""

    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.attrs: dict[int, dict] = {}
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def span(self, name: str, fn: Callable, note: Callable | None = None) -> Callable:
        """``fn`` wrapped to record a span named ``name``."""
        names, parents, starts, ends = self.names, self.parents, self.starts, self.ends
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if note is not None:
                self.attrs[index] = note(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every function of ``TRACED`` wherever the package holds it."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "conjrisk" or n.startswith("conjrisk.")]
        for name, module, attr, cls, note in TRACED:
            home = importlib.import_module(f"conjrisk.{module}")
            if cls is not None:
                owner = getattr(home, cls)
                original = owner.__dict__[attr]
                self._replace(owner, attr, self.span(name, original, note))
                continue
            original = getattr(home, attr)
            wrapper = self.span(name, original, note)
            for mod in modules:
                if mod.__dict__.get(attr) is original:
                    self._replace(mod, attr, wrapper)

    def _replace(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- analysis -----------------------------------------------------------

    def durations(self) -> list[float]:
        return [e - s for s, e in zip(self.starts, self.ends)]

    def self_times(self) -> list[float]:
        """Each span's duration minus that of its direct children (calls are
        sequential, so children never overlap)."""
        out = self.durations()
        child_total = [0.0] * len(out)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                child_total[parent] += out[i]
        return [d - c for d, c in zip(out, child_total)]

    def by_name(self) -> dict[str, list[int]]:
        index = defaultdict(list)
        for i, name in enumerate(self.names):
            index[name].append(i)
        return index

    def descendant_counts(self, ancestor: str, name: str) -> Counter:
        """For each span called ``ancestor``, how many ``name`` spans it encloses."""
        counts: Counter = Counter()
        for i, span_name in enumerate(self.names):
            if span_name != name:
                continue
            parent = self.parents[i]
            while parent >= 0:
                if self.names[parent] == ancestor:
                    counts[parent] += 1
                    break
                parent = self.parents[parent]
        return counts

    def to_json(self) -> dict:
        """Spans as parallel arrays (times in microseconds from the first start)."""
        origin = self.starts[0] if self.starts else 0.0
        table = sorted(set(self.names))
        lookup = {n: i for i, n in enumerate(table)}
        return {
            "names": table,
            "name": [lookup[n] for n in self.names],
            "parent": self.parents,
            "start_us": [round((s - origin) * 1e6, 3) for s in self.starts],
            "end_us": [round((e - origin) * 1e6, 3) for e in self.ends],
            "attrs": {str(k): v for k, v in self.attrs.items()},
        }
