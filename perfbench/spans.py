"""Spans around bjlab's public functions, recorded from outside the package.

`Recorder.install()` replaces every reference to a traced function in the
namespaces of the loaded bjlab modules with a wrapper that times the call,
and wraps traced methods on their class.  Callers inside the package look
their callees up in module globals (or on the instance) at call time, so the
wrappers see the calls the harness really makes without any change to the
package.  Durations are aggregated per layer in memory; no span is written
out.
"""

from __future__ import annotations

import sys
from array import array
from time import perf_counter

# layer name -> the functions (module, attribute) that make it up; an
# attribute "Class.method" is a method wrapped on its class.
#
# A Bochner-norm evaluation enters through the validating `bochner_norm`,
# the raw-array `_norm_arr` of the hot paths, or `_norm_from_block_norms`,
# which sip's second-slot weights call on block norms they computed
# themselves.  Where one calls another, the call counts once.
#
# harness.run writes its CSV as `fh.write(report.csv_text())`; the span is
# RunReport.csv_text, which builds the whole text.  Opening and writing the
# file are left to harness.self_us_per_row.
LAYERS = {
    "harness.trial_rng": [("bjlab.harness", "trial_rng")],
    "harness.csv_write": [("bjlab.harness", "RunReport.csv_text")],
    "preserver.draw_orthogonal_pair": [("bjlab.preserver", "draw_orthogonal_pair")],
    "preserver.random_element": [("bjlab.preserver", "random_element")],
    "preserver.apply_operator": [("bjlab.preserver", "apply_operator")],
    "ortho.is_approx_bj_orthogonal": [("bjlab.ortho", "is_approx_bj_orthogonal")],
    "ortho.certificate_check": [("bjlab.ortho", "certificate_check")],
    "ortho.min_certificate_value": [("bjlab.ortho", "min_certificate_value")],
    "sip.sip_orthogonality_criterion": [("bjlab.sip", "sip_orthogonality_criterion")],
    "sip.sip_axiom_report": [("bjlab.sip", "sip_axiom_report")],
    "blockspace.bochner_norm": [("bjlab.blockspace", "bochner_norm"),
                                ("bjlab.blockspace", "_norm_arr"),
                                ("bjlab.blockspace", "_norm_from_block_norms")],
    "blockspace.support_functional": [("bjlab.blockspace", "support_functional")],
}
NORM = "blockspace.bochner_norm"


class Recorder:
    """Per-layer call durations plus the time covered by outermost spans."""

    def __init__(self):
        self.durations = {name: array("d") for name in LAYERS}
        self.top_level_s = 0.0
        self.norm_bytes = 0
        self.missing: list[str] = []
        self._stack: list[str] = []
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        """fn, timed as a span of layer `name`."""
        stack = self._stack
        durations = self.durations[name]
        is_norm = name == NORM

        def traced(*args, **kwargs):
            if stack and stack[-1] == name:  # e.g. bochner_norm -> _norm_arr
                return fn(*args, **kwargs)
            if is_norm:  # every entry point takes (operand, spec)
                spec = args[1]
                self.norm_bytes += spec.n * spec.d * 8
            stack.append(name)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                durations.append(dt)
                if not stack:
                    self.top_level_s += dt

        return traced

    def install(self) -> None:
        """Wrap every reference to a traced function in bjlab's modules."""
        wrappers = {}
        for name, targets in LAYERS.items():
            for module_name, attr in targets:
                owner = sys.modules.get(module_name)
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part, None)
                fn = getattr(owner, leaf, None)
                if fn is None:
                    self.missing.append(f"{module_name}.{attr}")
                elif path:  # a method: wrapped once, on its class
                    self._restore.append((owner, leaf, fn))
                    setattr(owner, leaf, self.wrap(name, fn))
                else:
                    wrappers[id(fn)] = (fn, self.wrap(name, fn))
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == "bjlab" or key.startswith("bjlab."))]
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._restore):
            setattr(module, attr, value)
        self._restore.clear()
