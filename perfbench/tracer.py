"""Spans around the calls into each emilink layer, installed from outside.

Nothing under ``src/`` is edited: ``Tracer.install`` replaces the public
functions of each layer with timing wrappers, and also rebinds every other
name that refers to the same function object, such as the names bench and
irs import with ``from ... import`` and the figure runners stored in
``bench.RUNNERS``.  Without that rebinding those calls would bypass the
wrapper and their counts would silently read zero.

Spans stay in memory as ``[name, start, end, parent, pass_id, note]``
lists; ``parent`` is the index of the enclosing span or -1.  ``note``
holds the exception name for a call that raised, else None.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# (module, attribute, span name)
TARGETS = (
    ("emilink.scene", "make_layout", "scene.make_layout"),
    ("emilink.scene", "los_channel", "scene.los_channel"),
    ("emilink.scene", "angles_between", "scene.angles_between"),
    ("emilink.scene", "pathloss_umi", "scene.pathloss_umi"),
    ("emilink.emi", "corr_isotropic", "emi.corr_isotropic"),
    ("emilink.emi", "corr_directional", "emi.corr_directional"),
    ("emilink.emi", "psd_project", "emi.psd_project"),
    ("emilink.emi", "emi_quadratic_form", "emi.emi_quadratic_form"),
    ("numpy.polynomial.legendre", "leggauss", "emi.leggauss"),
    ("emilink.irs", "irs_min_power_emi_aware", "irs.irs_min_power_emi_aware"),
    ("emilink.irs", "phases_emi_aware", "irs.phases_emi_aware"),
    ("emilink.irs", "irs_sinr", "irs.irs_sinr"),
    ("emilink.irs", "irs_sinr_gradient", "irs.irs_sinr_gradient"),
    ("emilink.relay", "df_min_power", "relay.df_min_power"),
    ("emilink.relay", "df_inner_max_rate", "relay.df_inner_max_rate"),
    ("emilink.relay", "effective_gain_first_phase", "relay.effective_gain_first_phase"),
    *(("emilink.bench", f"run_fig{n}", f"bench.run_fig{n}") for n in range(3, 9)),
    ("emilink.bench", "format_csv", "bench.format_csv"),
    ("emilink.bench", "emit", "bench.emit"),
    ("emilink.cli", "main", "cli.main"),
)


class Tracer:
    def __init__(self, pass_id: int):
        self.pass_id = pass_id
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack, pass_id = self.spans, self._stack, self.pass_id

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1, pass_id, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[5] = type(exc).__name__
                raise
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            return result

        return traced

    def install(self) -> None:
        """Wrap every target and rebind every emilink name that aliases it."""
        replaced = {}
        for module_name, attr, name in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            wrapped = self.wrap(name, original)
            setattr(module, attr, wrapped)
            replaced[id(original)] = wrapped
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "emilink" or module_name.startswith("emilink.")):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in replaced:
                    setattr(module, attr, replaced[id(value)])
                elif isinstance(value, dict):
                    for key, item in value.items():
                        if id(item) in replaced:
                            value[key] = replaced[id(item)]


def summarize(spans: list[list]) -> dict[str, dict]:
    """Per span name: call count, total time, self time and the notes seen.

    Self time is a span's duration minus the durations of its direct
    children; calls are single-threaded, so children never overlap.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, *_ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    stats: dict[str, dict] = {}
    for i, (name, start, end, parent, _pass, note) in enumerate(spans):
        entry = stats.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                        "notes": []})
        entry["calls"] += 1
        entry["total_s"] += end - start
        entry["self_s"] += end - start - child_time[i]
        if note is not None:
            entry["notes"].append(note)
    return stats


def children_of(spans: list[list], child: str, parent: str) -> int:
    """Number of ``child`` spans whose direct parent is a ``parent`` span."""
    return sum(1 for s in spans if s[0] == child and s[3] >= 0 and spans[s[3]][0] == parent)
