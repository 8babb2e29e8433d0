"""Layer tracer: self-time spans around calls into the program's layers.

The tracer lives entirely in the benchmark.  It measures from outside
the program by replacing public functions and methods with timing
wrappers for the length of a ``with`` block and restoring the originals
afterwards, so an untraced run in the same process pays nothing.

* A **span** charges a call's wall time to a layer.  Spans nest: a
  span's duration is also added to its parent's child total, and the
  parent's self time is its duration minus that total.  Summed over all
  layers, self time therefore equals the time covered by outermost
  spans exactly — no interval is counted twice.
* A **boundary** (``simulate``) is a root: spans inside it are its
  top-level spans, and the boundary time they do not cover is charged
  to ``kernel.overhead_s`` (the run loop, construction and harvest).
* Event-kernel callbacks are spans too: every callback scheduled through
  ``EventQueue.push`` is wrapped on the way into the heap and charged to
  the layer of its defining module.  Callbacks from modules outside the
  layer table are charged to ``unattributed``.

The tracer is single-threaded: the traced paths (the event kernel and
the serial campaign executor) run on one thread.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterator, List, Tuple

__all__ = [
    "CALLBACK_LAYERS",
    "ENGINE_LAYERS",
    "ENTRY_POINTS",
    "LayerTracer",
    "callback_layer",
]

#: The layer names shared by both engines (the vector engine's phases
#: carry the same names, see ``repro.vector.profile.PHASES``).
ENGINE_LAYERS = (
    "mac", "phy", "traffic", "channel", "energy", "policy", "membership",
    "metrics",
)

#: Module prefix -> layer for event-kernel callbacks.  Anything else
#: (``repro.network`` round timers, dynamics, the simulator itself) is
#: ``unattributed``.
CALLBACK_LAYERS = (
    ("repro.mac", "mac"),
    ("repro.phy", "phy"),
    ("repro.traffic", "traffic"),
    ("repro.channel", "channel"),
    ("repro.energy", "energy"),
    ("repro.policy", "policy"),
    ("repro.cluster", "membership"),
    ("repro.topology", "membership"),
    ("repro.metrics", "metrics"),
)

#: Public entry points wrapped as nested spans: (module, class, methods, layer).
ENTRY_POINTS = (
    ("repro.channel.link", "Link", ("snr_db",), "channel"),
    ("repro.channel.medium", "DataChannel", ("begin", "end", "abort"), "channel"),
    ("repro.energy.meter", "EnergyMeter", (
        "charge", "charge_energy", "charge_known", "charge_startup",
        "open_draw", "open_draw_known", "settle_all",
    ), "energy"),
    ("repro.energy.meter", "ContinuousDraw", ("checkpoint", "close"), "energy"),
    ("repro.energy.battery", "Battery", ("draw",), "energy"),
    ("repro.policy.adaptive", "AdaptiveThresholdPolicy",
     ("allows", "observe_arrival"), "policy"),
    ("repro.cluster.leach", "LeachElection", ("elect", "form_clusters"),
     "membership"),
    ("repro.topology.grid", "GridIndex", ("nearest",), "membership"),
)


#: Marks a patched attribute that the owner did not define itself.
_MISSING = object()


@functools.lru_cache(maxsize=None)
def _module_layer(module: str) -> str:
    for prefix, layer in CALLBACK_LAYERS:
        if module == prefix or module.startswith(prefix + "."):
            return layer
    return "unattributed"


def callback_layer(fn: Callable[..., Any]) -> str:
    """The layer a scheduled callback is charged to, by defining module."""
    while isinstance(fn, functools.partial):
        fn = fn.func
    module = getattr(fn, "__module__", None)
    return _module_layer(module) if isinstance(module, str) else "unattributed"


class LayerTracer:
    """Accumulates per-layer self time, call counts and boundary overhead."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        #: Inclusive time of each boundary.
        self.boundary_s: Dict[str, float] = defaultdict(float)
        #: Boundary time not covered by any span inside it.
        self.overhead_s = 0.0
        #: Time covered by outermost spans of the current root.
        self.covered_s = 0.0
        self._stack: List[float] = []
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- timing ------------------------------------------------------------------

    def call(self, layer: str, fn: Callable[..., Any], *args: Any, **kw: Any) -> Any:
        """Run ``fn`` as a span of ``layer``; returns its result."""
        stack = self._stack
        stack.append(0.0)
        t0 = self.clock()
        try:
            return fn(*args, **kw)
        finally:
            dt = self.clock() - t0
            child = stack.pop()
            self.self_s[layer] += dt - child
            self.calls[layer] += 1
            if stack:
                stack[-1] += dt
            else:
                self.covered_s += dt

    def call_boundary(
        self, name: str, fn: Callable[..., Any], *args: Any, **kw: Any
    ) -> Any:
        """Run ``fn`` as a root: spans inside it are its top level."""
        outer_stack, outer_covered = self._stack, self.covered_s
        self._stack, self.covered_s = [], 0.0
        t0 = self.clock()
        try:
            return fn(*args, **kw)
        finally:
            dt = self.clock() - t0
            inner_covered = self.covered_s
            self._stack, self.covered_s = outer_stack, outer_covered
            self.boundary_s[name] += dt
            self.overhead_s += dt - inner_covered
            if outer_stack:
                outer_stack[-1] += dt
            else:
                self.covered_s += dt

    def wrap(self, layer: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """A span wrapper around ``fn`` (usable as a method)."""
        call = self.call

        @functools.wraps(fn)
        def traced(*args: Any, **kw: Any) -> Any:
            return call(layer, fn, *args, **kw)

        return traced

    def wrap_boundary(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        call = self.call_boundary

        @functools.wraps(fn)
        def traced(*args: Any, **kw: Any) -> Any:
            return call(name, fn, *args, **kw)

        return traced

    # -- installing wrappers -------------------------------------------------------

    def patch(self, owner: Any, name: str, value: Any) -> None:
        """Replace ``owner.name`` until :meth:`restore`."""
        self._patches.append((owner, name, owner.__dict__.get(name, _MISSING)))
        setattr(owner, name, value)

    def patch_method(self, module: str, cls: str, method: str, layer: str) -> None:
        owner = getattr(importlib.import_module(module), cls)
        self.patch(owner, method, self.wrap(layer, getattr(owner, method)))

    def patch_function(
        self, module: str, name: str, wrapper: Callable[..., Any]
    ) -> None:
        """Replace a function everywhere a ``repro`` module bound it by name."""
        original = getattr(importlib.import_module(module), name)
        for mod_name, mod in list(sys.modules.items()):
            if (mod_name == "repro" or mod_name.startswith("repro.")) and (
                getattr(mod, name, None) is original
            ):
                self.patch(mod, name, wrapper)

    def trace_event_kernel(self) -> None:
        """Wrap every scheduled callback and every engine entry point."""
        from repro.sim.scheduler import EventQueue

        push = EventQueue.push
        call = self.call
        partial = functools.partial

        def traced_push(queue, time, fn, args=(), priority=0):
            traced = partial(call, callback_layer(fn), fn)
            return push(queue, time, traced, args, priority)

        self.patch(EventQueue, "push", traced_push)
        for module, cls, methods, layer in ENTRY_POINTS:
            for method in methods:
                self.patch_method(module, cls, method, layer)

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._patches:
            owner, name, old = self._patches.pop()
            if old is _MISSING:
                delattr(owner, name)
            else:
                setattr(owner, name, old)

    @contextlib.contextmanager
    def installed(self) -> Iterator["LayerTracer"]:
        """Keep the patches made inside the block only for its duration."""
        try:
            yield self
        finally:
            self.restore()

    # -- reporting -----------------------------------------------------------------

    def layer_metrics(self) -> Dict[str, float]:
        """``<layer>.self_s`` / ``<layer>.calls`` for every engine layer."""
        out: Dict[str, float] = {}
        for layer in ENGINE_LAYERS:
            out[f"{layer}.self_s"] = self.self_s.get(layer, 0.0)
            out[f"{layer}.calls"] = self.calls.get(layer, 0)
        out["unattributed_s"] = self.self_s.get("unattributed", 0.0)
        out["kernel.overhead_s"] = self.overhead_s
        return out
