"""Pluggable experiment registry.

Experiments — the paper's figures and tables, and any extension study —
register themselves with the :func:`experiment` decorator::

    @experiment("fig9", kind="figure")
    def fig9_nodes_alive(preset="quick", seeds=(1,)):
        ...

and the CLI (``repro-caem list`` / ``repro-caem run <name>``), the
tests, and external scripts discover them through :func:`get_experiment`
/ :func:`list_experiments`.  The registry dispatches only the keyword
arguments an experiment actually declares (``spec.run`` inspects the
signature), so tables that take no preset and figures that take loads
coexist behind one calling convention.  An option that no registered
experiment declares is rejected as a typo.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Set

from ..errors import ExperimentError

__all__ = ["ExperimentSpec", "experiment", "get_experiment", "list_experiments"]


@dataclass(frozen=True)
class ExperimentSpec:
    """One registered experiment: name, callable, and display metadata."""

    name: str
    fn: Callable[..., Any]
    #: Category shown by ``repro-caem list``: "figure", "table", "extension".
    kind: str = "figure"
    #: One-line human summary (defaults to the callable's first doc line).
    summary: str = ""

    def to_dict(self) -> Dict[str, str]:
        """JSON-safe metadata view (the campaign server's ``/experiments``)."""
        return {"name": self.name, "kind": self.kind, "summary": self.summary}

    def accepts(self, option: str) -> bool:
        """Does the underlying callable declare this keyword option?"""
        params = inspect.signature(self.fn).parameters
        if any(p.kind is inspect.Parameter.VAR_KEYWORD
               for p in params.values()):
            return True
        return option in params

    def run(self, **options: Any) -> Any:
        """Invoke the experiment with the subset of options it declares.

        ``run all`` and the campaign server pass one option set to every
        experiment, so an option another registered experiment declares
        is dropped here (``run <name>`` refuses such a flag before it
        gets here).  One that no registered experiment declares is a
        typo, and raises instead of silently running the defaults.
        """
        known = _known_options()
        typos = sorted(k for k in options if k not in known and not self.accepts(k))
        if typos:
            raise ExperimentError(
                f"experiment {self.name!r}: no registered experiment takes "
                f"option(s) {', '.join(typos)}; known options: "
                f"{', '.join(sorted(known))}"
            )
        kwargs = {k: v for k, v in options.items()
                  if v is not None and self.accepts(k)}
        return self.fn(**kwargs)


_REGISTRY: Dict[str, ExperimentSpec] = {}


def experiment(
    name: str,
    kind: str = "figure",
    summary: Optional[str] = None,
) -> Callable[[Callable], Callable]:
    """Class-of-2005 figures and future workloads alike register here.

    Re-registering the *same* function under the same name (module
    reloads, doctest imports) is a no-op; registering a different
    function under an existing name raises — shadowing an experiment
    silently would corrupt ``run all``.
    """

    def decorate(fn: Callable) -> Callable:
        existing = _REGISTRY.get(name)
        if existing is not None and (
            existing.fn.__module__ != fn.__module__
            or existing.fn.__qualname__ != fn.__qualname__
        ):
            raise ExperimentError(
                f"experiment {name!r} already registered by "
                f"{existing.fn.__module__}.{existing.fn.__qualname__}"
            )
        doc = (fn.__doc__ or "").strip().splitlines()
        _REGISTRY[name] = ExperimentSpec(
            name=name,
            fn=fn,
            kind=kind,
            summary=summary if summary is not None else (doc[0] if doc else ""),
        )
        return fn

    return decorate


def get_experiment(name: str) -> ExperimentSpec:
    """Look up one experiment (imports the built-ins on first use)."""
    _ensure_builtins()
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY)) or "<none>"
        raise ExperimentError(
            f"unknown experiment {name!r}; registered: {known}"
        ) from None


def list_experiments(kind: Optional[str] = None) -> List[ExperimentSpec]:
    """All registered experiments, sorted by (kind, name)."""
    _ensure_builtins()
    specs = [s for s in _REGISTRY.values() if kind is None or s.kind == kind]
    return sorted(specs, key=lambda s: (s.kind, s.name))


def _known_options() -> Set[str]:
    """Every keyword option some registered experiment declares by name."""
    _ensure_builtins()
    keyword = (inspect.Parameter.POSITIONAL_OR_KEYWORD,
               inspect.Parameter.KEYWORD_ONLY)
    return {
        name
        for spec in _REGISTRY.values()
        for name, param in inspect.signature(spec.fn).parameters.items()
        if param.kind in keyword
    }


def _ensure_builtins() -> None:
    """Import the modules whose decorators populate the registry."""
    from ..experiments import dynamics, figures, scale, tables, uplink  # noqa: F401
