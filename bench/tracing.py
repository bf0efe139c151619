"""Outside-in tracing: spans around the program's public functions at their import sites.

Nothing under ``src/`` knows about tracing. While ``installed`` is active,
the library functions that ``bridgerates.cli`` imports, plus the layer
boundaries ``estimate`` and ``bridge`` cross (listed in ``SITES``), are
replaced in the importing module's namespace by wrappers that record a
span: name, start, end, parent span and run id, plus a few facts read off
the call's arguments and result. Spans stay in memory; ``run.py`` writes
them out when the run ends. Untraced runs never call ``installed``.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import time
from dataclasses import dataclass, field

# (importing module, name) of each boundary wrapped besides cli's own imports
SITES = [
    ("estimate", "conjugate_at"),
    ("estimate", "conditional_samples"),
    ("estimate", "batch_occupations"),
    ("estimate", "dvg_rate"),
    ("bridge", "transition_at"),
]


def _conjugate_facts(args, kwargs, result) -> dict:
    return {
        "n": int(getattr(args[0], "n_samples", 0)),
        "warm": kwargs.get("lam0") is not None,
        "converged": bool(result.converged),
        "boundary": bool(result.boundary),
    }


def _bridge_facts(args, kwargs, result) -> dict:
    spec = args[0]
    return {"n": int(result.n_samples), "x": spec.x, "y": spec.y, "t0": spec.t0,
            "generator": spec.Q.rates.tolist()}


def _dvg_facts(args, kwargs, result) -> dict:
    return {"iters": int(result.iterations)}


def _paths_facts(args, kwargs, result) -> dict:
    return {"paths": int(result.shape[0])}


FACTS = {
    "conjugate.conjugate_at": _conjugate_facts,
    "bridge.conditional_samples": _bridge_facts,
    "ratefun.dvg_rate": _dvg_facts,
    "simulate.batch_occupations": _paths_facts,
}


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    run: str = ""
    error: str | None = None
    facts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder for one single-threaded run."""

    def __init__(self):
        self.spans: list[Span] = []
        self.run = ""
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), parent=parent, run=self.run))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, idx: int, error: str | None = None, facts: dict | None = None) -> None:
        span = self.spans[idx]
        span.end = time.perf_counter()
        span.error = error
        if facts:
            span.facts = facts
        self._stack.pop()

    def wrap(self, fn, name: str):
        facts_of = FACTS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.close(idx, error=type(exc).__name__)
                raise
            self.close(idx, facts=facts_of(args, kwargs, result) if facts_of else None)
            return result

        return wrapper

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        own = [span.duration for span in self.spans]
        for span in self.spans:
            if span.parent is not None:
                own[span.parent] -= span.duration
        return own


def _span_name(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


def wrap_targets() -> list[tuple[object, str]]:
    """(module, attribute) pairs to wrap: cli's library functions and SITES."""
    cli = importlib.import_module("bridgerates.cli")
    targets = [
        (cli, attr) for attr, value in vars(cli).items()
        if inspect.isfunction(value) and value.__module__.startswith("bridgerates.")
        and value.__module__ != cli.__name__
    ]
    targets += [(importlib.import_module(f"bridgerates.{mod}"), attr) for mod, attr in SITES]
    return targets


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Wrap every target for the duration of the block, then restore the originals."""
    saved = []
    try:
        for module, attr in wrap_targets():
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(original, _span_name(original)))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
