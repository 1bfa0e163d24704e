"""Span tracing for the benchmark's traced run, from outside the program.

The tracer wraps public entry points of ``repro`` (functions and class
methods) for the duration of one traced pass and restores them after.
Every wrapped call is a span on one stack, so each span's *self* time is
its duration minus the time its child spans cover, and the self times of
a root span's subtree add up to the root's duration exactly.

Two kinds of span are kept:

* coarse spans (workload, trial, build, run, metric computation) are
  recorded one by one, with their trial id and parent;
* hot-path spans (event pushes, delay draws, protocol callbacks, ...)
  are aggregated into ``(count, inclusive, self)`` per trial and layer,
  so memory stays bounded however many events a run dispatches.

Nothing is written while tracing; :meth:`Tracer.dump` writes the spans
once, at the end.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: The clock every span reads (monotonic, highest resolution).
CLOCK = time.perf_counter


class Patches:
    """Attribute replacements undone in reverse order on exit."""

    def __init__(self) -> None:
        self._undo: List[Tuple[Any, str, Any]] = []

    def set(self, owner: Any, name: str, value: Any) -> None:
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def everywhere(self, original: Any, replacement: Any) -> None:
        """Rebind ``original`` in every ``repro`` module that holds it.

        Catches every ``from module import name`` copy, including the
        ones lazy imports made before this call.  Lazy imports made
        later read the defining module, which is patched too.
        """
        for name, module in list(sys.modules.items()):
            if module is None or not (
                name == "repro" or name.startswith("repro.")
            ):
                continue
            for attribute, value in list(vars(module).items()):
                if value is original:
                    self.set(module, attribute, replacement)

    def restore(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.restore()


class Tracer:
    """A span stack with per-trial, per-layer self-time aggregation."""

    def __init__(self) -> None:
        # Each frame is [time covered by child spans].
        self._stack: List[List[float]] = []
        self._parents: List[Optional[int]] = []
        #: (trial, layer) -> [count, inclusive seconds, self seconds]
        self.totals: Dict[Tuple[str, str], List[float]] = {}
        #: Coarse spans, in the order they started.
        self.spans: List[Dict[str, Any]] = []
        self.trial = "-"

    # -- recording ------------------------------------------------------

    def _close(
        self, layer: str, start: float, end: float, child: float
    ) -> float:
        inclusive = end - start
        if self._stack:
            self._stack[-1][0] += inclusive
        key = (self.trial, layer)
        entry = self.totals.get(key)
        if entry is None:
            entry = self.totals[key] = [0, 0.0, 0.0]
        entry[0] += 1
        entry[1] += inclusive
        entry[2] += inclusive - child
        return inclusive - child

    def wrap(
        self,
        layer: str,
        function: Callable[..., Any],
        coarse: bool = False,
        trial_of: Optional[Callable[..., str]] = None,
    ) -> Callable[..., Any]:
        """``function`` recorded as a ``layer`` span on every call.

        ``trial_of(*args, **kwargs)`` names the trial the call starts;
        the id applies to every span inside it.
        """
        stack = self._stack
        close = self._close
        clock = CLOCK

        if not coarse and trial_of is None:

            @functools.wraps(function)
            def hot(*args: Any, **kwargs: Any) -> Any:
                frame = [0.0]
                stack.append(frame)
                start = clock()
                try:
                    return function(*args, **kwargs)
                finally:
                    end = clock()
                    stack.pop()
                    close(layer, start, end, frame[0])

            return hot

        @functools.wraps(function)
        def recorded(*args: Any, **kwargs: Any) -> Any:
            with self.span(
                layer,
                trial_of(*args, **kwargs) if trial_of else None,
            ):
                return function(*args, **kwargs)

        return recorded

    def span(self, layer: str, trial: Optional[str] = None) -> "_Span":
        """A coarse span as a context manager (see :meth:`wrap`)."""
        return _Span(self, layer, trial)

    # -- reading --------------------------------------------------------

    def layer_totals(self) -> Dict[str, List[float]]:
        """``layer -> [count, inclusive, self]`` summed over trials."""
        merged: Dict[str, List[float]] = {}
        for (_trial, layer), (count, inclusive, own) in self.totals.items():
            entry = merged.setdefault(layer, [0, 0.0, 0.0])
            entry[0] += count
            entry[1] += inclusive
            entry[2] += own
        return merged

    def accounting(self) -> Tuple[float, float, float]:
        """(duration of the root spans, sum of every self time, the
        roots' own self time).

        The first two agree up to rounding: every span's duration is
        its self time plus its children's durations.
        """
        roots = [span for span in self.spans if span["parent"] is None]
        duration = sum(span["end"] - span["start"] for span in roots)
        total_self = sum(entry[2] for entry in self.totals.values())
        return duration, total_self, sum(span["self_s"] for span in roots)

    def dump(self, path: str) -> None:
        """Write every coarse span and every aggregate as one JSON file."""
        payload = {
            "spans": self.spans,
            "totals": [
                {
                    "trial": trial,
                    "layer": layer,
                    "count": count,
                    "inclusive_s": inclusive,
                    "self_s": own,
                }
                for (trial, layer), (count, inclusive, own) in sorted(
                    self.totals.items()
                )
            ],
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)


class _Span:
    """One coarse span: recorded individually and in the aggregates."""

    def __init__(
        self, tracer: Tracer, layer: str, trial: Optional[str]
    ) -> None:
        self.tracer = tracer
        self.layer = layer
        self.trial = trial

    def __enter__(self) -> "_Span":
        tracer = self.tracer
        self.outer_trial = tracer.trial
        if self.trial is not None:
            tracer.trial = (
                self.trial
                if tracer.trial == "-"
                else f"{tracer.trial}/{self.trial}"
            )
        self.frame = [0.0]
        tracer._stack.append(self.frame)
        self.index = len(tracer.spans)
        tracer.spans.append({})  # reserved: parents precede children
        self.parent = tracer._parents[-1] if tracer._parents else None
        tracer._parents.append(self.index)
        self.start = CLOCK()
        return self

    def __exit__(self, *exc: Any) -> None:
        end = CLOCK()
        tracer = self.tracer
        tracer._stack.pop()
        tracer._parents.pop()
        own = tracer._close(self.layer, self.start, end, self.frame[0])
        tracer.spans[self.index] = {
            "layer": self.layer,
            "trial": tracer.trial,
            "parent": self.parent,
            "start": self.start,
            "end": end,
            "self_s": own,
        }
        tracer.trial = self.outer_trial
