"""In-memory spans around calls into ptgames, recorded from outside the package.

A :class:`Tracer` replaces each traced function by a timing wrapper under
every name through which ptgames code looks it up: the module attribute in
every loaded ``ptgames`` module that holds the function (so ``from .x import
f`` bindings are covered), or the class attribute for methods.  Each call
records one span (layer, start, end, parent span); self time is a span's
duration minus the time its direct child spans cover.  A target that no
longer exists is reported as absent instead of failing, so the benchmark
keeps working while the package is refactored underneath it.
"""
from __future__ import annotations

import gzip
import importlib
import inspect
import sys
import time
from array import array
from dataclasses import dataclass
from typing import Callable

import numpy as np

SEARCH = "search"  # the outermost search call; its self time is unattributed work
SAMPLER = "search.sampler"


@dataclass(frozen=True)
class Target:
    """``layer`` is the span name; ``owner`` a module, ``attr`` a function
    name or ``Class.method``.  ``source`` marks functions returning
    iterators whose ``next`` calls are timed instead of the call itself."""

    layer: str
    owner: str
    attr: str  # a trailing ``*`` matches every public function with that prefix
    source: bool = False


# Every public ``search*`` function of ptgames.search (``search_grid`` and
# ``search_sampled`` today), so a merged or renamed driver is still timed.
SEARCH_TARGETS = (Target(SEARCH, "ptgames.search", "search*"),)

# End-to-end timers: the same wrappers, on the two calls that bound set-up
# and search.  Cost is two clock reads per solve.
TIMER_TARGETS = (Target("cli.load_config", "ptgames.cli", "load_config"),) + SEARCH_TARGETS

LAYER_TARGETS = TIMER_TARGETS + (
    Target("cli.write_artifacts", "ptgames.cli", "write_certificate"),
    Target("cli.write_artifacts", "ptgames.cli", "write_probability_csv"),
    Target("smartgrid.build_prosumer_game", "ptgames.smartgrid", "build_prosumer_game"),
    Target("game.validate_game", "ptgames.game", "validate_game"),
    Target("game.weighting", "ptgames.game", "WeightingFunction.__call__"),
    Target("search.certify", "ptgames.search", "certify"),
    Target("search.profile_at", "ptgames.search", "ProfileGrid.profile_at"),
    Target(SAMPLER, "ptgames.search", "sampled_profile_indices", source=True),
    Target(SAMPLER, "ptgames.search", "ProfileGrid.index_tuples", source=True),
    Target("marginals.strategy_init", "ptgames.marginals", "MarkovStrategy.__post_init__"),
    Target("marginals.forward_marginals", "ptgames.marginals", "forward_marginals"),
    Target("criterion.pt_payoff", "ptgames.criterion", "pt_payoff"),
    Target("criterion.opponent_weight_vector", "ptgames.criterion", "opponent_weight_vector"),
    Target("best_response.induced_stage_rewards", "ptgames.best_response", "induced_stage_rewards"),
    Target("best_response.backward_induction", "ptgames.best_response", "backward_induction"),
)


@dataclass(frozen=True)
class LayerStats:
    calls: int
    self_s: float
    outer_s: float  # duration of spans not nested in a span of the same layer


def _param_index(fn, name: str):
    try:
        return list(inspect.signature(fn).parameters).index(name)
    except ValueError:
        return None


def _argument(args, kwargs, index, name):
    return args[index] if index < len(args) else kwargs.get(name)


class Tracer:
    """Records spans while installed; restores the original names on exit."""

    def __init__(self, targets):
        self.targets = tuple(targets)
        self.layer_names = sorted({t.layer for t in self.targets})
        self._layer_id = {name: k for k, name in enumerate(self.layer_names)}
        self.layer = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._restore = []
        self.missing = []
        # counters measured at the layer boundaries
        self.weighting_elements = 0
        self.sampler_draws = 0
        self.certified = 0
        self.marginal_profiles = set()
        self._marginals = []
        self.weight_calls = 0
        self.weight_keys = set()

    # ---------- installation ----------

    def __enter__(self):
        for target in self.targets:
            self._install(target)
        return self

    def __exit__(self, *exc):
        for obj, attr, original in reversed(self._restore):
            setattr(obj, attr, original)
        self._restore.clear()
        return False

    def _install(self, target: Target):
        try:
            module = importlib.import_module(target.owner)
        except ImportError:
            self.missing.append(f"{target.owner}.{target.attr}")
            return
        if target.attr.endswith("*"):
            prefix = target.attr[:-1]
            names = [
                name
                for name, value in vars(module).items()
                if name.startswith(prefix)
                and inspect.isfunction(value)
                and value.__module__ == target.owner
            ]
            if not names:
                self.missing.append(f"{target.owner}.{target.attr}")
            for name in sorted(names):
                self._install(Target(target.layer, target.owner, name, target.source))
            return
        cls_name, _, method = target.attr.rpartition(".")
        cls = getattr(module, cls_name, None) if cls_name else None
        if cls_name:
            original = None if cls is None else cls.__dict__.get(method)
        else:
            original = getattr(module, target.attr, None)
        if not callable(original):
            self.missing.append(f"{target.owner}.{target.attr}")
            return
        wrapper = self._wrap(target, original)
        if cls is not None:
            self._restore.append((cls, method, original))
            setattr(cls, method, wrapper)
            return
        for name, mod in list(sys.modules.items()):
            if name != "ptgames" and not name.startswith("ptgames."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def _wrap(self, target: Target, fn: Callable) -> Callable:
        layer_id = self._layer_id[target.layer]
        if target.source:
            return self._source_wrapper(layer_id, fn)
        before = after = None
        if target.layer == "search.certify":
            before, after = self._certify_before, self._certify_after
        elif target.layer == "marginals.forward_marginals":
            after = self._marginals_after
        elif target.layer == "game.weighting":
            after = self._weighting_hook(fn)
        elif target.layer == "criterion.opponent_weight_vector":
            after = self._weight_vector_hook(fn)
        return self._span_wrapper(layer_id, fn, before, after)

    def _open(self, layer_id: int) -> int:
        idx = len(self.start)
        self.layer.append(layer_id)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def _span_wrapper(self, layer_id, fn, before, after):
        def wrapper(*args, **kwargs):
            if before is not None:
                before()
            idx = self._open(layer_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def _source_wrapper(self, layer_id, fn):
        def wrapper(*args, **kwargs):
            iterator = iter(fn(*args, **kwargs))
            while True:
                caller = self._stack[-1]
                # a source drained inside another (the sampler listing a
                # small grid) adds time but no draws
                outermost = caller < 0 or self.layer[caller] != layer_id
                idx = self._open(layer_id)
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    self._close(idx)
                if outermost:
                    self.sampler_draws += 1
                yield item

        return wrapper

    # ---------- counters ----------

    def _certify_before(self):
        self._marginals = []

    def _certify_after(self, args, kwargs, result):
        self.certified += 1
        if self._marginals:
            self.marginal_profiles.add(tuple(self._marginals))
        self._marginals = []

    def _marginals_after(self, args, kwargs, result):
        probs = getattr(result, "probs", None)
        if isinstance(probs, np.ndarray):
            self._marginals.append(probs.tobytes())

    def _weighting_hook(self, fn):
        y_at = _param_index(fn, "y")

        def after(args, kwargs, result):
            if y_at is not None:
                self.weighting_elements += int(np.size(_argument(args, kwargs, y_at, "y")))

        return after

    def _weight_vector_hook(self, fn):
        player_at = _param_index(fn, "player")
        stage_at = _param_index(fn, "stage_index")

        def after(args, kwargs, result):
            self.weight_calls += 1
            if player_at is not None and stage_at is not None:
                self.weight_keys.add(
                    (
                        self.certified,
                        _argument(args, kwargs, player_at, "player"),
                        _argument(args, kwargs, stage_at, "stage_index"),
                    )
                )

        return after

    # ---------- results ----------

    def stats(self) -> dict:
        """Per-layer call count, self time and outermost duration."""
        n = len(self.start)
        layer = np.frombuffer(self.layer, dtype=np.uint16, count=n)
        parent = np.frombuffer(self.parent, dtype=np.int32, count=n)
        duration = np.frombuffer(self.end, count=n) - np.frombuffer(self.start, count=n)
        nested = parent >= 0
        covered = np.zeros(n)
        np.add.at(covered, parent[nested], duration[nested])
        own = duration - covered
        parent_layer = np.where(nested, layer[np.maximum(parent, 0)], -1)
        outer = parent_layer != layer
        count = len(self.layer_names)
        calls = np.bincount(layer, minlength=count)
        self_s = np.bincount(layer, weights=own, minlength=count)
        outer_s = np.bincount(layer[outer], weights=duration[outer], minlength=count)
        return {
            name: LayerStats(int(calls[k]), float(self_s[k]), float(outer_s[k]))
            for k, name in enumerate(self.layer_names)
        }

    def write(self, path) -> None:
        """Write every span as CSV (times in seconds from the first span)."""
        n = len(self.start)
        origin = self.start[0] if n else 0.0
        names = self.layer_names
        with gzip.open(path, "wt", compresslevel=1) as handle:
            handle.write("span,layer,parent,start_s,end_s\n")
            for k in range(n):
                handle.write(
                    f"{k},{names[self.layer[k]]},{self.parent[k]},"
                    f"{self.start[k] - origin:.9f},{self.end[k] - origin:.9f}\n"
                )
