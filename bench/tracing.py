"""Span tracer around calls into the program's public functions.

Installed only for ``--trace 1``. Each traced function is replaced, in every
``ginigcn`` module namespace that binds it, by a wrapper that records one
span when the call returns: name, run phase, nesting depth, start, end, and
the time covered by its direct traced children. A span's self time is its
duration minus that child time; its parent is the nearest enclosing span one
level up. Spans stay in memory until the run ends. Node construction is
counted (nodes and bytes of their values) without a span.

Spans inside the engine, such as per-op backward closures, are not traced:
``autodiff.backward`` is one span.
"""

from __future__ import annotations

import functools
import sys
import time

import numpy as np

SETUP, CHECK, MEASURE = 0, 1, 2
COLUMNS = ("name", "phase", "depth", "start_ns", "end_ns", "child_ns")

TRACED = {
    "ginigcn.autodiff": (
        "constant", "matmul", "linear", "batch_norm", "relu", "tanh", "concat_cols",
        "segment_aggregate", "sub", "mul", "div", "reduce", "absolute", "gather",
        "slice_rows", "reshape", "clamp_min", "log", "exp", "backward",
    ),
    "ginigcn.molecules": ("featurize",),
    "ginigcn.toydata": ("generate_graphs",),
    "ginigcn.gini": ("layer_gini_blocks", "regularized_loss"),
    "ginigcn.training": ("multitask_loss", "adam_step", "evaluate_mae"),
    "ginigcn.attribution": ("per_atom_map", "top_representations"),
    "ginigcn.model": ("load_checkpoint",),
}
# Functions timed once per set-up, not per measured round.
SETUP_METRICS = ("toydata.generate_graphs", "model.load_checkpoint")


class Tracer:
    def __init__(self):
        self.phase = SETUP
        self.names: list[str] = []
        self._spans: list[tuple] = []
        self._open: list[int] = []       # child time of each open span
        self.other: list[np.ndarray] = []  # spans outside measured rounds
        self.rounds: list[np.ndarray] = []  # spans of each measured round
        # running totals: nodes built, bytes of their values, atoms into forward_batch
        self.nodes = self.node_bytes = self.atoms = 0
        self._before = (0, 0, 0)
        self.round_counts: list[tuple[int, int, int]] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _span(self, name: str, fn, after=None):
        idx = len(self.names)
        self.names.append(name)
        spans, open_, clock = self._spans, self._open, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            open_.append(0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                child = open_.pop()
                if open_:
                    open_[-1] += end - start
                spans.append((idx, self.phase, len(open_), start, end, child))
                if after is not None:
                    after(args)

        return traced

    def _count_atoms(self, args):
        self.atoms += sum(len(g.atoms) for g in args[1])

    def _patch(self, owner, attr: str, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Rebind every traced function wherever a ginigcn module holds it."""
        modules = [m for name, m in sys.modules.items()
                   if name == "ginigcn" or name.startswith("ginigcn.")]
        for module_name, funcs in TRACED.items():
            module = sys.modules[module_name]
            short = module_name.rsplit(".", 1)[1]
            for fn_name in funcs:
                original = getattr(module, fn_name)
                wrapped = self._span(f"{short}.{fn_name}", original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            self._patch(m, attr, wrapped)

        from ginigcn import autodiff, model

        self._patch(model.Model, "forward_batch",
                    self._span("model.forward_batch", model.Model.forward_batch,
                               self._count_atoms))
        node_init = autodiff.Node.__init__

        @functools.wraps(node_init)
        def counted_init(node, *args, **kwargs):
            node_init(node, *args, **kwargs)
            self.nodes += 1
            self.node_bytes += node.value.nbytes

        self._patch(autodiff.Node, "__init__", counted_init)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def _flush(self) -> np.ndarray:
        block = np.array(self._spans, dtype=np.int64).reshape(-1, len(COLUMNS))
        self._spans.clear()
        return block

    def _totals(self) -> tuple[int, int, int]:
        return self.nodes, self.node_bytes, self.atoms

    def begin_round(self) -> None:
        self.other.append(self._flush())
        self._before = self._totals()
        self.phase = MEASURE

    def end_round(self) -> None:
        self.rounds.append(self._flush())
        self.round_counts.append(tuple(b - a for a, b in zip(self._before, self._totals())))
        self.phase = CHECK

    # -- summary -----------------------------------------------------------

    def spans(self) -> np.ndarray:
        """All spans recorded so far, one row per span, in COLUMNS order."""
        self.other.append(self._flush())
        return np.concatenate(self.other + self.rounds)

    def metrics(self, setups: int) -> tuple[dict[str, float], list[str]]:
        """Per-round self time and calls of each traced function, and counts.

        Measured rounds repeat the same operations, so every per-round count
        must be the same in each round; a round that differs is a problem.
        Set-up functions are reported per set-up.
        """
        n = len(self.names)
        calls = [np.bincount(r[:, 0], minlength=n) for r in self.rounds]
        problems = []
        if any(not np.array_equal(c, calls[0]) for c in calls):
            problems.append("traced call counts differ between identical rounds")
        if len(set(self.round_counts)) > 1:
            problems.append("node or atom counts differ between identical rounds")

        def self_time(block):
            return np.bincount(block[:, 0], weights=(block[:, 4] - block[:, 3] - block[:, 5])
                               / 1e9, minlength=n)

        measured = self_time(np.concatenate(self.rounds)) / len(self.rounds)
        everything = self.spans()
        setup = self_time(everything[everything[:, 1] == SETUP]) / setups
        out: dict[str, float] = {}
        for i, name in enumerate(self.names):
            if name in SETUP_METRICS:
                out[f"{name}.s"] = float(setup[i])
            else:
                out[f"{name}.s"] = float(measured[i])
                out[f"{name}.calls"] = int(calls[0][i])
        nodes, node_bytes, atoms = self.round_counts[0]
        out["model.forward_batch.atoms"] = atoms
        out["autodiff.node.count"] = nodes
        out["autodiff.node.bytes"] = node_bytes
        return out, problems
