"""Outside-in span recorder for the benchmark's traced run.

Nothing inside the program is edited. Each span is a wrapper installed on the
module attribute that the *calling* module looks up at call time (for
example `sfrgnn.trainer.gcn_forward`, which `trainer` calls, or
`sfrgnn.nn.spmm`, which `nn`'s own forward and backward call). A name that a
refactor removed is listed in `absent` instead of failing the run.

A span's self time is its duration minus the durations of the spans it
directly encloses. Spans opened while no other span is open are top-level:
the calls the benchmark itself makes into the program.
"""

from __future__ import annotations

import functools
import importlib
import time

ATTACK_SPAN = "attacks.sgc_gradient_attack"

# (module the caller looks the name up in, attribute, span name, scoring):
# scoring spans are the gradient attack's own linearization and rebuild calls
SPANS = [
    # calls the benchmark makes
    ("graph", "load_graph", "graph.load_graph", False),
    ("attacks", "dice_attack", "attacks.dice_attack", False),
    ("attacks", "sgc_gradient_attack", ATTACK_SPAN, False),
    ("attacks", "apply_perturbation", "attacks.apply_perturbation", False),
    ("trainer", "train", "trainer.train", False),
    ("trainer", "predict", "trainer.predict", False),
    # trainer's stages and its calls into nn and graph
    ("trainer", "pretrain", "trainer.pretrain", False),
    ("trainer", "finetune", "trainer.finetune", False),
    ("trainer", "internaa", "trainer.internaa", False),
    ("trainer", "gcn_forward", "nn.gcn_forward", False),
    ("trainer", "gcn_backward", "nn.gcn_backward", False),
    ("trainer", "nll_loss", "nn.nll_loss", False),
    ("trainer", "infonce_loss", "nn.infonce_loss", False),
    ("trainer", "adam_step", "nn.adam_step", False),
    ("trainer", "normalize_adjacency", "graph.normalize_adjacency", False),
    ("trainer", "csr_from_edge_pairs", "graph.csr_from_edge_pairs", False),
    # propagation, as nn's forward and backward look it up
    ("nn", "spmm", "nn.spmm", False),
    # edge building inside load_graph
    ("graph", "csr_from_edge_pairs", "graph.csr_from_edge_pairs", False),
    # the gradient attack's calls into trainer, nn, graph and backend
    ("attacks", "train", "attacks.surrogate", False),
    ("attacks", "gcn_forward", "nn.gcn_forward", True),
    ("attacks", "nll_loss", "nn.nll_loss", True),
    ("attacks", "gcn_backward_wrt_prop", "nn.gcn_backward_wrt_prop", True),
    ("attacks", "normalize_adjacency", "graph.normalize_adjacency", True),
    ("attacks", "csr_from_edge_pairs", "graph.csr_from_edge_pairs", True),
    ("attacks", "spmm_raw", "attacks.eval_spmm", False),
]


class Recorder:
    """Span totals per name: [calls, seconds, self seconds]."""

    def __init__(self) -> None:
        self.totals: dict[str, list] = {}
        self.scoring_s = 0.0  # seconds in scoring spans called by the attack itself
        self.top_s = 0.0  # seconds inside top-level spans
        self.absent: list[str] = []
        self._stack: list[list] = []  # open spans: [name, start, child seconds]
        self._patches: list[tuple] = []

    def _wrap(self, fn, name: str, scoring: bool):
        stack, totals = self._stack, self.totals

        @functools.wraps(fn)
        def span(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [name, time.perf_counter(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - frame[1]
                stack.pop()
                row = totals.setdefault(name, [0, 0.0, 0.0])
                row[0] += 1
                row[1] += dur
                row[2] += dur - frame[2]
                if stack:
                    stack[-1][2] += dur
                else:
                    self.top_s += dur
                if scoring and parent == ATTACK_SPAN:
                    self.scoring_s += dur

        return span

    def install(self) -> None:
        self.absent = []
        for module_name, attr, name, scoring in SPANS:
            try:
                module = importlib.import_module(f"sfrgnn.{module_name}")
            except ImportError:
                module = None
            fn = getattr(module, attr, None)
            if not callable(fn):
                self.absent.append(f"sfrgnn.{module_name}.{attr}")
                continue
            setattr(module, attr, self._wrap(fn, name, scoring))
            self._patches.append((module, attr, fn))

    def uninstall(self) -> None:
        while self._patches:
            module, attr, fn = self._patches.pop()
            setattr(module, attr, fn)

    def calls(self, name: str) -> int:
        return self.totals.get(name, [0, 0.0, 0.0])[0]

    def seconds(self, name: str) -> float:
        return self.totals.get(name, [0, 0.0, 0.0])[1]

    def self_seconds(self, name: str) -> float:
        return self.totals.get(name, [0, 0.0, 0.0])[2]
