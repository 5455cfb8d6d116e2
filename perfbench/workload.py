"""One process of the benchmark: set up a generated graph, run a workload's
measured work, check the program's outputs and print one JSON line.

    python3 perfbench/workload.py --mode setup|run --workload NAME --seed N \
        --data DIR [--seconds S] [--trace 0|1]

`setup` loads the graph (and, for the DICE workload, poisons it) and
reports the time from process start. `run` does the same set-up, then the
gradient attack where the workload measures it, then rounds (more DICE
calls where the workload poisons with DICE, and the three trials) while
another round is expected to end within `--seconds` of measured time, and
at least MIN_ROUNDS rounds. With `--trace 1` it runs one pass (the gradient
attack, if any, and one round of trials) traced and one untraced, and
reports per-layer figures instead of end-to-end ones. Trials run serially.
"""

import time

T0 = time.perf_counter()  # process start: before numpy or sfrgnn is imported

import argparse  # noqa: E402
import ctypes  # noqa: E402
import importlib  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import zlib  # noqa: E402
from dataclasses import replace  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import numpy as np  # noqa: E402

from sfrgnn import attacks, graph, trainer  # noqa: E402
from sfrgnn.errors import SfrError  # noqa: E402
from sfrgnn.rng import RngState  # noqa: E402

import shapes  # noqa: E402
import spans  # noqa: E402

VARIANTS = ("mlp", "gcn", "sfr")
# propagation kernel calls per epoch of each (variant, history stage)
SPMM_PER_EPOCH = {
    ("mlp", "pretrain"): 0, ("gcn", "pretrain"): 4,
    ("sfr", "pretrain"): 0, ("sfr", "finetune"): 8,
}
# epoch-time pools: the stage whose epochs each (variant, stage) contributes to
EPOCH_POOL = {
    ("mlp", "pretrain"): "pretrain", ("sfr", "pretrain"): "pretrain",
    ("gcn", "pretrain"): "gcn", ("sfr", "finetune"): "finetune",
}
SATURATED_PCT = 99.0
DICE_PER_TRIAL = 4  # DICE takes ~0.05-0.09 s; timed runs repeat it before each trial
# At least four rounds, so that the in-run repeat checks of the trials are
# live and the fastest epoch of each stage is taken over several trials: the
# 20 fine-tune epochs of one sfr trial take about a second, within one state
# of the host.
MIN_ROUNDS = 4


def sub_seed(seed: int, label: str) -> int:
    """A 64-bit seed for one consumer, fixed by the workload seed."""
    ss = np.random.SeedSequence([seed & 0xFFFFFFFF, zlib.crc32(label.encode())])
    return int(ss.generate_state(1, np.uint64)[0])


def rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def spmm_calls() -> int | None:
    """The program's own propagation-call counter, when it still has one."""
    try:
        backend = importlib.import_module("sfrgnn.backend")
    except ImportError:
        return None
    counter = getattr(backend, "spmm_calls", None)
    return int(counter()) if callable(counter) else None


class Ledger:
    """Operations attempted and failed; a failure is a raised SfrError or a
    failed output check of that operation."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed_ops: set[str] = set()
        self.problems: list[str] = []

    def attempt(self, op: str, fn):
        self.attempted += 1
        try:
            return fn()
        except SfrError as exc:
            self.flag(op, f"{type(exc).__name__}: {exc}")
            return None

    def flag(self, op: str, problem: str) -> None:
        self.failed_ops.add(op)
        self.problems.append(f"{op}: {problem}")


def plan_problems(plan, g, budget: int, exact: bool) -> list[str]:
    out = []
    try:
        plan.validate_against(g)
    except SfrError as exc:
        out.append(f"plan fails validate_against: {exc}")
    n = len(plan.flips)
    if (n != budget) if exact else (n > budget):
        out.append(f"{n} flips against a budget of {budget}")
    return out


def poisoned_edges_problem(g, gp, plan) -> list[str]:
    adds = sum(1 for action, _, _ in plan.flips if action == "add")
    want = g.adjacency.nnz // 2 + adds - (len(plan.flips) - adds)
    got = gp.adjacency.nnz // 2
    return [] if got == want else [f"poisoned graph has {got} edges, expected {want}"]


def roundtrip_problems(g, s: shapes.Shape) -> list[str]:
    """The loaded graph must be exactly the generated one."""
    out = []
    if not np.array_equal(g.features, s.features):
        out.append("features differ from the generated ones")
    if not np.array_equal(g.labels, s.labels):
        out.append("labels differ from the generated ones")
    if not np.array_equal(g.adjacency.edge_pairs(), s.pairs):
        out.append("edges differ from the generated ones")
    for name in ("train", "val", "test"):
        if not np.array_equal(getattr(g.splits, name), getattr(s, name)):
            out.append(f"{name} split differs from the generated one")
    return out


class Workload:
    def __init__(self, name: str, seed: int, data: Path, ledger: Ledger) -> None:
        self.spec = shapes.WORKLOADS[name]
        self.seed = seed
        self.data = data
        self.ledger = ledger
        self.cfg = trainer.TrainConfig()
        self.clean = None  # graph as loaded
        self.poisoned = None  # graph the trials train on
        self.budget = 0
        self.dice_plan = None
        # measurements, pooled over rounds
        self.trial_s: dict[str, list[float]] = {v: [] for v in VARIANTS}
        self.epoch_ms: dict[str, list[float]] = {"pretrain": [], "gcn": [], "finetune": []}
        self.attack_s: list[float] = []
        self.test_acc: dict[str, float] = {}
        self.grad_plan = None
        self.attack_rss_delta_mb = None
        self.attacks = 0
        self.rounds = 0

    # ---- set-up ---------------------------------------------------------
    def setup(self) -> float | None:
        """Load and, for the DICE workload, poison. Returns seconds since
        process start, or None when an operation failed."""
        led = self.ledger
        g = led.attempt("load", lambda: graph.load_graph(self.data))
        if g is None:
            return None
        self.clean = g
        self.budget = int(round(self.spec.ptb * (g.adjacency.nnz // 2)))
        if self.spec.attack == "grad":  # the attack is measured work, not set-up
            return time.perf_counter() - T0
        out = self._dice("dice attack")
        if out is None:
            return None
        setup_s = time.perf_counter() - T0
        self.dice_plan, self.poisoned = out
        problems = plan_problems(self.dice_plan, g, self.budget, exact=True)
        for p in problems + poisoned_edges_problem(g, self.poisoned, self.dice_plan):
            led.flag("dice attack", p)
        return setup_s

    def _dice(self, op: str):
        """One timed DICE plan plus `apply_perturbation`; (plan, graph) or None."""
        g, rng = self.clean, RngState(sub_seed(self.seed, "attack"))

        def poison():
            t = time.perf_counter()
            plan = attacks.dice_attack(g, self.spec.ptb, rng)
            gp = attacks.apply_perturbation(g, plan)
            return plan, gp, time.perf_counter() - t

        out = self.ledger.attempt(op, poison)
        if out is None:
            return None
        self.attack_s.append(out[2])
        return out[:2]

    def repeat_dice(self, times: int) -> None:
        """Time DICE again; each plan must be the set-up's plan."""
        for _ in range(times):
            self.attacks += 1
            op = f"dice attack {self.attacks + 1}"  # the set-up's call is the first
            out = self._dice(op)
            if out is not None and out[0].flips != self.dice_plan.flips:
                self.ledger.flag(op, "plan differs from the set-up's plan for the same seed")

    # ---- measured work --------------------------------------------------
    def attack(self) -> None:
        """The gradient attack, where it is measured work; DICE is set-up."""
        if self.spec.attack == "grad":
            self._gradient_attack()

    def trials(self, dice_repeats: int = 0) -> None:
        """One round: a trial of each variant on the poisoned graph, each after
        `dice_repeats` more DICE calls where the workload poisons with DICE."""
        self.rounds += 1
        if self.poisoned is None:
            return
        for variant in VARIANTS:
            if self.dice_plan is not None:
                self.repeat_dice(dice_repeats)
            self._trial(f"round {self.rounds}", variant)

    def _gradient_attack(self) -> None:
        self.attacks += 1
        tag = f"attack {self.attacks}"
        led, op = self.ledger, f"{tag} gradient attack"
        rng = RngState(sub_seed(self.seed, "attack"))
        rss0 = rss_mb()

        def attack():
            t = time.perf_counter()
            plan = attacks.sgc_gradient_attack(self.clean, self.spec.ptb, self.cfg, rng)
            return plan, time.perf_counter() - t

        out = led.attempt(op, attack)
        if self.attack_rss_delta_mb is None:
            self.attack_rss_delta_mb = rss_mb() - rss0
        if out is None:
            self.poisoned = None
            return
        plan, dt = out
        self.attack_s.append(dt)
        for p in plan_problems(plan, self.clean, self.budget, exact=False):
            led.flag(op, p)
        if self.grad_plan is not None and plan.flips != self.grad_plan.flips:
            led.flag(op, "plan differs from the first attack's plan for the same seed")
        self.grad_plan = self.grad_plan or plan
        gp = led.attempt(f"{tag} apply plan", lambda: attacks.apply_perturbation(self.clean, plan))
        if gp is not None:
            for p in poisoned_edges_problem(self.clean, gp, plan):
                led.flag(f"{tag} apply plan", p)
        self.poisoned = gp

    def _trial(self, tag: str, variant: str) -> None:
        led, op = self.ledger, f"{tag} {variant} trial"
        seed = sub_seed(self.seed, f"trial:{variant}")
        cfg = replace(self.cfg, seed=seed)
        g = self.poisoned

        def trial():
            t = time.perf_counter()
            model = trainer.train(g, cfg, variant, RngState(seed))
            _, accs = trainer.predict(model, g)
            return model, accs, time.perf_counter() - t

        out = led.attempt(op, trial)
        if out is None:
            return
        model, accs, dt = out
        self.trial_s[variant].append(dt)
        for stage_name in ("pretrain", "finetune"):
            stage = getattr(model.history, stage_name)
            if not stage.losses:
                continue
            if not np.all(np.isfinite(stage.losses)):
                led.flag(op, f"non-finite {stage_name} loss")
            want = SPMM_PER_EPOCH.get((variant, stage_name))
            calls = getattr(stage, "spmm_calls", None)
            if want is None:
                led.flag(op, f"unexpected {stage_name} stage")
            elif calls is not None and any(c != want for c in calls):
                led.flag(op, f"{stage_name} spmm calls per epoch {sorted(set(calls))}, "
                             f"expected {want}")
            self.epoch_ms[EPOCH_POOL.get((variant, stage_name), stage_name)].extend(
                stage.epoch_ms
            )
        acc = accs["test"] * 100.0
        if variant in self.test_acc and acc != self.test_acc[variant]:
            led.flag(op, f"test accuracy {acc} differs from the first round's "
                         f"{self.test_acc[variant]}")
        self.test_acc.setdefault(variant, acc)

    # ---- after the measured work ----------------------------------------
    def final_checks(self, generated: shapes.Shape) -> None:
        led = self.ledger
        for p in roundtrip_problems(self.clean, generated):
            led.flag("load", p)
        acc = self.test_acc
        if all(v in acc for v in ("mlp", "gcn")):
            if not acc["mlp"] < acc["gcn"]:
                led.flag("load", f"mlp accuracy {acc['mlp']:.2f} not below gcn {acc['gcn']:.2f}")
            if max(acc.values()) >= SATURATED_PCT:
                led.flag("load", f"an accuracy reached {max(acc.values()):.2f}%")

    def victim_drop_pts(self) -> float | None:
        """Clean-graph gcn victim accuracy minus its poisoned accuracy."""
        if "gcn" not in self.test_acc:
            return None
        seed = sub_seed(self.seed, "trial:gcn")

        def clean_trial():
            model = trainer.train(self.clean, replace(self.cfg, seed=seed), "gcn", RngState(seed))
            return trainer.predict(model, self.clean)[1]["test"] * 100.0

        clean_acc = self.ledger.attempt("clean gcn victim", clean_trial)
        return None if clean_acc is None else clean_acc - self.test_acc["gcn"]

    def end_to_end(self) -> dict[str, float]:
        """Trial times are means over the rounds. Epoch and attack times are
        the fastest sample: an epoch or a DICE call is short next to the
        host's slow spells, which slow every sample in them by up to 1.7x
        and fill a different share of each run, so the fastest sample moves
        least from run to run."""
        out = {f"trial_s.{v}": statistics.mean(s) for v, s in self.trial_s.items() if s}
        out.update({f"epoch_ms_min.{k}": min(v) for k, v in self.epoch_ms.items() if v})
        out.update({f"test_acc.{v}": a for v, a in self.test_acc.items()})
        if self.attack_s:
            out["attack_s_min"] = min(self.attack_s)
        return out

    def digest(self) -> str:
        """CRC-32 of the attack plan and the accuracies, to compare runs of
        one seed across processes."""
        plan = self.grad_plan or self.dice_plan
        flips = [] if plan is None else [(a, int(u), int(v)) for a, u, v in plan.flips]
        text = repr((flips, sorted(self.test_acc.items())))
        return f"{zlib.crc32(text.encode()):08x}"


def blas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use, read from the library itself."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower() and "/" in ln})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas_name = "unknown"
    try:
        import scipy
        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = "absent"
    try:
        backend_name = getattr(importlib.import_module("sfrgnn.backend"), "BACKEND", "absent")
    except ImportError:
        backend_name = "absent"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            models = (ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name"))
            cpu = next(models, cpu)
    except OSError:
        pass
    thread_env = {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                             "MKL_NUM_THREADS") if k in os.environ}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "numba": "present" if importlib.util.find_spec("numba") else "absent",
        "backend": backend_name,
        "blas": blas_name,
        "blas_threads": blas_threads(),
        "blas_thread_env": thread_env or "unset (library default)",
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "SFR_PRECISION": os.environ.get("SFR_PRECISION", "unset"),
        "SFR_THREADS": os.environ.get("SFR_THREADS", "unset"),
    }


def layer_metrics(rec: spans.Recorder, wl: Workload, counts: dict) -> dict[str, float]:
    flips = len(wl.grad_plan.flips) if wl.grad_plan is not None else 0
    evals = rec.calls("attacks.eval_spmm") // 2  # one exact evaluation = two propagations
    return {
        "nn.spmm.calls": rec.calls("nn.spmm"),
        "nn.spmm.s": rec.seconds("nn.spmm"),
        "backend.spmm.calls": counts["backend_spmm"],
        "nn.gcn_forward.self_s": rec.self_seconds("nn.gcn_forward"),
        "nn.gcn_backward.self_s": rec.self_seconds("nn.gcn_backward"),
        "nn.infonce_loss.s": rec.seconds("nn.infonce_loss"),
        "nn.nll_loss.s": rec.seconds("nn.nll_loss"),
        "nn.adam_step.s": rec.seconds("nn.adam_step"),
        "trainer.pretrain.s": rec.seconds("trainer.pretrain"),
        "trainer.finetune.s": rec.seconds("trainer.finetune"),
        "trainer.internaa.s": rec.seconds("trainer.internaa"),
        "trainer.predict.s": rec.seconds("trainer.predict"),
        "graph.load_graph.s": rec.seconds("graph.load_graph"),
        "graph.normalize_adjacency.calls": rec.calls("graph.normalize_adjacency"),
        "graph.normalize_adjacency.s": rec.seconds("graph.normalize_adjacency"),
        "graph.csr_from_edge_pairs.calls": rec.calls("graph.csr_from_edge_pairs"),
        "graph.csr_from_edge_pairs.s": rec.seconds("graph.csr_from_edge_pairs"),
        "attacks.surrogate.s": rec.seconds("attacks.surrogate"),
        "attacks.scoring.s": rec.scoring_s,
        "attacks.eval_spmm.calls": rec.calls("attacks.eval_spmm"),
        "attacks.eval_spmm.s": rec.seconds("attacks.eval_spmm"),
        "attacks.self_s": rec.self_seconds(spans.ATTACK_SPAN),
        "attacks.flips": flips,
        "attacks.evals": evals,
        "attacks.useful_ratio": flips / evals if evals else 0.0,
        "attacks.peak_rss_delta_mb": wl.attack_rss_delta_mb or 0.0,
        "trace.overhead_ratio": counts["traced_s"] / counts["untraced_s"],
        "trace.coverage": counts["top_s"] / counts["traced_s"],
        "trace.absent": counts["absent"],
    }


def timed_run(wl: Workload, seconds: float) -> dict[str, float]:
    """The gradient attack, then rounds until another round would end after
    `seconds` of measured time, and at least MIN_ROUNDS rounds. On the DICE
    workload each trial follows more DICE calls: the host's speed drifts over
    seconds, so they sample the same stretch of time as the trials."""
    t = time.perf_counter()
    wl.attack()
    attack_s = time.perf_counter() - t
    rounds_s = 0.0
    while wl.rounds < MIN_ROUNDS or attack_s + rounds_s * (wl.rounds + 1) / wl.rounds <= seconds:
        t = time.perf_counter()
        wl.trials(DICE_PER_TRIAL)
        rounds_s += time.perf_counter() - t
    return wl.end_to_end()


def traced_passes(wl: Workload, rec: spans.Recorder) -> tuple[dict[str, float], list[str]]:
    """One traced pass (the attack and a round of trials), then one untraced
    pass; returns the per-layer metrics and the names the program no longer
    has. The traced pass goes first, as cold as the first pass of a timed
    run, so the overhead ratio also carries warm-up and errs high."""
    calls0 = spmm_calls()
    rec.install()
    top0 = rec.top_s
    t = time.perf_counter()
    wl.attack()
    wl.trials()
    traced_s = time.perf_counter() - t
    rec.uninstall()
    calls1 = spmm_calls()
    t = time.perf_counter()
    wl.attack()
    wl.trials()
    untraced_s = time.perf_counter() - t
    absent = rec.absent + (["sfrgnn.backend.spmm_calls"] if calls1 is None else [])
    counts = {
        "backend_spmm": calls1 - calls0 if calls1 is not None else 0,
        "untraced_s": untraced_s, "traced_s": traced_s, "top_s": rec.top_s - top0,
        "absent": len(absent),
    }
    layers = layer_metrics(rec, wl, counts)
    if layers["trace.coverage"] < 0.95:  # the spans must account for the pass
        wl.ledger.problems.append("trace: top-level spans cover under 95% of the traced pass")
    return layers, absent


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--mode", choices=("setup", "run"), required=True)
    ap.add_argument("--workload", choices=sorted(shapes.WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--data", type=Path, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    ledger = Ledger()
    wl = Workload(args.workload, args.seed, args.data, ledger)
    result: dict = {"info": {}}
    rec = spans.Recorder()
    if args.trace:
        rec.install()
    setup_s = wl.setup()
    rec.uninstall()
    result["setup_s"] = setup_s

    if args.mode == "run" and wl.clean is not None:
        if args.trace:
            result["layers"], result["info"]["absent"] = traced_passes(wl, rec)
        else:
            result["e2e"] = timed_run(wl, args.seconds)
        result["peak_rss_mb"] = rss_mb()
        result["info"]["rounds"] = wl.rounds
        if args.trace and wl.spec.attack == "grad":  # informational; timed runs skip its cost
            result["info"]["attack_drop_pts"] = wl.victim_drop_pts()
        wl.final_checks(shapes.GENERATORS[wl.spec.shape](args.seed))
        result["info"]["digest"] = wl.digest()
        result["environment"] = environment()

    result["attempted"] = ledger.attempted
    result["failed"] = len(ledger.failed_ops)
    result["problems"] = ledger.problems
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
