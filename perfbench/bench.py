"""One benchmark run of one workload: set-up, timed units, output checks.

A run sets the workload up several times (the median is setup_s), runs one
warm-up unit, and then repeats the workload's unit until the time
budget is spent.  With tracing on, untraced and traced units alternate, so
both see the same machine conditions; end-to-end figures come only from
untraced units.  Every unit of a run does identical work, so every unit
must leave byte-identical artifacts: that is also the proof that tracing
changes no result.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import math
import os
import resource
import shutil
import statistics
import sys
import time
import traceback

from stagesum.checkpoint import ParamStore
from stagesum.tokenizer import read_corpus

from tracing import TARGETS, StageLog, Tracer
from workloads import WORKLOADS

# Set-up repeats at least SETUP_REPEATS times and until SETUP_MIN_S seconds
# are spent, so that a set-up of a few milliseconds still gets a steady median.
SETUP_REPEATS, SETUP_MIN_S, SETUP_MAX_REPEATS = 3, 1.0, 25
TRAIN_STAGES = ("run_pretrain", "run_train", "run_select_train")

E2E_UNITS = {"setup_s": "s", "wall_s": "s", "train_examples_per_s": "1/s",
             "final_train_loss": "nats", "peak_rss_mb": "MB"}
# Whole-workload figures that only some workloads have (0 elsewhere); they
# are reported with the per-layer metrics.
WORKLOAD_UNITS = {"greedy_summaries_per_s": "1/s", "beam_summaries_per_s": "1/s",
                  "dev_rougeL": "F1", "selector_dev_f1": "F1"}


def median(values):
    return statistics.median(values) if values else 0.0


def _n_examples(path):
    return len(read_corpus(path))


def _report_values(run_dir):
    """(train losses, dev metrics) per epoch from a stage's train_report.txt."""
    train, dev = [], []
    with open(os.path.join(run_dir, "train_report.txt"), encoding="utf-8") as f:
        for line in f:
            rec = dict(kv.split("=", 1) for kv in line.split())
            if "train_loss" in rec:
                train.append(float(rec["train_loss"]))
            if "dev_metric" in rec:
                dev.append(float(rec["dev_metric"]))
    return train, dev


def summarize(calls):
    """Work done, throughput inputs and quality from one StageLog."""
    s = {"train_examples": 0, "train_seconds": 0.0, "batches": 0,
         "final_losses": [], "greedy": [0, 0.0], "beam": [0, 0.0],
         "encodes": 0, "rougeL": [], "selector_f1": []}
    for c in calls:
        cfg, stage = c["cfg"], c["stage"]
        if stage in TRAIN_STAGES:
            n = _n_examples(cfg.resolve(cfg.corpus["train"]))
            epochs = int(cfg.train["max_epochs"])
            s["train_examples"] += n * epochs
            s["train_seconds"] += c["seconds"]
            s["batches"] += epochs * math.ceil(n / int(cfg.train["batch_size"]))
            s["final_losses"].append(_report_values(cfg.run_dir)[0][-1])
        if stage == "run_select_train":
            s["selector_f1"].append(c["result"]["best_f1"])
        if stage == "run_decode":
            n = _n_examples(cfg.resolve(cfg.corpus["dev"]))
            kind = "greedy" if cfg.decode.get("mode", "greedy") == "greedy" else "beam"
            s[kind][0] += n
            s[kind][1] += c["seconds"]
            # one encoder pass per summary, plus one selector pass per
            # example when the selection model masks the copy head
            s["encodes"] += n * (2 if cfg.selection.get("mode") == "model" else 1)
        if stage == "run_eval":
            s["rougeL"].append(c["result"]["rougeL_f1"])
        if stage == "run_grid":
            s["rougeL"] += [r["rougeL_f1"] for row in c["result"]["rows"]
                            for r in row["seeds"]]
    return s


def check_outputs(calls):
    """Yield (check, error or None) for the artifacts of one unit."""
    for c in calls:
        cfg, stage = c["cfg"], c["stage"]
        if stage == "run_decode":
            with open(c["result"], encoding="utf-8") as f:
                got = f.read().count("\n")
            want = _n_examples(cfg.resolve(cfg.corpus["dev"]))
            yield "decoded_lines", (None if got == want else
                                    f"{c['result']}: {got} lines, {want} dev examples")
        if stage in TRAIN_STAGES:
            train, dev = _report_values(cfg.run_dir)
            bad = [v for v in train + dev if not math.isfinite(v)]
            yield "finite_losses", (f"{cfg.run_dir}: {bad}" if bad or not train else None)
            ckpt = c["result"] if isinstance(c["result"], str) else c["result"]["checkpoint"]
            store = ParamStore.load(ckpt)
            again = ckpt + ".roundtrip"
            store.save(again)
            with open(ckpt, "rb") as a, open(again, "rb") as b:
                same = a.read() == b.read()
            os.remove(again)
            finite = all(bool(t.data.size == 0 or math.isfinite(float(t.data.sum())))
                         for t in store.params.values())
            yield "checkpoint_roundtrip", (None if same and finite else
                                           f"{ckpt}: reload differs or not finite")


def digests(base):
    """sha256 of every artifact under `base` except run configs."""
    out = {}
    for dirpath, _, files in os.walk(base):
        for name in files:
            if not name.endswith(".json"):
                path = os.path.join(dirpath, name)
                with open(path, "rb") as f:
                    out[os.path.relpath(path, base)] = hashlib.sha256(f.read()).hexdigest()
    return out


class Run:
    def __init__(self, out_root, workload, seed, seconds, trace):
        self.name, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.wl = WORKLOADS[workload]
        self.attempted = 0
        self.failures: list[str] = []
        self.work = os.path.join(out_root, f"{workload}-seed{seed}-{os.getpid()}")
        self.plain, self.traced = [], []       # (wall s, summary, Tracer)
        self.setup_s, self.setup_summaries = [], []
        self.setup_tracer = None

    def run_id(self, part):
        return f"{self.name}-seed{self.seed}-{os.getpid()}-{part}"

    def fail(self, what):
        self.failures.append(what)
        print(f"FAIL {self.name} seed {self.seed}: {what}", file=sys.stderr)

    def op(self, work, tracer=None):
        """Run a setup or a unit; a stage that raises is a failed op."""
        log = StageLog()
        start = time.perf_counter()
        try:
            with contextlib.ExitStack() as stack:
                if tracer is not None:
                    stack.enter_context(tracer.installed())
                stack.enter_context(log.installed())
                out = work()
        except Exception:  # noqa: BLE001 - reported and counted; the run exits 1
            self.attempted += len(log.calls) + 1
            self.fail(traceback.format_exc())
            return None, log, None
        wall = time.perf_counter() - start
        self.attempted += len(log.calls)
        return out, log, wall

    def check(self, log, where, reference):
        """Output checks; every artifact must equal the first unit's."""
        try:
            for name, err in check_outputs(log.calls):
                self.attempted += 1
                if err:
                    self.fail(f"{where}: {name}: {err}")
        except Exception:  # noqa: BLE001 - an artifact that cannot be read fails
            self.attempted += 1
            self.fail(f"{where}: {traceback.format_exc()}")
        got = digests(os.path.join(self.work, where))
        self.attempted += 1
        if reference is not None and got != reference:
            diff = sorted(k for k in set(got) | set(reference)
                          if got.get(k) != reference.get(k))
            self.fail(f"{where}: artifacts differ from the first one: {diff}")
        return got if reference is None else reference

    def execute(self):
        os.makedirs(self.work, exist_ok=True)
        os.environ["STAGESUM_OUT"] = self.work
        try:
            self._setups() and self._units()
        finally:
            shutil.rmtree(self.work, ignore_errors=True)

    def _setups(self):
        reference = None
        r = 0
        while r < SETUP_REPEATS or (sum(self.setup_s) < SETUP_MIN_S
                                    and r < SETUP_MAX_REPEATS):
            where = f"setup{r}"
            tracer = None
            if self.trace and r == 0:
                tracer = self.setup_tracer = Tracer(self.run_id(where),
                                                    {"corpus": TARGETS["corpus"]})
            self.data, log, wall = self.op(lambda: self.wl.setup(where, self.seed),
                                           tracer)
            if wall is None:
                return False
            self.setup_s.append(wall)
            self.setup_summaries.append(summarize(log.calls))
            reference = self.check(log, where, reference)
            r += 1
        return True

    def _units(self):
        reference = None
        start = time.perf_counter()
        k = 0
        while (k < 2 or time.perf_counter() - start < self.seconds
               or (self.trace and not self.traced)):
            where = f"u{k}"
            # unit 0 warms the allocator and first-touch memory; it is checked
            # but not timed.  After it, traced and untraced units alternate.
            tracer = Tracer(self.run_id(where)) if self.trace and k % 2 == 0 and k else None
            gc.collect()
            _, log, wall = self.op(
                lambda: self.wl.unit(where, self.data, self.seed), tracer)
            if wall is None:
                return
            reference = self.check(log, where, reference)
            if k:
                (self.traced if tracer else self.plain).append(
                    (wall, summarize(log.calls), tracer))
            shutil.rmtree(os.path.join(self.work, where))
            k += 1

    # -- figures -------------------------------------------------------------

    def end_to_end(self):
        """(end-to-end metrics, workload-specific figures) from untraced units."""
        if not self.plain:
            return {}, {}
        units = [summary for _, summary, _ in self.plain]
        setups = self.setup_summaries
        # dev_decode trains only in set-up; its training figures come from there
        trained = units if units[0]["train_seconds"] else setups
        e2e = {
            "setup_s": median(self.setup_s),
            "wall_s": median([wall for wall, _, _ in self.plain]),
            "train_examples_per_s": median(
                [u["train_examples"] / u["train_seconds"] for u in trained]),
            # median: one stage that starts far from its data (the grid's k=4
            # cell, a shortform model meeting longform targets) does not
            # dominate the workload's figure
            "final_train_loss": statistics.median(trained[0]["final_losses"]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        selector = units[0]["selector_f1"] or setups[0]["selector_f1"]
        extra = {
            "greedy_summaries_per_s": median(
                [u["greedy"][0] / u["greedy"][1] for u in units if u["greedy"][1]]),
            "beam_summaries_per_s": median(
                [u["beam"][0] / u["beam"][1] for u in units if u["beam"][1]]),
            "dev_rougeL": statistics.fmean(units[0]["rougeL"]) if units[0]["rougeL"] else 0.0,
            "selector_dev_f1": statistics.fmean(selector) if selector else 0.0,
        }
        return e2e, extra
