"""Wrapping stagesum's public functions from outside the package.

Nothing under src/ is edited.  A function is replaced on its defining
module *and* on every stagesum module that bound it with a `from` import
(e.g. `training.adam_step`, `harness.apply_partial`): a call through a
missed binding would run unwrapped and silently undercount.  After
patching, every stagesum module is scanned again and a `BindingError` is
raised if any global, or any dict value held in a global, still refers to
an original.

Two users share the patcher:
- `StageLog` wraps only the `harness.run_*` stages.  It is on in every
  unit, traced or not, and costs a few calls per stage.
- `Tracer` wraps the public functions of every module in `TARGETS`.  It
  keeps spans (name, start, end, parent, run id) in memory and counters at
  the same boundaries.  Self time is a span's duration minus the time its
  direct children cover; calls in this single-threaded program nest
  strictly, so children never overlap and their cover is the sum of their
  durations.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import sys
import time

# Public functions traced per module; "Class.method" patches the class.
TARGETS = {
    "harness": ["run_generate", "run_pretrain", "run_train", "run_select_train",
                "run_decode", "run_eval", "run_grid"],
    "autodiff": ["new_tape", "Tensor.backward"],
    "model": ["forward_teacher_forced", "mixed_logits", "encode",
              "decoder_stack", "decode_step"],
    "search": ["greedy_decode", "beam_decode"],
    "training": ["train_stage", "mle_loss", "dev_rouge_l"],
    "optim": ["adam_step"],
    "kernels": ["scatter_copy_forward", "scatter_copy_backward", "adam_update",
                "lcs_length"],
    "metrics": ["rouge_l", "rouge_report"],
    "checkpoint": ["ParamStore.save", "ParamStore.load", "ParamStore.copy",
                   "apply_scheme", "apply_partial"],
    "selection": ["build_labels", "selector_forward", "calibrate_threshold"],
    "tokenizer": ["encode_pair"],
    "corpus": ["generate"],
}

STAGES = TARGETS["harness"]


class BindingError(RuntimeError):
    """A wrapped function is still reachable through an unpatched binding."""


def _stagesum_modules() -> dict:
    return {name: mod for name, mod in sys.modules.items()
            if name.startswith("stagesum.")}


def unpatched_bindings(originals) -> list[str]:
    """Globals of stagesum modules, and dict values held in globals, that
    still refer to one of `originals`."""
    ids = {id(fn) for fn in originals}
    missed = []
    for mod_name, mod in _stagesum_modules().items():
        for key, value in vars(mod).items():
            if id(value) in ids:
                missed.append(f"{mod_name}.{key}")
            elif isinstance(value, dict):
                missed += [f"{mod_name}.{key}[{k!r}]"
                           for k, v in value.items() if id(v) in ids]
    return missed


class Patcher:
    """Replaces functions everywhere they are bound; `restore` undoes it."""

    def __init__(self):
        self._undo: list[tuple] = []

    def _set(self, owner, key, value):
        self._undo.append((owner, key, owner.__dict__[key]))
        setattr(owner, key, value)

    def patch(self, targets: dict, make_wrapper) -> None:
        """make_wrapper(qualified_name, attr, fn) returns the replacement."""
        import stagesum.harness  # noqa: F401  (imports every traced module)
        modules = _stagesum_modules()
        originals = []
        for mod_name, attrs in targets.items():
            mod = modules[f"stagesum.{mod_name}"]
            for attr in attrs:
                cls_name, _, leaf = attr.rpartition(".")
                name = f"{mod_name}.{leaf}"
                if cls_name:
                    cls = getattr(mod, cls_name)
                    fn = cls.__dict__[leaf]
                    if isinstance(fn, classmethod):
                        self._set(cls, leaf, classmethod(
                            make_wrapper(name, attr, fn.__func__)))
                    else:
                        self._set(cls, leaf, make_wrapper(name, attr, fn))
                else:
                    fn = getattr(mod, leaf)
                    originals.append((fn, make_wrapper(name, attr, fn)))
        for mod in modules.values():
            for key, value in list(vars(mod).items()):
                for fn, wrapper in originals:
                    if value is fn:
                        self._set(mod, key, wrapper)
        missed = unpatched_bindings([fn for fn, _ in originals])
        if missed:
            self.restore()
            raise BindingError("wrapped functions still reachable unwrapped via "
                               + ", ".join(missed))

    def restore(self) -> None:
        while self._undo:
            owner, key, value = self._undo.pop()
            setattr(owner, key, value)


class StageLog:
    """Times each `harness.run_*` call and keeps its config and result."""

    def __init__(self):
        self.calls: list[dict] = []     # {"stage", "cfg", "seconds", "result"}
        self._patcher = Patcher()

    def _make(self, name, attr, fn):
        log = self

        @functools.wraps(fn)
        def logged(cfg, *args, **kwargs):
            start = time.perf_counter()
            result = fn(cfg, *args, **kwargs)
            log.calls.append({"stage": attr, "cfg": cfg, "result": result,
                              "seconds": time.perf_counter() - start})
            return result

        return logged

    @contextlib.contextmanager
    def installed(self):
        self._patcher.patch({"harness": STAGES}, self._make)
        try:
            yield self
        finally:
            self._patcher.restore()


class Tracer:
    """Spans and counters at the public-function boundaries of `TARGETS`."""

    def __init__(self, run_id: str, targets: dict = TARGETS):
        self.run_id = run_id
        self.targets = targets
        self.spans: list[list] = []     # [name, start, end, parent index]
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []
        self._patcher = Patcher()

    def add(self, key: str, value: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def calls(self, name: str) -> int:
        return int(self.counts.get(f"{name}_calls", 0))

    def _span(self, name, fn, after=None):
        tracer = self
        spans, stack = self.spans, self._stack
        key = f"{name}_calls"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.counts[key] = tracer.counts.get(key, 0) + 1
            idx = len(spans)
            spans.append([name, time.perf_counter(), None,
                          stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx][2] = time.perf_counter()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    def _make(self, name, attr, fn):
        if attr == "new_tape":
            return self._new_tape(fn)
        if attr == "lcs_length":
            return self._span(name, fn, lambda args, _: self.add(
                "kernels.lcs_cells", len(args[0]) * len(args[1])))
        if attr == "ParamStore.save":
            return self._span(name, fn, lambda args, _: self.add(
                "checkpoint.bytes_written", os.path.getsize(args[1])))
        if attr == "beam_decode":
            return self._beam(self._span(name, fn))
        return self._span(name, fn)

    def _new_tape(self, fn):
        tracer = self

        @contextlib.contextmanager
        def traced_new_tape():
            with fn() as tape:
                try:
                    yield tape
                finally:
                    tracer.add("autodiff.tape_nodes", len(tape.nodes))
                    tracer.add("autodiff.new_tape_calls")

        return traced_new_tape

    def _beam(self, traced):
        tracer = self

        @functools.wraps(traced)
        def traced_beam(*args, **kwargs):
            before = tracer.calls("model.decode_step")
            out = traced(*args, **kwargs)
            tracer.add("search.beam_steps", tracer.calls("model.decode_step") - before)
            tracer.add("search.beam_output_tokens_plus_one", len(out) + 1)
            return out

        return traced_beam

    @contextlib.contextmanager
    def installed(self):
        self._patcher.patch(self.targets, self._make)
        try:
            yield self
        finally:
            self._patcher.restore()

    def durations(self, name: str) -> list[float]:
        return [end - start for n, start, end, _ in self.spans if n == name]

    def times(self) -> tuple[dict[str, float], dict[str, float]]:
        """(inclusive, self) seconds per span name."""
        total: dict[str, float] = {}
        cover = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            total[name] = total.get(name, 0.0) + (end - start)
            if parent >= 0:
                cover[parent] += end - start
        own: dict[str, float] = {}
        for (name, start, end, _), c in zip(self.spans, cover):
            own[name] = own.get(name, 0.0) + (end - start - c)
        return total, own

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for name, start, end, parent in self.spans:
                f.write(json.dumps({"run": self.run_id, "name": name,
                                    "start": start, "end": end,
                                    "parent": parent}) + "\n")
