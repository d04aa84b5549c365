"""Named-parameter checkpoint store and initialization surgery.

Checkpoint container: magic, length-prefixed JSON header (tensor name
table with shapes, config fingerprint, provenance chain, the payload's
sha256), then the store's arena as one raw little-endian float64 payload,
each tensor's values in header order.  Round trips are bit-exact; saves
are atomic and a damaged file, a flipped payload byte included, fails to
load with a `CheckpointError`.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping, Optional

import numpy as np

from .autodiff import Tensor
from .model import ModelConfig, param_spec

MAGIC = b"STGSUM01"


class CheckpointError(ValueError):
    """A checkpoint file is damaged: not exactly one complete checkpoint."""


class IncompatibilityError(ValueError):
    pass


class SurgeryError(ValueError):
    pass


class ParamStore:
    """Named parameters packed into one arena, plus metadata: `flat` holds
    copies of the given Tensors' values in name order as one float64 vector,
    `grad` their gradients, and each parameter's `.data` and `.grad` are
    views of its slice.  `params` is a read-only name -> Tensor mapping."""

    def __init__(self, params: Mapping[str, Tensor], fingerprint: dict,
                 provenance: Optional[list[str]] = None):
        self.fingerprint = dict(fingerprint)
        self.provenance = list(provenance or [])
        self._pack(np.concatenate([np.zeros(0)] + [t.data.ravel() for t in params.values()]),
                   [(name, t.data.shape) for name, t in params.items()])

    def _pack(self, flat: np.ndarray, layout) -> "ParamStore":
        """Make `flat` itself the arena, cut per its (name, shape) layout."""
        # np.zeros, not zeros_like, leaves the pages untouched until backward
        self.flat, self.grad, self.layout = flat, np.zeros(flat.size), tuple(layout)
        params, at = {}, 0
        for name, shape in self.layout:
            end = at + math.prod(shape)
            params[name] = t = Tensor(flat[at:end].reshape(shape), requires_grad=True)
            t.grad = self.grad[at:end].reshape(shape)
            at = end
        self.params = MappingProxyType(params)
        return self

    def __getitem__(self, name: str) -> Tensor:
        return self.params[name]

    def __contains__(self, name: str) -> bool:
        return name in self.params

    def __iter__(self):
        return iter(self.params)

    def __len__(self):
        return len(self.params)

    def names(self) -> list[str]:
        return list(self.params)

    def zero_grads(self) -> None:
        self.grad.fill(0.0)

    def copy(self) -> "ParamStore":
        blank = ParamStore({}, self.fingerprint, self.provenance)
        return blank._pack(self.flat.copy(), self.layout)

    def save(self, path) -> None:
        """Write the checkpoint atomically: a temporary file in the target
        directory, made durable, then renamed over `path`."""
        payload = np.ascontiguousarray(self.flat, dtype="<f8")
        header = json.dumps({"fingerprint": self.fingerprint,
                             "provenance": self.provenance,
                             "payload_sha256": hashlib.sha256(payload).hexdigest(),
                             "tensors": [{"name": n, "shape": list(shape)}
                                         for n, shape in self.layout]},
                            sort_keys=True).encode("utf-8")
        tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
        try:
            with open(tmp, "wb") as f:
                f.write(MAGIC + struct.pack("<Q", len(header)) + header)
                f.write(payload)
                f.flush()
                os.fsync(f.fileno())
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise

    @classmethod
    def load(cls, path) -> "ParamStore":
        """Read a checkpoint; `CheckpointError` if it is not exactly one
        complete checkpoint (bad magic, a short or malformed header, a short
        payload, trailing bytes, a payload that does not match the header's
        sha256, or none)."""
        with open(path, "rb") as f:
            blob = f.read()
        if blob[:len(MAGIC)] != MAGIC:
            raise CheckpointError(f"{path}: not a stagesum checkpoint")
        at = len(MAGIC) + 8
        if len(blob) < at:
            raise CheckpointError(f"{path}: truncated in the header length")
        (hlen,) = struct.unpack_from("<Q", blob, len(MAGIC))
        if len(blob) < at + hlen:
            raise CheckpointError(
                f"{path}: truncated header ({len(blob) - at} of {hlen} bytes)")
        try:
            header = json.loads(blob[at:at + hlen].decode("utf-8"))
        except ValueError as e:
            raise CheckpointError(f"{path}: unreadable header: {e}") from None
        layout = _layout(header, path)
        at += hlen
        have, need = len(blob) - at, 8 * sum(math.prod(shape) for _, shape in layout)
        if have < need:
            raise CheckpointError(f"{path}: truncated payload ({have} of {need} bytes)")
        if have > need:
            raise CheckpointError(f"{path}: {have - need} trailing bytes after the payload")
        expected = header.get("payload_sha256")
        if expected is None:
            raise CheckpointError(f"{path}: header has no payload_sha256")
        if hashlib.sha256(blob[at:]).hexdigest() != expected:
            raise CheckpointError(f"{path}: payload does not match its sha256")
        flat = np.frombuffer(blob, "<f8", need // 8, at).astype(np.float64)
        return cls({}, header["fingerprint"], header["provenance"])._pack(flat, layout)


def _layout(header, path) -> list[tuple[str, tuple[int, ...]]]:
    """A parsed header's (name, shape) pairs; `CheckpointError` if malformed."""
    if not (isinstance(header, dict) and isinstance(header.get("tensors"), list)
            and "fingerprint" in header and "provenance" in header):
        raise CheckpointError(f"{path}: header lacks a tensors list, fingerprint or provenance")
    fingerprint, provenance = header["fingerprint"], header["provenance"]
    if not isinstance(fingerprint, dict):
        raise CheckpointError(f"{path}: fingerprint {fingerprint!r} is not an object")
    if not (isinstance(provenance, list) and all(isinstance(p, str) for p in provenance)):
        raise CheckpointError(f"{path}: provenance {provenance!r} is not a list of strings")
    layout = {}
    for entry in header["tensors"]:
        name = entry.get("name") if isinstance(entry, dict) else None
        if not isinstance(name, str) or name in layout:
            raise CheckpointError(f"{path}: tensor entry {entry!r} lacks a name "
                                  "or repeats one")
        shape = entry.get("shape")
        if not isinstance(shape, list) or not all(type(n) is int and n >= 0 for n in shape):
            raise CheckpointError(f"{path}: tensor {name!r} has shape {shape!r}, "
                                  "not a list of non-negative ints")
        layout[name] = tuple(shape)
    return list(layout.items())


def check_compatible(store: ParamStore, config: ModelConfig, arch: str) -> None:
    """Raise unless the store holds exactly the parameters the config expects
    and its fingerprint is the config's: a field such as num_heads changes no
    shape but changes what the parameters compute."""
    spec = {name: shape for name, shape, _ in param_spec(config, arch)}
    have = dict(store.layout)
    problems = [f"missing {name} {shape}" if name not in have else
                f"{name}: checkpoint {have[name]} vs model {shape}"
                for name, shape in spec.items() if have.get(name) != shape]
    problems += [f"unexpected {name}" for name in sorted(have) if spec.get(name) != have[name]]
    want = config.fingerprint(arch)
    problems += [f"fingerprint {key}: checkpoint {store.fingerprint.get(key)!r} "
                 f"vs model {want.get(key)!r}"
                 for key in sorted(want.keys() | store.fingerprint.keys())
                 if store.fingerprint.get(key) != want.get(key)]
    if problems:
        raise IncompatibilityError(
            "checkpoint incompatible with model config:\n  " + "\n  ".join(problems))


def _truncated_normal(rng: np.random.Generator, shape) -> np.ndarray:
    """Normal(0, 0.02) resampled until within two standard deviations."""
    std = 0.02
    out = rng.normal(0.0, std, size=shape)
    bad = np.abs(out) > 2 * std
    while bad.any():
        out[bad] = rng.normal(0.0, std, size=int(bad.sum()))
        bad = np.abs(out) > 2 * std
    return out


def init_random(config: ModelConfig, seed: int, arch: str = "seq2seq") -> ParamStore:
    """Fresh parameters: truncated-normal weights, zero biases, unit gains."""
    rng = np.random.default_rng(seed)
    params = {}
    for name, shape, kind in param_spec(config, arch):
        if kind == "weight":
            data = _truncated_normal(rng, shape)
        elif kind == "gain":
            data = np.ones(shape)
        else:
            data = np.zeros(shape)
        params[name] = Tensor(data, requires_grad=True)
    return ParamStore(params, config.fingerprint(arch))


@dataclass
class InitScheme:
    """Parameter sources for the encoder and decoder halves.

    encoder: None for random, or a checkpoint path.
    decoder: None for random, a checkpoint path, or "symmetric" to mirror
    the encoder checkpoint into the decoder (cross-attention taken from
    the source's self-attention).
    """
    encoder: Optional[str] = None
    decoder: Optional[str] = None


# No scheme or loadable slot copies these (encoder-style sources have no
# counterpart), so they keep their random values under every scheme and k.
ALWAYS_RANDOM = ("gate.weight", "gate.bias", "output.bias")


def _copy(target: ParamStore, source: ParamStore, pairs, report: dict) -> None:
    """Copy each (target name, source name) pair from `source` into `target`
    and record it in `report`.  `embedding.pos_dec` takes the leading rows of
    its source table (rows past the source's keep their random init); every
    other copy needs equal shapes."""
    for tgt_name, src_name in pairs:
        if src_name not in source:
            raise SurgeryError(f"source checkpoint lacks parameter {src_name!r}")
        src, tgt = source[src_name].data, target[tgt_name].data
        rows, note = slice(None), ""
        if tgt_name == "embedding.pos_dec":
            n = min(len(src), len(tgt))
            rows, note = slice(n), f" (first {n} rows)"
        if src[rows].shape != tgt[rows].shape:
            raise IncompatibilityError(
                f"{tgt_name}: source {src.shape} vs target {tgt.shape}")
        tgt[rows] = src[rows]
        report[tgt_name] = f"copied-from {src_name}{note}"


def _build(config: ModelConfig, seed: int, arch: str, plan
           ) -> tuple[ParamStore, dict[str, str]]:
    """A fresh `arch` store with every (source store, pairs) step of `plan`
    copied in, and its surgery report (every name "randomized" or
    "copied-from <source name>").  The store takes the provenance of the
    first source that copies something and has one."""
    store = init_random(config, seed, arch)
    report = {name: "randomized" for name in store.names()}
    for source, pairs in plan:
        _copy(store, source, pairs, report)
    store.provenance = next((list(source.provenance) for source, pairs in plan
                             if pairs and source.provenance), [])
    return store, report


def _names_under(config: ModelConfig, prefix: str) -> list[str]:
    """Seq2seq parameter names below `prefix` (e.g. "encoder.layer.0"), in
    param_spec order."""
    return [name for name, _, _ in param_spec(config)
            if name.startswith(f"{prefix}.")]


def _same(names) -> list[tuple[str, str]]:
    """Pairs that copy each name from the same name."""
    return [(name, name) for name in names]


def apply_scheme(scheme: InitScheme, config: ModelConfig, seed: int,
                 arch: str = "seq2seq") -> tuple[ParamStore, dict[str, str]]:
    """Build an `arch` ParamStore under an initialization scheme: the word
    and encoder-position embeddings and every encoder layer from the
    encoder checkpoint, the decoder from its own checkpoint or mirrored from
    the encoder's.  Returns the store and its surgery report."""
    if scheme.decoder is not None and arch != "seq2seq":
        raise SurgeryError(f"a {arch} has no decoder to initialize")
    plan = []
    enc_src = ParamStore.load(scheme.encoder) if scheme.encoder else None
    if enc_src is not None:
        plan.append((enc_src, _same(["embedding.word", "embedding.pos_enc"]
                                    + _names_under(config, "encoder"))))
    if scheme.decoder == "symmetric":
        if enc_src is None:
            raise SurgeryError("symmetric decoder initialization requires an "
                               "encoder checkpoint")
        # decoder.layer.i.X mirrors encoder.layer.i.X; cross-attention has no
        # encoder counterpart and mirrors self-attention
        mirror = [(name, name.replace("decoder.", "encoder.", 1)
                   .replace("cross_attn", "self_attn"))
                  for name in _names_under(config, "decoder")]
        plan.append((enc_src, [("embedding.pos_dec", "embedding.pos_enc")] + mirror))
    elif scheme.decoder is not None:
        word = [] if enc_src is not None else ["embedding.word"]
        plan.append((ParamStore.load(scheme.decoder),
                     _same(["embedding.pos_dec"] + word
                           + _names_under(config, "decoder"))))
    return _build(config, seed, arch, plan)


def loadable_slots(config: ModelConfig) -> list[list[str]]:
    """Partial-loading order: embeddings, encoder layers, decoder layers."""
    slots = [["embedding.word", "embedding.pos_enc", "embedding.pos_dec"]]
    for half in ("encoder", "decoder"):
        for i in range(config.num_layers):
            slots.append(_names_under(config, f"{half}.layer.{i}"))
    return slots


def apply_partial(source: ParamStore, config: ModelConfig, k: int, seed: int
                  ) -> tuple[ParamStore, dict[str, str]]:
    """Initialize only the first k loadable slots from a full checkpoint.

    Slot order: embeddings (1), encoder layers bottom-up, decoder layers
    bottom-up.  k ranges 0..2*num_layers; the top value loads everything
    (the embedding slot is not counted against the layer budget at the
    top end, mirroring the sweep geometry of the source experiments).
    """
    max_k = 2 * config.num_layers
    if not 0 <= k <= max_k:
        raise ValueError(f"k must be in 0..{max_k}, got {k}")
    slots = loadable_slots(config)
    n_slots = len(slots) if k == max_k else k
    names = [name for slot in slots[:n_slots] for name in slot]
    return _build(config, seed, "seq2seq", [(source, _same(names))])


def format_surgery_report(report: dict[str, str]) -> str:
    lines = [f"{name}\t{disposition}" for name, disposition in sorted(report.items())]
    return "\n".join(lines) + "\n"
