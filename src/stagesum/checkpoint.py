"""Named-parameter checkpoint store and initialization surgery.

Checkpoint container: magic, length-prefixed JSON header (tensor name
table with shapes, config fingerprint, provenance chain, the payload's
sha256), then raw little-endian float64 payloads in header order.  Round
trips are bit-exact; saves are atomic and a damaged file, a flipped payload
byte included, fails to load with a `CheckpointError`.  Files written
before the checksum existed carry no `payload_sha256` and still load.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .autodiff import Tensor
from .model import ModelConfig, param_spec

MAGIC = b"STGSUM01"


class CheckpointError(ValueError):
    """A checkpoint file is damaged: not exactly one complete checkpoint."""


class IncompatibilityError(ValueError):
    pass


class SurgeryError(KeyError):
    pass


class ParamStore:
    """Map from hierarchical parameter name to Tensor, plus metadata."""

    def __init__(self, params: dict[str, Tensor], fingerprint: dict,
                 provenance: Optional[list[str]] = None):
        self.params = params
        self.fingerprint = dict(fingerprint)
        self.provenance = list(provenance or [])

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
        for t in self.params.values():
            t.grad = None

    def grads(self) -> dict[str, np.ndarray]:
        """Gradient arrays per parameter; zeros where backward left none."""
        return {n: (t.grad if t.grad is not None else np.zeros_like(t.data))
                for n, t in self.params.items()}

    def copy(self) -> "ParamStore":
        params = {n: Tensor(t.data.copy(), requires_grad=True)
                  for n, t in self.params.items()}
        return ParamStore(params, self.fingerprint, self.provenance)

    def save(self, path) -> None:
        """Write the checkpoint atomically: a temporary file in the target
        directory, made durable, then renamed over `path`."""
        entries = [{"name": n, "shape": list(t.data.shape)}
                   for n, t in self.params.items()]
        payload = [np.ascontiguousarray(t.data, dtype="<f8").tobytes()
                   for t in self.params.values()]
        digest = hashlib.sha256()
        for chunk in payload:
            digest.update(chunk)
        header = json.dumps({"fingerprint": self.fingerprint,
                             "provenance": self.provenance,
                             "payload_sha256": digest.hexdigest(),
                             "tensors": entries}, sort_keys=True).encode("utf-8")
        tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
        try:
            with open(tmp, "wb") as f:
                f.write(MAGIC)
                f.write(struct.pack("<Q", len(header)))
                f.write(header)
                for chunk in payload:
                    f.write(chunk)
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
        complete checkpoint (bad magic, short header or payload, trailing
        bytes, a payload that does not match the header's sha256)."""
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
        at += hlen
        start = at
        params = {}
        for entry in header["tensors"]:
            shape = tuple(entry["shape"])
            n = int(np.prod(shape)) if shape else 1
            if len(blob) < at + 8 * n:
                raise CheckpointError(
                    f"{path}: truncated payload at {entry['name']} "
                    f"({len(blob) - at} of {8 * n} bytes)")
            arr = np.frombuffer(blob, dtype="<f8", count=n, offset=at)
            params[entry["name"]] = Tensor(arr.astype(np.float64).reshape(shape),
                                           requires_grad=True)
            at += 8 * n
        if at != len(blob):
            raise CheckpointError(f"{path}: {len(blob) - at} trailing bytes after the payload")
        expected = header.get("payload_sha256")
        if expected is not None and hashlib.sha256(blob[start:]).hexdigest() != expected:
            raise CheckpointError(f"{path}: payload does not match its sha256")
        return cls(params, header["fingerprint"], header["provenance"])


def check_compatible(store: ParamStore, config: ModelConfig, arch: str) -> None:
    """Raise unless the store holds exactly the parameters the config expects."""
    spec = param_spec(config, arch)
    problems = []
    names = set(store.names())
    for name, shape, _ in spec:
        if name not in store:
            problems.append(f"missing {name} {shape}")
        elif store[name].data.shape != shape:
            problems.append(f"{name}: checkpoint {store[name].data.shape} vs model {shape}")
        else:
            names.discard(name)
    for extra in sorted(names):
        problems.append(f"unexpected {extra}")
    if problems:
        raise IncompatibilityError(
            "checkpoint incompatible with model config:\n  " + "\n  ".join(problems))


def _truncated_normal(rng: np.random.Generator, shape, std=0.02) -> np.ndarray:
    """Normal(0, std) resampled until within two standard deviations."""
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


ALWAYS_RANDOM = ("gate.weight", "gate.bias", "output.bias")


def _copy_param(target: ParamStore, source: ParamStore, tgt_name: str,
                src_name: str, report: dict) -> None:
    if src_name not in source:
        raise SurgeryError(f"source checkpoint lacks parameter {src_name!r}")
    src = source[src_name].data
    tgt = target[tgt_name].data
    if src.shape != tgt.shape:
        raise IncompatibilityError(
            f"{tgt_name}: source {src.shape} vs target {tgt.shape}")
    tgt[...] = src
    report[tgt_name] = f"copied-from {src_name}"


def _copy_pos_dec(target: ParamStore, source: ParamStore, src_name: str,
                  report: dict) -> None:
    # truncate or extend to decoder length; extension rows keep random init
    if src_name not in source:
        raise SurgeryError(f"source checkpoint lacks parameter {src_name!r}")
    src = source[src_name].data
    tgt = target["embedding.pos_dec"].data
    n = min(src.shape[0], tgt.shape[0])
    if src.shape[1:] != tgt.shape[1:]:
        raise IncompatibilityError(
            f"embedding.pos_dec: source {src.shape} vs target {tgt.shape}")
    tgt[:n] = src[:n]
    report["embedding.pos_dec"] = f"copied-from {src_name} (first {n} rows)"


def _names_under(config: ModelConfig, prefix: str) -> list[str]:
    """Seq2seq parameter names below `prefix` (e.g. "encoder.layer.0"), in
    param_spec order."""
    return [name for name, _, _ in param_spec(config)
            if name.startswith(f"{prefix}.")]


def copy_encoder(target: ParamStore, source: ParamStore, config: ModelConfig,
                 report: dict) -> None:
    """Copy the word and encoder-position embeddings and every encoder layer
    from `source` into `target`, recording each copy in `report`."""
    for name in ["embedding.word", "embedding.pos_enc"] + _names_under(config, "encoder"):
        _copy_param(target, source, name, name, report)


def apply_scheme(scheme: InitScheme, config: ModelConfig, seed: int
                 ) -> tuple[ParamStore, dict[str, str]]:
    """Build a full seq2seq ParamStore under an initialization scheme.

    Returns the store plus a surgery report mapping every parameter name to
    its disposition ("randomized" or "copied-from <source name>").
    """
    store = init_random(config, seed)
    report = {name: "randomized" for name in store.names()}
    provenance: list[str] = []

    enc_src = ParamStore.load(scheme.encoder) if scheme.encoder else None
    if enc_src is not None:
        provenance = list(enc_src.provenance)
        copy_encoder(store, enc_src, config, report)

    if scheme.decoder == "symmetric":
        if enc_src is None:
            raise SurgeryError("symmetric decoder initialization requires an "
                               "encoder checkpoint")
        _copy_pos_dec(store, enc_src, "embedding.pos_enc", report)
        # decoder.layer.i.X mirrors encoder.layer.i.X; cross-attention has no
        # encoder counterpart and mirrors self-attention
        for name in _names_under(config, "decoder"):
            src_name = name.replace("decoder.", "encoder.", 1).replace(
                "cross_attn", "self_attn")
            _copy_param(store, enc_src, name, src_name, report)
    elif scheme.decoder is not None:
        dec_src = ParamStore.load(scheme.decoder)
        if not provenance:
            provenance = list(dec_src.provenance)
        _copy_pos_dec(store, dec_src, "embedding.pos_dec", report)
        if enc_src is None:
            _copy_param(store, dec_src, "embedding.word", "embedding.word", report)
        for name in _names_under(config, "decoder"):
            _copy_param(store, dec_src, name, name, report)

    # the gate and output bias have no counterpart in encoder-style sources
    # and are re-randomized under every scheme
    for name in ALWAYS_RANDOM:
        report[name] = "randomized"
    store.provenance = provenance
    return store, report


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
    store = init_random(config, seed)
    report = {name: "randomized" for name in store.names()}
    slots = loadable_slots(config)
    n_slots = len(slots) if k == max_k else k
    for slot in slots[:n_slots]:
        for name in slot:
            if name == "embedding.pos_dec":
                _copy_pos_dec(store, source, "embedding.pos_dec", report)
            else:
                _copy_param(store, source, name, name, report)
    for name in ALWAYS_RANDOM:
        report[name] = "randomized"
    store.provenance = list(source.provenance) if n_slots > 0 else []
    return store, report


def format_surgery_report(report: dict[str, str]) -> str:
    lines = [f"{name}\t{disposition}" for name, disposition in sorted(report.items())]
    return "\n".join(lines) + "\n"
