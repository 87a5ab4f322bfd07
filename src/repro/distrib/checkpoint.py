"""Versioned JSONL checkpoint store for the shard coordinator.

A coordinator run appends one durable record per completed shard, so a
killed coordinator resumes from the last shard that finished instead of
recomputing the whole batch.  The format is deliberately boring:

* line 1 is a **header** — format version, a fingerprint of the whole
  computation (dataset, preference-model content, method, options, seed,
  shard plan), and human-oriented metadata;
* every further line is a **shard record** — shard id, dispatch number,
  and the pickled :class:`~repro.distrib.protocol.ShardPayload` wrapped
  in base64 with a SHA-256 digest over the raw pickle bytes.

Each record is built in memory and written with a single ``write`` +
``flush`` + ``fsync``, so a record is either fully on disk or absent.
Loading is strict: a truncated tail, malformed JSON, undecodable base64,
a digest mismatch, an unknown record kind or a missing header all raise
:class:`~repro.errors.CheckpointCorruptionError` with the offending line
number — shards are never silently dropped.  A header whose version or
fingerprint does not match raises
:class:`~repro.errors.CheckpointMismatchError` instead of merging
results from a different run.
"""

from __future__ import annotations

import base64
import binascii
import hashlib
import json
import os
import pickle
from pathlib import Path
from typing import Dict, Tuple

from repro.core.options import QueryOptions
from repro.errors import (
    CheckpointCorruptionError,
    CheckpointMismatchError,
)

__all__ = ["CHECKPOINT_VERSION", "CheckpointStore", "run_fingerprint"]

#: Bump on any incompatible change to the record layout or fingerprint.
CHECKPOINT_VERSION = 2


def run_fingerprint(
    *,
    dataset: object,
    preferences: object,
    options: QueryOptions,
    index_list: Tuple[int, ...],
    seed: object,
    shard_plan: Tuple[Tuple[int, ...], ...],
) -> str:
    """Stable digest identifying one batch computation end to end.

    Everything that can change an answer (or move it between shards)
    feeds the hash: the object values themselves, a digest of the
    preference model's content (:func:`_model_digest` — its version
    counter only counts edits), the query ``options``, the seed, the
    queried index list and the shard plan.  Seeds are fingerprinted by
    ``repr`` — integers and ``None`` round-trip exactly; passing a live
    ``Generator`` object makes the fingerprint unique to this run, which
    correctly refuses a resume (the stream state could not be replayed
    anyway).  An unrestricted run leaves the restriction out of the
    hash.
    """
    query_options = options.as_kwargs()
    method = query_options.pop("method")
    if not options.restricted:
        del query_options["competitors"], query_options["dims"]
    objects = tuple(tuple(values) for values in getattr(dataset, "objects", ()))
    payload = {
        "objects": repr(objects),
        "preferences": _model_digest(preferences),
        "method": method,
        "indices": list(index_list),
        "seed": repr(seed),
        "options": repr(sorted(query_options.items())),
        "shards": [list(part) for part in shard_plan],
    }
    blob = json.dumps(payload, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def _model_digest(preferences: object) -> str:
    """SHA-256 of the model's ``to_dict()`` form, made canonical.

    That form carries the dimensionality, the default and a procedural
    model's generator parameters, but lists each dimension's pairs in
    the order they were set and as they were oriented then; here every
    pair takes the orientation that sorts first by ``repr`` and the
    pairs are sorted, so equal models digest equally.
    """
    payload = preferences.to_dict()
    payload["preferences"] = [
        sorted(
            (min((a, b, forward, backward), (b, a, backward, forward), key=repr)
             for a, b, forward, backward in pairs),
            key=repr,
        )
        for pairs in payload["preferences"]
    ]
    return hashlib.sha256(repr(payload).encode("utf-8")).hexdigest()


class CheckpointStore:
    """Append-only JSONL store for one coordinator run's shard results."""

    def __init__(self, path: str | Path) -> None:
        self._path = Path(path)

    @property
    def path(self) -> Path:
        """Location of the checkpoint file."""
        return self._path

    def exists(self) -> bool:
        """Whether a checkpoint file is present (possibly header-only)."""
        return self._path.exists()

    # ------------------------------------------------------------------
    def write_header(self, fingerprint: str, meta: Dict[str, object]) -> None:
        """Start a fresh checkpoint (truncating any previous one)."""
        record = {
            "kind": "header",
            "version": CHECKPOINT_VERSION,
            "fingerprint": fingerprint,
            "meta": meta,
        }
        self._path.parent.mkdir(parents=True, exist_ok=True)
        with open(self._path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(record) + "\n")
            handle.flush()
            os.fsync(handle.fileno())

    def append_shard(self, shard_id: int, dispatch: int, payload: object) -> None:
        """Durably append one completed shard's payload."""
        blob = pickle.dumps(payload)
        record = {
            "kind": "shard",
            "shard_id": int(shard_id),
            "dispatch": int(dispatch),
            "sha256": hashlib.sha256(blob).hexdigest(),
            "payload": base64.b64encode(blob).decode("ascii"),
        }
        line = json.dumps(record) + "\n"
        # One write per record: a crash leaves at worst a torn final
        # line, which load() reports as corruption instead of guessing.
        with open(self._path, "a", encoding="utf-8") as handle:
            handle.write(line)
            handle.flush()
            os.fsync(handle.fileno())

    # ------------------------------------------------------------------
    def load(
        self, *, expected_fingerprint: str | None = None
    ) -> Tuple[Dict[str, object], Dict[int, object]]:
        """Read the checkpoint back as ``(header, {shard_id: payload})``.

        Strict by design — see the module docstring for the failure
        contract.  A shard id recorded twice keeps the *first* record
        (later ones could only come from a duplicate hedge result that
        raced a crash; both are bit-identical by construction, but the
        first is the one a resumed run already trusted).
        """
        try:
            text = self._path.read_text(encoding="utf-8")
        except OSError as error:
            raise CheckpointCorruptionError(
                f"checkpoint {self._path} cannot be read: {error}"
            ) from error
        header: Dict[str, object] | None = None
        payloads: Dict[int, object] = {}
        lines = text.split("\n")
        if lines and lines[-1] == "":
            lines.pop()
        elif lines:
            raise CheckpointCorruptionError(
                f"checkpoint {self._path} line {len(lines)}: truncated "
                f"record (no trailing newline) — the coordinator died "
                f"mid-append; delete the file to restart from scratch"
            )
        for number, line in enumerate(lines, start=1):
            try:
                record = json.loads(line)
            except ValueError as error:
                raise CheckpointCorruptionError(
                    f"checkpoint {self._path} line {number}: not valid "
                    f"JSON ({error})"
                ) from None
            if not isinstance(record, dict):
                raise CheckpointCorruptionError(
                    f"checkpoint {self._path} line {number}: expected an "
                    f"object, got {type(record).__name__}"
                )
            kind = record.get("kind")
            if number == 1:
                if kind != "header":
                    raise CheckpointCorruptionError(
                        f"checkpoint {self._path} line 1: missing header "
                        f"record (got kind={kind!r})"
                    )
                version = record.get("version")
                if version != CHECKPOINT_VERSION:
                    raise CheckpointMismatchError(
                        f"checkpoint {self._path} has format version "
                        f"{version!r}; this build reads version "
                        f"{CHECKPOINT_VERSION}"
                    )
                if (
                    expected_fingerprint is not None
                    and record.get("fingerprint") != expected_fingerprint
                ):
                    raise CheckpointMismatchError(
                        f"checkpoint {self._path} fingerprints a different "
                        f"computation (dataset, preferences, method, "
                        f"options, seed or shard plan changed); pass "
                        f"resume=False or delete the file to start fresh"
                    )
                header = record
                continue
            if kind != "shard":
                raise CheckpointCorruptionError(
                    f"checkpoint {self._path} line {number}: unknown "
                    f"record kind {kind!r}"
                )
            try:
                blob = base64.b64decode(
                    record["payload"], validate=True
                )
            except (KeyError, binascii.Error, ValueError) as error:
                raise CheckpointCorruptionError(
                    f"checkpoint {self._path} line {number}: undecodable "
                    f"shard payload ({error})"
                ) from None
            digest = hashlib.sha256(blob).hexdigest()
            if digest != record.get("sha256"):
                raise CheckpointCorruptionError(
                    f"checkpoint {self._path} line {number}: payload "
                    f"digest mismatch (stored {record.get('sha256')!r}, "
                    f"computed {digest!r}) — the record is corrupted"
                )
            try:
                payload = pickle.loads(blob)
            except Exception as error:
                raise CheckpointCorruptionError(
                    f"checkpoint {self._path} line {number}: payload "
                    f"does not unpickle ({error})"
                ) from None
            shard_id = record.get("shard_id")
            if not isinstance(shard_id, int):
                raise CheckpointCorruptionError(
                    f"checkpoint {self._path} line {number}: shard_id "
                    f"{shard_id!r} is not an integer"
                )
            payloads.setdefault(shard_id, payload)
        if header is None:
            raise CheckpointCorruptionError(
                f"checkpoint {self._path} is empty (no header record)"
            )
        return header, payloads
