"""Deterministic CSV/JSON writers and the run manifest."""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

__all__ = ["write_csv", "write_json", "jsonify", "RunManifest"]


def _format_cell(value) -> str:
    """``jsonify(value)`` as CSV spells it: true/false, empty for None, repr for a float."""
    value = jsonify(value)
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return repr(value) if isinstance(value, float) else str(value)


def write_csv(path: Path, columns: list[str], rows: list[dict]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_format_cell(row.get(col)) for col in columns])


def jsonify(obj):
    """Recursively convert dataclass instances (through their fields) and
    numpy containers/scalars to plain JSON values; a non-finite float, which
    strict JSON cannot hold, becomes None (null)."""
    if dataclasses.is_dataclass(obj):
        return jsonify(dataclasses.asdict(obj))
    if isinstance(obj, dict):
        return {str(k): jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonify(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [jsonify(v) for v in obj.tolist()]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(obj) if np.isfinite(obj) else None
    return obj


def write_json(path: Path, obj) -> None:
    with open(path, "w") as fh:
        json.dump(jsonify(obj), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


class RunManifest:
    """Records the config snapshot, seed, output hashes and per-run status."""

    def __init__(self, command: str, config_text: str, seed: int, version: str):
        self.command = command
        self.config_text = config_text
        self.seed = seed
        self.version = version
        self.outputs: list[Path] = []
        self.status: dict = {}

    def add_output(self, path: Path) -> None:
        self.outputs.append(path)

    def write(self, path: Path) -> None:
        entries = [
            {"path": p.name, "sha256": _sha256(p), "bytes": p.stat().st_size}
            for p in sorted(self.outputs, key=lambda p: p.name)
        ]
        payload = {
            "artifact": "eotlab",
            "version": self.version,
            "command": self.command,
            "created_utc": datetime.now(timezone.utc).isoformat(),
            "config_snapshot": self.config_text,
            "config_sha256": hashlib.sha256(self.config_text.encode()).hexdigest(),
            "seed": self.seed,
            "outputs": entries,
            "status": jsonify(self.status),
        }
        write_json(path, payload)
