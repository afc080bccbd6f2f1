"""Run traces: per-iteration diagnostic rows plus a manifest, persisted as CSV + JSON.

CSV floats use Python's shortest round-trip repr, which is platform-stable
for IEEE doubles, so identical (config, seed) pairs reproduce trace.csv
byte-for-byte.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ConfigError

TRACE_FILENAME = "trace.csv"
MANIFEST_FILENAME = "manifest.json"


@dataclass
class RunTrace:
    """Manifest plus K+1 diagnostic rows.

    ``history`` is not saved: a neural run puts its final ``actor`` and
    ``critic`` there, and no run keeps anything per iteration beyond its rows.
    """

    manifest: dict
    columns: list[str]
    rows: list[list[float]]
    history: dict = field(default_factory=dict, repr=False)

    def column(self, name: str):
        idx = self.columns.index(name)
        return [row[idx] for row in self.rows]

    def to_csv_text(self) -> str:
        # Each column picks its formatter once and formats its cells in one pass.
        by_column = zip(self.columns, zip(*self.rows))
        cells = [map(str, map(int, col)) if c == "k" else map(repr, map(float, col)) for c, col in by_column]
        return "\n".join([",".join(self.columns)] + [",".join(row) for row in zip(*cells)]) + "\n"

    def save(self, directory) -> Path:
        directory = Path(directory)
        write_text(directory / TRACE_FILENAME, self.to_csv_text())
        write_text(directory / MANIFEST_FILENAME, json.dumps(self.manifest, indent=2, sort_keys=True) + "\n")
        return directory


def read_text(path) -> str:
    """The text of a file a verb reads; a file that cannot be read or decoded is a ConfigError naming it."""
    try:
        return Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:  # an OSError's own text would name the path a second time
        raise ConfigError(f"cannot read {str(path)!r}: {getattr(exc, 'strerror', None) or exc}") from exc


def write_text(path, text: str) -> None:
    """Write a file a verb saves, making its parent directories; a failure is a ConfigError naming it."""
    path = Path(path)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {str(path)!r}: {exc.strerror or exc}") from exc


def load_trace(directory) -> RunTrace:
    directory = Path(directory)
    csv_path = directory / TRACE_FILENAME
    manifest_path = directory / MANIFEST_FILENAME
    # Both reads stay outside the try below, since read_text's ConfigError is itself a ValueError.
    manifest_text, text = read_text(manifest_path), read_text(csv_path).strip().splitlines()
    try:
        manifest = json.loads(manifest_text)
    except ValueError as exc:
        raise ConfigError(f"{manifest_path}: malformed JSON: {exc}") from exc
    if not isinstance(manifest, dict):
        raise ConfigError(f"{manifest_path}: must be a JSON object, got {type(manifest).__name__}")
    if not text:
        raise ConfigError(f"{csv_path} is empty")
    columns = text[0].split(",")
    rows = []
    for lineno, line in enumerate(text[1:], start=2):
        cells = line.split(",")
        if len(cells) != len(columns):
            raise ConfigError(f"{csv_path}:{lineno}: expected {len(columns)} cells, got {len(cells)}")
        try:
            row = [float(c) for c in cells]
        except ValueError as exc:
            raise ConfigError(f"{csv_path}:{lineno}: {exc}") from exc
        # NaN fails every comparison, so it would pass every diag check; inf
        # stays legal (phi_star is infinite when rho_{k+1} lacks support).
        bad = next((name for name, value in zip(columns, row) if math.isnan(value)), None)
        if bad is not None:
            raise ConfigError(f"{csv_path}:{lineno}: column {bad!r} is nan")
        rows.append(row)
    return RunTrace(manifest=manifest, columns=columns, rows=rows)
