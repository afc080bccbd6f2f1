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
        directory.mkdir(parents=True, exist_ok=True)
        (directory / TRACE_FILENAME).write_text(self.to_csv_text())
        with open(directory / MANIFEST_FILENAME, "w") as fh:
            json.dump(self.manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")
        return directory


def load_trace(directory) -> RunTrace:
    directory = Path(directory)
    csv_path = directory / TRACE_FILENAME
    manifest_path = directory / MANIFEST_FILENAME
    if not csv_path.is_file() or not manifest_path.is_file():
        raise ConfigError(f"trace directory {directory} is missing {TRACE_FILENAME} or {MANIFEST_FILENAME}")
    try:
        manifest = json.loads(manifest_path.read_text())
    except ValueError as exc:  # undecodable bytes or malformed JSON
        raise ConfigError(f"{manifest_path}: malformed JSON: {exc}") from exc
    if not isinstance(manifest, dict):
        raise ConfigError(f"{manifest_path}: must be a JSON object, got {type(manifest).__name__}")
    try:
        text = csv_path.read_text().strip().splitlines()
    except (OSError, UnicodeDecodeError) as exc:  # a decode error does not name the file
        raise ConfigError(f"cannot read {csv_path}: {exc}") from exc
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
