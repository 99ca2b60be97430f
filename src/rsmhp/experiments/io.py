"""Result serialization: frozen CSV formatting and atomic writes.

Every file is written to a temporary name in the destination directory and
renamed into place, so a crash never leaves a half-written artifact and a
rerun with the same inputs produces byte-identical output.  Floats are
rendered with 17 significant digits, which round-trips float64 exactly and
keeps files diffable across runs and worker counts.
"""
from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path


def format_cell(value) -> str:
    """Render one CSV cell; floats use the frozen 17-digit format."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int,)):
        return str(value)
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _atomic_write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def write_csv(path: Path, header: list[str], rows: list[tuple]) -> None:
    """Write a UTF-8, LF-terminated CSV with the frozen float format."""
    lines = [",".join(header)]
    for row in rows:
        if len(row) != len(header):
            raise ValueError(
                f"row width {len(row)} does not match header width {len(header)}"
            )
        lines.append(",".join(format_cell(cell) for cell in row))
    _atomic_write_text(path, "\n".join(lines) + "\n")


def json_text(payload: dict) -> str:
    """``payload`` as the text ``write_json`` writes; a NaN or infinite float, which JSON cannot hold, raises ``ValueError``."""
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"


def write_json(path: Path, payload: dict) -> None:
    _atomic_write_text(path, json_text(payload))


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    """Parse a CSV written by write_csv back into header + string rows."""
    text = Path(path).read_text(encoding="utf-8")
    lines = [line for line in text.split("\n") if line]
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]
