"""Minimal sectioned key=value config files.

Format: `[section]` headers, `key = value` lines, `#` comments, blank lines
ignored. Values are parsed as bool (true/false), int, float, or string, in
that order. Every run echoes its effective configuration in this format so
the file can be fed back via --config to reproduce the run.
"""

from __future__ import annotations

import math
from pathlib import Path

from .errors import FileFormatError
from .fileio import write_text


def parse_value(s: str):
    s = s.strip()
    low = s.lower()
    if low == "true":
        return True
    if low == "false":
        return False
    try:
        return int(s)
    except ValueError:
        pass
    try:
        return float(s)
    except ValueError:
        pass
    if len(s) >= 2 and s[0] == s[-1] and s[0] in "\"'":
        return s[1:-1]
    return s


def format_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def read_config(path) -> dict[str, dict[str, object]]:
    sections: dict[str, dict[str, object]] = {}
    current: dict[str, object] | None = None
    try:
        text = Path(path).read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FileFormatError(f"{path}: not UTF-8 text: {exc}") from None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if not name:
                raise FileFormatError(f"{path}:{lineno}: empty section name")
            current = sections.setdefault(name, {})
            continue
        if "=" not in line:
            raise FileFormatError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        if current is None:
            raise FileFormatError(f"{path}:{lineno}: key outside any [section]")
        key, _, value = line.partition("=")
        value = parse_value(value)
        if isinstance(value, float) and not math.isfinite(value):
            raise FileFormatError(f"{path}:{lineno}: {key.strip()} must be finite, got {value}")
        current[key.strip()] = value
    return sections


def write_config(path, sections: dict[str, dict[str, object]]) -> None:
    lines = []
    for name, body in sections.items():
        lines.append(f"[{name}]")
        for key, value in body.items():
            lines.append(f"{key} = {format_value(value)}")
        lines.append("")
    write_text(path, "\n".join(lines))
