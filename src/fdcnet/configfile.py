"""Minimal sectioned key=value config files.

Format: `[section]` headers, `key = value` lines, `#` comments, blank lines
ignored. Values are parsed as bool (true/false), int, float, or string, in
that order. A `#` inside quotes is part of the value. A single-quoted
string is taken verbatim between its quotes, a double-quoted one once its
backslash escapes (of a backslash, a double quote or a line break) are
undone. The writer double-quotes each string that would not read back bare
(`x#y.csv`, `007`, `true`, ` a`) and writes every other value bare.
Every run echoes its effective configuration in this format so the file can
be fed back via --config to reproduce the run.
"""

from __future__ import annotations

import math
import re
from pathlib import Path

from .errors import FileFormatError
from .fileio import write_text


# the characters str.splitlines breaks at, written as \uXXXX inside quotes
_LINE_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
_ESCAPES = str.maketrans({"\\": "\\\\", '"': '\\"', **{ch: f"\\u{ord(ch):04x}" for ch in _LINE_BREAKS}})
_ESCAPED = re.compile(r'\\(u[0-9a-f]{4}|["\\])')
# a line up to its first "#" outside a quoted string
_BEFORE_COMMENT = re.compile(r"""(?:[^"'#]|"(?:[^"\\]|\\.)*"|'[^']*'|["'])*""")


def _unescape(m: re.Match) -> str:
    return chr(int(m[1][1:], 16)) if len(m[1]) == 5 else m[1]


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
    if len(s) >= 2 and s[0] == s[-1] == '"':
        return _ESCAPED.sub(_unescape, s[1:-1])
    if len(s) >= 2 and s[0] == s[-1] == "'":
        return s[1:-1]
    return s


def format_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, str) and not (parse_value(v) == v and "#" not in v and v.splitlines() == [v]):
        return '"' + v.translate(_ESCAPES) + '"'
    return str(v)


def read_config(path) -> dict[str, dict[str, object]]:
    sections: dict[str, dict[str, object]] = {}
    current: dict[str, object] | None = None
    try:
        text = Path(path).read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FileFormatError(f"{path}: not UTF-8 text: {exc}") from None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _BEFORE_COMMENT.match(raw)[0].strip()
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
