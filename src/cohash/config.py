"""Run configuration files: flat key=value lines.

A config file supplies defaults for command-line flags; any flag given
on the command line wins over the file.  Keys use the flag spelling
without the leading dashes ("batch-size=500").  This module knows only
the line syntax: which keys exist and how each value parses is decided
by the command line's parser (``cohash.cli``).  '#' starts a comment,
blank lines are skipped, and a later line overrides an earlier one.
A line ends at "\n", "\r\n" or a lone "\r" only, as a ratings line does.
"""

from __future__ import annotations

from pathlib import Path

from cohash.data_io import _read_text

__all__ = ["ConfigError", "parse_config"]


class ConfigError(ValueError):
    """A config line failed to parse, names an unknown key or a bad value."""


def parse_config(path: str | Path) -> dict[str, tuple[str, int]]:
    """Read key=value lines into {key: (raw value, line number)}."""
    path = Path(path)
    values: dict[str, tuple[str, int]] = {}
    # text mode has turned "\r\n" and a lone "\r" into "\n"; splitlines()
    # would also break on U+0085, U+2028, "\x0c" and "\x1c"-"\x1e"
    for lineno, line in enumerate(_read_text(path, ConfigError).split("\n"), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not value:
            raise ConfigError(f"{path}:{lineno}: empty value for {key!r}")
        values[key] = (value, lineno)
    return values
