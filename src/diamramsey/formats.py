"""JSON and CSV serialization of configurations.

Configuration JSON: {"dim": d, "points": [[x1, ..., xd], ...]}.
CSV: one point per row, d columns, '.' decimal separator, no header.
Coloured configurations add a "colors" array to the JSON object.
Both readers reject ragged rows.
"""

from __future__ import annotations

import json

from .coloring import ColoredConfiguration
from .errors import DomainError
from .geometry import Configuration


def configuration_to_dict(config: Configuration) -> dict:
    return {"dim": config.dim, "points": config.points.tolist()}


def configuration_from_dict(data: dict) -> Configuration:
    if not isinstance(data, dict) or "points" not in data:
        raise DomainError("expected an object with a 'points' array")
    points = data["points"]
    if not isinstance(points, list) or not points:
        raise DomainError("'points' must be a nonempty array of rows")
    widths = {len(row) if isinstance(row, list) else -1 for row in points}
    if len(widths) != 1 or -1 in widths:
        raise DomainError("ragged rows: every point needs the same coordinate count")
    # JSON true and false load as bools, which are ints to Python; they are
    # not coordinates.
    if not all(type(x) in (int, float) for row in points for x in row):
        raise DomainError("every coordinate must be a number")
    return Configuration(dim=data.get("dim", widths.pop()), points=points)


def configuration_to_json(config: Configuration) -> str:
    return json.dumps(configuration_to_dict(config))


def configuration_from_json(text: str) -> Configuration:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DomainError(f"invalid JSON: {exc}") from exc
    return configuration_from_dict(data)


def configuration_to_csv(config: Configuration) -> str:
    lines = [",".join(repr(float(x)) for x in row) for row in config.points]
    return "\n".join(lines) + "\n"


def configuration_from_csv(text: str) -> Configuration:
    rows = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            rows.append([float(cell) for cell in line.split(",")])
        except ValueError as exc:
            raise DomainError(f"line {lineno}: {exc}") from exc
    if not rows:
        raise DomainError("CSV input contains no points")
    if len({len(row) for row in rows}) != 1:
        raise DomainError("ragged rows: every point needs the same coordinate count")
    return Configuration(dim=len(rows[0]), points=rows)


def colored_to_dict(colored: ColoredConfiguration) -> dict:
    data = configuration_to_dict(colored.configuration)
    data["colors"] = list(colored.colors)
    return data


def colored_from_dict(data: dict) -> ColoredConfiguration:
    config = configuration_from_dict(data)
    if not isinstance(data.get("colors"), list):
        raise DomainError("coloured configuration needs a 'colors' array")
    return ColoredConfiguration(configuration=config, colors=tuple(data["colors"]))


def load_configuration(path: str, fmt: str = "json") -> Configuration:
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    if fmt == "json":
        return configuration_from_json(text)
    if fmt == "csv":
        return configuration_from_csv(text)
    raise DomainError(f"unknown format {fmt!r}; expected 'json' or 'csv'")


def load_colored(path: str) -> ColoredConfiguration:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except json.JSONDecodeError as exc:
            raise DomainError(f"invalid JSON: {exc}") from exc
    return colored_from_dict(data)


def save_configuration(config: Configuration, path: str, fmt: str = "json") -> None:
    if fmt == "json":
        text = configuration_to_json(config) + "\n"
    elif fmt == "csv":
        text = configuration_to_csv(config)
    else:
        raise DomainError(f"unknown format {fmt!r}; expected 'json' or 'csv'")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
