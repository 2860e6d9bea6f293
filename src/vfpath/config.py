"""INI-style scenario configuration: parsing, defaults, and round-trip dump.

An empty (or absent) config reproduces the benchmark sinusoid scenario; any
key can be overridden.  Sections and keys are validated strictly so a typo
fails loudly with the offending name.  Every section but ``[path]`` takes its
keys, types and defaults from the fields of the parameter dataclasses.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import MISSING, fields
from typing import Any, Optional, get_type_hints

from .baselines import BaselineParams
from .guidance import GuidanceParams
from .paths import CirclePath, LinePath, ReferencePath, SinusoidPath, load_polyline
from .simulation import SCENARIO_AMPLITUDE, SCENARIO_PERIOD, ScenarioConfig
from .vehicle import AirspeedSpec, WindModel


class ConfigError(ValueError):
    """Malformed configuration; message names the offending file/section/key."""


Settings = dict[str, dict[str, Any]]  # section -> key -> value


def _field_schema(cls) -> dict[str, tuple[Any, Any]]:
    """Name -> (type, default) of each field of a dataclass that has a default."""
    hints = get_type_hints(cls)
    out = {}
    for f in fields(cls):
        if f.default is not MISSING:
            out[f.name] = (hints[f.name], f.default)
        elif f.default_factory is not MISSING:
            out[f.name] = (hints[f.name], f.default_factory())
    return out


# [path] keys span several path constructors, and its radius default (300 m)
# is not CirclePath's (100 m), so the path section keeps its own table.
PATH_KEYS = {
    "kind": (str, "sinusoid"),
    "amplitude": (float, SCENARIO_AMPLITUDE),
    "period": (float, SCENARIO_PERIOD),
    "s_min": (Optional[float], None),
    "s_max": (Optional[float], None),
    "x0": (float, 0.0),
    "y0": (float, 0.0),
    "heading": (float, 0.0),
    "cx": (float, 0.0),
    "cy": (float, 0.0),
    "radius": (float, 300.0),
    "file": (str, ""),
}

# The [path] keys each kind takes besides ``kind``; any other key must stay
# at its default.
PATH_KIND_KEYS = {
    "sinusoid": ("amplitude", "period", "s_min", "s_max"),
    "line": ("x0", "y0", "heading", "s_min", "s_max"),
    "circle": ("cx", "cy", "radius"),
    "polyline": ("file",),
}


def _schema() -> dict[str, dict[str, tuple[Any, Any]]]:
    """Section -> key -> (type, default) for every INI key.

    The special cases, undone by :func:`build_scenario`: ``alpha`` lives
    under ``[vehicle]``, the airspeed spec is the one key ``airspeed``, and
    the wind is ``wind_x``/``wind_y``, or ``wind_sampled`` for the ``None``
    (sampled) wind.  ``law`` is chosen per run, not configured.
    """
    sim = _field_schema(ScenarioConfig)
    guidance = _field_schema(GuidanceParams)
    wind, airspeed = sim.pop("wind")[1], sim.pop("airspeed")[1]
    for name in ("law", "guidance", "baselines"):
        del sim[name]
    return {
        "path": PATH_KEYS,
        "vehicle": {
            "airspeed": (get_type_hints(AirspeedSpec)["v_a"], airspeed.v_a),
            "alpha": guidance.pop("alpha"),
        },
        "guidance": guidance,
        "baselines": _field_schema(BaselineParams),
        "sim": {
            "wind_x": (float, wind.w_x),
            "wind_y": (float, wind.w_y),
            "wind_sampled": (bool, wind is None),
            **sim,
        },
    }


SCHEMA = _schema()

_PARSERS = {
    float: float,
    int: int,
    str: str,
    bool: lambda raw: configparser.ConfigParser.BOOLEAN_STATES[raw.lower()],
    Optional[float]: lambda raw: None if raw == "" else float(raw),
}


def default_settings() -> Settings:
    return {
        section: {key: spec[1] for key, spec in keys.items()}
        for section, keys in SCHEMA.items()
    }


def load_settings(path: Optional[str]) -> Settings:
    """Parse a config file over the defaults; ``None`` returns pure defaults."""
    settings = default_settings()
    if path is None:
        return settings
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except configparser.Error as exc:
        raise ConfigError(f"could not parse config file {path}: {exc}") from None
    for section in parser.sections():
        if section not in SCHEMA:
            raise ConfigError(f"unknown section [{section}] in {path}")
        for key, raw in parser.items(section):
            if key not in SCHEMA[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}] of {path}")
            parse = _PARSERS[SCHEMA[section][key][0]]
            try:
                settings[section][key] = parse(raw.strip())
            except (KeyError, ValueError):
                raise ConfigError(f"invalid value {raw!r} for [{section}] {key}") from None
    return settings


def _format_value(value: Any) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def dump_settings(settings: Settings) -> str:
    """Render settings as INI text that re-parses to an equivalent run."""
    lines: list[str] = []
    for section, keys in SCHEMA.items():
        lines.append(f"[{section}]")
        for key in keys:
            lines.append(f"{key} = {_format_value(settings[section][key])}")
        lines.append("")
    return "\n".join(lines)


def build_path(settings: Settings) -> ReferencePath:
    sec = settings["path"]
    kind = sec["kind"]
    if kind not in PATH_KIND_KEYS:
        raise ConfigError(f"unknown path kind {kind!r}")
    for key, (_, default) in PATH_KEYS.items():
        if key != "kind" and key not in PATH_KIND_KEYS[kind] and sec[key] != default:
            raise ConfigError(f"[path] {key} does not apply to kind = {kind}")
    if kind == "polyline" and not sec["file"]:
        raise ConfigError("polyline path needs [path] file = <csv>")
    bounds = {key: sec[key] for key in ("s_min", "s_max") if sec[key] is not None}
    try:
        if kind == "sinusoid":
            return SinusoidPath(sec["amplitude"], sec["period"], **bounds)
        if kind == "line":
            return LinePath(sec["x0"], sec["y0"], sec["heading"], **bounds)
        if kind == "circle":
            return CirclePath(sec["cx"], sec["cy"], sec["radius"])
        return load_polyline(sec["file"])
    except FileNotFoundError:
        raise ConfigError(f"polyline file not found: {sec['file']}") from None
    except ValueError as exc:
        raise ConfigError(f"invalid [path] parameters: {exc}") from None


def build_scenario(settings: Settings, law: str = "switched") -> ScenarioConfig:
    """Assemble a ScenarioConfig for one guidance law from parsed settings.

    ``kappa_max = 0`` means unbounded.
    """
    path = build_path(settings)
    vehicle = settings["vehicle"]
    sim = dict(settings["sim"])
    wind_x, wind_y = sim.pop("wind_x"), sim.pop("wind_y")
    sampled = sim.pop("wind_sampled")
    if sim["kappa_max"] == 0.0:
        sim["kappa_max"] = math.inf
    try:
        return ScenarioConfig(
            path=path,
            law=law,
            guidance=GuidanceParams(alpha=vehicle["alpha"], **settings["guidance"]),
            baselines=BaselineParams(**settings["baselines"]),
            airspeed=AirspeedSpec(vehicle["airspeed"]),
            wind=None if sampled else WindModel(wind_x, wind_y),
            **sim,
        )
    except ValueError as exc:
        raise ConfigError(f"invalid configuration: {exc}") from None
