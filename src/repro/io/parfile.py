"""SPECFEM-style ``Par_file`` text serialisation of simulation parameters."""

from __future__ import annotations

from pathlib import Path

from ..config.parameters import PAR_TYPES, ParameterError, SimulationParameters

__all__ = ["write_par_file", "read_par_file", "format_par_file", "parse_par_file"]


def format_par_file(params: SimulationParameters) -> str:
    """Render parameters as SPECFEM-style ``KEY = value`` lines."""
    lines = [
        "# Par_file — repro (SPECFEM3D_GLOBE reproduction)",
        "# simulation parameters",
    ]
    for key, value in params.to_dict().items():
        if isinstance(value, bool):
            rendered = ".true." if value else ".false."
        elif value is None:
            rendered = "none"
        else:
            rendered = str(value)
        lines.append(f"{key:<24}= {rendered}")
    return "\n".join(lines) + "\n"


def parse_par_file(text: str) -> SimulationParameters:
    """Parse ``KEY = value`` lines back into parameters, each value by
    its key's declared type (an undeclared key's value is left for
    :meth:`SimulationParameters.from_dict` to drop or reject)."""
    raw: dict[str, object] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ParameterError(f"Par_file line {lineno}: missing '=': {line!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        raw[key] = _parse_value(key, value, lineno) if key in PAR_TYPES else value
    return SimulationParameters.from_dict(raw)


def _parse_value(key: str, value: str, lineno: int) -> object:
    """One Par_file value, converted by its key's declared type."""
    base, takes_none = PAR_TYPES[key]
    if takes_none and value == "none":
        return None
    if base is bool:
        if value in (".true.", ".false."):
            return value == ".true."
    else:
        try:
            return base(value)
        except ValueError:
            pass
    raise ParameterError(
        f"Par_file line {lineno}: {key} takes a {base.__name__}, got {value!r}"
    )


def write_par_file(params: SimulationParameters, path: str | Path) -> None:
    Path(path).write_text(format_par_file(params))


def read_par_file(path: str | Path) -> SimulationParameters:
    return parse_par_file(Path(path).read_text())
