"""Accelerator configuration parameters and the cost-model calibration record.

Config files are key=value text using the canonical parameter names
(FREQ, APACK, PPACK, ICP, OCP, PE_DSP, FILTER_MAX, WINxCHIN_PAD_MAX,
FILTERxFILTERxCHIN_MAX, CHOUTxFILTERxFILTERxCHIN_MAX, CHOUT_MAX,
PWINxPCH_MAX, PCH_MAX).  Calibration files use the same syntax with the
Calibration field names.  A key given twice is a parse error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

from .errors import ParseError, open_input, open_output

CONFIG_KEYS = {
    "FREQ": "freq_mhz",
    "APACK": "apack",
    "PPACK": "ppack",
    "ICP": "icp",
    "OCP": "ocp",
    "PE_DSP": "pe_dsp",
    "FILTER_MAX": "filter_max",
    "WINxCHIN_PAD_MAX": "win_x_chin_pad_max",
    "FILTERxFILTERxCHIN_MAX": "filter_x_filter_x_chin_max",
    "CHOUTxFILTERxFILTERxCHIN_MAX": "chout_x_filter_x_filter_x_chin_max",
    "CHOUT_MAX": "chout_max",
    "PWINxPCH_MAX": "pwin_x_pch_max",
    "PCH_MAX": "pch_max",
}
FIELD_TO_KEY = {v: k for k, v in CONFIG_KEYS.items()}


def _pow2(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class AccelConfig:
    """One full assignment of the accelerator design parameters."""

    freq_mhz: float
    apack: int
    ppack: int
    icp: int
    ocp: int
    pe_dsp: int
    filter_max: int
    win_x_chin_pad_max: int
    filter_x_filter_x_chin_max: int
    chout_x_filter_x_filter_x_chin_max: int
    chout_max: int
    pwin_x_pch_max: int
    pch_max: int
    name: str = ""

    def __post_init__(self):
        for key, attr in CONFIG_KEYS.items():  # the cost model's int64 domain
            if key != "FREQ" and getattr(self, attr) >= 2**63:
                raise ValueError(f"{key} must be below 2**63")
        if not (math.isfinite(self.freq_mhz) and self.freq_mhz > 0):
            raise ValueError(f"FREQ must be positive and finite, got {self.freq_mhz}")
        for key in ("apack", "ppack", "icp", "ocp"):
            v = getattr(self, key)
            if not _pow2(v):
                raise ValueError(f"{FIELD_TO_KEY[key]} must be a power of two, got {v}")
        if not 0 <= self.pe_dsp <= self.ocp:
            raise ValueError(
                f"PE_DSP must lie in [0, OCP={self.ocp}], got {self.pe_dsp}"
            )
        if self.filter_max not in (1, 3):
            raise ValueError(f"FILTER_MAX must be 1 or 3, got {self.filter_max}")
        for key in (
            "win_x_chin_pad_max",
            "filter_x_filter_x_chin_max",
            "chout_x_filter_x_filter_x_chin_max",
            "chout_max",
            "pwin_x_pch_max",
            "pch_max",
        ):
            if getattr(self, key) < 1:
                raise ValueError(f"{FIELD_TO_KEY[key]} must be positive")

    @property
    def ocm_bytes(self) -> int:
        """Total on-chip buffer bytes; double-buffered stores counted twice."""
        return (
            2 * self.filter_x_filter_x_chin_max  # window stores (double buffered)
            + 2 * self.chout_max  # output-pixel stores (double buffered)
            + self.filter_max * self.win_x_chin_pad_max  # input row store
            + self.chout_x_filter_x_filter_x_chin_max  # weight store
            + self.chout_max  # bias store
            + 2 * self.pwin_x_pch_max  # pool current/result rows
            + 2 * self.pch_max  # pool current/result pixels
        )

    def param_values(self) -> dict[str, float | int]:
        """Canonical-name -> value mapping, in fixed key order."""
        return {key: getattr(self, attr) for key, attr in CONFIG_KEYS.items()}

    @classmethod
    def from_params(cls, params, name: str = "") -> AccelConfig:
        """The config of a canonical-name -> value mapping; the inverse of param_values()."""
        missing = [key for key in CONFIG_KEYS if key not in params]
        if missing:
            raise ValueError(f"missing parameters: {', '.join(missing)}")
        return cls(**{attr: params[key] for key, attr in CONFIG_KEYS.items()}, name=name)


@dataclass(frozen=True)
class Calibration:
    """Fitted constants of the cycle/resource/power model.

    k_pipe: pipeline fill/drain cycles charged per output window.
    k_layer: one-time start cycles charged per layer execution.
    k_pool: start cycles of the pooling stage.
    c_dsp: DSP blocks used by control outside the PE array.
    p0_w: static power at 0 MHz of the power trend line.
    power_slope_w_per_100mhz: dynamic power slope.
    host_ns_per_unit: host CPU cost per elementary op (see perf module).

    Defaults were fitted against the measured reference implementations;
    scripts/fit_calibration.py reproduces them.
    """

    k_pipe: int = 12
    k_layer: int = 6800
    k_pool: int = 16
    c_dsp: int = 10
    p0_w: float = 1.892
    power_slope_w_per_100mhz: float = 0.8
    host_ns_per_unit: float = 1.376

    def __post_init__(self):
        # Annotations are strings under ``from __future__ import annotations``.
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "int" and value < 0:
                raise ValueError(f"{f.name} must be nonnegative")
            if f.type == "int" and value >= 2**63:
                raise ValueError(f"{f.name} must be below 2**63")
            if f.type == "float" and not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite")
        if self.host_ns_per_unit < 0:
            raise ValueError("host_ns_per_unit must be nonnegative")


DEFAULT_CALIBRATION = Calibration()


def text_lines(path):
    """(line_no, text) of each non-blank line of a UTF-8 text file, '#' comments cut.

    Undecodable bytes are a ParseError and an unreadable path a LoadError.
    """
    with open_input(path) as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line_no = data.count(b"\n", 0, exc.start) + 1
        raise ParseError(path, line_no, f"not UTF-8 text ({exc.reason})") from None
    if "\r" in text:  # every line ending becomes "\n", as in text mode
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return [
        (line_no, line)
        for line_no, raw in enumerate(text.split("\n"), start=1)
        if (line := raw.split("#", 1)[0].strip())
    ]


def _load_kv(path, types, what, build):
    """The one key=value reader: parse each line with ``types[key]``, then
    ``build`` the record from {key: value}; a ValueError there is line 0's."""
    values = {}
    for line_no, line in text_lines(path):
        if "=" not in line:
            raise ParseError(path, line_no, f"expected key=value, got {line!r}")
        key, value = map(str.strip, line.split("=", 1))
        if key not in types:
            raise ParseError(path, line_no, f"unknown {what} {key!r}")
        if key in values:
            raise ParseError(path, line_no, f"{what} {key!r} given twice")
        try:
            values[key] = types[key](value)
        except ValueError:
            raise ParseError(path, line_no, f"bad value for {key}: {value!r}") from None
    try:
        return build(values)
    except ValueError as exc:
        raise ParseError(path, 0, str(exc)) from None


def _save_kv(pairs, path) -> None:
    """The one key=value writer; floats in %g form."""
    with open_output(path, "w", encoding="utf-8") as fh:
        for key, value in pairs:
            fh.write(f"{key}={value:g}\n" if isinstance(value, float) else f"{key}={value}\n")


_CONFIG_TYPES = {"NAME": str, **{key: float if key == "FREQ" else int for key in CONFIG_KEYS}}
_CALIBRATION_TYPES = {f.name: int if f.type == "int" else float for f in fields(Calibration)}


def load_config(path) -> AccelConfig:
    return _load_kv(
        path, _CONFIG_TYPES, "parameter", lambda v: AccelConfig.from_params(v, v.get("NAME", ""))
    )


def save_config(cfg: AccelConfig, path) -> None:
    name = [("NAME", cfg.name)] if cfg.name else []
    _save_kv(name + list(cfg.param_values().items()), path)


def load_calibration(path) -> Calibration:
    return _load_kv(
        path, _CALIBRATION_TYPES, "calibration field", lambda v: replace(DEFAULT_CALIBRATION, **v)
    )


def save_calibration(calib: Calibration, path) -> None:
    _save_kv(((f.name, getattr(calib, f.name)) for f in fields(Calibration)), path)
