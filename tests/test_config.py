"""AccelConfig construction from canonical parameters and Calibration checks."""

import math
import os
from dataclasses import fields

import pytest

from conftest import DATA_DIR
from convaccel import load_calibration, load_config
from convaccel.config import CONFIG_KEYS, AccelConfig, Calibration
from convaccel.errors import ParseError


@pytest.mark.parametrize("name", [f"conf{i}" for i in range(1, 7)])
def test_from_params_inverts_param_values(name):
    cfg = load_config(os.path.join(DATA_DIR, "configs", f"{name}.cfg"))
    assert AccelConfig.from_params(cfg.param_values(), cfg.name) == cfg


def test_from_params_names_missing_parameters():
    params = load_config(os.path.join(DATA_DIR, "configs", "conf1.cfg")).param_values()
    del params["ICP"], params["PCH_MAX"]
    with pytest.raises(ValueError, match=r"^missing parameters: ICP, PCH_MAX$"):
        AccelConfig.from_params(params)


_BAD_VALUES = [
    (f.name, bad)
    for f in fields(Calibration)
    for bad in ((-1,) if f.type == "int" else (math.nan, math.inf, -math.inf))
]


@pytest.mark.parametrize("field, value", _BAD_VALUES)
def test_calibration_rejects_bad_field(field, value):
    message = "must be nonnegative" if isinstance(value, int) else "must be finite"
    with pytest.raises(ValueError, match=f"^{field} {message}$"):
        Calibration(**{field: value})


@pytest.mark.parametrize(
    "loader, shipped, key, message",
    [
        (load_config, "configs/conf1.cfg", "ICP", "parameter 'ICP' given twice"),
        (load_calibration, "calibration/default.cal", "k_pipe", "calibration field 'k_pipe' given twice"),
    ],
    ids=["cfg", "cal"],
)
def test_repeated_key_is_parse_error(tmp_path, loader, shipped, key, message):
    with open(os.path.join(DATA_DIR, shipped), encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    line = next(line for line in lines if line.split("=")[0] == key)
    path = tmp_path / os.path.basename(shipped)
    path.write_text("\n".join(lines + [line]) + "\n")
    with pytest.raises(ParseError) as err:
        loader(str(path))
    assert str(err.value) == f"{path}:{len(lines) + 1}: {message}"


_INT_KEYS = [key for key in CONFIG_KEYS if key != "FREQ"]


@pytest.mark.parametrize("key", _INT_KEYS)
def test_config_integer_at_2_63_is_rejected_naming_the_key(tmp_path, key):
    # The cost model is int64 only.  2**63 is a power of two, so the check
    # comes before the power-of-two and range checks for every key.
    cfg = load_config(os.path.join(DATA_DIR, "configs", "conf6.cfg"))
    params = {**cfg.param_values(), key: 2**63}
    with pytest.raises(ValueError, match=rf"^{key} must be below 2\*\*63$"):
        AccelConfig.from_params(params)
    path = tmp_path / "big.cfg"
    path.write_text("".join(f"{k}={v}\n" for k, v in params.items()))
    with pytest.raises(ParseError) as err:
        load_config(str(path))
    assert str(err.value) == f"{path}:0: {key} must be below 2**63"


def test_config_budgets_just_below_2_63_are_accepted():
    cfg = load_config(os.path.join(DATA_DIR, "configs", "conf6.cfg"))
    budgets = ("WINxCHIN_PAD_MAX", "FILTERxFILTERxCHIN_MAX", "CHOUTxFILTERxFILTERxCHIN_MAX",
               "CHOUT_MAX", "PWINxPCH_MAX", "PCH_MAX")
    params = {**cfg.param_values(), **dict.fromkeys(budgets, 2**63 - 1), "ICP": 2**62}
    assert AccelConfig.from_params(params).param_values() == params


@pytest.mark.parametrize("field", [f.name for f in fields(Calibration) if f.type == "int"])
def test_calibration_integer_at_2_63_is_rejected(field):
    with pytest.raises(ValueError, match=rf"^{field} must be below 2\*\*63$"):
        Calibration(**{field: 2**63})
    assert getattr(Calibration(**{field: 2**63 - 1}), field) == 2**63 - 1
