"""Bit-exact simulator and analytical cost model for a parameterizable
int8 CNN convolution accelerator."""

from .config import AccelConfig, Calibration, DEFAULT_CALIBRATION, load_calibration, load_config
from .engine import (
    LayerSpec,
    PoolSpec,
    SplitPlan,
    accel_exec,
    conv_exec,
    exec_with_split,
    mpool_exec,
    plan_split,
)
from .graph import NetworkGraph, parse_network, reshape_first_layer, run_network, validate
from .perf import PerfReport, ResourceReport, conv_cycles, estimate_resources, network_perf
from .quant import DfpScheme, choose_frac_bits, dequantize, quantize
from .tensors import (
    FFilterBank,
    FTensor3,
    QFilterBank,
    QTensor3,
    load_bank,
    load_tensor,
    save_bank,
    save_tensor,
)

__all__ = [
    "AccelConfig",
    "Calibration",
    "DEFAULT_CALIBRATION",
    "DfpScheme",
    "FFilterBank",
    "FTensor3",
    "LayerSpec",
    "NetworkGraph",
    "PerfReport",
    "PoolSpec",
    "QFilterBank",
    "QTensor3",
    "ResourceReport",
    "SplitPlan",
    "accel_exec",
    "choose_frac_bits",
    "conv_cycles",
    "conv_exec",
    "dequantize",
    "estimate_resources",
    "exec_with_split",
    "load_bank",
    "load_calibration",
    "load_config",
    "load_tensor",
    "mpool_exec",
    "network_perf",
    "parse_network",
    "plan_split",
    "quantize",
    "reshape_first_layer",
    "run_network",
    "save_bank",
    "save_tensor",
    "validate",
]

__version__ = "0.1.0"
