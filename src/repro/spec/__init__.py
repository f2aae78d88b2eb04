"""Execution specification: device state, ES-CFG, builder, serialization."""

from repro.spec.state import BufferInfo, DeviceState, FieldInfo
from repro.spec.escfg import (
    CommandAccessTable, ESBlock, ESFunction, ExecutionSpec,
)
from repro.spec.builder import build_spec, reduce_spec, substitute_expr
from repro.spec.serialize import spec_from_json, spec_to_json
from repro.spec.merge import coverage_gain, merge_all, merge_specs
from repro.spec.dot import spec_to_dot
from repro.spec.lifecycle import (
    PromotionConfig, PromotionReport, RetrainRecord,
    candidate_from_records, promote,
)

__all__ = [
    "BufferInfo", "DeviceState", "FieldInfo",
    "CommandAccessTable", "ESBlock", "ESFunction", "ExecutionSpec",
    "build_spec", "reduce_spec", "substitute_expr",
    "spec_from_json", "spec_to_json",
    "coverage_gain", "merge_all", "merge_specs", "spec_to_dot",
    "PromotionConfig", "PromotionReport", "RetrainRecord",
    "candidate_from_records", "promote",
]
