"""Value-stream capture.

One architectural run per (program, pipeline fingerprint) is recorded as
a compact trace — the dynamic block sequence plus the result values of
traced operations — and every downstream consumer (block/value
profiling, the dual-engine program simulation, all sweep points of an
ablation) reads that trace's columns instead of re-interpreting the
program.
"""

from repro.trace.capture import capture_trace
from repro.trace.format import (
    TRACE_SCHEMA_VERSION,
    TRACED_OPCODES,
    TraceError,
    TraceMismatch,
    ValueTrace,
    block_signature,
    program_digest,
)
from repro.trace.store import TraceStore, default_store, reset_default_store

__all__ = [
    "TRACED_OPCODES",
    "TRACE_SCHEMA_VERSION",
    "TraceError",
    "TraceMismatch",
    "TraceStore",
    "ValueTrace",
    "block_signature",
    "capture_trace",
    "default_store",
    "program_digest",
    "reset_default_store",
]
