//! Per-operation runtime accounting — now provided by `tg-telemetry`.
//!
//! The Table-3 span types moved to the workspace-wide telemetry crate so
//! the inference engine (at every optimization setting) and the serving
//! layer report the same breakdown schema. `OpStats` remains as a thin alias for the
//! many existing call sites; new code should use [`tg_telemetry::Recorder`]
//! directly.

pub use tg_telemetry::{OpKind, StageSpan};

/// Back-compat alias: the historical name for [`tg_telemetry::Recorder`].
pub type OpStats = tg_telemetry::Recorder;
