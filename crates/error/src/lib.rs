//! Shared typed error for the TGOpt workspace.
//!
//! Fallible paths that used to panic or return bare `std::io::Error` —
//! dataset loading/generation, snapshot persistence, cache shape checks,
//! model configuration — now surface a [`TgError`] so callers can
//! distinguish bad input data from corrupt snapshots from programmer
//! errors, and so error messages carry enough context (file, line, field)
//! to act on.

use std::fmt;

/// Convenience alias used throughout the workspace.
pub type Result<T> = std::result::Result<T, TgError>;

/// All error conditions the TGOpt crates surface to callers.
#[derive(Debug)]
pub enum TgError {
    /// An underlying filesystem or stream error.
    Io(std::io::Error),

    /// A malformed record in an input file (e.g. a dataset CSV). Carries
    /// the position of the offending token so users can fix their data.
    Parse {
        /// Path of the file being read.
        file: String,
        /// 1-based line number of the bad record.
        line: usize,
        /// Which field of the record was malformed.
        field: String,
        /// What was wrong with it.
        message: String,
    },

    /// A persisted cache snapshot failed validation (bad magic, truncated
    /// payload, version mismatch, or inconsistent counts).
    SnapshotCorrupt {
        /// What check failed.
        detail: String,
    },

    /// A configuration was rejected by validation.
    InvalidConfig(String),

    /// A tensor or batch had the wrong dimensions for an operation.
    ShapeMismatch {
        /// The operation that rejected its input.
        context: String,
        /// Dimensions the operation required.
        expected: String,
        /// Dimensions it was given.
        found: String,
    },

    /// A caller-supplied argument was out of range (e.g. a non-positive
    /// scale factor or cache capacity).
    InvalidArgument(String),

    /// The serving layer's admission queue was full: the request was
    /// rejected instead of queued so load sheds at the front door rather
    /// than growing memory without bound (backpressure).
    Overloaded {
        /// Capacity of the queue that rejected the request.
        capacity: usize,
    },

    /// A request's deadline expired before its embedding was computed; the
    /// caller gets this error instead of a stale or partial tensor.
    DeadlineExceeded,

    /// The serving layer dropped an admitted request without computing it
    /// (the worker holding its wave panicked or returned early); the
    /// waiter gets this error instead of blocking forever.
    Abandoned,
}

impl TgError {
    /// Builds a [`TgError::Parse`] for a malformed field of `file:line`.
    pub fn parse(
        file: impl Into<String>,
        line: usize,
        field: impl Into<String>,
        message: impl Into<String>,
    ) -> Self {
        TgError::Parse {
            file: file.into(),
            line,
            field: field.into(),
            message: message.into(),
        }
    }

    /// Builds a [`TgError::SnapshotCorrupt`] with the failed check.
    pub fn snapshot(detail: impl Into<String>) -> Self {
        TgError::SnapshotCorrupt { detail: detail.into() }
    }

    /// Builds a [`TgError::ShapeMismatch`] for `context`.
    pub fn shape(
        context: impl Into<String>,
        expected: impl fmt::Display,
        found: impl fmt::Display,
    ) -> Self {
        TgError::ShapeMismatch {
            context: context.into(),
            expected: expected.to_string(),
            found: found.to_string(),
        }
    }
}

impl fmt::Display for TgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TgError::Io(e) => write!(f, "I/O error: {e}"),
            TgError::Parse { file, line, field, message } => {
                write!(f, "{file}:{line}: bad `{field}` field: {message}")
            }
            TgError::SnapshotCorrupt { detail } => {
                write!(f, "corrupt snapshot: {detail}")
            }
            TgError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            TgError::ShapeMismatch { context, expected, found } => {
                write!(f, "{context}: shape mismatch: expected {expected}, found {found}")
            }
            TgError::InvalidArgument(msg) => write!(f, "invalid argument: {msg}"),
            TgError::Overloaded { capacity } => {
                write!(f, "overloaded: serving queue full at capacity {capacity}")
            }
            TgError::DeadlineExceeded => write!(f, "deadline exceeded before completion"),
            TgError::Abandoned => write!(f, "request abandoned: its wave was dropped unserved"),
        }
    }
}

impl std::error::Error for TgError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TgError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for TgError {
    fn from(e: std::io::Error) -> Self {
        TgError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_carries_position_context() {
        let e = TgError::parse("data/wiki.csv", 17, "time", "not a float: \"abc\"");
        assert_eq!(
            e.to_string(),
            "data/wiki.csv:17: bad `time` field: not a float: \"abc\""
        );
    }

    #[test]
    fn io_errors_convert_and_chain() {
        let io = std::io::Error::new(std::io::ErrorKind::NotFound, "no such file");
        let e: TgError = io.into();
        assert!(e.to_string().contains("no such file"));
        assert!(std::error::Error::source(&e).is_some());
    }

    #[test]
    fn serving_errors_are_descriptive() {
        let e = TgError::Overloaded { capacity: 128 };
        assert!(e.to_string().contains("capacity 128"));
        assert!(TgError::DeadlineExceeded.to_string().contains("deadline"));
        assert!(TgError::Abandoned.to_string().contains("abandoned"));
    }

    #[test]
    fn shape_mismatch_is_descriptive() {
        let e = TgError::shape("EmbedCache::store", "(3, 64)", "(3, 32)");
        assert!(e.to_string().contains("expected (3, 64), found (3, 32)"));
    }
}
