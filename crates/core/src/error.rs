//! The workspace-wide error type.
//!
//! Every fallible public API in the EDDIE crates returns [`Error`]: a
//! single concrete type carrying a machine-matchable [`ErrorKind`], the
//! layer that raised it, a human-readable message, and (optionally) the
//! lower-level error it wraps. Recovery code — reconnect loops, resume
//! handshakes, chaos harnesses — branches on [`Error::kind`] instead of
//! string-matching `Display` output, while operators still get the full
//! causal chain through [`std::error::Error::source`].
//!
//! The type is deliberately dependency-free (`thiserror`-style derives
//! written out by hand): upper crates convert their local error enums
//! into it via `From`, which the orphan rule permits because the *local*
//! type is theirs.

use std::fmt;

/// What went wrong, as a flat machine-matchable classification.
///
/// Kinds are shared across the whole workspace so that, e.g., a serve
/// client can decide "retryable vs. fatal" without knowing which layer
/// produced the error. The enum is `#[non_exhaustive]`: downstream
/// matches need a `_` arm, and new kinds are not a breaking change.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum ErrorKind {
    /// A trained model has no regions, so there is nothing to track.
    EmptyModel,
    /// A configuration value failed validation (builder `build()`,
    /// STFT geometry, bounds of zero, ...).
    InvalidConfig,
    /// A persisted snapshot is internally inconsistent and cannot be
    /// restored.
    CorruptSnapshot,
    /// A wire frame violated the framing or payload grammar.
    MalformedFrame,
    /// A byte stream ended in the middle of a frame.
    TruncatedStream,
    /// A peer sent a frame that is illegal in the current protocol
    /// state (wrong direction, second `Hello`, ...).
    ProtocolViolation,
    /// A `Hello` named a model the server does not serve.
    UnknownModel,
    /// The receiver is overloaded and refused the input (`Busy` on the
    /// wire, `PushResult::Full` in the fleet).
    Backpressure,
    /// A resume handshake asked for history the server no longer
    /// retains; the client must start a fresh session.
    ResumeGap,
    /// A resume token was not recognised (expired, evicted, or bogus).
    UnknownToken,
    /// An operation did not complete within its deadline.
    Timeout,
    /// An operating-system I/O error.
    Io,
    /// Serialisation or deserialisation failed (models, session
    /// snapshots, spill-log records).
    Serialization,
    /// Anything that does not fit the kinds above.
    Other,
}

impl ErrorKind {
    /// A stable snake_case name for logs and journals.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorKind::EmptyModel => "empty_model",
            ErrorKind::InvalidConfig => "invalid_config",
            ErrorKind::CorruptSnapshot => "corrupt_snapshot",
            ErrorKind::MalformedFrame => "malformed_frame",
            ErrorKind::TruncatedStream => "truncated_stream",
            ErrorKind::ProtocolViolation => "protocol_violation",
            ErrorKind::UnknownModel => "unknown_model",
            ErrorKind::Backpressure => "backpressure",
            ErrorKind::ResumeGap => "resume_gap",
            ErrorKind::UnknownToken => "unknown_token",
            ErrorKind::Timeout => "timeout",
            ErrorKind::Io => "io",
            ErrorKind::Serialization => "serialization",
            ErrorKind::Other => "other",
        }
    }
}

impl fmt::Display for ErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The boxed lower-level cause an [`Error`] may wrap.
pub type BoxedSource = Box<dyn std::error::Error + Send + Sync + 'static>;

/// The workspace error: kind + origin layer + message + optional cause.
///
/// Construct with [`Error::new`] / [`Error::with_source`] or through a
/// crate's `From` conversion. Match on [`kind`](Error::kind); print
/// with `Display` (one line: `layer: message`); walk the chain with
/// [`source`](std::error::Error::source).
#[derive(Debug)]
pub struct Error {
    kind: ErrorKind,
    layer: &'static str,
    message: String,
    source: Option<BoxedSource>,
}

impl Error {
    /// Creates an error with no underlying cause.
    pub fn new(kind: ErrorKind, layer: &'static str, message: impl Into<String>) -> Error {
        Error {
            kind,
            layer,
            message: message.into(),
            source: None,
        }
    }

    /// Creates an error wrapping a lower-level cause.
    pub fn with_source(
        kind: ErrorKind,
        layer: &'static str,
        message: impl Into<String>,
        source: impl Into<BoxedSource>,
    ) -> Error {
        Error {
            kind,
            layer,
            message: message.into(),
            source: Some(source.into()),
        }
    }

    /// The [`ErrorKind`] an OS I/O error kind classifies as — the same
    /// mapping `From<std::io::Error>` uses, available without an error
    /// value (timeouts → [`ErrorKind::Timeout`], unexpected EOF →
    /// [`ErrorKind::TruncatedStream`], the rest → [`ErrorKind::Io`]).
    pub fn from_io_kind(kind: std::io::ErrorKind) -> ErrorKind {
        match kind {
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => ErrorKind::Timeout,
            std::io::ErrorKind::UnexpectedEof => ErrorKind::TruncatedStream,
            _ => ErrorKind::Io,
        }
    }

    /// Re-attributes the error to `layer` (used when a crate forwards
    /// a lower layer's error as its own surface).
    pub fn with_layer(mut self, layer: &'static str) -> Error {
        self.layer = layer;
        self
    }

    /// The machine-matchable classification.
    pub fn kind(&self) -> ErrorKind {
        self.kind
    }

    /// The crate/layer that raised the error (e.g. `"eddie-serve"`).
    pub fn layer(&self) -> &'static str {
        self.layer
    }

    /// The human-readable message (without the layer prefix).
    pub fn message(&self) -> &str {
        &self.message
    }

    /// Whether a retry (reconnect, resend) could plausibly succeed.
    /// Used by the self-healing client to separate transient transport
    /// failures from protocol-level death sentences.
    pub fn is_retryable(&self) -> bool {
        matches!(
            self.kind,
            ErrorKind::Io
                | ErrorKind::Timeout
                | ErrorKind::Backpressure
                | ErrorKind::TruncatedStream
        )
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.layer, self.message)
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        self.source
            .as_deref()
            .map(|s| s as &(dyn std::error::Error + 'static))
    }
}

impl From<crate::MonitorError> for Error {
    fn from(e: crate::MonitorError) -> Error {
        Error::with_source(ErrorKind::EmptyModel, "eddie-core", e.to_string(), e)
    }
}

impl From<crate::TrainError> for Error {
    fn from(e: crate::TrainError) -> Error {
        Error::with_source(ErrorKind::InvalidConfig, "eddie-core", e.to_string(), e)
    }
}

impl From<eddie_dsp::DspError> for Error {
    fn from(e: eddie_dsp::DspError) -> Error {
        Error::with_source(ErrorKind::InvalidConfig, "eddie-dsp", e.to_string(), e)
    }
}

impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Error {
        let kind = Error::from_io_kind(e.kind());
        Error::with_source(kind, "io", e.to_string(), e)
    }
}

impl From<eddie_codec::Error> for Error {
    fn from(e: eddie_codec::Error) -> Error {
        Error::with_source(ErrorKind::Serialization, "eddie-codec", e.to_string(), e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_survives_construction_and_display_carries_layer() {
        let e = Error::new(ErrorKind::UnknownModel, "eddie-serve", "no model `x`");
        assert_eq!(e.kind(), ErrorKind::UnknownModel);
        assert_eq!(e.layer(), "eddie-serve");
        assert_eq!(e.to_string(), "eddie-serve: no model `x`");
        assert!(std::error::Error::source(&e).is_none());
    }

    #[test]
    fn source_chain_is_walkable() {
        let io = std::io::Error::other("disk on fire");
        let e = Error::with_source(ErrorKind::Io, "eddie-store", "spill write failed", io);
        let src = std::error::Error::source(&e).expect("has a source");
        assert!(src.to_string().contains("disk on fire"));
    }

    #[test]
    fn io_errors_classify_by_io_kind() {
        let timeout = std::io::Error::new(std::io::ErrorKind::TimedOut, "t");
        assert_eq!(Error::from(timeout).kind(), ErrorKind::Timeout);
        let eof = std::io::Error::new(std::io::ErrorKind::UnexpectedEof, "e");
        assert_eq!(Error::from(eof).kind(), ErrorKind::TruncatedStream);
        let other = std::io::Error::new(std::io::ErrorKind::PermissionDenied, "p");
        assert_eq!(Error::from(other).kind(), ErrorKind::Io);
    }

    #[test]
    fn retryability_separates_transport_from_protocol() {
        for kind in [ErrorKind::Io, ErrorKind::Timeout, ErrorKind::Backpressure] {
            assert!(Error::new(kind, "t", "m").is_retryable(), "{kind}");
        }
        for kind in [
            ErrorKind::ProtocolViolation,
            ErrorKind::UnknownModel,
            ErrorKind::ResumeGap,
            ErrorKind::UnknownToken,
            ErrorKind::EmptyModel,
        ] {
            assert!(!Error::new(kind, "t", "m").is_retryable(), "{kind}");
        }
    }

    #[test]
    fn monitor_error_maps_to_empty_model() {
        let e: Error = crate::MonitorError::EmptyModel.into();
        assert_eq!(e.kind(), ErrorKind::EmptyModel);
        assert!(std::error::Error::source(&e).is_some());
    }

    #[test]
    fn kind_names_are_stable_snake_case() {
        assert_eq!(ErrorKind::EmptyModel.as_str(), "empty_model");
        assert_eq!(ErrorKind::ResumeGap.as_str(), "resume_gap");
        assert_eq!(ErrorKind::Serialization.to_string(), "serialization");
    }
}
