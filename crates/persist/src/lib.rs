#![warn(missing_docs)]
#![warn(rustdoc::broken_intra_doc_links)]
//! `decss-persist` — warm-state persistence for the solve service.
//!
//! A restart of `decss serve` used to start cold: the
//! [`InstanceCache`](decss_service::InstanceCache) and the audited
//! [`ServiceLog`](decss_service::ServiceLog) died with the process, so
//! a fleet roll re-paid a full solve for every known fingerprint. This
//! crate snapshots the service's [`WarmState`] — ready cache entries
//! keyed by [`JobKey`](decss_service::JobKey), the complete-lifecycle
//! event tail, and the counters — into a single file and restores it on
//! the next start.
//!
//! The format is hand-rolled (like `decss-net`'s HTTP: no new
//! dependencies) and deliberately paranoid, because a snapshot file is
//! an *input from disk*, not trusted state:
//!
//! * **versioned** — an 8-byte magic (`DECSSNAP`) and a format version
//!   reject foreign and future files structurally
//!   ([`PersistError::BadMagic`] / [`PersistError::VersionMismatch`]);
//! * **length-prefixed** — the header declares the payload length, so a
//!   torn write surfaces as [`PersistError::Truncated`], never as a
//!   misparse;
//! * **checksummed** — a CRC-64 over the payload catches bit rot
//!   ([`PersistError::ChecksumMismatch`]) before any field is decoded;
//! * **atomic** — [`write_snapshot`] writes a sibling temp file, fsyncs
//!   it, and renames into place, so a crash mid-write leaves the
//!   previous snapshot intact.
//!
//! Every failure mode is a structured [`PersistError`]; hostile files
//! (truncated, bit-flipped, version-bumped, zero-length — see
//! `tests/hostile.rs`) must never panic, and the serving tier treats
//! any restore error as a clean cold start.
//!
//! The determinism contract rides on top: a restored service serves
//! reports **byte-identical** to a fresh solve modulo
//! [`NONDETERMINISTIC_FIELDS`](decss_solver::json::NONDETERMINISTIC_FIELDS),
//! pinned by the release-mode `restore_equivalence` suite.
//!
//! ```
//! use decss_persist::{read_snapshot, write_snapshot};
//! use decss_service::{ServiceConfig, SolveService};
//! use decss_solver::SolveRequest;
//! use std::sync::Arc;
//!
//! let dir = std::env::temp_dir().join("decss-persist-doc");
//! std::fs::create_dir_all(&dir).unwrap();
//! let path = dir.join("warm.snap");
//! let service = SolveService::new(ServiceConfig::default().workers(1));
//! let g = Arc::new(decss_graphs::gen::grid(4, 4, 10, 1));
//! let id = service.submit(Arc::clone(&g), SolveRequest::new("greedy"));
//! service.join(id).unwrap();
//! service.drain();
//! write_snapshot(&path, &service.export_warm_state()).unwrap();
//!
//! let restored = SolveService::new(ServiceConfig::default().workers(1));
//! restored.restore_warm_state(read_snapshot(&path).unwrap()).unwrap();
//! let replay = restored.submit(g, SolveRequest::new("greedy"));
//! assert!(restored.join(replay).unwrap().cache_hit);
//! ```

pub mod io;
pub mod snapshot;
pub mod wire;

pub use io::{read_snapshot, write_snapshot};
pub use snapshot::{decode_snapshot, encode_snapshot, FORMAT_VERSION, MAGIC};

use std::fmt;

// Re-export the state type the whole API speaks, so callers need not
// also depend on `decss-service` just to name it.
pub use decss_service::WarmState;

/// Why a snapshot could not be written or restored. Every variant is a
/// *structured* refusal — hostile bytes map to one of these, never to a
/// panic — and the serving tier maps any of them to a cold start.
#[derive(Clone, PartialEq, Debug)]
pub enum PersistError {
    /// The underlying filesystem operation failed (open, read, write,
    /// fsync, rename); the message carries the OS error.
    Io(String),
    /// The file is empty — a distinct, common torn-write shape worth
    /// naming apart from general truncation.
    ZeroLength,
    /// Fewer bytes than the header (or the header's declared payload
    /// length) requires.
    Truncated {
        /// Bytes the format needed.
        needed: usize,
        /// Bytes actually present.
        have: usize,
    },
    /// The first 8 bytes are not the `DECSSNAP` magic: not a snapshot.
    BadMagic,
    /// A snapshot from a different format generation.
    VersionMismatch {
        /// Version stamped in the file.
        found: u32,
        /// The single version this build reads.
        supported: u32,
    },
    /// The payload CRC-64 does not match the header: bit rot or
    /// tampering.
    ChecksumMismatch {
        /// Checksum stored in the header.
        stored: u64,
        /// Checksum computed over the payload.
        computed: u64,
    },
    /// The framing was intact but a payload field failed to decode
    /// (bad tag, bad UTF-8, an implausible length, trailing bytes).
    Malformed(String),
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Io(msg) => write!(f, "snapshot I/O failed: {msg}"),
            PersistError::ZeroLength => write!(f, "snapshot file is empty"),
            PersistError::Truncated { needed, have } => {
                write!(f, "snapshot truncated: needed {needed} bytes, have {have}")
            }
            PersistError::BadMagic => write!(f, "not a decss snapshot (bad magic)"),
            PersistError::VersionMismatch { found, supported } => {
                write!(
                    f,
                    "snapshot format v{found} unsupported (this build reads v{supported})"
                )
            }
            PersistError::ChecksumMismatch { stored, computed } => write!(
                f,
                "snapshot checksum mismatch (stored {stored:#018x}, computed {computed:#018x})"
            ),
            PersistError::Malformed(msg) => write!(f, "snapshot payload malformed: {msg}"),
        }
    }
}

impl std::error::Error for PersistError {}
