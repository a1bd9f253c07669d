//! Memory-bounded session storage for the EDDIE reproduction: the
//! tier that lets the fleet scale past what RAM holds.
//!
//! EDDIE (Sehatbakhsh et al., ISCA 2017) monitors one program per
//! device; a fleet deployment monitors *many* devices, and every idle
//! session keeps its full window history and kernel cache resident.
//! Sessions of one program already share its `TrainedModel` through
//! the `Arc` their caller hands out, so what grows with the fleet is
//! the per-session state. This crate is the storage tier beneath
//! `eddie-stream`'s `Fleet` that bounds it, in two pillars:
//!
//! * **Cold parking** — [`SessionStore::park`] spills an idle session's
//!   serialized snapshot to an append-compacted spill log, scratch
//!   space that only the open store reads back;
//!   [`SessionStore::read_parked`] + [`SessionStore::confirm_thaw`]
//!   bring it back on the next chunk or a `Resume`. The kernel cache is
//!   not spilled — it rebuilds on first use after thaw — and a
//!   park→thaw→replay stream is byte-identical to never having parked.
//! * **Accounting** — the [`MemoryBudget`] ledger keeps the books
//!   (`resident + parked == added − evicted`), byte gauges, and
//!   park/thaw latency histograms in a registry of its own, which the
//!   serve `Stats` frame renders for the store behind the server's
//!   fleet.
//!
//! The store handles **opaque payloads**: it never deserialises a
//! session itself. `eddie-stream` owns the session types and drives
//! park/thaw policy (LRU by last-chunk activity against
//! [`StoreConfig::resident_budget`]); this crate owns bytes, files, and
//! arithmetic.
//!
//! # Example
//!
//! ```
//! use eddie_store::{SessionStore, StoreConfig};
//!
//! let dir = std::env::temp_dir().join(format!("eddie-store-doc-{}", std::process::id()));
//! let config = StoreConfig::builder(&dir).resident_budget(2).build().unwrap();
//! let mut store = SessionStore::open(config).unwrap();
//!
//! store.note_added(0, 1_000);
//! store.park(0, b"snapshot-bytes").unwrap();
//! assert!(store.is_parked(0));
//!
//! let payload = store.read_parked(0).unwrap().unwrap();
//! assert_eq!(payload, b"snapshot-bytes");
//! store.confirm_thaw(0, 1_000);
//!
//! let ledger = store.ledger_snapshot();
//! assert!(ledger.conserved());
//! assert_eq!(ledger.parks, 1);
//! assert_eq!(ledger.thaws, 1);
//! # let _ = std::fs::remove_dir_all(&dir);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod budget;
mod config;
mod spill;
mod store;

pub use budget::{LedgerSnapshot, MemoryBudget};
pub use config::{StoreConfig, StoreConfigBuilder};
pub use store::SessionStore;
