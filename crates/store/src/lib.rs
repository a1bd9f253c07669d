//! Memory-bounded model/session storage for the EDDIE reproduction:
//! the tier that lets the fleet scale past what RAM holds.
//!
//! EDDIE (Sehatbakhsh et al., ISCA 2017) monitors one program per
//! device; a fleet deployment monitors *many* devices, and the naive
//! runtime pays for each one twice — every `MonitorSession` duplicates
//! its program's `TrainedModel` reference sets, and every idle session
//! keeps its full window history and kernel cache resident. This crate
//! is the storage tier beneath `eddie-stream`'s `Fleet` that removes
//! both costs, in three pillars:
//!
//! * **Model dedup** — [`ModelStore`] interns `TrainedModel`s by
//!   content hash behind shared `Arc`s (copy-on-write: mutation means
//!   clone-out), so N sessions of the same program hold one model
//!   allocation. The content key hashes the model's `eddie-codec`
//!   encoding, which is exact to the bit.
//! * **Cold parking** — [`SessionStore::park`] spills an idle session's
//!   serialized snapshot to an append-compacted spill log, scratch
//!   space that only the open store reads back;
//!   [`SessionStore::read_parked`] + [`SessionStore::confirm_thaw`]
//!   bring it back on the next chunk or a `Resume`. The kernel cache is
//!   not spilled — it rebuilds on first use after thaw — and a
//!   park→thaw→replay stream is byte-identical to never having parked.
//! * **Accounting** — the [`MemoryBudget`] ledger keeps the books
//!   (`resident + parked == added − evicted`), byte gauges, and
//!   park/thaw latency histograms, published through the `eddie-obs`
//!   registry and therefore the serve `Stats` frames.
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
mod dedup;
mod spill;
mod store;

pub use budget::{LedgerSnapshot, MemoryBudget};
pub use config::{StoreConfig, StoreConfigBuilder};
pub use dedup::ModelStore;
pub use store::SessionStore;
