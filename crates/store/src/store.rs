//! The [`SessionStore`] facade the fleet plugs in: spill log + ledger
//! behind one handle.
//!
//! The store deliberately sits *below* the session layer: it parks and
//! thaws opaque serialized payloads keyed by the owner's session key
//! (the fleet's `DeviceId`, a server session's token), and never
//! deserialises them itself. That keeps the dependency arrow pointing
//! the right way (`eddie-stream` depends on `eddie-store`, not the
//! reverse) and means the store can spill anything the owner can
//! encode — today a `SessionSnapshot` in `eddie-codec` bytes, tomorrow
//! whatever the snapshot format evolves into.
//!
//! Ledger discipline: every event goes through exactly one
//! `note_*`/`park`/`confirm_thaw` call, which counts it; the fleet sets
//! residency from its session table ([`MemoryBudget::set_residency`]), and
//! `resident + parked == added − evicted` checks the two. Thaw is
//! two-phase — [`read_parked`](SessionStore::read_parked) then
//! [`confirm_thaw`](SessionStore::confirm_thaw) — so a payload that
//! fails to deserialize leaves the books (and the spill record)
//! untouched.

use eddie_core::Error;

use crate::budget::{LedgerSnapshot, MemoryBudget};
use crate::config::StoreConfig;
use crate::spill::SpillLog;

const SPILL_FILE: &str = "sessions.spill";
/// Spill files smaller than this are never compacted: compaction below
/// it costs more than the bytes it frees.
const COMPACT_MIN_BYTES: u64 = 64 * 1024;
/// Compact once dead bytes reach this percentage of the file.
const COMPACT_DEAD_RATIO_PCT: u32 = 50;

/// Memory-bounded session storage: cold parking to an append-compacted
/// spill log, and the ledger that counts what happens to sessions.
#[derive(Debug)]
pub struct SessionStore {
    config: StoreConfig,
    spill: SpillLog,
    ledger: MemoryBudget,
    synced_compactions: u64,
}

impl SessionStore {
    /// Opens the store: creates the spill directory and starts an
    /// empty spill log in it. A spill log left by an earlier store is
    /// emptied; nothing in it is read back.
    ///
    /// # Errors
    ///
    /// I/O errors, or [`ErrorKind::Serialization`](eddie_core::ErrorKind)
    /// when the spill file exists and is not a spill log (it is left
    /// untouched).
    pub fn open(config: StoreConfig) -> Result<SessionStore, Error> {
        std::fs::create_dir_all(&config.spill_dir).map_err(|e| {
            Error::with_source(
                Error::from_io_kind(e.kind()),
                "eddie-store",
                format!("create spill dir {}", config.spill_dir.display()),
                e,
            )
        })?;
        let spill = SpillLog::open(
            config.spill_dir.join(SPILL_FILE),
            COMPACT_MIN_BYTES,
            COMPACT_DEAD_RATIO_PCT,
        )?;
        let ledger = MemoryBudget::new();
        ledger.set_spill_bytes(spill.file_bytes());
        Ok(SessionStore {
            config,
            spill,
            ledger,
            synced_compactions: 0,
        })
    }

    /// The configuration the store was opened with.
    pub fn config(&self) -> &StoreConfig {
        &self.config
    }

    /// Maximum sessions the owner should keep resident.
    pub fn resident_budget(&self) -> usize {
        self.config.resident_budget
    }

    /// The accounting ledger.
    pub fn ledger(&self) -> &MemoryBudget {
        &self.ledger
    }

    /// A point-in-time copy of the ledger.
    pub fn ledger_snapshot(&self) -> LedgerSnapshot {
        self.ledger.snapshot()
    }

    /// A new session became resident.
    pub fn note_added(&self) {
        self.ledger.on_add();
    }

    /// The session under `key` left the store for good (device
    /// eviction). Works on both resident and parked sessions; a parked
    /// one's spill record is retired unread.
    pub fn note_evicted(&mut self, key: u64) {
        self.spill.remove(key);
        self.ledger.on_evict();
    }

    /// Parks the session under `key`: appends `payload` to the spill
    /// log and flips the ledger. On error the session is still resident and
    /// the ledger unchanged (the failure is counted).
    ///
    /// # Errors
    ///
    /// I/O errors appending to the spill log.
    pub fn park(&mut self, key: u64, payload: &[u8]) -> Result<(), Error> {
        match self.spill.append(key, payload) {
            Ok(()) => {
                self.ledger.on_park();
                self.sync_spill_gauges();
                Ok(())
            }
            Err(e) => {
                self.ledger.on_park_failure();
                self.sync_spill_gauges();
                Err(e)
            }
        }
    }

    /// Phase one of a thaw: reads the parked payload without changing
    /// any state. Returns `None` when `key` is not parked.
    ///
    /// # Errors
    ///
    /// I/O errors reading the spill log (counted as a thaw failure).
    pub fn read_parked(&mut self, key: u64) -> Result<Option<Vec<u8>>, Error> {
        match self.spill.read(key) {
            Ok(p) => Ok(p),
            Err(e) => {
                self.ledger.on_thaw_failure();
                Err(e)
            }
        }
    }

    /// Phase two of a thaw, after the payload deserialized and the
    /// session is resident again: retires the spill record and counts
    /// the thaw.
    pub fn confirm_thaw(&mut self, key: u64) {
        self.ledger.on_thaw();
        self.spill.remove(key);
    }

    /// The owner's thaw attempt failed after
    /// [`read_parked`](Self::read_parked) (deserialize or restore
    /// error): count it; the spill record stays live.
    pub fn note_thaw_failure(&self) {
        self.ledger.on_thaw_failure();
    }

    /// Whether `key` currently has a parked payload.
    pub fn is_parked(&self, key: u64) -> bool {
        self.spill.contains(key)
    }

    fn sync_spill_gauges(&mut self) {
        self.ledger.set_spill_bytes(self.spill.file_bytes());
        let c = self.spill.compactions();
        if c > self.synced_compactions {
            self.ledger.on_compactions(c - self.synced_compactions);
            self.synced_compactions = c;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("eddie-store-session-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn open(dir: &PathBuf) -> SessionStore {
        SessionStore::open(
            StoreConfig::builder(dir)
                .resident_budget(4)
                .build()
                .unwrap(),
        )
        .expect("open store")
    }

    #[test]
    fn park_thaw_evict_keeps_the_books_balanced() {
        let dir = tmpdir("books");
        let mut store = open(&dir);
        for _ in 0..6 {
            store.note_added();
        }
        store.park(0, b"payload-0").unwrap();
        store.park(1, b"payload-1").unwrap();
        assert!(store.is_parked(0) && store.is_parked(1));

        let payload = store.read_parked(0).unwrap().expect("parked");
        assert_eq!(payload, b"payload-0");
        store.confirm_thaw(0);
        assert!(!store.is_parked(0));

        store.note_evicted(1); // parked eviction retires its record
        assert!(!store.is_parked(1));
        store.note_evicted(5); // resident eviction
        let snap = store.ledger_snapshot();
        assert_eq!(
            (snap.added, snap.parks, snap.thaws, snap.evicted),
            (6, 2, 1, 2)
        );
        assert_eq!(snap.park_failures + snap.thaw_failures, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A store reopened on a used spill dir starts with empty books and
    /// nothing parked: a record of the earlier store is never adopted.
    #[test]
    fn reopen_starts_empty() {
        let dir = tmpdir("reopen");
        {
            let mut store = open(&dir);
            store.note_added();
            store.park(3, b"sleeper").unwrap();
        }
        let mut store = open(&dir);
        let snap = store.ledger_snapshot();
        assert_eq!((snap.added, snap.parked, snap.resident), (0, 0, 0));
        assert!(!store.is_parked(3));
        assert_eq!(store.read_parked(3).unwrap(), None);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
