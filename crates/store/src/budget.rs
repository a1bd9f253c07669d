//! The `MemoryBudget` ledger: every session the store has ever seen is
//! accounted for, and the books must balance.
//!
//! The store's second pillar is bookkeeping you can assert on:
//! `resident + parked == added − evicted` at every quiescent point (the
//! conservation law the `store_gate` CI job checks), plus byte gauges
//! and park/thaw latency histograms for capacity planning. The ledger
//! owns its `eddie_store_*` metrics: it creates them in a
//! [`Registry`] it holds, so two stores in one process keep separate
//! books, and a server's `Stats` scrape renders
//! [`MemoryBudget::registry`] for the store behind its fleet.

use eddie_obs::{Counter, Gauge, Histogram, Registry};
use std::sync::Arc;

/// Owner-held metric bundle accounting for the store's sessions and
/// bytes. Cheap to clone handles out of; all methods take `&self`.
#[derive(Debug)]
pub struct MemoryBudget {
    registry: Registry,
    added: Arc<Counter>,
    evicted: Arc<Counter>,
    parks: Arc<Counter>,
    thaws: Arc<Counter>,
    park_failures: Arc<Counter>,
    thaw_failures: Arc<Counter>,
    compactions: Arc<Counter>,
    resident: Arc<Gauge>,
    parked: Arc<Gauge>,
    resident_bytes: Arc<Gauge>,
    spill_bytes: Arc<Gauge>,
    park_ns: Arc<Histogram>,
    thaw_ns: Arc<Histogram>,
}

/// A point-in-time copy of the ledger, safe to assert on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LedgerSnapshot {
    /// Sessions ever handed to the store.
    pub added: u64,
    /// Sessions removed for good (resident or parked at the time).
    pub evicted: u64,
    /// Park operations completed.
    pub parks: u64,
    /// Thaw operations completed.
    pub thaws: u64,
    /// Parks that failed (session stayed resident).
    pub park_failures: u64,
    /// Thaws that failed (session stayed parked).
    pub thaw_failures: u64,
    /// Spill-log compactions observed.
    pub compactions: u64,
    /// Sessions currently resident in RAM.
    pub resident: i64,
    /// Sessions currently parked in the spill log.
    pub parked: i64,
    /// Estimated bytes of resident session state.
    pub resident_bytes: i64,
    /// Bytes of the spill file (live + dead framing).
    pub spill_bytes: i64,
}

impl LedgerSnapshot {
    /// The conservation law: every added session is exactly one of
    /// resident, parked, or evicted.
    pub fn conserved(&self) -> bool {
        self.resident + self.parked == self.added as i64 - self.evicted as i64
    }

    /// Estimated resident bytes per resident session, `0.0` when none
    /// are resident — the headline number the soak budget asserts on.
    pub fn bytes_per_session(&self) -> f64 {
        if self.resident <= 0 {
            0.0
        } else {
            self.resident_bytes as f64 / self.resident as f64
        }
    }
}

impl MemoryBudget {
    /// Creates a zeroed ledger.
    pub fn new() -> MemoryBudget {
        let registry = Registry::new();
        MemoryBudget {
            added: registry.counter("eddie_store_sessions_added_total"),
            evicted: registry.counter("eddie_store_sessions_evicted_total"),
            parks: registry.counter("eddie_store_parks_total"),
            thaws: registry.counter("eddie_store_thaws_total"),
            park_failures: registry.counter("eddie_store_park_failures_total"),
            thaw_failures: registry.counter("eddie_store_thaw_failures_total"),
            compactions: registry.counter("eddie_store_compactions_total"),
            resident: registry.gauge("eddie_store_resident_sessions"),
            parked: registry.gauge("eddie_store_parked_sessions"),
            resident_bytes: registry.gauge("eddie_store_resident_bytes"),
            spill_bytes: registry.gauge("eddie_store_spill_bytes"),
            park_ns: registry.histogram("eddie_store_park_ns"),
            thaw_ns: registry.histogram("eddie_store_thaw_ns"),
            registry,
        }
    }

    /// The registry holding the ledger's `eddie_store_*` metrics.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// A session entered the store (resident).
    pub fn on_add(&self) {
        self.added.inc();
        self.resident.add(1);
    }

    /// A resident session was spilled.
    pub fn on_park(&self) {
        self.parks.inc();
        self.resident.sub(1);
        self.parked.add(1);
    }

    /// A parked session was restored to residency.
    pub fn on_thaw(&self) {
        self.thaws.inc();
        self.parked.sub(1);
        self.resident.add(1);
    }

    /// A park attempt failed; the session stays resident.
    pub fn on_park_failure(&self) {
        self.park_failures.inc();
    }

    /// A thaw attempt failed; the session stays parked.
    pub fn on_thaw_failure(&self) {
        self.thaw_failures.inc();
    }

    /// A resident session left the store for good.
    pub fn on_evict_resident(&self) {
        self.evicted.inc();
        self.resident.sub(1);
    }

    /// A parked session left the store for good.
    pub fn on_evict_parked(&self) {
        self.evicted.inc();
        self.parked.sub(1);
    }

    /// Spill-log compactions, forwarded from the log's own count.
    pub fn on_compactions(&self, n: u64) {
        self.compactions.add(n);
    }

    /// Records one park's end-to-end latency.
    pub fn record_park_ns(&self, ns: u64) {
        self.park_ns.record(ns);
    }

    /// Records one thaw's end-to-end latency.
    pub fn record_thaw_ns(&self, ns: u64) {
        self.thaw_ns.record(ns);
    }

    /// Sets the resident-bytes gauge (the store recomputes the total).
    pub fn set_resident_bytes(&self, bytes: u64) {
        self.resident_bytes.set(bytes as i64);
    }

    /// Sets the spill-file-size gauge.
    pub fn set_spill_bytes(&self, bytes: u64) {
        self.spill_bytes.set(bytes as i64);
    }

    /// Park latency histogram handle (for percentile reporting).
    pub fn park_ns(&self) -> &Histogram {
        &self.park_ns
    }

    /// Thaw latency histogram handle (for percentile reporting).
    pub fn thaw_ns(&self) -> &Histogram {
        &self.thaw_ns
    }

    /// A point-in-time copy of the books.
    pub fn snapshot(&self) -> LedgerSnapshot {
        LedgerSnapshot {
            added: self.added.value(),
            evicted: self.evicted.value(),
            parks: self.parks.value(),
            thaws: self.thaws.value(),
            park_failures: self.park_failures.value(),
            thaw_failures: self.thaw_failures.value(),
            compactions: self.compactions.value(),
            resident: self.resident.value(),
            parked: self.parked.value(),
            resident_bytes: self.resident_bytes.value(),
            spill_bytes: self.spill_bytes.value(),
        }
    }
}

impl Default for MemoryBudget {
    fn default() -> MemoryBudget {
        MemoryBudget::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifecycle_conserves_sessions() {
        let ledger = MemoryBudget::new();
        for _ in 0..10 {
            ledger.on_add();
        }
        for _ in 0..4 {
            ledger.on_park();
        }
        ledger.on_thaw();
        ledger.on_evict_resident();
        ledger.on_evict_parked();
        let snap = ledger.snapshot();
        assert_eq!(snap.added, 10);
        assert_eq!(snap.evicted, 2);
        assert_eq!(snap.resident, 6);
        assert_eq!(snap.parked, 2);
        assert!(snap.conserved());
    }

    #[test]
    fn bytes_per_session_handles_empty() {
        let ledger = MemoryBudget::new();
        assert_eq!(ledger.snapshot().bytes_per_session(), 0.0);
        ledger.on_add();
        ledger.on_add();
        ledger.set_resident_bytes(4096);
        let snap = ledger.snapshot();
        assert_eq!(snap.bytes_per_session(), 2048.0);
    }

    #[test]
    fn latency_histograms_record() {
        let ledger = MemoryBudget::new();
        ledger.record_park_ns(1_000);
        ledger.record_thaw_ns(2_000);
        assert_eq!(ledger.park_ns().snapshot().count, 1);
        assert_eq!(ledger.thaw_ns().snapshot().count, 1);
    }
}
