use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

use eddie_core::{Error, ErrorKind, MonitorEvent, TrainedModel};
use eddie_isa::RegionId;
use eddie_obs::{Counter, Histogram, JournalEvent, Registry, Timer};
use eddie_store::SessionStore;

use crate::{MonitorSession, SessionSnapshot, StreamEvent};

/// Handle to one session inside a [`Fleet`]. Ids are dense slot
/// indices: live devices never shift, so the ids [`Fleet::drain`]
/// returns are stable for as long as the device is registered. An
/// evicted device's slot is *reused* by a later registration (lowest
/// vacated index first), so churn — e.g. repeated migrate-out /
/// migrate-in of cluster sessions — does not grow the slot table; a
/// `DeviceId` is therefore only valid until its device is evicted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DeviceId(usize);

impl DeviceId {
    /// The dense index of this device (registration order).
    pub fn index(self) -> usize {
        self.0
    }
}

/// Ingress bounds of a [`Fleet`]: how much signal a device may queue
/// between drains before [`Fleet::push_chunk`] starts refusing chunks.
///
/// Construct via [`FleetConfig::builder`] (or take
/// [`FleetConfig::default`]); the struct is `#[non_exhaustive]`, so
/// new knobs are not breaking changes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub struct FleetConfig {
    /// Maximum queued (undrained) chunks per device.
    pub max_pending_chunks: usize,
    /// Maximum queued (undrained) samples per device, across chunks.
    pub max_pending_samples: usize,
}

impl Default for FleetConfig {
    /// 64 chunks / 1 MiSample per device — roomy enough for bursty
    /// ingest, small enough that a stalled drain surfaces as
    /// backpressure instead of unbounded memory.
    fn default() -> FleetConfig {
        FleetConfig {
            max_pending_chunks: 64,
            max_pending_samples: 1 << 20,
        }
    }
}

impl FleetConfig {
    /// Starts a builder seeded with the default bounds.
    pub fn builder() -> FleetConfigBuilder {
        FleetConfigBuilder {
            config: FleetConfig::default(),
        }
    }
}

/// Builder for [`FleetConfig`]: `with_*` setters, then a validated
/// [`build`](FleetConfigBuilder::build).
#[derive(Debug, Clone)]
pub struct FleetConfigBuilder {
    config: FleetConfig,
}

impl FleetConfigBuilder {
    /// Sets the per-device chunk bound (must be positive).
    pub fn with_max_pending_chunks(mut self, max_pending_chunks: usize) -> FleetConfigBuilder {
        self.config.max_pending_chunks = max_pending_chunks;
        self
    }

    /// Sets the per-device sample bound (must be positive).
    pub fn with_max_pending_samples(mut self, max_pending_samples: usize) -> FleetConfigBuilder {
        self.config.max_pending_samples = max_pending_samples;
        self
    }

    /// Validates and returns the config.
    ///
    /// # Errors
    ///
    /// Returns an error of kind
    /// [`ErrorKind::InvalidConfig`](eddie_core::ErrorKind::InvalidConfig)
    /// when either bound is zero (a fleet that can queue nothing would
    /// shed every chunk).
    pub fn build(self) -> Result<FleetConfig, eddie_core::Error> {
        if self.config.max_pending_chunks == 0 {
            return Err(eddie_core::Error::new(
                eddie_core::ErrorKind::InvalidConfig,
                "eddie-stream",
                "max_pending_chunks must be positive",
            ));
        }
        if self.config.max_pending_samples == 0 {
            return Err(eddie_core::Error::new(
                eddie_core::ErrorKind::InvalidConfig,
                "eddie-stream",
                "max_pending_samples must be positive",
            ));
        }
        Ok(self.config)
    }
}

/// Outcome of an ingress push — explicit backpressure instead of
/// blocking or unbounded buffering.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[must_use = "a Full result means the chunk was NOT accepted and must be retried or shed"]
pub enum PushResult {
    /// The chunk was queued; a later [`Fleet::drain`] will process it.
    Accepted,
    /// The device's ingress queue is at capacity; the chunk was *not*
    /// queued. Retry after draining, or shed the load.
    Full,
}

/// Load snapshot of one live device, from [`Fleet::stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeviceStats {
    /// The device this row describes.
    pub device: DeviceId,
    /// Queued (undrained) chunks.
    pub queued_chunks: usize,
    /// Queued (undrained) samples, across chunks.
    pub queued_samples: usize,
    /// Cumulative [`PushResult::Full`] rejections for this device.
    pub shed_chunks: u64,
    /// Cumulative samples in rejected chunks for this device.
    pub shed_samples: u64,
    /// STS windows the device's session has observed so far.
    pub windows_observed: usize,
    /// Whether the session's alarm is currently latched.
    pub alarm: bool,
}

/// Whole-fleet load snapshot, from [`Fleet::stats`].
///
/// The cumulative shed counters survive eviction: a device that was
/// rate-limited and later removed still shows up in
/// [`shed_chunks`](FleetStats::shed_chunks) /
/// [`shed_samples`](FleetStats::shed_samples), so a `Full` push always
/// leaves a trace an operator can see.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FleetStats {
    /// One row per *live* device, in [`DeviceId`] order.
    pub devices: Vec<DeviceStats>,
    /// Devices currently registered (live slots).
    pub active_sessions: usize,
    /// Slot-table size: the high-water mark of concurrently registered
    /// devices (vacated slots are reused by later registrations).
    pub total_registered: usize,
    /// Queued chunks across all live devices.
    pub queued_chunks: usize,
    /// Queued samples across all live devices.
    pub queued_samples: usize,
    /// Cumulative accepted chunks across the fleet's lifetime.
    pub accepted_chunks: u64,
    /// Cumulative samples in accepted chunks across the fleet's
    /// lifetime.
    pub accepted_samples: u64,
    /// Cumulative `Full` rejections across the fleet's lifetime,
    /// including devices since evicted.
    pub shed_chunks: u64,
    /// Cumulative samples in rejected chunks across the fleet's
    /// lifetime, including devices since evicted.
    pub shed_samples: u64,
}

/// What a parked session leaves behind in memory: the shared model
/// handle (needed to restore) plus the few scalars `stats()` and the
/// serve layer's `Finish` path read without forcing a thaw.
#[derive(Debug)]
struct ParkedMeta {
    model: Arc<TrainedModel>,
    windows_observed: usize,
    samples_seen: usize,
    current_region: RegionId,
    alarm: bool,
}

/// Where a device's session state lives right now.
#[derive(Debug)]
enum SessionState {
    /// In memory, ready to process chunks.
    Resident(Box<MonitorSession>),
    /// Spilled to the store's log; only [`ParkedMeta`] stays resident.
    Parked(ParkedMeta),
}

#[derive(Debug)]
struct Device {
    state: SessionState,
    queue: VecDeque<Vec<f32>>,
    queued_samples: usize,
    shed_chunks: u64,
    shed_samples: u64,
    /// Logical-tick of the device's last accepted chunk (or its
    /// registration) — the LRU key for budget parking. A logical
    /// counter, not wall time, so park decisions are a pure function
    /// of the push/drain sequence and the determinism gates can
    /// replay them.
    last_active: u64,
}

impl Device {
    fn windows_observed(&self) -> usize {
        match &self.state {
            SessionState::Resident(s) => s.windows_observed(),
            SessionState::Parked(m) => m.windows_observed,
        }
    }

    fn samples_seen(&self) -> usize {
        match &self.state {
            SessionState::Resident(s) => s.samples_seen(),
            SessionState::Parked(m) => m.samples_seen,
        }
    }

    fn alarm(&self) -> bool {
        match &self.state {
            SessionState::Resident(s) => s.alarm(),
            SessionState::Parked(m) => m.alarm,
        }
    }
}

/// Many monitor sessions behind one bounded ingress API, drained in
/// parallel across the [`eddie_exec`] worker pool.
///
/// The fleet separates the two sides of a monitoring service:
///
/// * the *ingress* side calls [`push_chunk`](Fleet::push_chunk) as
///   samples arrive — cheap (one queue append), non-blocking, and
///   backpressure-aware;
/// * the *processing* side calls [`drain`](Fleet::drain) — every queued
///   chunk is pushed through its session, with the devices that have
///   queued chunks sharded across the worker pool
///   ([`eddie_exec::par_map_mut`]); idle devices cost nothing.
///
/// Each device's chunks are processed in arrival order by exactly one
/// worker per drain, and results are collected in device order, so the
/// emitted events are byte-identical for every `EDDIE_THREADS` value —
/// the same determinism contract as the batch pipeline.
///
/// Long-lived services additionally need devices to *leave*:
/// [`remove_session`](Fleet::remove_session) evicts a disconnected
/// device (its queued chunks are discarded, its slot vacated for the
/// next registration to reuse), and [`stats`](Fleet::stats) reports
/// per-device load plus the cumulative shed counts that explicit
/// backpressure produces.
#[derive(Debug)]
pub struct Fleet {
    devices: Vec<Option<Device>>,
    /// Vacated slot indices, kept sorted descending so `pop` hands the
    /// lowest index to the next registration.
    free_slots: Vec<usize>,
    config: FleetConfig,
    /// The fleet's `eddie_stream_*` books, kept whether or not
    /// observability is installed: the fleet owns them, `stats()`
    /// reads them and [`render_metrics`](Fleet::render_metrics)
    /// renders them, so two fleets in one process never share a
    /// series.
    registry: Registry,
    shed_chunks: Arc<Counter>,
    shed_samples: Arc<Counter>,
    accepted_chunks: Arc<Counter>,
    accepted_samples: Arc<Counter>,
    events_emitted: Arc<Counter>,
    /// Drain latency, recorded only while `eddie_obs::enabled()`.
    drain_ns: Arc<Histogram>,
    /// The optional cold-storage tier. `None` (plain [`Fleet::new`])
    /// keeps every session resident forever — bit-identical to the
    /// pre-store behaviour.
    store: Option<SessionStore>,
    /// Logical clock driving the LRU: bumped once per accepted chunk
    /// and per registration.
    tick: u64,
}

impl Fleet {
    /// Creates an empty fleet with the given ingress bounds.
    pub fn new(config: FleetConfig) -> Fleet {
        Fleet::build(config, None)
    }

    /// Creates a fleet backed by a cold-storage tier: sessions beyond
    /// the store's resident budget are parked (spilled to disk) at the
    /// end of each [`drain`](Fleet::drain), least-recently-active
    /// first, and transparently thawed on their next chunk.
    pub fn with_store(config: FleetConfig, store: SessionStore) -> Fleet {
        Fleet::build(config, Some(store))
    }

    fn build(config: FleetConfig, store: Option<SessionStore>) -> Fleet {
        let registry = Registry::new();
        Fleet {
            devices: Vec::new(),
            free_slots: Vec::new(),
            config,
            shed_chunks: registry.counter("eddie_stream_chunks_shed_total"),
            shed_samples: registry.counter("eddie_stream_samples_shed_total"),
            accepted_chunks: registry.counter("eddie_stream_chunks_accepted_total"),
            accepted_samples: registry.counter("eddie_stream_samples_accepted_total"),
            events_emitted: registry.counter("eddie_stream_events_emitted_total"),
            drain_ns: registry.histogram("eddie_stream_drain_batch_ns"),
            registry,
            store,
            tick: 0,
        }
    }

    /// Registers a session and returns its device handle, reusing the
    /// lowest vacated slot if an earlier device was evicted.
    pub fn add_session(&mut self, session: MonitorSession) -> DeviceId {
        let index = self.free_slots.pop().unwrap_or(self.devices.len());
        if let Some(store) = self.store.as_mut() {
            store.note_added(index as u64, session.approx_bytes() as u64);
        }
        if let Some(o) = eddie_obs::global() {
            o.journal().record(JournalEvent::SessionRegistered {
                device: index as u64,
            });
        }
        self.tick += 1;
        let device = Device {
            state: SessionState::Resident(Box::new(session)),
            queue: VecDeque::new(),
            queued_samples: 0,
            shed_chunks: 0,
            shed_samples: 0,
            last_active: self.tick,
        };
        if index == self.devices.len() {
            self.devices.push(Some(device));
        } else {
            self.devices[index] = Some(device);
        }
        DeviceId(index)
    }

    /// Evicts `device`, returning its session (for a final snapshot)
    /// or `None` if it was already removed. Queued chunks are
    /// discarded; the device's shed counts remain in the fleet-wide
    /// totals of [`stats`](Fleet::stats). Ids of other devices do not
    /// shift; the vacated slot is reused by a later registration, so
    /// churn does not grow the slot table.
    ///
    /// A cold-parked device is thawed first so the caller still gets
    /// the session back; if that restore fails the device is evicted
    /// anyway (its spill record retired, the failure counted in the
    /// store ledger) and `None` is returned.
    pub fn remove_session(&mut self, device: DeviceId) -> Option<MonitorSession> {
        if self.is_parked(device) {
            let _ = self.thaw(device);
        }
        let removed = self.devices.get_mut(device.0).and_then(Option::take)?;
        if let Some(store) = self.store.as_mut() {
            store.note_evicted(device.0 as u64);
        }
        self.free_slots.push(device.0);
        self.free_slots.sort_unstable_by(|a, b| b.cmp(a));
        if let Some(o) = eddie_obs::global() {
            o.journal().record(JournalEvent::SessionEvicted {
                device: device.0 as u64,
            });
        }
        match removed.state {
            SessionState::Resident(s) => Some(*s),
            SessionState::Parked(_) => None,
        }
    }

    /// Whether `device` is currently registered (not evicted).
    pub fn contains(&self, device: DeviceId) -> bool {
        matches!(self.devices.get(device.0), Some(Some(_)))
    }

    /// Number of live (non-evicted) devices.
    pub fn len(&self) -> usize {
        self.devices.iter().filter(|d| d.is_some()).count()
    }

    /// Whether the fleet has no live devices.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Size of the slot table — the high-water mark of concurrently
    /// registered devices (vacated slots are reused, not dropped).
    pub fn registered(&self) -> usize {
        self.devices.len()
    }

    /// The session of `device`, for inspection (alarm state, window
    /// counts, snapshots).
    ///
    /// # Panics
    ///
    /// Panics if `device` was never registered, has been evicted, or is
    /// currently cold-parked. Parked-tolerant callers should use
    /// [`windows_observed`](Fleet::windows_observed) /
    /// [`alarm`](Fleet::alarm) /
    /// [`snapshot_session`](Fleet::snapshot_session), or
    /// [`thaw`](Fleet::thaw) first.
    pub fn session(&self, device: DeviceId) -> &MonitorSession {
        match &self.device(device).state {
            SessionState::Resident(s) => s,
            SessionState::Parked(_) => {
                panic!("device {} is cold-parked; thaw it first", device.0)
            }
        }
    }

    /// Queued (undrained) chunks of `device`.
    ///
    /// # Panics
    ///
    /// Panics if `device` was never registered or has been evicted.
    pub fn pending_chunks(&self, device: DeviceId) -> usize {
        self.device(device).queue.len()
    }

    /// Queued (undrained) samples of `device`.
    ///
    /// # Panics
    ///
    /// Panics if `device` was never registered or has been evicted.
    pub fn pending_samples(&self, device: DeviceId) -> usize {
        self.device(device).queued_samples
    }

    /// Queued (undrained) chunks across all live devices.
    pub fn total_pending_chunks(&self) -> usize {
        self.live().map(|(_, d)| d.queue.len()).sum()
    }

    /// A point-in-time load snapshot: per-device queue depths and
    /// session progress, plus the cumulative accepted/shed counts.
    pub fn stats(&self) -> FleetStats {
        let mut out = FleetStats::default();
        out.devices.extend(self.live().map(|(i, d)| DeviceStats {
            device: DeviceId(i),
            queued_chunks: d.queue.len(),
            queued_samples: d.queued_samples,
            shed_chunks: d.shed_chunks,
            shed_samples: d.shed_samples,
            windows_observed: d.windows_observed(),
            alarm: d.alarm(),
        }));
        out.active_sessions = out.devices.len();
        out.total_registered = self.devices.len();
        out.queued_chunks = out.devices.iter().map(|d| d.queued_chunks).sum();
        out.queued_samples = out.devices.iter().map(|d| d.queued_samples).sum();
        out.accepted_chunks = self.accepted_chunks.value();
        out.accepted_samples = self.accepted_samples.value();
        out.shed_chunks = self.shed_chunks.value();
        out.shed_samples = self.shed_samples.value();
        out
    }

    /// The fleet's `eddie_stream_*` metrics in the Prometheus text
    /// format, followed by the attached store's `eddie_store_*` ledger.
    /// The queue-depth and session gauges are read from
    /// [`stats`](Fleet::stats) here, at scrape time, so pushes, drains
    /// and evictions do not pay to keep them current.
    pub fn render_metrics(&self) -> String {
        let stats = self.stats();
        for (name, value) in [
            ("eddie_stream_queued_chunks", stats.queued_chunks),
            ("eddie_stream_queued_samples", stats.queued_samples),
            ("eddie_stream_active_sessions", stats.active_sessions),
        ] {
            self.registry.gauge(name).set(value as i64);
        }
        let mut text = self.registry.render_prometheus();
        if let Some(store) = &self.store {
            text.push_str(&store.ledger().registry().render_prometheus());
        }
        text
    }

    /// Live *resident* sessions in [`DeviceId`] order, without building
    /// [`DeviceStats`] rows — for callers (e.g. snapshot persistence)
    /// that only need the sessions themselves. Cold-parked devices are
    /// skipped; use [`snapshot_session`](Fleet::snapshot_session) over
    /// [`live_devices`](Fleet::live_devices) to cover them too.
    pub fn sessions(&self) -> impl Iterator<Item = (DeviceId, &MonitorSession)> {
        self.live().filter_map(|(i, d)| match &d.state {
            SessionState::Resident(s) => Some((DeviceId(i), &**s)),
            SessionState::Parked(_) => None,
        })
    }

    /// Offers a signal chunk to `device`'s ingress queue.
    ///
    /// At capacity it returns [`PushResult::Full`] without queueing:
    /// queued work is never discarded, so combined with a resending
    /// transport (the serve layer's `Busy` + go-back-N) nothing is lost
    /// and the drained event stream stays byte-identical to the batch
    /// pipeline. The caller decides whether to retry after a drain or
    /// shed the chunk. Every refused chunk is counted in the device's
    /// and the fleet's shed statistics. Empty chunks are accepted and
    /// ignored.
    ///
    /// A cold-parked device is thawed before its chunk is queued; a
    /// thaw failure (unreadable spill record) is reported as
    /// [`PushResult::Full`] so a resending transport retries instead of
    /// losing the chunk, and is counted in the store ledger.
    ///
    /// # Panics
    ///
    /// Panics if `device` was never registered or has been evicted.
    pub fn push_chunk(&mut self, device: DeviceId, chunk: Vec<f32>) -> PushResult {
        let bounds = self.config;
        {
            let d = self.devices[device.0]
                .as_mut()
                .expect("device has been evicted from the fleet");
            if chunk.is_empty() {
                return PushResult::Accepted;
            }
            if matches!(d.state, SessionState::Parked(_)) && self.thaw(device).is_err() {
                return PushResult::Full;
            }
        }
        let d = self.devices[device.0]
            .as_mut()
            .expect("device has been evicted from the fleet");
        if d.queue.len() >= bounds.max_pending_chunks
            || d.queued_samples + chunk.len() > bounds.max_pending_samples
        {
            d.shed_chunks += 1;
            d.shed_samples += chunk.len() as u64;
            self.shed_chunks.inc();
            self.shed_samples.add(chunk.len() as u64);
            if let Some(o) = eddie_obs::global() {
                o.journal().record(JournalEvent::ChunkShed {
                    device: device.0 as u64,
                    samples: chunk.len() as u64,
                });
            }
            return PushResult::Full;
        }
        d.queued_samples += chunk.len();
        self.tick += 1;
        d.last_active = self.tick;
        self.accepted_chunks.inc();
        self.accepted_samples.add(chunk.len() as u64);
        d.queue.push_back(chunk);
        PushResult::Accepted
    }

    /// Processes every queued chunk, sharding the devices that have
    /// queued chunks across the worker pool; idle and parked devices
    /// are not visited. Returns, in device order, each such device with
    /// the events it emitted (empty when its chunks completed no
    /// window). A drain with nothing queued returns an empty vector.
    pub fn drain(&mut self) -> Vec<(DeviceId, Vec<StreamEvent>)> {
        let span = Timer::start(eddie_obs::enabled().then_some(self.drain_ns.as_ref()));
        let mut ready: Vec<(usize, &mut Device)> = self
            .devices
            .iter_mut()
            .enumerate()
            .filter_map(|(i, slot)| slot.as_mut().map(|d| (i, d)))
            .filter(|(_, d)| !d.queue.is_empty())
            .collect();
        let drained = eddie_exec::par_map_mut(&mut ready, |_, (i, d)| {
            let session = match &mut d.state {
                SessionState::Resident(s) => s,
                // Parking requires an empty queue and pushes thaw
                // first, so a parked device has nothing to process.
                SessionState::Parked(m) => return (*i, m.current_region, Vec::new()),
            };
            let pre_region = session.current_region();
            let mut events = Vec::new();
            while let Some(chunk) = d.queue.pop_front() {
                d.queued_samples -= chunk.len();
                events.extend(session.push(&chunk));
            }
            (*i, pre_region, events)
        });
        let mut out = Vec::with_capacity(drained.len());
        for (i, pre_region, events) in drained {
            // Journal after the parallel section, in device order, so
            // the record sequence is identical for every worker count.
            if let Some(o) = eddie_obs::global() {
                let journal = o.journal();
                let mut tracked = pre_region;
                for ev in &events {
                    if let MonitorEvent::RegionChange(to) = ev.event {
                        journal.record(JournalEvent::RegionTransition {
                            device: i as u64,
                            window: ev.window as u64,
                            from: u64::from(tracked.index()),
                            to: u64::from(to.index()),
                        });
                    }
                    if ev.event == MonitorEvent::Anomaly {
                        journal.record(JournalEvent::AnomalyRaised {
                            device: i as u64,
                            window: ev.window as u64,
                        });
                    }
                    tracked = ev.tracked;
                }
            }
            out.push((DeviceId(i), events));
        }
        self.events_emitted
            .add(out.iter().map(|(_, e)| e.len() as u64).sum());
        drop(span);
        self.enforce_budget();
        out
    }

    /// Whether `device` is currently cold-parked (registered, but its
    /// session state lives in the store's spill log).
    pub fn is_parked(&self, device: DeviceId) -> bool {
        matches!(
            self.devices.get(device.0).and_then(Option::as_ref),
            Some(Device {
                state: SessionState::Parked(_),
                ..
            })
        )
    }

    /// Number of currently cold-parked devices.
    pub fn parked_count(&self) -> usize {
        self.live()
            .filter(|(_, d)| matches!(d.state, SessionState::Parked(_)))
            .count()
    }

    /// STS windows `device`'s session has observed, whether resident or
    /// parked — `None` if the device was never registered or has been
    /// evicted.
    pub fn windows_observed(&self, device: DeviceId) -> Option<usize> {
        self.devices
            .get(device.0)
            .and_then(Option::as_ref)
            .map(Device::windows_observed)
    }

    /// Signal samples `device`'s session has consumed, whether resident
    /// or parked — `None` if never registered or evicted.
    pub fn samples_seen(&self, device: DeviceId) -> Option<usize> {
        self.devices
            .get(device.0)
            .and_then(Option::as_ref)
            .map(Device::samples_seen)
    }

    /// Whether `device`'s alarm is latched, whether resident or parked
    /// — `None` if never registered or evicted.
    pub fn alarm(&self, device: DeviceId) -> Option<bool> {
        self.devices
            .get(device.0)
            .and_then(Option::as_ref)
            .map(Device::alarm)
    }

    /// Live device ids in order — both resident and parked.
    pub fn live_devices(&self) -> Vec<DeviceId> {
        self.live().map(|(i, _)| DeviceId(i)).collect()
    }

    /// A point-in-time copy of the store ledger, if a store is
    /// attached.
    pub fn ledger_snapshot(&self) -> Option<eddie_store::LedgerSnapshot> {
        self.store.as_ref().map(SessionStore::ledger_snapshot)
    }

    /// Captures `device`'s session snapshot without changing its
    /// residency: a resident session is snapshotted directly, a parked
    /// one has its spill payload parsed in place (and stays parked).
    ///
    /// # Errors
    ///
    /// I/O errors reading the spill log and
    /// [`ErrorKind::CorruptSnapshot`] for an unparseable payload.
    ///
    /// # Panics
    ///
    /// Panics if `device` was never registered or has been evicted.
    pub fn snapshot_session(&mut self, device: DeviceId) -> Result<SessionSnapshot, Error> {
        match &self.device(device).state {
            SessionState::Resident(s) => Ok(s.snapshot()),
            SessionState::Parked(_) => {
                let payload = self.read_parked_payload(device.0)?;
                parse_parked_snapshot(&payload)
            }
        }
    }

    /// Explicitly parks `device` now (tests, benchmarks, and operators
    /// draining a host). Returns `Ok(false)` when there is nothing to
    /// do: no store attached, already parked, or the device still has
    /// queued chunks (parking only applies to idle devices).
    ///
    /// # Errors
    ///
    /// Serialization or spill-append errors; the session stays
    /// resident and the failure is counted in the store ledger.
    ///
    /// # Panics
    ///
    /// Panics if `device` was never registered or has been evicted.
    pub fn park(&mut self, device: DeviceId) -> Result<bool, Error> {
        let _ = self.device(device);
        self.park_slot(device.0)
    }

    /// Restores a cold-parked `device` to residency. A no-op `Ok` when
    /// the device is already resident or no store is attached.
    ///
    /// # Errors
    ///
    /// I/O errors reading the spill log, [`ErrorKind::CorruptSnapshot`]
    /// for an unparseable payload, and restore errors from
    /// [`MonitorSession::restore`]. The device stays parked (and its
    /// spill record live) on error; every failure is counted in the
    /// store ledger.
    ///
    /// # Panics
    ///
    /// Panics if `device` was never registered or has been evicted.
    pub fn thaw(&mut self, device: DeviceId) -> Result<(), Error> {
        let index = device.0;
        if !matches!(self.device(device).state, SessionState::Parked(_)) {
            return Ok(());
        }
        let started = Instant::now();
        let payload = self.read_parked_payload(index)?;
        let store = self.store.as_mut().expect("parked device implies a store");
        let snapshot = match parse_parked_snapshot(&payload) {
            Ok(s) => s,
            Err(e) => {
                store.note_thaw_failure();
                return Err(e);
            }
        };
        let d = self.devices[index].as_mut().expect("checked live above");
        let SessionState::Parked(meta) = &d.state else {
            unreachable!("checked parked above");
        };
        let session = match MonitorSession::restore(meta.model.clone(), snapshot) {
            Ok(s) => s,
            Err(e) => {
                store.note_thaw_failure();
                return Err(e);
            }
        };
        let bytes = session.approx_bytes() as u64;
        d.state = SessionState::Resident(Box::new(session));
        store.confirm_thaw(index as u64, bytes);
        store
            .ledger()
            .record_thaw_ns(started.elapsed().as_nanos() as u64);
        if let Some(o) = eddie_obs::global() {
            o.journal().record(JournalEvent::SessionThawed {
                device: index as u64,
            });
        }
        Ok(())
    }

    /// Reads and returns the spill payload of the parked device at
    /// `index`, counting read failures in the ledger.
    fn read_parked_payload(&mut self, index: usize) -> Result<Vec<u8>, Error> {
        let store = self.store.as_mut().expect("parked device implies a store");
        store.read_parked(index as u64)?.ok_or_else(|| {
            Error::new(
                ErrorKind::CorruptSnapshot,
                "eddie-stream",
                "parked device has no spill record",
            )
        })
    }

    /// Parks the idle resident device at `index`, if any.
    fn park_slot(&mut self, index: usize) -> Result<bool, Error> {
        let Some(store) = self.store.as_mut() else {
            return Ok(false);
        };
        let Some(d) = self.devices.get_mut(index).and_then(Option::as_mut) else {
            return Ok(false);
        };
        let SessionState::Resident(session) = &d.state else {
            return Ok(false);
        };
        if !d.queue.is_empty() {
            return Ok(false);
        }
        let started = Instant::now();
        store.park(index as u64, &session.snapshot().to_bytes())?;
        store
            .ledger()
            .record_park_ns(started.elapsed().as_nanos() as u64);
        let meta = ParkedMeta {
            model: session.model().clone(),
            windows_observed: session.windows_observed(),
            samples_seen: session.samples_seen(),
            current_region: session.current_region(),
            alarm: session.alarm(),
        };
        d.state = SessionState::Parked(meta);
        if let Some(o) = eddie_obs::global() {
            o.journal().record(JournalEvent::SessionColdParked {
                device: index as u64,
            });
        }
        Ok(true)
    }

    /// Refreshes resident-byte estimates and parks least-recently
    /// active idle devices until the resident count is inside the
    /// store's budget. Runs at the end of every drain; with no store
    /// attached it is a no-op. Victims are chosen by
    /// `(last_active, slot)` ascending — a pure function of the
    /// push/drain sequence, so the park schedule is identical for
    /// every `EDDIE_THREADS` value.
    fn enforce_budget(&mut self) {
        let Some(store) = self.store.as_mut() else {
            return;
        };
        let mut resident_total = 0usize;
        // (last_active, slot) of parkable devices: resident with an
        // empty queue.
        let mut candidates: Vec<(u64, usize)> = Vec::new();
        for (i, slot) in self.devices.iter().enumerate() {
            let Some(d) = slot else { continue };
            if let SessionState::Resident(session) = &d.state {
                resident_total += 1;
                store.note_resident_bytes(i as u64, session.approx_bytes() as u64);
                if d.queue.is_empty() {
                    candidates.push((d.last_active, i));
                }
            }
        }
        let budget = store.resident_budget();
        if resident_total <= budget {
            return;
        }
        let excess = resident_total - budget;
        candidates.sort_unstable();
        let victims: Vec<usize> = candidates.iter().take(excess).map(|&(_, i)| i).collect();
        for index in victims {
            // Best effort: a failed park leaves the session resident
            // and the failure in the ledger; the next drain retries.
            let _ = self.park_slot(index);
        }
    }

    fn device(&self, device: DeviceId) -> &Device {
        self.devices
            .get(device.0)
            .and_then(Option::as_ref)
            .expect("device has been evicted from the fleet")
    }

    fn live(&self) -> impl Iterator<Item = (usize, &Device)> {
        self.devices
            .iter()
            .enumerate()
            .filter_map(|(i, slot)| slot.as_ref().map(|d| (i, d)))
    }
}

/// Decodes a spill payload back into a [`SessionSnapshot`].
fn parse_parked_snapshot(payload: &[u8]) -> Result<SessionSnapshot, Error> {
    SessionSnapshot::from_bytes(payload).map_err(|e| {
        Error::with_source(
            ErrorKind::CorruptSnapshot,
            "eddie-stream",
            "parse parked session snapshot",
            e,
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SessionSnapshot;
    use std::sync::Arc;

    use eddie_cfg::RegionGraph;
    use eddie_core::{train_from_labeled, EddieConfig, LabeledRun, Sts, TrainedModel};
    use eddie_dsp::Peak;
    use eddie_isa::{ProgramBuilder, Reg, RegionId};

    fn tiny_model() -> Arc<TrainedModel> {
        let mut b = ProgramBuilder::new();
        let (i, n) = (Reg::R1, Reg::R2);
        b.li(n, 8).li(i, 0);
        b.region_enter(RegionId::new(0));
        let top = b.label_here("t");
        b.addi(i, i, 1).blt_label(i, n, top);
        b.region_exit(RegionId::new(0));
        b.halt();
        let graph = RegionGraph::from_program(&b.build().unwrap()).unwrap();
        let run = LabeledRun {
            stss: (0..60)
                .map(|w| Sts {
                    index: w,
                    start_sample: w,
                    peaks: vec![Peak {
                        bin: 1,
                        freq_hz: 100.0 + ((w * 7) % 5) as f64 * 0.5,
                        power: 1.0,
                        fraction: 0.5,
                    }],
                    centroid_hz: 100.0,
                    spread_hz: 1.0,
                })
                .collect(),
            labels: vec![RegionId::new(0); 60],
        };
        Arc::new(train_from_labeled(&[run], &graph, &EddieConfig::quick()).unwrap())
    }

    fn session(model: &Arc<TrainedModel>) -> MonitorSession {
        MonitorSession::new(model.clone(), 1000.0).unwrap()
    }

    /// The events `dev` emitted in one drain's result (empty when the
    /// drain did not visit it).
    fn events_of(drained: &[(DeviceId, Vec<StreamEvent>)], dev: DeviceId) -> &[StreamEvent] {
        drained
            .iter()
            .find(|(d, _)| *d == dev)
            .map_or(&[], |(_, e)| e.as_slice())
    }

    fn bounds(chunks: usize, samples: usize) -> FleetConfig {
        FleetConfig::builder()
            .with_max_pending_chunks(chunks)
            .with_max_pending_samples(samples)
            .build()
            .unwrap()
    }

    #[test]
    fn backpressure_reports_full_instead_of_growing() {
        let model = tiny_model();
        let mut fleet = Fleet::new(bounds(2, 1000));
        let dev = fleet.add_session(session(&model));

        assert_eq!(fleet.push_chunk(dev, vec![0.0; 10]), PushResult::Accepted);
        assert_eq!(fleet.push_chunk(dev, vec![0.0; 10]), PushResult::Accepted);
        // Chunk bound hit.
        assert_eq!(fleet.push_chunk(dev, vec![0.0; 10]), PushResult::Full);
        assert_eq!(fleet.pending_chunks(dev), 2);
        assert_eq!(fleet.pending_samples(dev), 20);

        // Draining frees the queue.
        let _ = fleet.drain();
        assert_eq!(fleet.pending_chunks(dev), 0);
        assert_eq!(fleet.pending_samples(dev), 0);
        assert_eq!(fleet.push_chunk(dev, vec![0.0; 10]), PushResult::Accepted);
    }

    #[test]
    fn sample_bound_is_enforced_independently() {
        let model = tiny_model();
        let mut fleet = Fleet::new(bounds(100, 25));
        let dev = fleet.add_session(session(&model));
        assert_eq!(fleet.push_chunk(dev, vec![0.0; 20]), PushResult::Accepted);
        assert_eq!(fleet.push_chunk(dev, vec![0.0; 20]), PushResult::Full);
        assert_eq!(fleet.push_chunk(dev, vec![0.0; 5]), PushResult::Accepted);
    }

    #[test]
    fn full_does_not_enqueue_the_chunk() {
        let model = tiny_model();
        let mut fleet = Fleet::new(bounds(1, 1000));
        let dev = fleet.add_session(session(&model));
        assert_eq!(fleet.push_chunk(dev, vec![1.0; 4]), PushResult::Accepted);
        assert_eq!(fleet.push_chunk(dev, vec![2.0; 4]), PushResult::Full);
        assert_eq!(fleet.pending_samples(dev), 4, "rejected chunk not counted");
    }

    #[test]
    fn empty_chunks_are_accepted_without_queueing() {
        let model = tiny_model();
        let mut fleet = Fleet::new(FleetConfig::default());
        let dev = fleet.add_session(session(&model));
        assert_eq!(fleet.push_chunk(dev, Vec::new()), PushResult::Accepted);
        assert_eq!(fleet.pending_chunks(dev), 0);
    }

    #[test]
    fn drain_preserves_per_device_order_and_state() {
        let model = tiny_model();
        let mut fleet = Fleet::new(FleetConfig::default());
        let a = fleet.add_session(session(&model));
        let b = fleet.add_session(session(&model));

        let signal: Vec<f32> = (0..2000).map(|i| (i as f32 * 0.01).sin()).collect();
        // Device a gets the signal in two chunks, device b in one.
        let _ = fleet.push_chunk(a, signal[..700].to_vec());
        let _ = fleet.push_chunk(a, signal[700..].to_vec());
        let _ = fleet.push_chunk(b, signal.clone());
        let events = fleet.drain();
        assert_eq!(events.len(), 2);
        assert_eq!(
            events_of(&events, a),
            events_of(&events, b),
            "chunking must not change events"
        );
        assert_eq!(
            fleet.session(a).windows_observed(),
            fleet.session(b).windows_observed()
        );

        // Snapshots of both sessions agree (same stream position).
        let snap_a: SessionSnapshot = fleet.session(a).snapshot();
        let snap_b = fleet.session(b).snapshot();
        assert_eq!(snap_a.monitor, snap_b.monitor);
    }

    #[test]
    fn shed_counts_survive_in_stats() {
        let model = tiny_model();
        let mut fleet = Fleet::new(bounds(1, 1000));
        let dev = fleet.add_session(session(&model));
        assert_eq!(fleet.push_chunk(dev, vec![0.0; 8]), PushResult::Accepted);
        assert_eq!(fleet.push_chunk(dev, vec![0.0; 8]), PushResult::Full);
        assert_eq!(fleet.push_chunk(dev, vec![0.0; 3]), PushResult::Full);

        let stats = fleet.stats();
        assert_eq!(stats.shed_chunks, 2);
        assert_eq!(stats.shed_samples, 11);
        assert_eq!(stats.devices.len(), 1);
        assert_eq!(stats.devices[0].shed_chunks, 2);
        assert_eq!(stats.devices[0].shed_samples, 11);
        assert_eq!(stats.devices[0].queued_chunks, 1);
        assert_eq!(stats.devices[0].queued_samples, 8);
        assert_eq!(stats.queued_samples, 8);
    }

    #[test]
    fn remove_session_vacates_slot_without_shifting_live_ids() {
        let model = tiny_model();
        let mut fleet = Fleet::new(FleetConfig::default());
        let a = fleet.add_session(session(&model));
        let b = fleet.add_session(session(&model));
        let _ = fleet.push_chunk(b, vec![0.0; 700]);

        // Evict a; b keeps its id and queued work.
        assert!(fleet.remove_session(a).is_some());
        assert!(!fleet.contains(a));
        assert!(fleet.contains(b));
        assert_eq!(fleet.len(), 1);
        assert_eq!(fleet.registered(), 2);
        assert_eq!(fleet.pending_chunks(b), 1);

        // Double eviction is a no-op returning None.
        assert!(fleet.remove_session(a).is_none());

        // The drain visits only the live device with queued work, under
        // its original id.
        let events = fleet.drain();
        assert_eq!(events.iter().map(|(d, _)| *d).collect::<Vec<_>>(), vec![b]);

        // The next registration reuses the vacated slot, so the slot
        // table does not grow.
        let c = fleet.add_session(session(&model));
        assert_eq!(c.index(), a.index());
        assert_eq!(fleet.registered(), 2);

        // Stats reflect the reuse.
        let stats = fleet.stats();
        assert_eq!(stats.active_sessions, 2);
        assert_eq!(stats.total_registered, 2);
    }

    /// Regression for the cluster-churn pattern: repeated migrate-out /
    /// migrate-in of a session must reuse the vacated slot rather than
    /// grow the slot table, so the `stats()` row count stays put.
    #[test]
    fn churn_reuses_slots_and_keeps_stats_row_count_stable() {
        let model = tiny_model();
        let mut fleet = Fleet::new(FleetConfig::default());
        let stable = fleet.add_session(session(&model));
        let rows_before = fleet.stats().devices.len();
        for _ in 0..100 {
            let dev = fleet.add_session(session(&model));
            assert_eq!(dev.index(), 1, "the vacated slot is reused every cycle");
            let _ = fleet.push_chunk(dev, vec![0.0; 16]);
            assert!(fleet.remove_session(dev).is_some());
        }
        assert_eq!(
            fleet.registered(),
            2,
            "slot table must not grow under churn"
        );
        let stats = fleet.stats();
        assert_eq!(stats.devices.len(), rows_before);
        assert_eq!(stats.total_registered, 2);
        assert!(fleet.contains(stable));
        assert!(fleet.drain().is_empty(), "nothing queued survives churn");

        // Several vacancies hand out the lowest index first.
        let x = fleet.add_session(session(&model));
        let y = fleet.add_session(session(&model));
        let _ = fleet.remove_session(y);
        let _ = fleet.remove_session(x);
        let z = fleet.add_session(session(&model));
        assert_eq!(z.index(), x.index(), "lowest vacated slot is reused first");
    }

    #[test]
    fn eviction_discards_queue_but_keeps_shed_totals() {
        let model = tiny_model();
        let mut fleet = Fleet::new(bounds(1, 1000));
        let dev = fleet.add_session(session(&model));
        assert_eq!(fleet.push_chunk(dev, vec![0.0; 6]), PushResult::Accepted);
        assert_eq!(fleet.push_chunk(dev, vec![0.0; 6]), PushResult::Full);
        let _ = fleet.remove_session(dev);

        let stats = fleet.stats();
        assert_eq!(stats.active_sessions, 0);
        assert_eq!(stats.queued_chunks, 0, "evicted queue is gone");
        assert_eq!(stats.shed_chunks, 1, "shed totals survive eviction");
        assert_eq!(stats.shed_samples, 6);
        assert!(fleet.drain().is_empty());
    }

    #[test]
    fn accepted_totals_count_queued_chunks() {
        let model = tiny_model();
        let mut fleet = Fleet::new(bounds(2, 1000));
        let dev = fleet.add_session(session(&model));
        assert_eq!(fleet.push_chunk(dev, vec![0.0; 8]), PushResult::Accepted);
        assert_eq!(fleet.push_chunk(dev, vec![0.0; 4]), PushResult::Accepted);
        assert_eq!(fleet.push_chunk(dev, vec![0.0; 2]), PushResult::Full);
        // Empty chunks are accepted but not queued — and not counted.
        assert_eq!(fleet.push_chunk(dev, Vec::new()), PushResult::Accepted);
        let stats = fleet.stats();
        assert_eq!(stats.accepted_chunks, 2);
        assert_eq!(stats.accepted_samples, 12);
        assert_eq!(stats.shed_chunks, 1);
        // Draining does not change lifetime acceptance totals.
        let _ = fleet.drain();
        let after = fleet.stats();
        assert_eq!(after.accepted_chunks, 2);
        assert_eq!(after.accepted_samples, 12);
    }

    /// Two fleets in one process keep separate books, and the queue
    /// gauges are read when rendered.
    #[test]
    fn render_metrics_shows_this_fleets_books() {
        let model = tiny_model();
        let mut fed = Fleet::new(FleetConfig::default());
        let idle = Fleet::new(FleetConfig::default());
        let dev = fed.add_session(session(&model));
        assert_eq!(fed.push_chunk(dev, vec![0.0; 10]), PushResult::Accepted);
        let text = fed.render_metrics();
        for series in [
            "eddie_stream_chunks_accepted_total 1\n",
            "eddie_stream_queued_chunks 1\n",
            "eddie_stream_queued_samples 10\n",
            "eddie_stream_active_sessions 1\n",
        ] {
            assert!(text.contains(series), "{series:?} in\n{text}");
        }
        let text = idle.render_metrics();
        assert!(
            text.contains("eddie_stream_chunks_accepted_total 0\n"),
            "{text}"
        );
        assert!(!text.contains("eddie_store_"), "no store attached:\n{text}");
        let _ = fed.drain();
        assert!(fed
            .render_metrics()
            .contains("eddie_stream_queued_samples 0\n"));
    }

    #[test]
    fn stats_queries_do_not_perturb_drain() {
        let model = tiny_model();
        let signal: Vec<f32> = (0..4000).map(|i| (i as f32 * 0.01).sin()).collect();

        // Reference fleet: pushes and drains with no stats calls.
        let mut quiet = Fleet::new(FleetConfig::default());
        let qa = quiet.add_session(session(&model));
        let qb = quiet.add_session(session(&model));

        // Observed fleet: identical pushes, but stats is queried
        // between every operation.
        let mut watched = Fleet::new(FleetConfig::default());
        let wa = watched.add_session(session(&model));
        let wb = watched.add_session(session(&model));

        let mut quiet_events = Vec::new();
        let mut watched_events = Vec::new();
        for chunk in signal.chunks(700) {
            let _ = quiet.push_chunk(qa, chunk.to_vec());
            let _ = quiet.push_chunk(qb, chunk.to_vec());
            quiet_events.push(quiet.drain());

            let _ = watched.stats();
            let _ = watched.push_chunk(wa, chunk.to_vec());
            let _ = watched.stats();
            let _ = watched.push_chunk(wb, chunk.to_vec());
            let _ = watched.stats();
            watched_events.push(watched.drain());
        }
        assert_eq!(
            quiet_events, watched_events,
            "stats queries must not change drained events"
        );
        let stats = watched.stats();
        assert_eq!(stats.active_sessions, 2);
        assert_eq!(stats.accepted_chunks, quiet.stats().accepted_chunks);
    }

    #[test]
    fn builder_validates_and_defaults_match() {
        let built = FleetConfig::builder().build().unwrap();
        assert_eq!(built, FleetConfig::default());

        let custom = bounds(3, 77);
        assert_eq!(custom.max_pending_chunks, 3);
        assert_eq!(custom.max_pending_samples, 77);

        for bad in [
            FleetConfig::builder().with_max_pending_chunks(0).build(),
            FleetConfig::builder().with_max_pending_samples(0).build(),
        ] {
            assert_eq!(
                bad.err().map(|e| e.kind()),
                Some(eddie_core::ErrorKind::InvalidConfig)
            );
        }
    }

    fn store_in(dir: &std::path::Path, budget: usize) -> eddie_store::SessionStore {
        eddie_store::SessionStore::open(
            eddie_store::StoreConfig::builder(dir)
                .resident_budget(budget)
                .build()
                .unwrap(),
        )
        .unwrap()
    }

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("eddie-fleet-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn budget_parks_lru_and_thaw_on_push_is_transparent() {
        let model = tiny_model();
        let dir = tmpdir("lru");
        let mut fleet = Fleet::with_store(FleetConfig::default(), store_in(&dir, 2));
        let signal: Vec<f32> = (0..2000).map(|i| (i as f32 * 0.01).sin()).collect();

        let devs: Vec<DeviceId> = (0..4).map(|_| fleet.add_session(session(&model))).collect();
        for &d in &devs {
            let _ = fleet.push_chunk(d, signal[..1000].to_vec());
        }
        let _ = fleet.drain();
        // Four resident, budget two: the two least recently active
        // (lowest push order → devs[0], devs[1]) get parked.
        assert_eq!(fleet.parked_count(), 2);
        assert!(fleet.is_parked(devs[0]) && fleet.is_parked(devs[1]));
        assert!(!fleet.is_parked(devs[2]) && !fleet.is_parked(devs[3]));
        let ledger = fleet.ledger_snapshot().unwrap();
        assert!(ledger.conserved());
        assert_eq!(ledger.parked, 2);
        let text = fleet.render_metrics();
        assert!(text.contains("eddie_store_parked_sessions 2\n"), "{text}");

        // Parked devices still report progress without a thaw.
        assert_eq!(
            fleet.windows_observed(devs[0]),
            fleet.windows_observed(devs[2])
        );

        // Pushing to a parked device thaws it; the continued stream is
        // identical to a never-parked one.
        assert_eq!(
            fleet.push_chunk(devs[0], signal[1000..].to_vec()),
            PushResult::Accepted
        );
        assert!(!fleet.is_parked(devs[0]));
        let _ = fleet.push_chunk(devs[3], signal[1000..].to_vec());
        let events = fleet.drain();
        assert_eq!(events_of(&events, devs[0]), events_of(&events, devs[3]));
        assert!(fleet.ledger_snapshot().unwrap().conserved());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn remove_session_thaws_parked_devices() {
        let model = tiny_model();
        let dir = tmpdir("rm");
        let mut fleet = Fleet::with_store(FleetConfig::default(), store_in(&dir, 8));
        let dev = fleet.add_session(session(&model));
        let _ = fleet.push_chunk(dev, vec![0.5; 700]);
        let _ = fleet.drain();
        let windows = fleet.windows_observed(dev).unwrap();
        assert!(fleet.park(dev).unwrap(), "explicit park of an idle device");
        assert!(fleet.is_parked(dev));

        let removed = fleet.remove_session(dev).expect("session restored");
        assert_eq!(removed.windows_observed(), windows);
        let ledger = fleet.ledger_snapshot().unwrap();
        assert!(ledger.conserved());
        assert_eq!(ledger.resident + ledger.parked, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A store reopened on a used spill dir must not hold the earlier
    /// store's record for slot 0 against the new session there: its
    /// eviction is a resident one, and the books come back to zero.
    #[test]
    fn reopened_store_books_evictions_correctly() {
        let model = tiny_model();
        let dir = tmpdir("reopen");
        {
            let mut store = store_in(&dir, 8);
            store.note_added(0, 100);
            store.park(0, b"earlier store's session").unwrap();
        }
        let mut fleet = Fleet::with_store(FleetConfig::default(), store_in(&dir, 8));
        let dev = fleet.add_session(session(&model));
        assert_eq!(dev.index(), 0);
        assert!(fleet.remove_session(dev).is_some());
        let ledger = fleet.ledger_snapshot().unwrap();
        assert!(ledger.conserved());
        assert_eq!(
            (ledger.resident, ledger.parked, ledger.resident_bytes),
            (0, 0, 0)
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_session_reads_parked_without_thawing() {
        let model = tiny_model();
        let dir = tmpdir("snap");
        let mut fleet = Fleet::with_store(FleetConfig::default(), store_in(&dir, 8));
        let dev = fleet.add_session(session(&model));
        let _ = fleet.push_chunk(dev, vec![0.25; 900]);
        let _ = fleet.drain();
        let live = fleet.snapshot_session(dev).unwrap();
        assert!(fleet.park(dev).unwrap());
        let parked = fleet.snapshot_session(dev).unwrap();
        assert_eq!(live, parked, "parked snapshot equals the live one");
        assert!(fleet.is_parked(dev), "snapshotting must not thaw");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sessions_iterates_live_devices_in_id_order() {
        let model = tiny_model();
        let mut fleet = Fleet::new(FleetConfig::default());
        let a = fleet.add_session(session(&model));
        let b = fleet.add_session(session(&model));
        let c = fleet.add_session(session(&model));
        let _ = fleet.remove_session(b);
        let ids: Vec<usize> = fleet.sessions().map(|(id, _)| id.index()).collect();
        assert_eq!(ids, vec![a.index(), c.index()]);
    }
}
