//! The differential harness: the one statement of this reproduction's
//! delivery spec. Every path that carries a signal to a monitor —
//! session, fleet, park/thaw, snapshot/restore, loopback TCP, chaos
//! proxy, cluster migration — must emit exactly the events the batch
//! pipeline (`Pipeline::monitor_result`) computes for the whole signal.
//!
//! The gates under the workspace's `tests/` and the `stream`,
//! `replay-client`, `chaos` and `cluster` subcommands share:
//!
//! * [`Fixture`]: a trained model and monitored [`Run`]s, each with its
//!   batch outcome. [`Fixture::gate`] is the gates' quick Bitcount
//!   set-up, built once per process; [`Fixture::cli`] is the
//!   scale-sized set-up the subcommands replay.
//! * [`compare`]: the one comparator. It names the first
//!   [`Divergence`] by path, run, seed and window.
//! * [`chunked`]: seeded pseudo-random chunkings.
//! * One runner per delivery path: [`session`] (with optional
//!   snapshot/restore through bytes), [`fleet`], [`park_thaw`],
//!   [`loopback`], [`chaos`] and [`cluster`]. Each drives its path,
//!   checks every delivered stream, and audits the path's chunk ledger
//!   and fault evidence. In-process runners panic on a failed audit;
//!   network runners return a [`Failure`], which a subcommand reports
//!   as its error and a gate unwraps.
//!
//! # Adding a delivery path
//!
//! Write one runner here. It takes the [`Run`]s to deliver, drives
//! them through the new path, checks each delivered stream with
//! [`Run::check`], audits whatever ledger the path keeps, and returns
//! what its callers print or assert on. Then call it from a gate under
//! `tests/` and from the path's subcommand, so both judge the path by
//! the same code.

use std::fmt;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use eddie_chaos::{ChaosProxy, FaultPlan, ProxyStats};
use eddie_cluster::{Cluster, ClusterConfig, ClusterReport, RebalanceReport, RingConfig};
use eddie_core::{
    with_kernel_mode, EddieConfig, KernelMode, MonitorOutcome, Pipeline, PipelineBuilder,
    TrainedModel,
};
use eddie_dsp::SvdDenoiserConfig;
use eddie_inject::{LoopInjector, OpPattern};
use eddie_isa::RegionId;
use eddie_rand::SplitMix64;
use eddie_serve::{
    load_snapshot, ModelRegistry, ReplayClient, ReplayOutcome, ResilientClient, ResilientOutcome,
    Server, ServerConfig, ServerConfigBuilder, ServerHandle, ServerReport,
};
use eddie_sim::{InjectionHook, SimConfig};
use eddie_store::{LedgerSnapshot, SessionStore, StoreConfig};
use eddie_stream::{Fleet, FleetConfig, MonitorSession, PushResult, SessionSnapshot, StreamEvent};
use eddie_workloads::{Benchmark, Workload, WorkloadParams};

use crate::harness::{injection_targets, make_hook, sim_pipeline, train_benchmark, InjectPlan};
use crate::Scale;

/// The id every served set-up registers its model under.
pub const MODEL_ID: &str = "bitcount-power";

/// Training seeds of the gate set-up.
pub const TRAIN_SEEDS: [u64; 4] = [1, 2, 3, 4];

/// Returns a [`Failure`] with the formatted message unless `cond`.
macro_rules! ensure {
    ($cond:expr, $($msg:tt)+) => {
        if !$cond {
            return Err(Failure(format!($($msg)+)));
        }
    };
}

/// The gates' pipeline before its signal source is chosen: the
/// in-order IoT core sampled every 8 cycles and the quick detector.
pub fn gate_builder() -> PipelineBuilder {
    let mut sim = SimConfig::iot_inorder();
    sim.sample_interval = 8;
    Pipeline::builder().sim(sim).eddie(EddieConfig::quick())
}

/// Which injections a fixture's runs carry.
enum Plan {
    /// Odd runs carry the gates' in-loop injection; even runs are clean.
    Gate,
    /// [`InjectPlan::Alternating`] over these target regions: every run
    /// is injected, in a loop on even runs and as a burst after a loop
    /// on odd ones.
    Alternating(Vec<RegionId>),
}

impl Plan {
    /// What run `k` carries, as the subcommand tables print it.
    fn label(&self, k: usize) -> &'static str {
        match (self, k % 2) {
            (Plan::Gate, 0) => "clean",
            (Plan::Gate, _) => "injected",
            (Plan::Alternating(_), 0) => "loop",
            (Plan::Alternating(_), _) => "burst",
        }
    }
}

/// A trained model and monitored runs, each with its batch outcome.
pub struct Fixture {
    /// The pipeline that trained the model and simulated the runs.
    pub pipeline: Pipeline,
    /// The monitored program.
    pub workload: Workload,
    /// The trained model.
    pub model: Arc<TrainedModel>,
    /// Run `k` uses workload seed `1000 + k`.
    pub runs: Vec<Run>,
    plan: Plan,
}

impl Fixture {
    /// The gates' set-up, built once per process: Bitcount at scale 1
    /// on the power signal of [`gate_builder`], trained on
    /// [`TRAIN_SEEDS`], with clean run 1000 and injected run 1001.
    pub fn gate() -> &'static Fixture {
        static GATE: OnceLock<Fixture> = OnceLock::new();
        GATE.get_or_init(|| {
            let pipeline = gate_builder().power().build().expect("valid gate pipeline");
            let workload = Benchmark::Bitcount.workload(&WorkloadParams { scale: 1 });
            let model = pipeline
                .train(
                    workload.program(),
                    |m, s| workload.prepare(m, s),
                    &TRAIN_SEEDS,
                )
                .expect("training succeeds");
            Fixture::new(pipeline, workload, model, Plan::Gate, 2)
        })
    }

    /// The subcommands' set-up at `scale`: Bitcount on
    /// [`sim_pipeline`], with `runs` runs under
    /// [`InjectPlan::Alternating`].
    pub fn cli(scale: Scale, runs: usize) -> Fixture {
        let pipeline = sim_pipeline();
        let (workload, model) = train_benchmark(
            &pipeline,
            Benchmark::Bitcount,
            scale.workload_scale(),
            scale.train_runs_sim(),
        );
        let plan = Plan::Alternating(injection_targets(&workload, &model));
        Fixture::new(pipeline, workload, model, plan, runs)
    }

    fn new(
        pipeline: Pipeline,
        workload: Workload,
        model: TrainedModel,
        plan: Plan,
        runs: usize,
    ) -> Fixture {
        let mut fx = Fixture {
            pipeline,
            workload,
            model: Arc::new(model),
            runs: Vec::new(),
            plan,
        };
        fx.runs = (0..runs)
            .map(|k| fx.run_on(&fx.pipeline, &fx.model, k))
            .collect();
        fx
    }

    /// Runs `0..n` on the fixture's pipeline and model: the cached
    /// [`runs`](Fixture::runs), then any simulated beyond them.
    pub fn first_runs(&self, n: usize) -> Vec<Run> {
        (0..n)
            .map(|k| match self.runs.get(k) {
                Some(run) => run.clone(),
                None => self.run_on(&self.pipeline, &self.model, k),
            })
            .collect()
    }

    /// Trains a fresh model of the workload on `pipeline` from
    /// [`TRAIN_SEEDS`], for tests whose subject is training itself.
    pub fn train_on(&self, pipeline: &Pipeline) -> TrainedModel {
        let w = &self.workload;
        pipeline
            .train(w.program(), |m, s| w.prepare(m, s), &TRAIN_SEEDS)
            .expect("training succeeds")
    }

    /// An in-loop injection at the first declared region's loop
    /// branch: an `ops`-op payload in `contamination` of the
    /// iterations.
    pub fn loop_injection(
        &self,
        contamination: f64,
        ops: usize,
        seed: u64,
    ) -> Option<Box<dyn InjectionHook>> {
        let region = self.workload.program().declared_regions().next()?;
        let pc = self.workload.loop_branch_pc(region)?;
        Some(Box::new(LoopInjector::new(
            pc,
            contamination,
            OpPattern::loop_payload(ops),
            seed,
        )))
    }

    /// The injection of run `k`, if it has one.
    pub fn hook(&self, k: usize) -> Option<Box<dyn InjectionHook>> {
        let seed = 1000 + k as u64;
        match &self.plan {
            Plan::Gate if k % 2 == 1 => self.loop_injection(1.0, 8, seed),
            Plan::Gate => None,
            Plan::Alternating(targets) => {
                make_hook(&InjectPlan::Alternating, &self.workload, targets, k, seed)
            }
        }
    }

    /// Simulates run `k` on `pipeline` and monitors it with `model`
    /// through the batch path.
    pub fn run_on(&self, pipeline: &Pipeline, model: &TrainedModel, k: usize) -> Run {
        let seed = 1000 + k as u64;
        let w = &self.workload;
        let result = pipeline.simulate(w.program(), |m| w.prepare(m, seed), self.hook(k));
        let batch = pipeline.monitor_result(model, &result, 0);
        Run {
            k,
            seed,
            label: self.plan.label(k),
            rate: result.power.sample_rate_hz(),
            signal: result.power.samples,
            expected: expected_events(&batch),
            batch,
        }
    }

    /// Batch outcomes of runs `0..runs` under `model`, on the worker
    /// pool.
    pub fn monitor_batch(&self, model: &TrainedModel, runs: usize) -> Vec<MonitorOutcome> {
        let w = &self.workload;
        self.pipeline.monitor_batch(
            model,
            w.program(),
            runs,
            |m, k| w.prepare(m, 1000 + k as u64),
            |k| self.hook(k),
        )
    }
}

/// One monitored run: its signal and the batch pipeline's outcome.
#[derive(Debug, Clone)]
pub struct Run {
    /// Index among the fixture's runs.
    pub k: usize,
    /// Workload seed, `1000 + k`.
    pub seed: u64,
    /// What the run carries: `clean`/`injected` in the gates' fixture,
    /// `loop`/`burst` under [`InjectPlan::Alternating`].
    label: &'static str,
    /// The captured signal.
    pub signal: Vec<f32>,
    /// Its sample rate.
    pub rate: f64,
    /// The batch pipeline's outcome on the whole signal.
    pub batch: MonitorOutcome,
    /// That outcome as the event stream every path must deliver.
    pub expected: Vec<StreamEvent>,
}

impl Run {
    /// The plan label the subcommand tables print.
    pub fn label(&self) -> &'static str {
        self.label
    }

    /// Checks what `path` delivered for this run against the batch
    /// pipeline.
    pub fn check(&self, path: &str, streamed: &[StreamEvent]) -> Result<(), Divergence> {
        compare(path, self.k, self.seed, &self.expected, streamed)
    }
}

/// A batch outcome as a stream: window `w` carries the batch decision,
/// alarm and tracked region of window `w`.
fn expected_events(batch: &MonitorOutcome) -> Vec<StreamEvent> {
    (0..batch.events.len())
        .map(|w| StreamEvent {
            window: w,
            event: batch.events[w],
            alarm: batch.alarms[w],
            tracked: batch.tracked[w],
        })
        .collect()
}

/// What differs at a [`Divergence`]'s window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Field {
    /// The delivered window index (indices must be dense from zero).
    Index,
    /// The monitor decision.
    Event,
    /// The latched alarm state.
    Alarm,
    /// The tracked region.
    Tracked,
    /// The stream ends before this window.
    Missing,
    /// The stream has a window the batch path does not.
    Extra,
}

/// The first window at which a delivered stream leaves the batch
/// pipeline's.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Divergence {
    /// The delivery path, e.g. `loopback` or `chaos/drops`.
    pub path: String,
    /// The run's index.
    pub run: usize,
    /// The run's workload seed.
    pub seed: u64,
    /// The first differing window.
    pub window: usize,
    /// What differs there.
    pub field: Field,
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let what = match self.field {
            Field::Index => "window index differs",
            Field::Event => "event differs",
            Field::Alarm => "alarm differs",
            Field::Tracked => "tracked region differs",
            Field::Missing => "stream ends",
            Field::Extra => "stream has an extra window",
        };
        write!(
            f,
            "[{}] run {} (seed {}): {what} at window {}",
            self.path, self.run, self.seed, self.window
        )
    }
}

/// The comparator: `Ok` when `streamed` equals `expected` window for
/// window (index, event, alarm, tracked region, and length), else the
/// first window where they part.
pub fn compare(
    path: &str,
    run: usize,
    seed: u64,
    expected: &[StreamEvent],
    streamed: &[StreamEvent],
) -> Result<(), Divergence> {
    let field_at = |w: usize| match (expected.get(w), streamed.get(w)) {
        (Some(e), Some(s)) if s.window != e.window => Some(Field::Index),
        (Some(e), Some(s)) if s.event != e.event => Some(Field::Event),
        (Some(e), Some(s)) if s.alarm != e.alarm => Some(Field::Alarm),
        (Some(e), Some(s)) if s.tracked != e.tracked => Some(Field::Tracked),
        (Some(_), None) => Some(Field::Missing),
        (None, Some(_)) => Some(Field::Extra),
        _ => None,
    };
    match (0..expected.len().max(streamed.len())).find_map(|w| field_at(w).map(|f| (w, f))) {
        None => Ok(()),
        Some((window, field)) => Err(Divergence {
            path: path.to_string(),
            run,
            seed,
            window,
            field,
        }),
    }
}

/// A failed differential check. Its `Debug` is its message, so a
/// gate's `unwrap` reads like an assertion.
pub struct Failure(pub String);

impl fmt::Debug for Failure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl fmt::Display for Failure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<Divergence> for Failure {
    fn from(d: Divergence) -> Failure {
        Failure(d.to_string())
    }
}

impl From<eddie_core::Error> for Failure {
    fn from(e: eddie_core::Error) -> Failure {
        Failure(e.to_string())
    }
}

/// Splits `signal` into seeded pseudo-random chunks of
/// `1..=max_chunk` samples.
pub fn chunked(signal: &[f32], seed: u64, max_chunk: usize) -> Vec<&[f32]> {
    let mut rng = SplitMix64::new(seed);
    let mut rest = signal;
    let mut out = Vec::new();
    while !rest.is_empty() {
        let (head, tail) = rest.split_at(rng.range(1..max_chunk + 1).min(rest.len()));
        out.push(head);
        rest = tail;
    }
    out
}

/// A scratch directory under the system temp dir, removed on drop.
pub struct TempDir(PathBuf);

impl TempDir {
    /// Creates a fresh, empty directory named after `tag`.
    pub fn new(tag: &str) -> TempDir {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = std::env::temp_dir().join(format!("eddie-{tag}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).expect("create temp dir");
        TempDir(path)
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A session store spilling into `dir` with `budget` resident sessions.
pub fn store(dir: &TempDir, budget: usize) -> SessionStore {
    let config = StoreConfig::builder(dir.path())
        .resident_budget(budget)
        .build()
        .expect("store config");
    SessionStore::open(config).expect("open store")
}

/// What [`session`] delivered.
pub struct Streamed {
    /// Every event, in order.
    pub events: Vec<StreamEvent>,
    /// The session after the last chunk, not yet finished.
    pub session: MonitorSession,
    /// Snapshots taken with a partial denoising block buffered.
    pub buffered_snapshots: usize,
}

/// Feeds `chunks` through one session (with an SVD denoising stage
/// when `denoise` is set). With `restore_every = Some(n)` the session
/// is snapshotted, encoded, decoded and restored before every `n`-th
/// chunk. Audits that the session saw every sample once.
pub fn session(
    model: &Arc<TrainedModel>,
    rate: f64,
    chunks: &[&[f32]],
    denoise: Option<&SvdDenoiserConfig>,
    restore_every: Option<usize>,
) -> Streamed {
    let mut session = match denoise {
        Some(c) => MonitorSession::with_denoiser(model.clone(), rate, c.clone()),
        None => MonitorSession::new(model.clone(), rate),
    }
    .expect("session");
    let mut events = Vec::new();
    let mut buffered_snapshots = 0;
    for (i, chunk) in chunks.iter().enumerate() {
        if restore_every.is_some_and(|n| i % n == n - 1) {
            let snap = session.snapshot();
            buffered_snapshots += usize::from(
                snap.denoise
                    .as_ref()
                    .is_some_and(|d| !d.state.buffered.is_empty()),
            );
            let snap = SessionSnapshot::from_bytes(&snap.to_bytes()).expect("snapshot decodes");
            session = MonitorSession::restore(model.clone(), snap).expect("restore");
        }
        events.extend(session.push(chunk));
    }
    let samples: usize = chunks.iter().map(|c| c.len()).sum();
    assert_eq!(session.samples_seen(), samples, "session sample ledger");
    Streamed {
        events,
        session,
        buffered_snapshots,
    }
}

/// Streams each device's chunks through one fleet, one session per
/// `(rate, chunks)` entry. Chunks are offered round-robin across
/// devices, and the fleet drains whenever a device reports `Full`.
/// Audits the fleet's ledger: every chunk accepted once, every `Full`
/// counted as shed, nothing left queued.
pub fn fleet(
    model: &Arc<TrainedModel>,
    config: FleetConfig,
    devices: &[(f64, Vec<&[f32]>)],
) -> Vec<Vec<StreamEvent>> {
    let mut fleet = Fleet::new(config);
    let ids: Vec<_> = devices
        .iter()
        .map(|(rate, _)| fleet.add_session(MonitorSession::new(model.clone(), *rate).unwrap()))
        .collect();
    let mut events = vec![Vec::new(); devices.len()];
    let drain = |fleet: &mut Fleet, events: &mut [Vec<StreamEvent>]| {
        for (dev, evs) in fleet.drain() {
            events[dev.index()].extend(evs);
        }
    };
    let (mut offered, mut refused) = (0u64, 0u64);
    let rounds = devices.iter().map(|(_, c)| c.len()).max().unwrap_or(0);
    for i in 0..rounds {
        for (d, (_, chunks)) in devices.iter().enumerate() {
            let Some(chunk) = chunks.get(i) else { continue };
            offered += 1;
            while fleet.push_chunk(ids[d], chunk.to_vec()) == PushResult::Full {
                refused += 1;
                drain(&mut fleet, &mut events);
            }
        }
    }
    drain(&mut fleet, &mut events);
    let stats = fleet.stats();
    assert_eq!(stats.accepted_chunks, offered, "fleet ledger: accepted");
    assert_eq!(stats.shed_chunks, refused, "fleet ledger: shed");
    assert_eq!(stats.queued_chunks, 0, "fleet ledger: queued");
    events
}

/// What [`park_thaw`] delivered.
pub struct ParkThaw {
    /// Every event, in order.
    pub events: Vec<StreamEvent>,
    /// The store's ledger after the last chunk.
    pub ledger: LedgerSnapshot,
}

/// Streams `run` through a store-backed fleet (resident budget 1) in
/// `chunk`-sample chunks, parking the device after every drain, so each
/// chunk thaws it from the spill log. With `kernels = Some((a, b))`
/// the first half of the chunks runs under kernel `a` and the rest
/// thaws and runs under `b`. Audits the store ledger: conserved, parks
/// and thaws happened, none failed.
pub fn park_thaw(
    model: &Arc<TrainedModel>,
    run: &Run,
    chunk: usize,
    kernels: Option<(KernelMode, KernelMode)>,
) -> ParkThaw {
    let dir = TempDir::new("park-thaw");
    let mut fleet = Fleet::with_store(FleetConfig::default(), store(&dir, 1));
    let dev = fleet.add_session(MonitorSession::new(model.clone(), run.rate).expect("session"));
    let chunks: Vec<&[f32]> = run.signal.chunks(chunk).collect();
    let mut events = Vec::new();
    let mut feed = |part: &[&[f32]]| {
        for c in part {
            assert_eq!(fleet.push_chunk(dev, c.to_vec()), PushResult::Accepted);
            for (_, e) in fleet.drain() {
                events.extend(e);
            }
            assert!(fleet.park(dev).expect("park"), "idle device must park");
        }
    };
    match kernels {
        Some((first, second)) => {
            let mid = chunks.len() / 2;
            with_kernel_mode(first, || feed(&chunks[..mid]));
            with_kernel_mode(second, || feed(&chunks[mid..]));
        }
        None => feed(&chunks),
    }
    let ledger = fleet.ledger_snapshot().expect("store attached");
    assert!(ledger.conserved(), "ledger must conserve: {ledger:?}");
    assert!(ledger.parks > 0 && ledger.thaws > 0, "{ledger:?}");
    assert_eq!(ledger.park_failures + ledger.thaw_failures, 0, "{ledger:?}");
    ParkThaw { events, ledger }
}

/// A server on an ephemeral loopback port, hosting one model under
/// [`MODEL_ID`], run on its own thread.
pub struct LocalServer {
    handle: ServerHandle,
    join: JoinHandle<std::io::Result<ServerReport>>,
}

impl LocalServer {
    /// Starts a server on `127.0.0.1:0`.
    pub fn start(model: Arc<TrainedModel>, config: ServerConfig) -> Result<LocalServer, Failure> {
        let mut registry = ModelRegistry::new();
        registry.insert(MODEL_ID, model);
        let server = Server::bind("127.0.0.1:0", registry, config)
            .map_err(|e| Failure(format!("bind loopback: {e}")))?;
        let handle = server.handle();
        let join = std::thread::spawn(move || server.run());
        Ok(LocalServer { handle, join })
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.handle.addr()
    }

    /// The server's control handle.
    pub fn handle(&self) -> &ServerHandle {
        &self.handle
    }

    /// Shuts the server down and returns its report.
    pub fn stop(self) -> Result<ServerReport, Failure> {
        self.handle.shutdown();
        let served = self.join.join().expect("server thread");
        served.map_err(|e| Failure(format!("server failed: {e}")))
    }
}

/// Reads one unlabeled series from a `Stats` scrape (Prometheus text).
///
/// # Panics
///
/// When the series is missing or not an integer: a gate must not read
/// a dropped name as 0.
pub fn metric(text: &str, name: &str) -> u64 {
    for line in text.lines() {
        if let Some(v) = line.strip_prefix(name).and_then(|v| v.strip_prefix(' ')) {
            return v
                .trim()
                .parse()
                .unwrap_or_else(|_| panic!("series `{name}` has a non-integer value: {v:?}"));
        }
    }
    panic!("series `{name}` missing from exposition:\n{text}");
}

/// Audits a server's books: every chunk frame it read was accepted,
/// refused busy or acknowledged as a duplicate, and the serve and
/// stream layers agree on what was accepted.
pub fn audit_ledger(who: &str, r: &ServerReport) -> Result<(), Failure> {
    ensure!(
        r.chunks_received == r.chunks_accepted + r.chunks_busy + r.duplicate_acks,
        "[{who}] chunk ledger does not balance: {} received != {} accepted + {} busy + {} duplicate",
        r.chunks_received,
        r.chunks_accepted,
        r.chunks_busy,
        r.duplicate_acks
    );
    ensure!(
        r.final_stats.accepted_chunks == r.chunks_accepted,
        "[{who}] serve and stream layers disagree on accepted chunks: {} != {}",
        r.chunks_accepted,
        r.final_stats.accepted_chunks
    );
    Ok(())
}

/// Polls `cond` every 2 ms for up to `timeout`; whether it came true.
pub fn poll_until(timeout: Duration, mut cond: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + timeout;
    while !cond() {
        if Instant::now() >= deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    true
}

/// Waits up to 10 s for `cond`, panicking with `what` on timeout.
pub fn wait_for(cond: impl FnMut() -> bool, what: &str) {
    assert!(
        poll_until(Duration::from_secs(10), cond),
        "timed out waiting for {what}"
    );
}

/// Replays `runs` concurrently over TCP to `addr`, one
/// [`ReplayClient`] per run in `chunk`-sample chunks, and runs
/// `during` while they stream. Checks every delivered stream and each
/// client's ledger: every chunk acknowledged, every chunk frame
/// answered exactly once.
pub fn loopback(
    addr: &str,
    runs: &[Run],
    chunk: usize,
    during: impl FnOnce(),
) -> Result<Vec<ReplayOutcome>, Failure> {
    let clients: Vec<_> = runs
        .iter()
        .map(|run| {
            let (addr, signal, rate) = (addr.to_string(), run.signal.clone(), run.rate);
            std::thread::spawn(move || -> Result<ReplayOutcome, String> {
                let mut client =
                    ReplayClient::connect(addr.as_str()).map_err(|e| format!("connect: {e}"))?;
                client
                    .hello(MODEL_ID, rate)
                    .map_err(|e| format!("hello: {e}"))?;
                client
                    .replay(&signal, chunk)
                    .map_err(|e| format!("replay: {e}"))
            })
        })
        .collect();
    during();
    let mut outcomes = Vec::new();
    for (run, client) in runs.iter().zip(clients) {
        let o = client.join().expect("client thread").map_err(Failure)?;
        run.check("loopback", &o.events)?;
        let chunks = run.signal.len().div_ceil(chunk) as u64;
        ensure!(
            o.acked_chunks == chunks,
            "[loopback] run {}: {} of {chunks} chunks acknowledged",
            run.k,
            o.acked_chunks
        );
        ensure!(
            o.sent_chunks == o.acked_chunks + o.busy_replies + o.duplicate_acks,
            "[loopback] run {}: client ledger does not balance",
            run.k
        );
        outcomes.push(o);
    }
    Ok(outcomes)
}

/// The server the chaos and cluster runners host: sessions are parked
/// by idleness rather than evicted, so a client mid-backoff can come
/// back.
fn resumable_server() -> ServerConfigBuilder {
    ServerConfig::builder()
        .with_idle_timeout(Duration::from_millis(800))
        .with_resume_linger(Duration::from_secs(30))
        .with_resume_tail(4096)
}

/// What [`chaos`] observed.
pub struct ChaosRun {
    /// One outcome per replayed run.
    pub outcomes: Vec<ResilientOutcome>,
    /// The faults the proxy injected.
    pub proxy: ProxyStats,
    /// The server's report.
    pub report: ServerReport,
}

/// Replays `runs` one after another through a [`ChaosProxy`] running
/// `plan`, in front of a local server wired with the plan's server
/// faults, with a self-healing client doing the recovering. A plan
/// that fails snapshot writes gets a snapshot file in a temp dir,
/// removed afterwards, and the server is kept up until every failing
/// attempt has come. Audits every delivered stream and its window
/// total, the server's ledger, and the fault evidence of the whole
/// run: each configured fault class must have fired.
pub fn chaos(
    path: &str,
    model: &Arc<TrainedModel>,
    runs: &[Run],
    plan: &FaultPlan,
    chunk: usize,
) -> Result<ChaosRun, Failure> {
    let snapshot_dir = (!plan.snapshot_fail_nth.is_empty()).then(|| TempDir::new("chaos"));
    let snapshot = snapshot_dir
        .as_ref()
        .map(|d| d.path().join("sessions.snap"));
    let faults = plan.server_faults();
    let mut config = resumable_server().with_faults(faults.clone());
    if let Some(p) = &snapshot {
        config = config
            .with_snapshot_path(p.clone())
            .with_snapshot_every(Duration::from_millis(20));
    }
    let server = LocalServer::start(model.clone(), config.build()?)?;
    let mut proxy = ChaosProxy::start(server.addr(), plan.clone())
        .map_err(|e| Failure(format!("[{path}] proxy: {e}")))?;
    let client = ResilientClient::new(proxy.addr(), plan.seed);

    // Sequential replays keep the proxy's global fault schedule — and
    // so the outcome — reproducible for a given plan.
    let mut outcomes = Vec::new();
    for run in runs {
        let o = client
            .replay(MODEL_ID, run.rate, &run.signal, chunk)
            .map_err(|e| Failure(format!("[{path}] run {} replay failed: {e}", run.k)))?;
        run.check(path, &o.events)?;
        ensure!(
            o.windows as usize == run.expected.len(),
            "[{path}] run {}: server window total {} != {}",
            run.k,
            o.windows,
            run.expected.len()
        );
        outcomes.push(o);
    }
    // The server times its snapshot attempts, so a replay can end
    // before the failing ones come up: keep it serving until they have.
    let snapshots_due = poll_until(Duration::from_secs(10), || {
        faults.snapshot_failures_pending() == 0
    });
    let stats = proxy.stats();
    proxy.shutdown();
    let report = server.stop()?;
    audit_ledger(path, &report)?;
    ensure!(
        snapshots_due,
        "[{path}] {} configured snapshot failures had not come up after 10 s",
        faults.snapshot_failures_pending()
    );

    // Fault evidence over the whole run: each configured class fired.
    let reconnects: u64 = outcomes.iter().map(|o| o.reconnects).sum();
    let busy: u64 = outcomes.iter().map(|o| o.busy_replies).sum();
    let (st, r) = (&stats, &report);
    let (sever, snap) = (!plan.sever_at.is_empty(), snapshot.is_some());
    ensure!(st.frames_seen > 0, "[{path}] proxy saw no traffic");
    for (configured, fired, what) in [
        (plan.drop > 0.0, st.frames_dropped > 0, "drops fired"),
        (plan.drop > 0.0, reconnects > 0, "drops forced reconnects"),
        (plan.duplicate > 0.0, st.frames_duplicated > 0, "dups fired"),
        (
            plan.reorder > 0.0,
            st.frames_reordered > 0,
            "reorders fired",
        ),
        (
            plan.corrupt > 0.0,
            st.frames_corrupted > 0,
            "corruptions fired",
        ),
        (
            plan.corrupt > 0.0,
            r.bad_frames > 0,
            "server detected the corruptions",
        ),
        (sever, st.connections_severed > 0, "severs fired"),
        (sever, reconnects > 0, "severs forced reconnects"),
        (
            plan.busy_len > 0,
            busy > 0 && r.chunks_busy > 0,
            "busy storm refused chunks",
        ),
        (snap, r.snapshots_failed > 0, "snapshot failpoint fired"),
        (
            snap,
            r.snapshots_written > 0,
            "later snapshot generations landed",
        ),
    ] {
        ensure!(
            !configured || fired,
            "[{path}] fault evidence missing: {what}"
        );
    }
    if let Some(p) = &snapshot {
        let file = load_snapshot(p)
            .map_err(|e| Failure(format!("[{path}] surviving snapshot unreadable: {e}")))?;
        ensure!(
            file.sessions.len() <= 1,
            "[{path}] snapshot holds more than the one replay session"
        );
    }
    Ok(ChaosRun {
        outcomes,
        proxy: stats,
        report,
    })
}

/// What [`cluster`] observed.
pub struct ClusterRun {
    /// One outcome per client.
    pub outcomes: Vec<ResilientOutcome>,
    /// The mid-replay rebalance.
    pub rebalance: RebalanceReport,
    /// The ring generation after the rebalance.
    pub generation: u64,
    /// Every shard's and the router's report.
    pub report: ClusterReport,
}

/// Boots a `shards`-shard cluster (each shard behind a chaos proxy
/// running `plan`, when given), replays `runs` concurrently through its
/// router with self-healing clients, and reseeds the ring once every
/// session is admitted, so live sessions migrate mid-replay. Audits
/// every stream, each shard's ledger, the cluster-wide ledger (on a
/// transport that drops, duplicates, corrupts, reorders and severs
/// nothing, every chunk written lands on exactly one shard), and the
/// migration and redirect evidence.
pub fn cluster(
    path: &str,
    model: &Arc<TrainedModel>,
    runs: &[&Run],
    shards: usize,
    plan: Option<&FaultPlan>,
    chunk: usize,
) -> Result<ClusterRun, Failure> {
    let mut registry = ModelRegistry::new();
    registry.insert(MODEL_ID, model.clone());
    let mut config = ClusterConfig::builder()
        .with_shards(shards)
        .with_ring(RingConfig::default())
        .with_server(resumable_server().build()?);
    if let Some(plan) = plan {
        config = config.with_fault_plan(plan.clone());
    }
    let mut cluster =
        Cluster::start(config.build()?, registry).map_err(|e| Failure(format!("cluster: {e}")))?;
    let router = cluster.router_addr();

    let clients = runs
        .iter()
        .enumerate()
        .map(|(i, run)| {
            let (signal, rate) = (run.signal.clone(), run.rate);
            let client = ResilientClient::new(router, 1000 + i as u64);
            Ok(std::thread::spawn(move || {
                client
                    .replay(MODEL_ID, rate, &signal, chunk)
                    .map_err(|e| Failure(format!("client {i} replay failed: {e}")))
            }))
        })
        .collect::<Result<Vec<_>, Failure>>()?;

    // Once every session is admitted somewhere, reshuffle the ring:
    // live sessions must follow their new placement mid-replay.
    let admitted = poll_until(Duration::from_secs(20), || {
        cluster.owned_sessions().len() >= runs.len()
    });
    ensure!(
        admitted,
        "[{path}] clients never all admitted: {} of {}",
        cluster.owned_sessions().len(),
        runs.len()
    );
    let rebalance = cluster
        .rebalance_with_seed(RingConfig::default().seed ^ 0xC0FF_EE00)
        .map_err(|e| Failure(format!("[{path}] rebalance: {e}")))?;
    ensure!(
        !rebalance.migrated.is_empty(),
        "[{path}] the reseeded ring migrated no live sessions"
    );
    for m in &rebalance.migrated {
        ensure!(m.from != m.to, "[{path}] self-migration planned");
    }
    let outcomes = clients
        .into_iter()
        .map(|t| t.join().expect("client thread"))
        .collect::<Result<Vec<_>, Failure>>()?;
    for (i, (run, o)) in runs.iter().zip(&outcomes).enumerate() {
        run.check(&format!("{path}/client{i}"), &o.events)?;
        ensure!(
            o.redirects >= 1,
            "[{path}] client {i} was never redirected by the router"
        );
    }
    let generation = cluster.router().ring_generation();
    let report = cluster
        .shutdown()
        .map_err(|e| Failure(format!("[{path}] shutdown: {e}")))?;

    // Cross-shard ledger: conservation shard by shard and in sum.
    for (i, shard) in report.shards.iter().enumerate() {
        audit_ledger(&format!("{path}/s{i}"), shard)?;
    }
    let sum = |f: fn(&ServerReport) -> u64| report.shards.iter().map(f).sum::<u64>();
    let received = sum(|s| s.chunks_received);
    let lossless = plan.is_none_or(|p| {
        p.drop == 0.0
            && p.duplicate == 0.0
            && p.corrupt == 0.0
            && p.reorder == 0.0
            && p.sever_at.is_empty()
    });
    let sent: u64 = outcomes.iter().map(|o| o.sent_chunks).sum();
    ensure!(
        !lossless || received == sent,
        "[{path}] on a clean transport every chunk written lands on exactly one shard: \
         {received} received, {sent} sent"
    );

    // Migration evidence: both sides of every move were counted.
    let moved = rebalance.migrated.len() as u64;
    ensure!(
        sum(|s| s.sessions_migrated_out) == moved,
        "[{path}] exports counted"
    );
    ensure!(
        sum(|s| s.sessions_migrated_in) == moved,
        "[{path}] imports counted"
    );
    // Router evidence: every admission was a redirect.
    ensure!(
        report.router.redirects >= runs.len() as u64,
        "[{path}] router answered fewer redirects than admissions"
    );
    Ok(ClusterRun {
        outcomes,
        rebalance,
        generation,
        report,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use eddie_core::MonitorEvent;

    fn stream() -> Vec<StreamEvent> {
        let event = |w: usize| match w {
            2 => MonitorEvent::Anomaly,
            4 => MonitorEvent::RegionChange(RegionId::new(1)),
            _ => MonitorEvent::Normal,
        };
        (0..6)
            .map(|w| StreamEvent {
                window: w,
                event: event(w),
                alarm: w >= 2,
                tracked: RegionId::new(u32::from(w >= 4)),
            })
            .collect()
    }

    fn first(streamed: &[StreamEvent]) -> Option<(usize, Field)> {
        compare("unit", 1, 1001, &stream(), streamed)
            .err()
            .map(|d| (d.window, d.field))
    }

    #[test]
    fn identical_stream_has_no_divergence() {
        assert_eq!(compare("unit", 0, 1000, &stream(), &stream()), Ok(()));
        assert_eq!(compare("unit", 0, 1000, &[], &[]), Ok(()));
    }

    #[test]
    fn each_field_diverges_at_its_window() {
        let mut s = stream();
        s[3].alarm = !s[3].alarm;
        assert_eq!(first(&s), Some((3, Field::Alarm)));

        let mut s = stream();
        s[5].tracked = RegionId::new(7);
        assert_eq!(first(&s), Some((5, Field::Tracked)));

        let mut s = stream();
        s[1].event = MonitorEvent::Anomaly;
        assert_eq!(first(&s), Some((1, Field::Event)));

        let mut s = stream();
        s[4].window = 5;
        assert_eq!(first(&s), Some((4, Field::Index)));
    }

    #[test]
    fn missing_and_extra_windows_diverge_at_the_end() {
        let s = stream();
        assert_eq!(first(&s[..5]), Some((5, Field::Missing)));

        let mut s = stream();
        s.push(StreamEvent { window: 6, ..s[5] });
        assert_eq!(first(&s), Some((6, Field::Extra)));
    }

    #[test]
    fn divergence_names_path_run_seed_and_window() {
        let mut s = stream();
        s[2].alarm = false;
        let d = compare("chaos/drops", 1, 1001, &stream(), &s).unwrap_err();
        assert_eq!(
            d.to_string(),
            "[chaos/drops] run 1 (seed 1001): alarm differs at window 2"
        );
    }

    #[test]
    fn chunkings_cover_the_signal_in_bounded_pieces() {
        let signal: Vec<f32> = (0..1000).map(|i| i as f32).collect();
        for (seed, max) in [(7, 1), (11, 97), (13, 1000), (17, 5000)] {
            let chunks = chunked(&signal, seed, max);
            assert!(chunks.iter().all(|c| (1..=max).contains(&c.len())));
            assert_eq!(chunks.concat(), signal);
            assert_eq!(chunks, chunked(&signal, seed, max), "seeded");
        }
    }
}
