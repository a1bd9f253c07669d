//! `bench-json`: fixed-iteration perf snapshots for the CI perf gate.
//!
//! Adaptive-sampling bench harnesses are great for humans and useless
//! for a regression gate: run counts vary, output is a report
//! directory, and parsing it is fragile. This subcommand runs the hot
//! loops that
//! matter — per-window **decide**, session **ingest**, fleet **drain**,
//! ring **lookup**, the live-migration **round trip**, the store tier's
//! **park**/**thaw** spill path (plus its resident bytes-per-session
//! footprint), the reactor tier's connection **churn** and poll
//! **dispatch**, and the noise-robust training tier's SVD
//! **denoise** pass and CFG-derived **synthetic training** — a fixed
//! number of times each and emits one flat JSON array with a stable
//! schema:
//!
//! ```json
//! [{"bench": "decide_hot_loop", "ns_per_iter": 401.2,
//!   "throughput": 2492522.4, "threads": 1, "git_sha": "41acb28"}]
//! ```
//!
//! * `ns_per_iter` — nanoseconds per unit of work (one window for
//!   `decide_hot_loop`, one full signal pass for the ingest/drain
//!   benches).
//! * `throughput` — units per second: windows/s for decide, samples/s
//!   for ingest and drain.
//! * `threads` — the worker-pool width the bench forces.
//! * `git_sha` — `git rev-parse --short HEAD`, overridable with
//!   `EDDIE_GIT_SHA` (for checkouts without `.git`, e.g. tarballs).
//!
//! `--check FILE` re-runs the suite and fails (non-zero exit) when
//! `decide_hot_loop` throughput regresses more than the tolerance
//! (default 25 %, override with `EDDIE_BENCH_TOLERANCE=0.40`) against
//! the committed snapshot — that is the CI perf-regression gate.

use std::hint::black_box;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use eddie_cluster::{shard_token_base, HashRing, Membership, RingConfig};
use eddie_core::{
    MonitorState, Sts, Synthetic, SyntheticTrainConfig, TrainedModel, TrainingSource,
};
use eddie_dsp::{DspStage, Spectrum, Stft, StftConfig, SvdDenoiser, SvdDenoiserConfig};
use eddie_exec::with_threads;
use eddie_serve::{read_frame, write_frame, Frame, ModelRegistry, Server, ServerConfig};
use eddie_stream::{Fleet, FleetConfig, MonitorSession, PushResult};
use eddie_workloads::{Benchmark, WorkloadParams};

use crate::harness::{sim_pipeline, train_benchmark};

/// Workload scale / training runs of the fixture, fixed so committed
/// snapshots stay comparable.
const WL_SCALE: u32 = 2;
const TRAIN_RUNS: usize = 3;
/// Simulation seed for the monitored signal.
const MONITOR_SEED: u64 = 1000;
/// Devices in the fleet-drain bench.
const DEVICES: usize = 8;

/// The bench whose throughput the CI gate protects.
pub const GATED_BENCH: &str = "decide_hot_loop";
/// Default allowed relative throughput regression for the gate.
pub const DEFAULT_TOLERANCE: f64 = 0.25;

/// One measurement, serialised as one JSON object.
///
/// Field order here is the schema — `render_json` writes keys in
/// declaration order and CI diffs depend on it staying put.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRecord {
    /// Bench identifier, e.g. `decide_hot_loop`.
    pub bench: String,
    /// Nanoseconds per unit of work (window or signal pass).
    pub ns_per_iter: f64,
    /// Units per second (windows/s or samples/s).
    pub throughput: f64,
    /// Worker-pool width the bench forced.
    pub threads: usize,
    /// Short git SHA of the measured tree.
    pub git_sha: String,
}

struct Fixture {
    model: Arc<TrainedModel>,
    signal: Vec<f32>,
    rate: f64,
    /// The STS stream the monitor would see for `signal` — input to the
    /// pure-decide hot loop.
    stss: Vec<Sts>,
}

fn fixture() -> Fixture {
    let pipeline = sim_pipeline();
    let (w, model) = train_benchmark(&pipeline, Benchmark::Bitcount, WL_SCALE, TRAIN_RUNS);
    let result = pipeline.simulate(w.program(), |m| w.prepare(m, MONITOR_SEED), None);
    let rate = result.power.sample_rate_hz();
    let signal = result.power.samples;

    // Batch STFT is bit-identical to the streaming STFT the session
    // runs, so this is exactly the STS stream `MonitorSession::push`
    // would feed the monitor.
    let stft = Stft::new(StftConfig {
        window_len: model.config.window_len,
        hop: model.config.hop,
        window: model.config.window,
        sample_rate_hz: rate,
    })
    .expect("fixture stft config");
    let stss: Vec<Sts> = stft
        .process_real(&signal)
        .iter()
        .enumerate()
        .map(|(i, sp)| Sts::from_spectrum(i, sp, &model.config.peaks))
        .collect();

    Fixture {
        model: Arc::new(model),
        signal,
        rate,
        stss,
    }
}

fn git_sha() -> String {
    if let Ok(sha) = std::env::var("EDDIE_GIT_SHA") {
        return sha;
    }
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Times `passes` runs of `routine` after one untimed warmup pass and
/// returns total elapsed nanoseconds.
fn timed(passes: usize, mut routine: impl FnMut()) -> f64 {
    routine();
    let start = Instant::now();
    for _ in 0..passes {
        routine();
    }
    start.elapsed().as_nanos() as f64
}

/// Pure per-window decide throughput: `MonitorState::observe` over the
/// precomputed STS stream. No STFT, no peak extraction — this isolates
/// the K-S decide path the quantized kernel accelerates, and is the
/// number the CI perf gate protects.
fn bench_decide(fx: &Fixture, passes: usize, sha: &str) -> BenchRecord {
    let windows = fx.stss.len().max(1);
    let total_ns = timed(passes, || {
        let mut mon = MonitorState::try_new(&fx.model).expect("non-empty model");
        for sts in &fx.stss {
            black_box(mon.observe(&fx.model, sts.clone()));
        }
    });
    let iters = (passes * windows) as f64;
    BenchRecord {
        bench: GATED_BENCH.to_string(),
        ns_per_iter: total_ns / iters,
        throughput: iters / (total_ns / 1e9),
        threads: 1,
        git_sha: sha.to_string(),
    }
}

/// End-to-end session ingest (STFT + peaks + decide) at one chunk size.
fn bench_ingest(fx: &Fixture, chunk: usize, passes: usize, sha: &str) -> BenchRecord {
    let total_ns = timed(passes, || {
        let mut s = MonitorSession::new(fx.model.clone(), fx.rate).expect("session");
        let mut events = 0usize;
        for c in fx.signal.chunks(chunk) {
            events += s.push(black_box(c)).len();
        }
        black_box(events);
    });
    let per_pass = total_ns / passes as f64;
    BenchRecord {
        bench: format!("session_ingest_chunk{chunk}"),
        ns_per_iter: per_pass,
        throughput: (passes * fx.signal.len()) as f64 / (total_ns / 1e9),
        threads: 1,
        git_sha: sha.to_string(),
    }
}

/// Fleet drain: 8 devices ingesting the same signal through the shared
/// worker pool at width 4.
fn bench_fleet(fx: &Fixture, passes: usize, sha: &str) -> BenchRecord {
    const THREADS: usize = 4;
    let total_ns = timed(passes, || {
        with_threads(THREADS, || {
            let mut fleet = Fleet::new(FleetConfig::default());
            let devs: Vec<_> = (0..DEVICES)
                .map(|_| fleet.add_session(MonitorSession::new(fx.model.clone(), fx.rate).unwrap()))
                .collect();
            let mut events = 0usize;
            for chunk in fx.signal.chunks(4096) {
                for &d in &devs {
                    while fleet.push_chunk(d, chunk.to_vec()) == PushResult::Full {
                        events += fleet.drain().iter().map(|(_, e)| e.len()).sum::<usize>();
                    }
                }
            }
            events += fleet.drain().iter().map(|(_, e)| e.len()).sum::<usize>();
            black_box(events)
        });
    });
    let per_pass = total_ns / passes as f64;
    BenchRecord {
        bench: format!("fleet_{DEVICES}dev_drain_{THREADS}threads"),
        ns_per_iter: per_pass,
        throughput: (passes * fx.signal.len() * DEVICES) as f64 / (total_ns / 1e9),
        threads: THREADS,
        git_sha: sha.to_string(),
    }
}

/// Consistent-hash placement: one `lookup` per admission bounds router
/// throughput. Pure CPU over a 16-member ring at the default vnode
/// count.
fn bench_ring(_fx: &Fixture, passes: usize, sha: &str) -> BenchRecord {
    const MEMBERS: usize = 16;
    const KEYS: u64 = 100_000;
    let membership = Membership::new((0..MEMBERS).map(|i| format!("s{i}")), RingConfig::default())
        .expect("bench membership");
    let ring = HashRing::build(&membership);
    let total_ns = timed(passes, || {
        let mut spread = 0usize;
        for key in 0..KEYS {
            spread += ring.lookup(black_box(key));
        }
        black_box(spread);
    });
    let iters = passes as f64 * KEYS as f64;
    BenchRecord {
        bench: "cluster_ring_lookup".to_string(),
        ns_per_iter: total_ns / iters,
        throughput: iters / (total_ns / 1e9),
        threads: 1,
        git_sha: sha.to_string(),
    }
}

/// Live-migration round trip: export → import → finish_export between
/// two real shards on loopback, with no client streaming — the latency
/// a rebalance pays per moved session. Ping-pongs A→B→A so every
/// measured pass starts from identical state.
fn bench_migration(fx: &Fixture, passes: usize, sha: &str) -> BenchRecord {
    const MODEL_ID: &str = "bench-model";
    const MOVES_PER_PASS: usize = 8;
    let mut handles = Vec::new();
    let mut joins = Vec::new();
    for i in 0..2usize {
        let mut registry = ModelRegistry::new();
        registry.insert(MODEL_ID, fx.model.clone());
        let config = ServerConfig::builder()
            .with_token_base(shard_token_base(i))
            .with_resume_linger(Duration::from_secs(60))
            .build()
            .expect("bench server config");
        let server = Server::bind("127.0.0.1:0", registry, config).expect("bind bench shard");
        handles.push(server.handle());
        joins.push(std::thread::spawn(move || server.run()));
    }
    let (a, b) = (&handles[0], &handles[1]);
    let (addr_a, addr_b) = (a.addr().to_string(), b.addr().to_string());

    // Park one resumable session on A: handshake, then drop the
    // connection.
    let token = {
        let mut stream = TcpStream::connect(a.addr()).expect("connect bench shard");
        write_frame(
            &mut stream,
            &Frame::HelloResumable {
                model_id: MODEL_ID.to_string(),
                sample_rate: fx.rate,
            },
        )
        .expect("hello");
        match read_frame(&mut stream).expect("read").expect("eof") {
            Frame::Session { token, .. } => token,
            other => panic!("expected Session, got {other:?}"),
        }
    };

    let total_ns = timed(passes, || {
        for _ in 0..MOVES_PER_PASS / 2 {
            let e = a.export_session(token).expect("export from a");
            b.import_session(e).expect("import into b");
            a.finish_export(token, &addr_b);
            let e = b.export_session(token).expect("export from b");
            a.import_session(e).expect("import into a");
            b.finish_export(token, &addr_a);
        }
    });

    for h in &handles {
        h.shutdown();
    }
    for join in joins {
        join.join()
            .expect("bench shard thread")
            .expect("bench shard run");
    }

    let iters = (passes * MOVES_PER_PASS) as f64;
    BenchRecord {
        bench: "cluster_migration_rtt".to_string(),
        ns_per_iter: total_ns / iters,
        throughput: iters / (total_ns / 1e9),
        threads: 1,
        git_sha: sha.to_string(),
    }
}

/// Reactor connection churn: the full accept → register → decode →
/// reply → teardown cycle through the live reactor backend. One
/// iteration connects, round-trips a `Stats` frame (so the accept and
/// the registered readable interest are both provably live), and drops
/// the socket — the per-connection cost the epoll tier pays at fleet
/// scale.
fn bench_net_churn(fx: &Fixture, passes: usize, sha: &str) -> BenchRecord {
    const MODEL_ID: &str = "bench-model";
    const CONNS_PER_PASS: usize = 64;
    let mut registry = ModelRegistry::new();
    registry.insert(MODEL_ID, fx.model.clone());
    let server =
        Server::bind("127.0.0.1:0", registry, ServerConfig::default()).expect("bind bench net");
    let handle = server.handle();
    let join = std::thread::spawn(move || server.run());
    let addr = handle.addr();

    let total_ns = timed(passes, || {
        for _ in 0..CONNS_PER_PASS {
            let mut s = TcpStream::connect(addr).expect("bench net connect");
            write_frame(&mut s, &Frame::Stats).expect("stats frame");
            match read_frame(&mut s).expect("stats reply").expect("eof") {
                Frame::StatsReply { .. } => {}
                other => panic!("expected StatsReply, got {other:?}"),
            }
        }
    });

    handle.shutdown();
    join.join()
        .expect("bench net thread")
        .expect("bench net run");

    let iters = (passes * CONNS_PER_PASS) as f64;
    BenchRecord {
        bench: "net_conn_churn_ns".to_string(),
        ns_per_iter: total_ns / iters,
        throughput: iters / (total_ns / 1e9),
        threads: 1,
        git_sha: sha.to_string(),
    }
}

/// Raw poller dispatch: one always-ready descriptor, one
/// `Reactor::poll` round trip per iteration — the floor under every
/// readiness event the ingestion tier dispatches. Uses a private
/// registry so the bench does not pollute the process-wide
/// `eddie_net_*` books more than it must (the metric handles
/// themselves are global by design).
fn bench_net_dispatch(_fx: &Fixture, passes: usize, sha: &str) -> BenchRecord {
    const WAKES_PER_PASS: usize = 4096;
    let registry = eddie_obs::Registry::new();
    let mut reactor = eddie_net::Reactor::new(&registry).expect("bench reactor");
    let (r, w) = eddie_net::sys::nonblocking_pipe().expect("bench pipe");
    reactor
        .register(r, 7, eddie_net::Interest::READABLE)
        .expect("bench register");
    let mut events = Vec::new();
    let mut buf = [0u8; 8];

    let total_ns = timed(passes, || {
        for _ in 0..WAKES_PER_PASS {
            eddie_net::sys::write_fd(w, b"x").expect("bench wake write");
            let woken = reactor
                .poll(&mut events, Some(Duration::from_secs(1)))
                .expect("bench poll");
            assert!(!woken && events.len() == 1, "pipe readiness expected");
            eddie_net::sys::read_fd(r, &mut buf).expect("bench drain");
        }
    });

    reactor.deregister(r).expect("bench deregister");
    eddie_net::sys::close_fd(r);
    eddie_net::sys::close_fd(w);

    let iters = (passes * WAKES_PER_PASS) as f64;
    BenchRecord {
        bench: "net_poll_dispatch_ns".to_string(),
        ns_per_iter: total_ns / iters,
        throughput: iters / (total_ns / 1e9),
        threads: 1,
        git_sha: sha.to_string(),
    }
}

/// Store tier: park and thaw latency over real spill-log I/O, plus the
/// resident footprint. Three records ride the same flat schema:
///
/// * `store_park_ns` / `store_thaw_ns` — `ns_per_iter` is the latency
///   of one park (snapshot + serialize + append) or one thaw (read +
///   parse + restore); `throughput` is operations per second.
/// * `store_bytes_per_session` — the ledger's resident-bytes estimate
///   divided by session count. Not a duration: both `ns_per_iter` and
///   `throughput` carry the byte figure (the schema is fixed; the soak
///   budget in EXPERIMENTS.md is the authoritative consumer).
fn bench_store(fx: &Fixture, passes: usize, sha: &str) -> Vec<BenchRecord> {
    const SESSIONS: usize = 32;
    let dir = std::env::temp_dir().join(format!("eddie-store-benchjson-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = eddie_store::SessionStore::open(
        eddie_store::StoreConfig::builder(&dir)
            .resident_budget(SESSIONS)
            .build()
            .expect("bench store config"),
    )
    .expect("open bench store");
    let mut fleet = Fleet::with_store(FleetConfig::default(), store);
    let devs: Vec<_> = (0..SESSIONS)
        .map(|_| fleet.add_session(MonitorSession::new(fx.model.clone(), fx.rate).unwrap()))
        .collect();
    // Give every session real state so snapshots have real weight.
    let warm = &fx.signal[..fx.signal.len().min(4096)];
    for &d in &devs {
        assert_eq!(fleet.push_chunk(d, warm.to_vec()), PushResult::Accepted);
    }
    let _ = fleet.drain();
    let bytes_per_session = fleet
        .ledger_snapshot()
        .map_or(0.0, |l| l.bytes_per_session());

    // Warmup cycle, then timed park and thaw sweeps.
    for &d in &devs {
        assert!(fleet.park(d).expect("warmup park"), "park must succeed");
    }
    for &d in &devs {
        fleet.thaw(d).expect("warmup thaw");
    }
    let (mut park_ns, mut thaw_ns) = (0f64, 0f64);
    for _ in 0..passes {
        let t = Instant::now();
        for &d in &devs {
            assert!(fleet.park(d).expect("park"), "park must succeed");
        }
        park_ns += t.elapsed().as_nanos() as f64;
        let t = Instant::now();
        for &d in &devs {
            fleet.thaw(d).expect("thaw");
        }
        thaw_ns += t.elapsed().as_nanos() as f64;
    }
    drop(fleet);
    let _ = std::fs::remove_dir_all(&dir);

    let iters = (passes * SESSIONS) as f64;
    let rec = |bench: &str, ns: f64, tp: f64| BenchRecord {
        bench: bench.to_string(),
        ns_per_iter: ns,
        throughput: tp,
        threads: 1,
        git_sha: sha.to_string(),
    };
    vec![
        rec("store_park_ns", park_ns / iters, iters / (park_ns / 1e9)),
        rec("store_thaw_ns", thaw_ns / iters, iters / (thaw_ns / 1e9)),
        rec(
            "store_bytes_per_session",
            bytes_per_session,
            bytes_per_session,
        ),
    ]
}

/// PR 10's DSP tier: rank-1 SVD denoising over the fixture's full STFT
/// spectrum sequence at the noise gate's block size. `ns_per_iter` is
/// per window, `throughput` windows/s — the per-window tax a denoised
/// pipeline pays on top of plain STFT + peaks.
fn bench_svd_denoise(fx: &Fixture, passes: usize, sha: &str) -> BenchRecord {
    let stft = Stft::new(StftConfig {
        window_len: fx.model.config.window_len,
        hop: fx.model.config.hop,
        window: fx.model.config.window,
        sample_rate_hz: fx.rate,
    })
    .expect("svd bench stft config");
    let spectra: Vec<Spectrum> = stft.process_real(&fx.signal);
    let windows = spectra.len().max(1);
    let denoiser = SvdDenoiser::new(SvdDenoiserConfig::new().with_block_windows(16).with_rank(1))
        .expect("svd bench denoiser");
    let total_ns = timed(passes, || {
        black_box(denoiser.apply(black_box(spectra.clone())));
    });
    let iters = (passes * windows) as f64;
    BenchRecord {
        bench: "svd_denoise_ns".to_string(),
        ns_per_iter: total_ns / iters,
        throughput: iters / (total_ns / 1e9),
        threads: 1,
        git_sha: sha.to_string(),
    }
}

/// PR 10's synthetic training source: one full CFG-derived training
/// (replay + signal + reference build) at the default config.
/// `ns_per_iter` is one complete `train_with` call; `throughput` is
/// trainings/s — what a fleet pays to fingerprint a new firmware image
/// without ever running it instrumented.
fn bench_synthetic_train(_fx: &Fixture, passes: usize, sha: &str) -> BenchRecord {
    let pipeline = sim_pipeline();
    let w = Benchmark::Bitcount.workload(&WorkloadParams { scale: WL_SCALE });
    let source = Synthetic::new(SyntheticTrainConfig::new());
    let total_ns = timed(passes, || {
        black_box(
            source
                .train(&pipeline, w.program())
                .expect("synthetic bench training"),
        );
    });
    let iters = passes as f64;
    BenchRecord {
        bench: "synthetic_train_ns".to_string(),
        ns_per_iter: total_ns / iters,
        throughput: iters / (total_ns / 1e9),
        threads: 1,
        git_sha: sha.to_string(),
    }
}

/// Renders records as the stable flat-array schema: a `[` line, one
/// object per line with keys in schema order, and a `]` line. The byte
/// layout (key order, float formatting) is fixed here and nowhere else.
pub fn render_json(records: &[BenchRecord]) -> String {
    let mut out = String::from("[\n");
    for (i, r) in records.iter().enumerate() {
        out.push_str(&format!(
            "  {{\"bench\": \"{}\", \"ns_per_iter\": {:.3}, \"throughput\": {:.3}, \
             \"threads\": {}, \"git_sha\": \"{}\"}}{}\n",
            r.bench,
            r.ns_per_iter,
            r.throughput,
            r.threads,
            r.git_sha,
            if i + 1 < records.len() { "," } else { "" }
        ));
    }
    out.push(']');
    out.push('\n');
    out
}

/// Parses a snapshot written by [`render_json`]: one record per line,
/// keys in schema order.
pub fn parse_json(json: &str) -> Result<Vec<BenchRecord>, String> {
    let mut lines = json.lines().map(str::trim).filter(|l| !l.is_empty());
    if lines.next() != Some("[") {
        return Err("malformed snapshot: expected `[` on the first line".to_string());
    }
    let mut records = Vec::new();
    while let Some(line) = lines.next() {
        if line == "]" {
            return match lines.next() {
                None => Ok(records),
                Some(extra) => Err(format!("malformed snapshot: {extra:?} after `]`")),
            };
        }
        records
            .push(parse_record(line).ok_or_else(|| format!("malformed snapshot record: {line}"))?);
    }
    Err("malformed snapshot: missing `]`".to_string())
}

/// One `render_json` record line, trailing comma optional.
fn parse_record(line: &str) -> Option<BenchRecord> {
    let body = line
        .strip_suffix(',')
        .unwrap_or(line)
        .strip_prefix('{')?
        .strip_suffix('}')?;
    let mut fields = body.split(", ");
    let mut value = |key: &str| {
        let (k, v) = fields.next()?.split_once(": ")?;
        (k.strip_prefix('"')?.strip_suffix('"')? == key).then_some(v)
    };
    let string = |v: &str| Some(v.strip_prefix('"')?.strip_suffix('"')?.to_string());
    let record = BenchRecord {
        bench: string(value("bench")?)?,
        ns_per_iter: value("ns_per_iter")?.parse().ok()?,
        throughput: value("throughput")?.parse().ok()?,
        threads: value("threads")?.parse().ok()?,
        git_sha: string(value("git_sha")?)?,
    };
    fields.next().is_none().then_some(record)
}

fn tolerance() -> Result<f64, String> {
    match std::env::var("EDDIE_BENCH_TOLERANCE") {
        Err(_) => Ok(DEFAULT_TOLERANCE),
        Ok(raw) => raw
            .parse::<f64>()
            .ok()
            .filter(|t| (0.0..1.0).contains(t))
            .ok_or_else(|| {
                format!("EDDIE_BENCH_TOLERANCE must be a fraction in [0, 1), got {raw:?}")
            }),
    }
}

/// Compares a fresh run against a committed snapshot. Only the
/// decide-path bench gates; everything else is reported informationally
/// (ingest/drain numbers include simulation-independent OS noise and
/// pool scheduling, so they stay advisory).
pub fn check(fresh: &[BenchRecord], committed: &[BenchRecord], tol: f64) -> Result<String, String> {
    let mut out = String::new();
    let baseline = committed
        .iter()
        .find(|r| r.bench == GATED_BENCH)
        .ok_or_else(|| format!("snapshot has no `{GATED_BENCH}` record"))?;
    let current = fresh
        .iter()
        .find(|r| r.bench == GATED_BENCH)
        .ok_or_else(|| format!("fresh run produced no `{GATED_BENCH}` record"))?;

    for f in fresh {
        if let Some(c) = committed.iter().find(|c| c.bench == f.bench) {
            let ratio = f.throughput / c.throughput;
            out.push_str(&format!(
                "{:<28} {:>14.0}/s vs committed {:>14.0}/s  ({:+.1}%)\n",
                f.bench,
                f.throughput,
                c.throughput,
                (ratio - 1.0) * 100.0
            ));
        }
    }

    let floor = baseline.throughput * (1.0 - tol);
    if current.throughput < floor {
        return Err(format!(
            "{out}\nperf gate FAILED: {GATED_BENCH} throughput {:.0}/s is below \
             {:.0}/s ({}% tolerance under committed {:.0}/s from {})",
            current.throughput,
            floor,
            (tol * 100.0).round(),
            baseline.throughput,
            baseline.git_sha,
        ));
    }
    out.push_str(&format!(
        "\nperf gate OK: {GATED_BENCH} {:.0}/s >= floor {:.0}/s \
         ({}% tolerance under committed {:.0}/s from {})\n",
        current.throughput,
        floor,
        (tol * 100.0).round(),
        baseline.throughput,
        baseline.git_sha,
    ));
    Ok(out)
}

/// `eddie-experiments bench-json [--out FILE] [--check FILE] [--passes N]`
///
/// Runs the fixed-iteration suite and prints the JSON snapshot to
/// stdout (and `--out FILE`). With `--check FILE` it additionally
/// compares against the committed snapshot and fails on a
/// decide-throughput regression beyond the tolerance.
pub fn bench_json(args: &[String]) -> Result<String, String> {
    let flag = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
    };
    let passes: usize = match flag("--passes") {
        None => 5,
        Some(raw) => raw
            .parse()
            .ok()
            .filter(|&n| n > 0)
            .ok_or_else(|| format!("--passes wants a positive integer, got {raw:?}"))?,
    };
    let tol = tolerance()?;

    eprintln!("# training fixture (Bitcount, scale {WL_SCALE}, {TRAIN_RUNS} runs)...");
    let fx = fixture();
    let sha = git_sha();
    eprintln!(
        "# signal: {} samples @ {:.0} Hz -> {} windows; {passes} passes/bench; sha {sha}",
        fx.signal.len(),
        fx.rate,
        fx.stss.len()
    );

    let mut records = Vec::new();
    for (name, f) in [
        (
            "decide",
            bench_decide as fn(&Fixture, usize, &str) -> BenchRecord,
        ),
        ("ingest64", |fx, p, s| bench_ingest(fx, 64, p, s)),
        ("ingest4096", |fx, p, s| bench_ingest(fx, 4096, p, s)),
        ("fleet", bench_fleet),
        ("ring", bench_ring),
        ("migration", bench_migration),
        ("net_churn", bench_net_churn),
        ("net_dispatch", bench_net_dispatch),
        ("svd_denoise", bench_svd_denoise),
        ("synthetic_train", bench_synthetic_train),
    ] {
        eprintln!("# running {name}...");
        let r = f(&fx, passes, &sha);
        eprintln!(
            "#   {}: {:.0} ns/iter, {:.0}/s",
            r.bench, r.ns_per_iter, r.throughput
        );
        records.push(r);
    }
    eprintln!("# running store...");
    for r in bench_store(&fx, passes, &sha) {
        eprintln!(
            "#   {}: {:.0} ns/iter, {:.0}/s",
            r.bench, r.ns_per_iter, r.throughput
        );
        records.push(r);
    }

    let json = render_json(&records);
    if let Some(path) = flag("--out") {
        std::fs::write(path, &json).map_err(|e| format!("write {path}: {e}"))?;
    }

    let mut output = json;
    if let Some(path) = flag("--check") {
        let committed =
            std::fs::read_to_string(path).map_err(|e| format!("read snapshot {path}: {e}"))?;
        let report = check(&records, &parse_json(&committed)?, tol)?;
        output.push('\n');
        output.push_str(&report);
    }
    Ok(output)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(bench: &str, throughput: f64) -> BenchRecord {
        BenchRecord {
            bench: bench.to_string(),
            ns_per_iter: 1e9 / throughput,
            throughput,
            threads: 1,
            git_sha: "deadbee".to_string(),
        }
    }

    #[test]
    fn json_round_trips() {
        let records = vec![
            rec("decide_hot_loop", 2.5e6),
            rec("session_ingest_chunk64", 1.9e7),
        ];
        let parsed = parse_json(&render_json(&records)).unwrap();
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].bench, "decide_hot_loop");
        assert_eq!(parsed[0].threads, 1);
        assert_eq!(parsed[0].git_sha, "deadbee");
        assert!((parsed[0].throughput - 2.5e6).abs() < 1e-3);
        assert!((parsed[1].throughput - 1.9e7).abs() < 1e-3);
    }

    #[test]
    fn committed_snapshot_parses() {
        let committed = include_str!("../../../BENCH_PR10.json");
        let records = parse_json(committed).unwrap();
        assert_eq!(records.len(), 13);
        assert_eq!(records[0].bench, GATED_BENCH);
        assert_eq!(records[0].threads, 1);
        assert_eq!(records[0].git_sha, "9475d2c");
    }

    #[test]
    fn malformed_snapshots_are_refused() {
        let good = render_json(&[rec(GATED_BENCH, 1e6)]);
        for bad in [
            String::new(),
            good.replace('[', "{"),
            good.replace(']', ""),
            format!("{good}[\n"),
            good.replace("\"threads\"", "\"thread\""),
            good.replace("\"threads\": 1", "\"threads\": x"),
            good.replace("}", ", \"extra\": 1}"),
        ] {
            assert!(parse_json(&bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn check_passes_within_tolerance() {
        let committed = vec![rec(GATED_BENCH, 1e6)];
        let fresh = vec![rec(GATED_BENCH, 0.80e6)];
        assert!(check(&fresh, &committed, 0.25).is_ok());
    }

    #[test]
    fn check_fails_beyond_tolerance() {
        let committed = vec![rec(GATED_BENCH, 1e6)];
        let fresh = vec![rec(GATED_BENCH, 0.70e6)];
        let err = check(&fresh, &committed, 0.25).unwrap_err();
        assert!(err.contains("perf gate FAILED"), "{err}");
    }

    #[test]
    fn check_improvements_always_pass() {
        let committed = vec![rec(GATED_BENCH, 1e6)];
        let fresh = vec![rec(GATED_BENCH, 7e6)];
        let report = check(&fresh, &committed, 0.25).unwrap();
        assert!(report.contains("perf gate OK"), "{report}");
    }

    #[test]
    fn check_requires_the_gated_bench() {
        let committed = vec![rec("other", 1e6)];
        let fresh = vec![rec(GATED_BENCH, 1e6)];
        assert!(check(&fresh, &committed, 0.25).is_err());
        assert!(check(&committed, &fresh, 0.25).is_err());
    }
}
