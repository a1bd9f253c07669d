//! `soak`: the store-tier endurance run behind the PR's headline gate.
//!
//! Registers a large fleet (default 1 000 devices, `--devices 100000`
//! for the full soak) over a handful of distinct programs against a
//! [`eddie_store::SessionStore`] with a resident budget far below the
//! fleet size, then streams rotating windows of chunks so every round
//! thaws a cold slice of the fleet and reparks the previous one. Along
//! the way it asserts the store tier's whole contract:
//!
//! * **One model per program** — sessions of the same program hold one
//!   `TrainedModel` allocation (a same-program resident pair is
//!   `Arc::ptr_eq`).
//! * **Ledger conservation** — after every drain,
//!   `resident + parked == added - evicted`, and no park or thaw
//!   failures accumulate.
//! * **Bytes-per-session budget** — the ledger's resident footprint
//!   estimate never exceeds `--max-bytes-per-session` (default 256 KiB).
//!   The measured figure for the committed 100k run is recorded in
//!   `EXPERIMENTS.md`.
//! * **Park → thaw → replay byte-identity** — a tracked set of devices
//!   is force-parked every round and must still emit exactly the event
//!   stream a never-parked batch `MonitorSession` produces for the same
//!   chunk sequence, checked with the gates' comparator
//!   ([`crate::diff::compare`]), which names the first window and field
//!   that differ.
//!
//! The run is deterministic: rotation order, park victims (LRU by
//! logical tick), and every emitted event are pure functions of the
//! configuration, so the soak passes or fails identically at every
//! `EDDIE_THREADS` value and under both decide kernels.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use eddie_core::TrainedModel;
use eddie_store::{SessionStore, StoreConfig};
use eddie_stream::{Fleet, FleetConfig, MonitorSession, PushResult, StreamEvent};
use eddie_workloads::Benchmark;

use crate::format_table;
use crate::harness::{sim_pipeline, train_benchmark};

/// Simulation seed for the monitored signal (distinct from training).
const MONITOR_SEED: u64 = 1000;
/// Workload scale / training runs: small — the soak stresses the store,
/// not the trainer.
const WL_SCALE: u32 = 2;
const TRAIN_RUNS: usize = 2;
/// Devices whose event streams are diffed against a batch twin.
const TRACKED: usize = 4;
/// Benchmarks the `--programs` knob draws from, in order.
const PROGRAMS: &[Benchmark] = &[
    Benchmark::Bitcount,
    Benchmark::Sha,
    Benchmark::Fft,
    Benchmark::Dijkstra,
    Benchmark::Basicmath,
    Benchmark::Stringsearch,
];

/// Knobs for one soak run. Built by [`soak`] from CLI flags; tests and
/// the CI smoke construct it directly.
#[derive(Debug, Clone)]
pub struct SoakConfig {
    /// Fleet size.
    pub devices: usize,
    /// Distinct programs (one trained model each).
    pub programs: usize,
    /// Store resident budget (sessions kept in RAM).
    pub budget: usize,
    /// Samples per pushed chunk.
    pub chunk: usize,
    /// Streaming rounds after admission.
    pub rounds: usize,
    /// Spill directory (created, then removed on success).
    pub spill_dir: PathBuf,
    /// Hard ceiling on the ledger's resident bytes-per-session figure.
    pub max_bytes_per_session: f64,
}

impl SoakConfig {
    /// Defaults sized for the CI smoke: 1 000 devices, budget 128.
    pub fn smoke(spill_dir: impl Into<PathBuf>) -> Self {
        SoakConfig {
            devices: 1000,
            programs: 2,
            budget: 128,
            chunk: 2048,
            rounds: 6,
            spill_dir: spill_dir.into(),
            max_bytes_per_session: DEFAULT_MAX_BYTES,
        }
    }
}

/// Default `--max-bytes-per-session` ceiling: 256 KiB.
const DEFAULT_MAX_BYTES: f64 = 256.0 * 1024.0;

/// What a completed soak measured; [`render`](SoakReport::render) turns
/// it into the CLI table.
#[derive(Debug, Clone)]
pub struct SoakReport {
    /// The configuration the run used.
    pub devices: usize,
    /// Distinct programs requested.
    pub programs: usize,
    /// Total park operations over the run.
    pub parks: u64,
    /// Total thaw operations over the run.
    pub thaws: u64,
    /// Spill-log compactions triggered.
    pub compactions: u64,
    /// Peak of the ledger's resident bytes-per-session estimate.
    pub max_bytes_per_session: f64,
    /// Final spill file size in bytes.
    pub spill_bytes: i64,
    /// Events emitted by each tracked device (all byte-identical to
    /// their batch twins by the time the report exists).
    pub tracked_events: usize,
    /// Wall-clock seconds the run took.
    pub elapsed_s: f64,
}

impl SoakReport {
    /// The aligned summary table the CLI prints.
    pub fn render(&self) -> String {
        let rows = vec![
            vec!["devices".to_string(), self.devices.to_string()],
            vec!["programs".to_string(), self.programs.to_string()],
            vec!["parks".to_string(), self.parks.to_string()],
            vec!["thaws".to_string(), self.thaws.to_string()],
            vec!["compactions".to_string(), self.compactions.to_string()],
            vec![
                "max bytes/session".to_string(),
                format!("{:.0}", self.max_bytes_per_session),
            ],
            vec!["spill bytes".to_string(), self.spill_bytes.to_string()],
            vec![
                "tracked events".to_string(),
                format!("{} (byte-identical to batch)", self.tracked_events),
            ],
            vec!["elapsed".to_string(), format!("{:.1}s", self.elapsed_s)],
        ];
        format_table(&["metric", "value"], &rows)
    }
}

/// Runs the soak described by `cfg` and returns its report, or a
/// description of the first violated invariant.
///
/// # Errors
///
/// Any failed assertion — shared models, ledger conservation, the
/// bytes-per-session ceiling, park/thaw failures, or a tracked device
/// whose replayed events diverge from its batch twin.
pub fn run_soak(cfg: &SoakConfig) -> Result<SoakReport, String> {
    if cfg.devices == 0 || cfg.budget == 0 || cfg.rounds == 0 || cfg.chunk == 0 {
        return Err("devices, budget, rounds, and chunk must all be positive".to_string());
    }
    if cfg.programs == 0 || cfg.programs > PROGRAMS.len() {
        return Err(format!(
            "programs must be in 1..={}, got {}",
            PROGRAMS.len(),
            cfg.programs
        ));
    }
    if cfg.devices < TRACKED {
        return Err(format!("need at least {TRACKED} devices"));
    }
    let started = Instant::now();

    // Train one model per program and simulate the monitored signal.
    let pipeline = sim_pipeline();
    let mut models: Vec<Arc<TrainedModel>> = Vec::with_capacity(cfg.programs);
    let mut signal: Vec<f32> = Vec::new();
    let mut rate = 0.0;
    for (p, &bench) in PROGRAMS.iter().take(cfg.programs).enumerate() {
        eprintln!("# soak: training program {p} ({bench:?})...");
        let (w, model) = train_benchmark(&pipeline, bench, WL_SCALE, TRAIN_RUNS);
        if p == 0 {
            let result = pipeline.simulate(w.program(), |m| w.prepare(m, MONITOR_SEED), None);
            rate = result.power.sample_rate_hz();
            signal = result.power.samples;
        }
        models.push(Arc::new(model));
    }
    let chunks: Vec<&[f32]> = signal.chunks(cfg.chunk).collect();
    if chunks.is_empty() {
        return Err("monitored signal shorter than one chunk".to_string());
    }

    let _ = std::fs::remove_dir_all(&cfg.spill_dir);
    let store = SessionStore::open(
        StoreConfig::builder(&cfg.spill_dir)
            .resident_budget(cfg.budget)
            .build()
            .map_err(|e| format!("store config: {e}"))?,
    )
    .map_err(|e| format!("open store: {e}"))?;
    let mut fleet = Fleet::with_store(FleetConfig::default(), store);

    // Admission: register every device, draining each budget-sized
    // batch so the fleet parks down as it grows instead of holding
    // `devices` sessions resident at the peak.
    eprintln!("# soak: admitting {} devices...", cfg.devices);
    let mut devs = Vec::with_capacity(cfg.devices);
    for i in 0..cfg.devices {
        let model = models[i % cfg.programs].clone();
        let session =
            MonitorSession::new(model, rate).map_err(|e| format!("session for device {i}: {e}"))?;
        devs.push(fleet.add_session(session));
        if devs.len() % cfg.budget == 0 {
            let _ = fleet.drain();
            check_ledger(&fleet, "admission")?;
        }
    }
    let _ = fleet.drain();
    check_ledger(&fleet, "admission complete")?;

    assert_resident_pair_shares(&mut fleet, &devs, cfg.programs)?;

    // Streaming: tracked devices are force-parked then fed every round
    // (thaw-on-push each time); the rest rotate through in
    // budget-sized windows so cold devices keep cycling in and out.
    let mut tracked_events: Vec<Vec<StreamEvent>> = vec![Vec::new(); TRACKED];
    let mut fed: Vec<usize> = Vec::new();
    let mut max_bps = 0.0f64;
    let rotation = &devs[TRACKED..];
    for r in 0..cfg.rounds {
        let chunk = chunks[r % chunks.len()];
        for &d in devs.iter().take(TRACKED) {
            let _ = fleet
                .park(d)
                .map_err(|e| format!("round {r}: park tracked {}: {e}", d.index()))?;
            if fleet.push_chunk(d, chunk.to_vec()) != PushResult::Accepted {
                return Err(format!("round {r}: tracked device {} refused", d.index()));
            }
        }
        fed.push(r % chunks.len());
        if !rotation.is_empty() {
            let start = (r * cfg.budget) % rotation.len();
            for k in 0..cfg.budget.min(rotation.len()) {
                let d = rotation[(start + k) % rotation.len()];
                if fleet.push_chunk(d, chunk.to_vec()) != PushResult::Accepted {
                    return Err(format!("round {r}: device {} refused", d.index()));
                }
            }
        }
        for (dev, evs) in fleet.drain() {
            if let Some(t) = devs[..TRACKED].iter().position(|&d| d == dev) {
                tracked_events[t].extend(evs);
            }
        }
        check_ledger(&fleet, &format!("round {r}"))?;
        let ledger = fleet.ledger_snapshot().expect("store attached");
        max_bps = max_bps.max(ledger.bytes_per_session());
        eprintln!(
            "# soak: round {r}: resident {}, parked {}, {:.0} bytes/session, spill {} bytes",
            ledger.resident,
            ledger.parked,
            ledger.bytes_per_session(),
            ledger.spill_bytes
        );
    }

    if max_bps > cfg.max_bytes_per_session {
        return Err(format!(
            "bytes-per-session budget violated: peak {max_bps:.0} > ceiling {:.0}",
            cfg.max_bytes_per_session
        ));
    }

    // Park → thaw → replay byte-identity: each tracked device crossed
    // the spill log every round, so its accumulated stream is the
    // store tier's end-to-end output.
    for (t, streamed) in tracked_events.iter().enumerate() {
        let mut twin = MonitorSession::new(models[t % cfg.programs].clone(), rate)
            .map_err(|e| format!("twin session: {e}"))?;
        let mut batch = Vec::new();
        for &c in &fed {
            batch.extend(twin.push(chunks[c]));
        }
        crate::diff::compare("soak", t, MONITOR_SEED, &batch, streamed)
            .map_err(|d| d.to_string())?;
    }

    let ledger = fleet.ledger_snapshot().expect("store attached");
    if ledger.park_failures != 0 || ledger.thaw_failures != 0 {
        return Err(format!(
            "park/thaw failures: {} parks, {} thaws failed",
            ledger.park_failures, ledger.thaw_failures
        ));
    }

    let report = SoakReport {
        devices: cfg.devices,
        programs: cfg.programs,
        parks: ledger.parks,
        thaws: ledger.thaws,
        compactions: ledger.compactions,
        max_bytes_per_session: max_bps,
        spill_bytes: ledger.spill_bytes,
        tracked_events: tracked_events.iter().map(Vec::len).sum(),
        elapsed_s: started.elapsed().as_secs_f64(),
    };
    drop(fleet);
    let _ = std::fs::remove_dir_all(&cfg.spill_dir);
    Ok(report)
}

fn check_ledger(fleet: &Fleet, when: &str) -> Result<(), String> {
    let ledger = fleet.ledger_snapshot().expect("store attached");
    if !ledger.conserved() {
        return Err(format!(
            "ledger conservation violated at {when}: resident {} + parked {} != \
             added {} - evicted {}",
            ledger.resident, ledger.parked, ledger.added, ledger.evicted
        ));
    }
    Ok(())
}

/// Two resident sessions of the same program must hold the *same*
/// `TrainedModel` allocation, not equal copies.
fn assert_resident_pair_shares(
    fleet: &mut Fleet,
    devs: &[eddie_stream::DeviceId],
    programs: usize,
) -> Result<(), String> {
    // Devices 0 and `programs` share program 0; thaw both so
    // `Fleet::session` can hand out references.
    if devs.len() <= programs {
        return Ok(());
    }
    let (a, b) = (devs[0], devs[programs]);
    for d in [a, b] {
        fleet
            .thaw(d)
            .map_err(|e| format!("thaw {} for share check: {e}", d.index()))?;
    }
    if !Arc::ptr_eq(fleet.session(a).model(), fleet.session(b).model()) {
        return Err(format!(
            "devices {} and {} run the same program but hold distinct model allocations",
            a.index(),
            b.index()
        ));
    }
    Ok(())
}

/// `eddie-experiments soak [--devices N] [--programs P] [--budget N]
/// [--chunk N] [--rounds N] [--spill DIR] [--max-bytes-per-session B]`
pub fn soak(args: &[String]) -> Result<String, String> {
    let flag = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
    };
    let num = |name: &str, default: usize| -> Result<usize, String> {
        match flag(name) {
            None => Ok(default),
            Some(raw) => raw
                .parse()
                .ok()
                .filter(|&n| n > 0)
                .ok_or_else(|| format!("{name} wants a positive integer, got {raw:?}")),
        }
    };
    let devices = num("--devices", 1000)?;
    let mut cfg = SoakConfig {
        devices,
        programs: num("--programs", 2)?,
        budget: num("--budget", (devices / 8).max(64))?,
        chunk: num("--chunk", 2048)?,
        rounds: num("--rounds", 6)?,
        spill_dir: flag("--spill").map_or_else(
            || std::env::temp_dir().join(format!("eddie-soak-{}", std::process::id())),
            PathBuf::from,
        ),
        max_bytes_per_session: DEFAULT_MAX_BYTES,
    };
    if let Some(raw) = flag("--max-bytes-per-session") {
        cfg.max_bytes_per_session =
            raw.parse::<f64>()
                .ok()
                .filter(|&v| v > 0.0)
                .ok_or_else(|| {
                    format!("--max-bytes-per-session wants a positive number, got {raw:?}")
                })?;
    }
    let report = run_soak(&cfg)?;
    Ok(report.render())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A miniature soak end to end: every invariant the full run
    /// asserts, at a size that finishes in seconds.
    #[test]
    fn mini_soak_passes_every_invariant() {
        let dir = std::env::temp_dir().join(format!("eddie-soaktest-{}", std::process::id()));
        let cfg = SoakConfig {
            devices: 48,
            programs: 2,
            budget: 8,
            chunk: 1024,
            rounds: 4,
            spill_dir: dir,
            max_bytes_per_session: 1024.0 * 1024.0,
        };
        let report = run_soak(&cfg).expect("mini soak");
        assert!(report.parks > 0, "budget must force parking");
        assert!(report.thaws > 0, "rotation must force thawing");
        assert!(report.tracked_events > 0, "tracked devices must emit");
        assert!(report.max_bytes_per_session > 0.0);
        let table = report.render();
        assert!(table.contains("byte-identical to batch"), "{table}");
    }

    #[test]
    fn soak_rejects_nonsense_flags() {
        assert!(soak(&["--devices".into(), "0".into()]).is_err());
        assert!(soak(&["--programs".into(), "nope".into()]).is_err());
    }
}
