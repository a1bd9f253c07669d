//! Synthetic fingerprinting: CFG-derived training signals (Vedros et
//! al., arXiv 2302.02324).
//!
//! Instead of instrumented runs of the monitoring target, this module
//! *synthesizes* each loop region's power waveform from static
//! analysis alone:
//!
//! 1. [`eddie_cfg::RegionBody`] enumerates the region's per-iteration
//!    instruction paths from the CFG, and a small static pass derives
//!    each region's *iteration schedule*: single-path loops replay
//!    their one path; loops with a constant-bounded inner cycle (init,
//!    step and bound all statically visible) replay the inner cycle
//!    its true trip count per outer iteration;
//! 2. [`eddie_sim::PathReplayer`] replays the scheduled paths through
//!    the *real* pipeline timing model, cache hierarchy, branch
//!    predictor and power accounting. Regions replay sequentially in
//!    program order on one shared replayer per run, so later regions
//!    see the cache state earlier ones left behind — a first-touch
//!    sweep misses once per cache line (the miss periodicity that
//!    dominates cold-loop spectra) while a re-sweep of the same array
//!    runs warm, exactly as in real execution. Branch outcomes follow
//!    the schedule, so the predictor sees the real outcome pattern;
//! 3. the replayed [`PowerTrace`] (same bucketing and leakage
//!    normalization as the cycle-level engine, by construction) is
//!    routed through the pipeline's ordinary signal path — EM channel,
//!    denoising stages and all;
//! 4. the labelled synthetic runs feed the standard
//!    [`train_from_labeled`](crate::train_from_labeled).
//!
//! **Coverage rule:** a region whose per-iteration timing is not
//! statically predictable — several alternative outer paths, or an
//! inner cycle whose trip count is data-dependent — cannot be given a
//! detection-grade reference. It still gets a *tracking-grade* one by
//! default: a fallback schedule (a 1–31 trip-count ladder per inner
//! cycle when the outer path is unique, a path round-robin otherwise)
//! whose mixture spectrum spans the region's plausible iteration
//! timings. At EDDIE's small K-S group sizes a reference only needs
//! *support overlap* with the real windows to keep accepting, so the
//! mixture keeps the monitor tracking through the region (leaving a
//! large region untrained strands the monitor for its entire span and
//! floods the run with false positives). Set
//! [`SyntheticTrainConfig::include_unbounded`] to `false` to train
//! only provably-scheduled regions.
//!
//! The result is a usable reference model with **zero** executions of
//! the monitoring target — training cost scales with the synthetic
//! window budget instead of full program runs, which is what makes
//! onboarding large heterogeneous fleets tractable.

use std::collections::BTreeMap;

use eddie_cfg::RegionBody;
use eddie_isa::{BranchCond, Instr, Program, Reg};
use eddie_sim::{PathReplayer, PowerTrace};

use crate::pipeline::Pipeline;
use crate::training::{train_from_labeled, LabeledRun, TrainError, TrainedModel};
use crate::training_source::TrainingSource;

/// Configuration for [`Synthetic`] training.
///
/// Marked `#[non_exhaustive]`: construct with
/// [`SyntheticTrainConfig::new`] (or `default()`) and adjust via the
/// `with_*` builders.
#[non_exhaustive]
#[derive(Debug, Clone, PartialEq)]
pub struct SyntheticTrainConfig {
    /// Synthetic training runs per region. Each run jitters iteration
    /// timing differently, standing in for run-to-run variation.
    pub runs: usize,
    /// STS windows synthesized per region per run.
    pub windows_per_region: usize,
    /// Base seed for the deterministic jitter streams.
    pub seed: u64,
    /// Fractional per-iteration timing jitter (0 disables). The replay
    /// already models the microarchitectural variation (cache misses,
    /// mispredicts), so this defaults to 0; raise it to smear the
    /// synthetic lines when the target's iterations are known to vary
    /// in data-dependent ways the schedule cannot express.
    pub jitter: f64,
    /// Also synthesize regions whose iteration schedule is *not*
    /// statically predictable (several outer paths, or data-dependent
    /// inner trip counts), using the fallback schedules (trip-count
    /// ladder / path round-robin). **On by default**: their mixture
    /// references are tracking-grade, not detection-grade, but leaving
    /// a large region untrained strands the monitor for that region's
    /// whole span — every window rejects, which is far worse than the
    /// weaker detection power of a mixture reference. Disable to train
    /// only provably-scheduled regions.
    pub include_unbounded: bool,
}

impl Default for SyntheticTrainConfig {
    fn default() -> SyntheticTrainConfig {
        SyntheticTrainConfig {
            runs: 4,
            windows_per_region: 48,
            seed: 1,
            jitter: 0.0,
            include_unbounded: true,
        }
    }
}

impl SyntheticTrainConfig {
    /// Default synthetic-training configuration.
    pub fn new() -> SyntheticTrainConfig {
        SyntheticTrainConfig::default()
    }

    /// Sets the number of synthetic runs per region.
    pub fn with_runs(mut self, runs: usize) -> SyntheticTrainConfig {
        self.runs = runs;
        self
    }

    /// Sets the number of windows synthesized per region per run.
    pub fn with_windows_per_region(mut self, windows: usize) -> SyntheticTrainConfig {
        self.windows_per_region = windows;
        self
    }

    /// Sets the base jitter seed.
    pub fn with_seed(mut self, seed: u64) -> SyntheticTrainConfig {
        self.seed = seed;
        self
    }

    /// Sets the fractional per-iteration timing jitter.
    pub fn with_jitter(mut self, jitter: f64) -> SyntheticTrainConfig {
        self.jitter = jitter;
        self
    }

    /// Opts statically unpredictable regions out of synthesis (see
    /// [`SyntheticTrainConfig::include_unbounded`]).
    pub fn with_include_unbounded(mut self, include: bool) -> SyntheticTrainConfig {
        self.include_unbounded = include;
        self
    }

    /// Validates the configuration.
    pub fn validate(&self) -> Result<(), String> {
        if self.runs == 0 {
            return Err("runs must be at least 1".to_string());
        }
        if self.windows_per_region == 0 {
            return Err("windows_per_region must be at least 1".to_string());
        }
        if !(0.0..0.5).contains(&self.jitter) {
            return Err(format!("jitter {} must be in [0, 0.5)", self.jitter));
        }
        Ok(())
    }
}

/// CFG-derived synthetic training source: each loop region's training
/// signal is replayed from its control-flow paths through the timing
/// and power model, with no instrumented run of the target.
#[derive(Debug, Clone, Default)]
pub struct Synthetic {
    config: SyntheticTrainConfig,
}

impl Synthetic {
    /// Creates a synthetic source with the given configuration.
    pub fn new(config: SyntheticTrainConfig) -> Synthetic {
        Synthetic { config }
    }

    /// The configuration.
    pub fn config(&self) -> &SyntheticTrainConfig {
        &self.config
    }
}

impl TrainingSource for Synthetic {
    fn name(&self) -> &str {
        "synthetic"
    }

    fn train(&self, pipeline: &Pipeline, program: &Program) -> Result<TrainedModel, TrainError> {
        self.config.validate().map_err(TrainError::BadConfig)?;
        let graph = pipeline.region_graph(program)?;
        let mut bodies = Vec::new();
        for region in graph.loop_regions() {
            bodies.push(
                RegionBody::analyze(program, region)
                    .map_err(|e| TrainError::BadConfig(e.to_string()))?,
            );
        }
        // Program order, so the shared-cache replay sees arrays warm
        // exactly when real execution would.
        bodies.sort_by_key(|b| b.enter_pc);

        let mut plans: Vec<RegionPlan> = Vec::new();
        for body in bodies {
            match plan_region(program, &body) {
                Some(schedule) => plans.push(RegionPlan { body, schedule }),
                None if self.config.include_unbounded => {
                    let schedule = fallback_schedule(program, &body);
                    plans.push(RegionPlan { body, schedule });
                }
                None => {} // unpredictable: leave untrained (pass-through)
            }
        }
        if plans.is_empty() {
            return Err(TrainError::NothingTrainable);
        }

        // One job per run, in fixed order so the parallel fan-out is
        // byte-deterministic at any worker-pool width. Regions within a
        // run replay sequentially (cache state carries across them).
        let jobs: Vec<usize> = (0..self.config.runs).collect();
        let runs: Vec<LabeledRun> = eddie_exec::par_map(&jobs, |&run| {
            let traces = synthesize_run_traces(pipeline, program, &plans, &self.config, run);
            let mut stss = Vec::new();
            let mut labels = Vec::new();
            for (plan, trace) in plans.iter().zip(&traces) {
                // Decorrelate EM noise per (run, region) like
                // instrumented runs decorrelate per seed.
                let run_seed = mix(
                    self.config.seed,
                    (run as u64) << 32 | u64::from(plan.body.region.index()),
                );
                let (s, _mapping) = pipeline.stss_from_trace(trace, run_seed);
                labels.extend(std::iter::repeat_n(plan.body.region, s.len()));
                stss.extend(s);
            }
            LabeledRun { stss, labels }
        });
        train_from_labeled(&runs, &graph, pipeline.eddie_config())
    }
}

/// A region's statically derived iteration schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Schedule {
    /// One enumerated path: replay it once per iteration.
    Single,
    /// One outer path plus constant-bounded inner cycles: per outer
    /// iteration, replay each inner cycle `trips - 1` times, then the
    /// outer path (which already contains one pass through each inner
    /// body).
    Bounded {
        outer: usize,
        /// `(path index, static trip count)` per inner cycle.
        inners: Vec<(usize, u64)>,
    },
    /// Unique outer path plus inner cycles with *data-dependent* trip
    /// counts, opted in via `include_unbounded`: sweep each inner
    /// cycle's trip count over a 1–31 ladder across outer iterations.
    /// The mixture does not reproduce any one run's spectrum, but its
    /// support spans the plausible iteration timings, which is what the
    /// K-S reference needs to keep *tracking* through the region.
    Ladder { outer: usize, inners: Vec<usize> },
    /// No unique outer path either (several alternative bodies), opted
    /// in via `include_unbounded`: round-robin over the enumerated
    /// paths.
    RoundRobin,
}

#[derive(Debug)]
struct RegionPlan {
    body: RegionBody,
    schedule: Schedule,
}

/// Classifies a region's enumerated paths into an iteration schedule,
/// or `None` when the schedule is not statically predictable.
fn plan_region(program: &Program, body: &RegionBody) -> Option<Schedule> {
    if body.paths.len() == 1 {
        return Some(Schedule::Single);
    }
    // The region head is the smallest pc in any path (paths are rotated
    // to start at their smallest pc). The outer path is the one whose
    // back edge returns there.
    let head = body.paths.iter().map(|p| p[0]).min()?;
    let mut outer = None;
    let mut inners = Vec::new();
    for (k, path) in body.paths.iter().enumerate() {
        let is_outer = path.iter().any(|&pc| program[pc].target() == Some(head));
        if is_outer {
            if outer.is_some() {
                return None; // several alternative outer bodies
            }
            outer = Some(k);
        } else {
            inners.push(k);
        }
    }
    let outer = outer?;
    let mut bounded = Vec::with_capacity(inners.len());
    for k in inners {
        let trips = static_trip_count(program, &body.paths[outer], &body.paths[k])?;
        bounded.push((k, trips));
    }
    Some(Schedule::Bounded {
        outer,
        inners: bounded,
    })
}

/// The opt-in schedule for a region `plan_region` rejected: keep the
/// outer/inner structure when it is unambiguous (only the trip counts
/// were data-dependent) and sweep the inner trip counts; otherwise
/// round-robin the alternative bodies.
fn fallback_schedule(program: &Program, body: &RegionBody) -> Schedule {
    let Some(head) = body.paths.iter().map(|p| p[0]).min() else {
        return Schedule::RoundRobin;
    };
    let mut outer = None;
    let mut inners = Vec::new();
    for (k, path) in body.paths.iter().enumerate() {
        if path.iter().any(|&pc| program[pc].target() == Some(head)) {
            if outer.is_some() {
                return Schedule::RoundRobin;
            }
            outer = Some(k);
        } else {
            inners.push(k);
        }
    }
    match outer {
        Some(outer) if !inners.is_empty() => Schedule::Ladder { outer, inners },
        _ => Schedule::RoundRobin,
    }
}

/// Static trip count of an inner cycle: requires a counted back edge
/// (`blt ctr, bound`), a single constant-step `addi` on the counter
/// inside the cycle, and constant initialisations of both counter and
/// bound on the outer path. Returns `None` when any piece is
/// data-dependent.
fn static_trip_count(program: &Program, outer: &[usize], inner: &[usize]) -> Option<u64> {
    let &back = inner.last()?;
    let (ctr, bound) = match program[back] {
        Instr::Branch(BranchCond::Lt, a, b, target) if target == inner[0] => (a, b),
        _ => return None,
    };

    // Exactly one write to the counter inside the cycle: its step.
    let mut step = None;
    for &pc in inner {
        if program[pc].def() == Some(ctr) {
            match program[pc] {
                Instr::Addi(d, s, k) if d == s && k > 0 && step.is_none() => step = Some(k),
                _ => return None,
            }
        }
        if pc != back && program[pc].def() == Some(bound) {
            return None; // bound mutated mid-cycle
        }
    }
    let step = step?;

    // Constant init / bound from the outer path (`li` assembles to
    // `addi rd, r0, imm`). The outer path embeds one pass through the
    // inner body, so in-cycle pcs are excluded; of the rest, the last
    // write wins.
    let const_of = |r: Reg| {
        let mut v = None;
        for &pc in outer {
            if inner.contains(&pc) {
                continue;
            }
            if program[pc].def() == Some(r) {
                v = match program[pc] {
                    Instr::Addi(_, Reg::R0, k) => Some(k),
                    _ => None,
                };
            }
        }
        v
    };
    let init = const_of(ctr)?;
    let limit = const_of(bound)?;
    if limit <= init {
        return None;
    }
    let trips = ((limit - init) + step - 1) / step;
    (1..=4096).contains(&trips).then_some(trips as u64)
}

/// Deterministic mixing of two seeds: SplitMix64's output function on
/// `a · GOLDEN + b`.
fn mix(a: u64, b: u64) -> u64 {
    eddie_rand::mix(a.wrapping_mul(eddie_rand::GOLDEN).wrapping_add(b))
}

/// Uniform value in `[-1, 1)` from a mixed seed.
fn unit(seed: u64) -> f64 {
    (mix(seed, 0xda3e_39cb_94b9_5bdb) >> 11) as f64 / (1u64 << 52) as f64 * 2.0 - 1.0
}

/// Per-site sweep state. A *site* is a synthetic array, keyed by the
/// base register of the loads/stores that access it: every array is
/// swept by the loop counter, one 8-byte word per iteration, so a load
/// and store through the same base share their line (one miss per line
/// per sweep) while distinct arrays live 16 MiB apart on disjoint
/// lines.
#[derive(Debug)]
struct SiteState {
    ordinal: u64,
    /// Segment (index into the run's region sequence) that first
    /// touched this site.
    first_seg: usize,
    /// Words touched by the first-touching segment — the warmed extent
    /// later segments re-sweep.
    high_water: u64,
}

/// Synthesizes one run's power traces, one per planned region, by
/// replaying the regions *sequentially in program order* on one shared
/// [`PathReplayer`]. The region that first touches an array sweeps it
/// cold (an L1 miss per cache line — the miss periodicity that sets a
/// cold loop's spectral fundamental); later regions re-sweep the
/// warmed extent and run hot, exactly as in real execution.
fn synthesize_run_traces(
    pipeline: &Pipeline,
    program: &Program,
    plans: &[RegionPlan],
    config: &SyntheticTrainConfig,
    run: usize,
) -> Vec<PowerTrace> {
    let sim = pipeline.sim_config();
    let eddie = pipeline.eddie_config();
    let interval = sim.sample_interval.max(1);
    let seg_samples = eddie.window_len + (config.windows_per_region - 1) * eddie.hop;
    let seg_cycles = seg_samples as u64 * interval;

    let mut replay = PathReplayer::new(sim);
    let mut sites: BTreeMap<usize, SiteState> = BTreeMap::new();
    for (seg, plan) in plans.iter().enumerate() {
        let seg_end = (seg as u64 + 1) * seg_cycles;
        let paths = &plan.body.paths;
        let mut elem: u64 = 0;
        while replay.now() < seg_end {
            let elem_start = replay.now();
            match &plan.schedule {
                Schedule::Single => {
                    replay_path(&mut replay, program, &paths[0], &mut sites, seg, elem);
                }
                Schedule::Bounded { outer, inners } => {
                    // The outer path embeds one pass through each inner
                    // body, so each inner cycle repeats trips - 1 times.
                    for &(k, trips) in inners {
                        for _ in 1..trips {
                            replay_path(&mut replay, program, &paths[k], &mut sites, seg, elem);
                        }
                    }
                    replay_path(&mut replay, program, &paths[*outer], &mut sites, seg, elem);
                }
                Schedule::Ladder { outer, inners } => {
                    // Data-dependent trip counts: sweep a 1..=31 ladder
                    // so the reference support spans the plausible
                    // per-iteration timings.
                    let trips = 1 + elem % 31;
                    for &k in inners {
                        for _ in 1..trips {
                            replay_path(&mut replay, program, &paths[k], &mut sites, seg, elem);
                        }
                    }
                    replay_path(&mut replay, program, &paths[*outer], &mut sites, seg, elem);
                }
                Schedule::RoundRobin => {
                    let path = &paths[(elem as usize) % paths.len()];
                    replay_path(&mut replay, program, path, &mut sites, seg, elem);
                }
            }

            // Optional deterministic stretch standing in for residual
            // data-dependent variation (off by default).
            if config.jitter > 0.0 {
                let elem_cycles = replay.now().saturating_sub(elem_start).max(1);
                let u = unit(mix(
                    config.seed,
                    mix(
                        u64::from(plan.body.region.index()) << 40 | (run as u64) << 20,
                        elem,
                    ),
                ));
                let stretch = (config.jitter * elem_cycles as f64 * (u + 1.0) / 2.0).round() as u64;
                replay.stall(stretch);
            }
            elem += 1;
        }
    }

    // Cut the shared trace into per-region segments.
    let trace = replay.finish();
    (0..plans.len())
        .map(|seg| PowerTrace {
            samples: trace.samples[seg * seg_samples..(seg + 1) * seg_samples].to_vec(),
            sample_interval: trace.sample_interval,
            clock_hz: trace.clock_hz,
        })
        .collect()
}

/// Replays one enumerated path: synthetic data addresses from the
/// per-site sweep, branch outcomes from the path itself (a branch is
/// taken exactly when the path's next pc is not the fall-through; the
/// back edge wraps to the path head).
fn replay_path(
    replay: &mut PathReplayer,
    program: &Program,
    path: &[usize],
    sites: &mut BTreeMap<usize, SiteState>,
    seg: usize,
    elem: u64,
) {
    for (i, &pc) in path.iter().enumerate() {
        let instr = &program[pc];
        let addr = match instr {
            Instr::Load(_, base, off) | Instr::Store(_, base, off) => {
                let next_ordinal = sites.len() as u64;
                let site = sites.entry(base.index()).or_insert(SiteState {
                    ordinal: next_ordinal,
                    first_seg: seg,
                    high_water: 0,
                });
                let word = if site.first_seg == seg {
                    site.high_water = site.high_water.max(elem + 1);
                    elem
                } else {
                    // Re-sweep the extent the first-touching region
                    // warmed, like a second pass over the same array.
                    elem % site.high_water.max(1)
                };
                let word = (word as i64 + off).max(0) as u64;
                Some(((site.ordinal + 1) << 24) + word * 8)
            }
            _ => None,
        };
        let next = path.get(i + 1).copied().unwrap_or(path[0]);
        replay.step(pc, instr, addr, next != pc + 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EddieConfig, Pipeline};
    use eddie_sim::SimConfig;
    use eddie_workloads::{loop_shapes, LoopShape};

    fn quick_pipeline() -> Pipeline {
        let mut sim = SimConfig::iot_inorder();
        sim.sample_interval = 8;
        Pipeline::builder()
            .sim(sim)
            .eddie(EddieConfig::quick())
            .build()
            .unwrap()
    }

    #[test]
    fn config_validation() {
        assert!(SyntheticTrainConfig::new().validate().is_ok());
        assert!(SyntheticTrainConfig::new().with_runs(0).validate().is_err());
        assert!(SyntheticTrainConfig::new()
            .with_windows_per_region(0)
            .validate()
            .is_err());
        assert!(SyntheticTrainConfig::new()
            .with_jitter(0.5)
            .validate()
            .is_err());
    }

    #[test]
    fn synthetic_trains_every_loop_region_without_any_instrumented_run() {
        let pipeline = quick_pipeline();
        let program = loop_shapes(4);
        let model = pipeline
            .train_with(&program, &Synthetic::new(SyntheticTrainConfig::new()))
            .expect("synthetic training succeeds");
        // Default coverage: the predictable Sharp region gets a
        // detection-grade reference and the data-dependent
        // MultiPeak/Diffuse regions get tracking-grade fallback
        // references, so every loop region is covered.
        let graph = pipeline.region_graph(&program).unwrap();
        for region in graph.loop_regions() {
            assert!(
                model.regions.contains_key(&region),
                "region {region:?} missing from synthetic model"
            );
        }
    }

    #[test]
    fn opting_out_of_unbounded_regions_trains_only_provable_schedules() {
        let pipeline = quick_pipeline();
        let program = loop_shapes(4);
        let cfg = SyntheticTrainConfig::new().with_include_unbounded(false);
        let model = pipeline
            .train_with(&program, &Synthetic::new(cfg))
            .expect("synthetic training succeeds");
        assert!(
            model.regions.contains_key(&LoopShape::Sharp.region()),
            "sharp region missing from synthetic model"
        );
        assert!(!model.regions.contains_key(&LoopShape::MultiPeak.region()));
        assert!(!model.regions.contains_key(&LoopShape::Diffuse.region()));
    }

    #[test]
    fn synthetic_training_is_deterministic_across_threads() {
        let pipeline = quick_pipeline();
        let program = loop_shapes(3);
        let train = || {
            pipeline
                .train_with(&program, &Synthetic::new(SyntheticTrainConfig::new()))
                .expect("synthetic training succeeds")
        };
        let serial = eddie_exec::with_threads(1, train);
        let parallel = eddie_exec::with_threads(4, train);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn jittered_traces_vary_by_run_but_not_by_call() {
        let pipeline = quick_pipeline();
        let program = loop_shapes(2);
        let region = LoopShape::Sharp.region();
        let body = RegionBody::analyze(&program, region).unwrap();
        let plans = vec![RegionPlan {
            schedule: plan_region(&program, &body).expect("sharp region is single-path"),
            body,
        }];
        let cfg = SyntheticTrainConfig::new().with_jitter(0.02);
        let a = synthesize_run_traces(&pipeline, &program, &plans, &cfg, 0);
        let b = synthesize_run_traces(&pipeline, &program, &plans, &cfg, 0);
        let c = synthesize_run_traces(&pipeline, &program, &plans, &cfg, 1);
        assert_eq!(a[0].samples, b[0].samples, "same run must be reproducible");
        assert_ne!(
            a[0].samples, c[0].samples,
            "different runs must be jittered"
        );
        assert!(a[0].samples.iter().any(|&s| s > 0.0));
    }

    #[test]
    fn bounded_inner_loops_get_their_static_trip_count() {
        // Bitcount's nibble-table region iterates its inner lookup loop
        // exactly 16 times per element, all three constants visible
        // statically; its Kernighan region's inner trip count is
        // data-dependent and must be rejected.
        use eddie_workloads::{Benchmark, WorkloadParams};
        let w = Benchmark::Bitcount.workload(&WorkloadParams { scale: 1 });
        let table = RegionBody::analyze(w.program(), eddie_isa::RegionId::new(2)).unwrap();
        match plan_region(w.program(), &table) {
            Some(Schedule::Bounded { inners, .. }) => {
                assert_eq!(inners.len(), 1);
                assert_eq!(inners[0].1, 16, "nibble loop runs 16 trips per element");
            }
            other => panic!("expected a bounded schedule, got {other:?}"),
        }
        let kernighan = RegionBody::analyze(w.program(), eddie_isa::RegionId::new(1)).unwrap();
        assert_eq!(
            plan_region(w.program(), &kernighan),
            None,
            "data-dependent trip counts must not be guessed"
        );
    }
}
