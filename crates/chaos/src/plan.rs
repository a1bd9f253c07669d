//! Seeded fault plans: what goes wrong, when, deterministically.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use eddie_core::{Error, ErrorKind};

use eddie_rand::{mix, SplitMix64};

/// What the proxy does with one client→server frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum FrameFate {
    /// Forward unchanged.
    Deliver,
    /// Swallow the frame; the sender finds out via its read timeout.
    Drop,
    /// Forward the frame twice back to back.
    Duplicate,
    /// Clobber the tag byte before forwarding, so the receiver's
    /// decoder rejects the frame. (Detectable corruption: the wire
    /// protocol carries no payload checksum, so silently flipping
    /// payload bytes would be accepted as valid-but-different data —
    /// a fault no transport layer can recover from.)
    Corrupt,
    /// Hold the frame and emit it *after* the next one (a one-slot
    /// reorder).
    SwapWithNext,
    /// Cut the connection in both directions at this frame.
    Sever,
}

/// The proxy's full decision for one frame: a fate plus an optional
/// stall before it is carried out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Decision {
    /// What happens to the frame.
    pub fate: FrameFate,
    /// Sleep this long before acting (a link stall).
    pub pause: Option<Duration>,
}

/// A deterministic, seeded schedule of faults.
///
/// Construct with [`FaultPlan::builder`] or parse one from the
/// human-oriented grammar with [`FaultPlan::parse`]; the `Display`
/// rendering round-trips through `parse`. The struct is
/// `#[non_exhaustive]`: read fields freely, but build through the
/// builder so new fault classes are not breaking changes.
///
/// # Grammar
///
/// Comma-separated `key=value` clauses (all optional):
///
/// | clause | meaning |
/// |---|---|
/// | `seed=N` | RNG seed for every probabilistic fault |
/// | `drop=P` | drop each frame with probability `P` |
/// | `dup=P` | duplicate each frame with probability `P` |
/// | `corrupt=P` | clobber each frame's tag with probability `P` |
/// | `reorder=P` | swap each frame with its successor with probability `P` |
/// | `sever=A;B;…` | cut the connection at global frame indices `A`, `B`, … |
/// | `stall=EVERYxMS` | every `EVERY` frames, pause `MS` milliseconds |
/// | `busy=START+LEN` | server refuses chunks `START..START+LEN` with `Busy` |
/// | `drain=EVERYxMS` | every `EVERY` drain batches, stall the server's serving thread `MS` milliseconds |
///
/// Example: `seed=7,drop=0.05,dup=0.02,sever=40;97,busy=20+8`.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct FaultPlan {
    /// Seed for every probabilistic decision.
    pub seed: u64,
    /// Per-frame drop probability.
    pub drop: f64,
    /// Per-frame duplication probability.
    pub duplicate: f64,
    /// Per-frame corruption probability.
    pub corrupt: f64,
    /// Per-frame swap-with-next probability.
    pub reorder: f64,
    /// Global frame indices at which the proxy severs the connection.
    pub sever_at: Vec<u64>,
    /// Stall every this many frames (0 = never).
    pub stall_every: u64,
    /// How long a stall pauses.
    pub stall_pause: Duration,
    /// First chunk index of the injected `Busy` storm.
    pub busy_start: u64,
    /// Number of consecutive chunks refused by the storm (0 = none).
    pub busy_len: u64,
    /// Stall the server's serving thread after every this many drain
    /// batches (0 = never). The thread reads, acks and flushes too, so
    /// the whole server stalls, not only the drain.
    pub drain_pause_every: u64,
    /// How long a drain pause lasts.
    pub drain_pause: Duration,
}

impl Default for FaultPlan {
    /// A plan that injects nothing — every knob zeroed.
    fn default() -> FaultPlan {
        FaultPlan {
            seed: 0,
            drop: 0.0,
            duplicate: 0.0,
            corrupt: 0.0,
            reorder: 0.0,
            sever_at: Vec::new(),
            stall_every: 0,
            stall_pause: Duration::ZERO,
            busy_start: 0,
            busy_len: 0,
            drain_pause_every: 0,
            drain_pause: Duration::ZERO,
        }
    }
}

/// How long any single injected pause may last — keeps a typo'd plan
/// from wedging a CI run.
const MAX_PAUSE: Duration = Duration::from_secs(10);

impl FaultPlan {
    /// Starts a builder with every fault disabled.
    pub fn builder() -> FaultPlanBuilder {
        FaultPlanBuilder {
            plan: FaultPlan::default(),
        }
    }

    /// Parses the plan grammar (see the type docs). The empty string
    /// is the fault-free plan.
    ///
    /// # Errors
    ///
    /// Returns an error of kind [`ErrorKind::InvalidConfig`] for
    /// unknown clauses, malformed numbers, or out-of-range
    /// probabilities.
    pub fn parse(text: &str) -> Result<FaultPlan, Error> {
        fn bad(clause: &str, why: &str) -> Error {
            Error::new(
                ErrorKind::InvalidConfig,
                "eddie-chaos",
                format!("fault-plan clause `{clause}`: {why}"),
            )
        }
        fn num<T: std::str::FromStr>(clause: &str, v: &str) -> Result<T, Error> {
            v.parse().map_err(|_| bad(clause, "not a number"))
        }
        fn list(clause: &str, v: &str) -> Result<Vec<u64>, Error> {
            v.split(';').map(|n| num(clause, n)).collect()
        }
        fn every_ms(clause: &str, v: &str) -> Result<(u64, Duration), Error> {
            let (every, ms) = v
                .split_once('x')
                .ok_or_else(|| bad(clause, "expected EVERYxMS"))?;
            Ok((num(clause, every)?, Duration::from_millis(num(clause, ms)?)))
        }

        let mut b = FaultPlan::builder();
        for clause in text.split(',').map(str::trim).filter(|c| !c.is_empty()) {
            let (key, value) = clause.split_once('=').unwrap_or((clause, ""));
            b = match key {
                "seed" => b.with_seed(num(clause, value)?),
                "drop" => b.with_drop(num(clause, value)?),
                "dup" => b.with_duplicate(num(clause, value)?),
                "corrupt" => b.with_corrupt(num(clause, value)?),
                "reorder" => b.with_reorder(num(clause, value)?),
                "sever" => b.with_sever_at(list(clause, value)?),
                "stall" => {
                    let (every, pause) = every_ms(clause, value)?;
                    b.with_stall(every, pause)
                }
                "busy" => {
                    let (start, len) = value
                        .split_once('+')
                        .ok_or_else(|| bad(clause, "expected START+LEN"))?;
                    b.with_busy_storm(num(clause, start)?, num(clause, len)?)
                }
                "drain" => {
                    let (every, pause) = every_ms(clause, value)?;
                    b.with_drain_pause(every, pause)
                }
                _ => return Err(bad(clause, "unknown clause")),
            };
        }
        b.build()
    }

    /// The fate of client→server frame number `index` (a global,
    /// per-proxy counter). Pure: depends only on `(self.seed, index)`.
    pub fn decide(&self, index: u64) -> Decision {
        let pause = (self.stall_every > 0 && index % self.stall_every == self.stall_every - 1)
            .then_some(self.stall_pause);
        if self.sever_at.contains(&index) {
            return Decision {
                fate: FrameFate::Sever,
                pause,
            };
        }
        // One uniform draw against the cumulative fault probabilities.
        let draw = SplitMix64::new(mix(self.seed) ^ index).next_f64();
        let mut edge = 0.0;
        let fate = [
            (self.drop, FrameFate::Drop),
            (self.duplicate, FrameFate::Duplicate),
            (self.corrupt, FrameFate::Corrupt),
            (self.reorder, FrameFate::SwapWithNext),
        ]
        .into_iter()
        .find_map(|(p, fate)| {
            edge += p;
            (draw < edge).then_some(fate)
        })
        .unwrap_or(FrameFate::Deliver);
        Decision { fate, pause }
    }

    /// Whether the plan injects any transport-level fault (what the
    /// proxy applies, as opposed to the server-side failpoints).
    pub fn has_transport_faults(&self) -> bool {
        self.drop > 0.0
            || self.duplicate > 0.0
            || self.corrupt > 0.0
            || self.reorder > 0.0
            || !self.sever_at.is_empty()
            || self.stall_every > 0
    }

    /// The server-side failpoint state for this plan, ready to wire
    /// into a server config. Each call returns fresh counters — one
    /// `ServerFaults` per server instance.
    pub fn server_faults(&self) -> Arc<ServerFaults> {
        Arc::new(ServerFaults {
            busy_start: self.busy_start,
            busy_len: self.busy_len,
            busy_seen: AtomicU64::new(0),
            drain_pause_every: self.drain_pause_every,
            drain_pause: self.drain_pause,
            drains_seen: AtomicU64::new(0),
        })
    }
}

impl fmt::Display for FaultPlan {
    /// Renders the plan in the grammar [`FaultPlan::parse`] accepts.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut parts: Vec<String> = vec![format!("seed={}", self.seed)];
        let mut prob = |name: &str, p: f64| {
            if p > 0.0 {
                parts.push(format!("{name}={p}"));
            }
        };
        prob("drop", self.drop);
        prob("dup", self.duplicate);
        prob("corrupt", self.corrupt);
        prob("reorder", self.reorder);
        if !self.sever_at.is_empty() {
            let list: Vec<String> = self.sever_at.iter().map(u64::to_string).collect();
            parts.push(format!("sever={}", list.join(";")));
        }
        if self.stall_every > 0 {
            parts.push(format!(
                "stall={}x{}",
                self.stall_every,
                self.stall_pause.as_millis()
            ));
        }
        if self.busy_len > 0 {
            parts.push(format!("busy={}+{}", self.busy_start, self.busy_len));
        }
        if self.drain_pause_every > 0 {
            parts.push(format!(
                "drain={}x{}",
                self.drain_pause_every,
                self.drain_pause.as_millis()
            ));
        }
        f.write_str(&parts.join(","))
    }
}

/// Builder for [`FaultPlan`]: `with_*` setters, then a validated
/// [`build`](FaultPlanBuilder::build).
#[derive(Debug, Clone)]
pub struct FaultPlanBuilder {
    plan: FaultPlan,
}

impl FaultPlanBuilder {
    /// Seeds every probabilistic decision.
    pub fn with_seed(mut self, seed: u64) -> FaultPlanBuilder {
        self.plan.seed = seed;
        self
    }

    /// Per-frame drop probability.
    pub fn with_drop(mut self, p: f64) -> FaultPlanBuilder {
        self.plan.drop = p;
        self
    }

    /// Per-frame duplication probability.
    pub fn with_duplicate(mut self, p: f64) -> FaultPlanBuilder {
        self.plan.duplicate = p;
        self
    }

    /// Per-frame corruption probability.
    pub fn with_corrupt(mut self, p: f64) -> FaultPlanBuilder {
        self.plan.corrupt = p;
        self
    }

    /// Per-frame swap-with-next probability.
    pub fn with_reorder(mut self, p: f64) -> FaultPlanBuilder {
        self.plan.reorder = p;
        self
    }

    /// Global frame indices at which to sever the connection.
    pub fn with_sever_at(mut self, at: Vec<u64>) -> FaultPlanBuilder {
        self.plan.sever_at = at;
        self
    }

    /// Stall `pause` long every `every` frames (0 disables).
    pub fn with_stall(mut self, every: u64, pause: Duration) -> FaultPlanBuilder {
        self.plan.stall_every = every;
        self.plan.stall_pause = pause;
        self
    }

    /// Refuse chunks `start..start + len` with `Busy` regardless of
    /// fleet capacity (0 length disables).
    pub fn with_busy_storm(mut self, start: u64, len: u64) -> FaultPlanBuilder {
        self.plan.busy_start = start;
        self.plan.busy_len = len;
        self
    }

    /// Stall the serving thread `pause` long after every `every` drain
    /// batches (0 disables).
    pub fn with_drain_pause(mut self, every: u64, pause: Duration) -> FaultPlanBuilder {
        self.plan.drain_pause_every = every;
        self.plan.drain_pause = pause;
        self
    }

    /// Validates and returns the plan.
    ///
    /// # Errors
    ///
    /// Returns an error of kind [`ErrorKind::InvalidConfig`] when a
    /// probability is outside `[0, 1]`, the probabilities sum past 1,
    /// or a pause exceeds the 10 s sanity cap.
    pub fn build(self) -> Result<FaultPlan, Error> {
        let p = &self.plan;
        let invalid = |msg: String| Error::new(ErrorKind::InvalidConfig, "eddie-chaos", msg);
        for (name, prob) in [
            ("drop", p.drop),
            ("dup", p.duplicate),
            ("corrupt", p.corrupt),
            ("reorder", p.reorder),
        ] {
            if !(0.0..=1.0).contains(&prob) {
                return Err(invalid(format!("{name} probability {prob} not in [0, 1]")));
            }
        }
        let sum = p.drop + p.duplicate + p.corrupt + p.reorder;
        if sum > 1.0 {
            return Err(invalid(format!("fault probabilities sum to {sum} > 1")));
        }
        if p.stall_pause > MAX_PAUSE || p.drain_pause > MAX_PAUSE {
            return Err(invalid(format!(
                "pauses are capped at {}s",
                MAX_PAUSE.as_secs()
            )));
        }
        Ok(self.plan)
    }
}

/// Server-side failpoints derived from a [`FaultPlan`] — wire one into
/// a server config to inject faults past the transport: `Busy` storms
/// and serving-thread stalls between drains.
///
/// All counters are atomic, so consulting a failpoint from concurrent
/// connection threads is safe; schedules that need strict determinism
/// (the CI chaos gate) drive a single client.
#[derive(Debug)]
pub struct ServerFaults {
    busy_start: u64,
    busy_len: u64,
    busy_seen: AtomicU64,
    drain_pause_every: u64,
    drain_pause: Duration,
    drains_seen: AtomicU64,
}

impl ServerFaults {
    /// Consulted once per in-order chunk the server is about to push:
    /// `true` means "refuse this chunk with `Busy` even though the
    /// fleet has room". The client's go-back-N resend absorbs the
    /// storm, so the delivered event stream is unaffected.
    pub fn busy_storm(&self) -> bool {
        if self.busy_len == 0 {
            return false;
        }
        let idx = self.busy_seen.fetch_add(1, Ordering::Relaxed);
        idx >= self.busy_start && idx < self.busy_start + self.busy_len
    }

    /// Consulted once per drain batch: a `Some` means the serving
    /// thread should sleep that long before it goes on.
    pub fn drain_pause(&self) -> Option<Duration> {
        if self.drain_pause_every == 0 {
            return None;
        }
        let idx = self.drains_seen.fetch_add(1, Ordering::Relaxed);
        (idx % self.drain_pause_every == self.drain_pause_every - 1).then_some(self.drain_pause)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_is_fault_free() {
        let p = FaultPlan::default();
        assert!(!p.has_transport_faults());
        for i in 0..10_000 {
            assert_eq!(
                p.decide(i),
                Decision {
                    fate: FrameFate::Deliver,
                    pause: None
                }
            );
        }
        let f = p.server_faults();
        assert!(!f.busy_storm());
        assert!(f.drain_pause().is_none());
    }

    #[test]
    fn decisions_are_deterministic_and_seed_sensitive() {
        let a = FaultPlan::builder()
            .with_seed(7)
            .with_drop(0.2)
            .with_duplicate(0.2)
            .with_corrupt(0.2)
            .build()
            .unwrap();
        let b = a.clone();
        let fates_a: Vec<_> = (0..512).map(|i| a.decide(i).fate).collect();
        let fates_b: Vec<_> = (0..512).map(|i| b.decide(i).fate).collect();
        assert_eq!(fates_a, fates_b, "same seed, same schedule");

        let c = FaultPlan::builder()
            .with_seed(8)
            .with_drop(0.2)
            .with_duplicate(0.2)
            .with_corrupt(0.2)
            .build()
            .unwrap();
        let fates_c: Vec<_> = (0..512).map(|i| c.decide(i).fate).collect();
        assert_ne!(fates_a, fates_c, "different seed, different schedule");
    }

    #[test]
    fn fate_frequencies_track_probabilities() {
        let p = FaultPlan::builder()
            .with_seed(3)
            .with_drop(0.1)
            .with_duplicate(0.1)
            .with_reorder(0.1)
            .build()
            .unwrap();
        let n = 100_000u64;
        let mut drops = 0;
        let mut dups = 0;
        let mut swaps = 0;
        for i in 0..n {
            match p.decide(i).fate {
                FrameFate::Drop => drops += 1,
                FrameFate::Duplicate => dups += 1,
                FrameFate::SwapWithNext => swaps += 1,
                _ => {}
            }
        }
        for (name, count) in [("drop", drops), ("dup", dups), ("swap", swaps)] {
            assert!(
                (8_000..12_000).contains(&count),
                "{name} fired {count} times in {n}"
            );
        }
    }

    #[test]
    fn sever_and_stall_fire_at_exact_indices() {
        let p = FaultPlan::builder()
            .with_seed(1)
            .with_sever_at(vec![5, 9])
            .with_stall(4, Duration::from_millis(3))
            .build()
            .unwrap();
        assert_eq!(p.decide(5).fate, FrameFate::Sever);
        assert_eq!(p.decide(9).fate, FrameFate::Sever);
        assert_eq!(p.decide(6).fate, FrameFate::Deliver);
        assert_eq!(p.decide(3).pause, Some(Duration::from_millis(3)));
        assert_eq!(p.decide(7).pause, Some(Duration::from_millis(3)));
        assert_eq!(p.decide(4).pause, None);
    }

    #[test]
    fn busy_storm_covers_exactly_its_window() {
        let p = FaultPlan::builder().with_busy_storm(3, 2).build().unwrap();
        let f = p.server_faults();
        let fired: Vec<bool> = (0..8).map(|_| f.busy_storm()).collect();
        assert_eq!(
            fired,
            [false, false, false, true, true, false, false, false]
        );
    }

    #[test]
    fn drain_pause_cadence() {
        let p = FaultPlan::builder()
            .with_drain_pause(3, Duration::from_millis(1))
            .build()
            .unwrap();
        let f = p.server_faults();
        let fired: Vec<bool> = (0..6).map(|_| f.drain_pause().is_some()).collect();
        assert_eq!(fired, [false, false, true, false, false, true]);
    }

    #[test]
    fn grammar_round_trips_through_display() {
        let text = "seed=7,drop=0.05,dup=0.02,corrupt=0.01,reorder=0.03,\
                    sever=40;97,stall=32x5,busy=20+8,drain=16x2";
        let plan = FaultPlan::parse(text).expect("parses");
        assert_eq!(plan.seed, 7);
        assert_eq!(plan.sever_at, vec![40, 97]);
        assert_eq!(plan.busy_start, 20);
        assert_eq!(plan.busy_len, 8);
        assert_eq!(plan.drain_pause_every, 16);
        let reparsed = FaultPlan::parse(&plan.to_string()).expect("display reparses");
        assert_eq!(plan, reparsed);
    }

    #[test]
    fn empty_plan_parses_to_default() {
        assert_eq!(FaultPlan::parse("").unwrap(), FaultPlan::default());
        assert_eq!(FaultPlan::parse("seed=0").unwrap(), FaultPlan::default());
    }

    #[test]
    fn bad_grammar_is_a_typed_config_error() {
        for text in [
            "bogus=1",
            "drop=two",
            "drop=1.5",
            "drop=0.6,dup=0.6",
            "busy=20",
            "stall=5",
            "stall=5x99999999",
        ] {
            let err = FaultPlan::parse(text).expect_err(text);
            assert_eq!(err.kind(), ErrorKind::InvalidConfig, "{text}");
        }
    }
}
