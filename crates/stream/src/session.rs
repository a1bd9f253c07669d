use std::sync::Arc;

use eddie_core::{Error, ErrorKind, MonitorEvent, MonitorState, Sts, TrainedModel};
use eddie_dsp::{
    Spectrum, StftConfig, StreamingDenoiser, StreamingDenoiserState, StreamingStft,
    StreamingStftState, SvdDenoiser, SvdDenoiserConfig,
};
use eddie_isa::RegionId;

/// One monitoring decision, tagged with the window it was made for.
///
/// `window` is the STS index in the device's stream — the same index
/// the batch path uses, so streamed events line up one-to-one with
/// `MonitorOutcome::events`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamEvent {
    /// STS window index this decision belongs to.
    pub window: usize,
    /// The monitor's decision for the window.
    pub event: MonitorEvent,
    /// Latched alarm state after the window.
    pub alarm: bool,
    /// Region the monitor tracks after the window.
    pub tracked: RegionId,
}

/// State of a session's optional denoising stage: the stage
/// configuration plus the buffered partial block.
#[derive(Debug, Clone, PartialEq)]
pub struct DenoiseSnapshot {
    /// The denoiser configuration the session was created with.
    pub config: SvdDenoiserConfig,
    /// Windows buffered awaiting a complete denoising block.
    pub state: StreamingDenoiserState,
}

eddie_codec::codec_struct!(DenoiseSnapshot { config, state });

/// The whole of a session's runtime state: the STFT overlap tail plus
/// the monitor state. Together with the trained model (persisted
/// separately via [`TrainedModel::to_bytes`]) this is everything
/// needed to resume the session on another host.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionSnapshot {
    /// Incremental-STFT tail and counters.
    pub stft: StreamingStftState,
    /// Monitor tracking state (bounded window history included).
    pub monitor: MonitorState,
    /// Sample rate the session was created with, in hertz.
    pub sample_rate_hz: f64,
    /// Denoising-stage state, for sessions created with
    /// [`MonitorSession::with_denoiser`].
    pub denoise: Option<DenoiseSnapshot>,
}

eddie_codec::codec_struct!(SessionSnapshot {
    stft,
    monitor,
    sample_rate_hz,
    denoise
});

impl SessionSnapshot {
    /// Encodes the snapshot with `eddie-codec`. Every sample and float
    /// travels as its bit pattern, so a session fed NaN or infinite
    /// samples snapshots and restores exactly.
    pub fn to_bytes(&self) -> Vec<u8> {
        eddie_codec::to_bytes(self)
    }

    /// Decodes a snapshot previously produced by
    /// [`to_bytes`](SessionSnapshot::to_bytes).
    ///
    /// # Errors
    ///
    /// Returns an [`eddie_codec::Error`] on truncated, trailing or
    /// malformed input.
    pub fn from_bytes(bytes: &[u8]) -> Result<SessionSnapshot, eddie_codec::Error> {
        eddie_codec::from_bytes(bytes)
    }
}

/// An online monitor for one device: signal chunks in, monitoring
/// events out.
///
/// The session owns a handle to the trained model plus all runtime
/// state. Feeding the device's signal through [`push`](MonitorSession::push)
/// in *any* chunking produces exactly the events the batch
/// `Pipeline::monitor_result` path computes on the whole signal — the
/// incremental STFT is bit-identical to the batch STFT, and the monitor
/// consumes the same STSs in the same order.
#[derive(Debug, Clone)]
pub struct MonitorSession {
    model: Arc<TrainedModel>,
    stft: StreamingStft,
    denoise: Option<StreamingDenoiser>,
    monitor: MonitorState,
    sample_rate_hz: f64,
}

impl MonitorSession {
    /// Creates a session at stream position zero.
    ///
    /// `sample_rate_hz` is the device's signal sample rate (for a
    /// simulated device, `SimResult::power.sample_rate_hz()`).
    ///
    /// # Errors
    ///
    /// Returns an error of kind [`ErrorKind::EmptyModel`] for models
    /// with no trained regions and [`ErrorKind::InvalidConfig`] when
    /// the model's STFT configuration is invalid for the sample rate.
    pub fn new(model: Arc<TrainedModel>, sample_rate_hz: f64) -> Result<MonitorSession, Error> {
        let monitor = MonitorState::try_new(&model)?;
        let stft = StreamingStft::new(stft_config(&model, sample_rate_hz))?;
        Ok(MonitorSession {
            model,
            stft,
            denoise: None,
            monitor,
            sample_rate_hz,
        })
    }

    /// Creates a session whose spectra pass through an SVD denoising
    /// stage before peak extraction — the streaming twin of a batch
    /// pipeline built with `PipelineBuilder::denoise`.
    ///
    /// Denoising is block-based, so events lag the signal by up to one
    /// block of windows; call [`finish`](MonitorSession::finish) at
    /// end-of-stream to drain the final partial block. For any
    /// chunking, `push` events (plus `finish`) are byte-identical to
    /// the batch denoised pipeline.
    ///
    /// # Errors
    ///
    /// As [`new`](MonitorSession::new), plus
    /// [`ErrorKind::InvalidConfig`] for an invalid denoiser config.
    pub fn with_denoiser(
        model: Arc<TrainedModel>,
        sample_rate_hz: f64,
        config: SvdDenoiserConfig,
    ) -> Result<MonitorSession, Error> {
        let mut session = MonitorSession::new(model, sample_rate_hz)?;
        let denoiser = SvdDenoiser::new(config).map_err(|e| {
            Error::with_source(
                ErrorKind::InvalidConfig,
                "eddie-stream",
                "invalid denoiser configuration",
                e,
            )
        })?;
        session.denoise = Some(StreamingDenoiser::new(denoiser));
        Ok(session)
    }

    /// The trained model this session monitors against.
    pub fn model(&self) -> &Arc<TrainedModel> {
        &self.model
    }

    /// Number of STS windows observed so far.
    pub fn windows_observed(&self) -> usize {
        self.monitor.windows_observed()
    }

    /// Total signal samples consumed so far.
    pub fn samples_seen(&self) -> usize {
        self.stft.samples_seen()
    }

    /// The region the monitor currently believes is executing.
    pub fn current_region(&self) -> RegionId {
        self.monitor.current_region()
    }

    /// Whether the alarm is currently latched.
    pub fn alarm(&self) -> bool {
        self.monitor.alarm()
    }

    /// The sample rate the session was created with, in hertz.
    pub fn sample_rate_hz(&self) -> f64 {
        self.sample_rate_hz
    }

    /// Estimated resident bytes of the session's *private* state: the
    /// monitor history plus the STFT overlap tail. The model is
    /// excluded: sessions of one program share it through their `Arc`,
    /// so it is not a per-device cost.
    pub fn approx_bytes(&self) -> usize {
        let spectrum_bytes = (self.model.config.window_len / 2 + 1) * std::mem::size_of::<f64>();
        std::mem::size_of::<MonitorSession>()
            + self.monitor.approx_bytes()
            + self.stft.pending_samples() * std::mem::size_of::<f32>()
            + self.denoise.as_ref().map_or(0, |d| d.pending()) * spectrum_bytes
    }

    /// Consumes the next signal chunk (any size, including empty) and
    /// returns the monitoring events of every window that completed.
    ///
    /// With a denoising stage, "completed" means the window's whole
    /// denoising block has arrived; [`finish`](MonitorSession::finish)
    /// drains the final partial block at end-of-stream.
    pub fn push(&mut self, samples: &[f32]) -> Vec<StreamEvent> {
        let mut spectra = self.stft.push(samples);
        if let Some(denoise) = &mut self.denoise {
            spectra = denoise.push(spectra);
        }
        self.observe_spectra(&spectra)
    }

    /// Declares end-of-stream: denoises and observes the final partial
    /// block. Sessions without a denoising stage emit nothing here.
    /// After `finish`, the concatenated `push` + `finish` events equal
    /// the batch denoised pipeline's events for the same signal.
    pub fn finish(&mut self) -> Vec<StreamEvent> {
        match &mut self.denoise {
            Some(denoise) => {
                let spectra = denoise.flush();
                self.observe_spectra(&spectra)
            }
            None => Vec::new(),
        }
    }

    fn observe_spectra(&mut self, spectra: &[Spectrum]) -> Vec<StreamEvent> {
        let mut events = Vec::with_capacity(spectra.len());
        for spectrum in spectra {
            let window = self.monitor.windows_observed();
            let sts = Sts::from_spectrum(window, spectrum, &self.model.config.peaks);
            let event = self.monitor.observe(&self.model, sts);
            events.push(StreamEvent {
                window,
                event,
                alarm: self.monitor.alarm(),
                tracked: self.monitor.current_region(),
            });
        }
        events
    }

    /// Captures the session's complete runtime state for persistence or
    /// migration. The model is deliberately not embedded — deployments
    /// store it once and share it across that program's sessions.
    pub fn snapshot(&self) -> SessionSnapshot {
        SessionSnapshot {
            stft: self.stft.state(),
            monitor: self.monitor.clone(),
            sample_rate_hz: self.sample_rate_hz,
            denoise: self.denoise.as_ref().map(|d| DenoiseSnapshot {
                config: d.denoiser().config().clone(),
                state: d.state(),
            }),
        }
    }

    /// Revives a session from a snapshot, continuing exactly where
    /// [`snapshot`](MonitorSession::snapshot) left off: the resumed
    /// session emits the same events for the remaining signal as the
    /// original would have.
    ///
    /// # Errors
    ///
    /// Returns errors of kind [`ErrorKind::EmptyModel`] /
    /// [`ErrorKind::InvalidConfig`] as [`new`](MonitorSession::new)
    /// does, and [`ErrorKind::CorruptSnapshot`] when the snapshot's
    /// STFT and monitor components disagree about stream progress.
    pub fn restore(
        model: Arc<TrainedModel>,
        snapshot: SessionSnapshot,
    ) -> Result<MonitorSession, Error> {
        let SessionSnapshot {
            stft,
            monitor,
            sample_rate_hz,
            denoise,
        } = snapshot;
        if model.regions.is_empty() {
            return Err(Error::new(
                ErrorKind::EmptyModel,
                "eddie-stream",
                "trained model has no regions",
            ));
        }
        // Denoising buffers windows between the STFT and the monitor,
        // so those in flight are counted by the STFT but not yet
        // observed.
        let buffered = denoise.as_ref().map_or(0, |d| d.state.buffered.len());
        if stft.windows != monitor.windows_observed() + buffered {
            return Err(Error::new(
                ErrorKind::CorruptSnapshot,
                "eddie-stream",
                "STFT window count disagrees with monitor window count",
            ));
        }
        let stft = StreamingStft::from_state(stft_config(&model, sample_rate_hz), stft)?;
        let denoise = denoise
            .map(|d| {
                let denoiser = SvdDenoiser::new(d.config).map_err(|e| {
                    Error::with_source(
                        ErrorKind::InvalidConfig,
                        "eddie-stream",
                        "invalid denoiser configuration in snapshot",
                        e,
                    )
                })?;
                StreamingDenoiser::from_state(denoiser, d.state).map_err(|e| {
                    Error::with_source(
                        ErrorKind::CorruptSnapshot,
                        "eddie-stream",
                        "denoiser state is inconsistent",
                        e,
                    )
                })
            })
            .transpose()?;
        Ok(MonitorSession {
            model,
            stft,
            denoise,
            monitor,
            sample_rate_hz,
        })
    }
}

fn stft_config(model: &TrainedModel, sample_rate_hz: f64) -> StftConfig {
    StftConfig {
        window_len: model.config.window_len,
        hop: model.config.hop,
        window: model.config.window,
        sample_rate_hz,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eddie_cfg::RegionGraph;
    use eddie_core::{train_from_labeled, EddieConfig, LabeledRun};
    use eddie_dsp::Peak;
    use eddie_isa::{ProgramBuilder, Reg};

    fn sts(index: usize, freq: f64) -> Sts {
        Sts {
            index,
            start_sample: index,
            peaks: vec![Peak {
                bin: 1,
                freq_hz: freq,
                power: 1.0,
                fraction: 0.5,
            }],
            centroid_hz: freq,
            spread_hz: 1.0,
        }
    }

    fn tiny_model() -> TrainedModel {
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
                .map(|w| sts(w, 100.0 + ((w * 7) % 5) as f64 * 0.5))
                .collect(),
            labels: vec![RegionId::new(0); 60],
        };
        train_from_labeled(&[run], &graph, &EddieConfig::quick()).unwrap()
    }

    #[test]
    fn new_rejects_empty_model() {
        let m = tiny_model();
        let empty = TrainedModel {
            regions: Default::default(),
            graph: m.graph.clone(),
            config: m.config.clone(),
        };
        assert_eq!(
            MonitorSession::new(Arc::new(empty), 1000.0)
                .err()
                .map(|e| e.kind()),
            Some(ErrorKind::EmptyModel)
        );
    }

    #[test]
    fn new_rejects_bad_sample_rate() {
        let m = Arc::new(tiny_model());
        let err = MonitorSession::new(m, f64::NAN).expect_err("must fail");
        assert_eq!(err.kind(), ErrorKind::InvalidConfig);
        // The DSP cause survives in the source chain.
        assert!(std::error::Error::source(&err).is_some());
    }

    #[test]
    fn restore_rejects_mismatched_counters() {
        let m = Arc::new(tiny_model());
        let session = MonitorSession::new(m.clone(), 1000.0).unwrap();
        let mut snap = session.snapshot();
        snap.stft.windows += 1;
        // windows=1 with an empty tail is also internally consistent for
        // the STFT alone, so the cross-component check must catch it.
        snap.stft.base = snap.stft.windows * m.config.hop;
        let err = MonitorSession::restore(m, snap).expect_err("must fail");
        assert_eq!(err.kind(), ErrorKind::CorruptSnapshot);
        assert!(err.message().contains("window count disagrees"));
    }

    #[test]
    fn empty_push_emits_nothing() {
        let m = Arc::new(tiny_model());
        let mut session = MonitorSession::new(m, 1000.0).unwrap();
        assert!(session.push(&[]).is_empty());
        assert_eq!(session.windows_observed(), 0);
        assert_eq!(session.samples_seen(), 0);
    }

    #[test]
    fn with_denoiser_rejects_bad_config() {
        let m = Arc::new(tiny_model());
        let cfg = SvdDenoiserConfig::new().with_block_windows(0);
        let err = MonitorSession::with_denoiser(m, 1000.0, cfg).expect_err("must fail");
        assert_eq!(err.kind(), ErrorKind::InvalidConfig);
        assert!(std::error::Error::source(&err).is_some());
    }

    #[test]
    fn finish_without_denoiser_emits_nothing() {
        let m = Arc::new(tiny_model());
        let mut session = MonitorSession::new(m, 1000.0).unwrap();
        assert!(session.finish().is_empty());
    }

    #[test]
    fn denoised_snapshot_roundtrips_mid_block() {
        let m = Arc::new(tiny_model());
        let cfg = SvdDenoiserConfig::new().with_block_windows(4).with_rank(1);
        let hop = m.config.hop;
        let window_len = m.config.window_len;
        // Enough samples for 6 windows: one complete block plus two
        // buffered windows.
        let samples: Vec<f32> = (0..window_len + 5 * hop)
            .map(|i| ((i * 37) % 17) as f32 / 17.0)
            .collect();

        let mut straight = MonitorSession::with_denoiser(m.clone(), 1000.0, cfg.clone()).unwrap();
        let events = straight.push(&samples);

        let mut first = MonitorSession::with_denoiser(m.clone(), 1000.0, cfg).unwrap();
        let half = samples.len() / 2;
        let mut early = first.push(&samples[..half]);
        let snap = first.snapshot();
        assert!(snap.denoise.is_some());
        let snap = SessionSnapshot::from_bytes(&snap.to_bytes()).unwrap();
        let mut resumed = MonitorSession::restore(m.clone(), snap).unwrap();
        early.extend(resumed.push(&samples[half..]));
        assert_eq!(early, events, "resumed events match uninterrupted run");

        assert_eq!(
            straight.finish(),
            resumed.finish(),
            "finish drains the same buffered windows"
        );
        assert_eq!(straight.windows_observed(), resumed.windows_observed());
        assert!(straight.approx_bytes() > 0);
    }

    /// A device can put any f32 on the wire, NaN included. The snapshot
    /// must carry such samples (in the STFT tail) and the spectra and
    /// peaks derived from them (in the window history) bit for bit, so
    /// the session parks, thaws and resumes like any other.
    #[test]
    fn nan_samples_survive_snapshot_bytes_and_restore() {
        let m = Arc::new(tiny_model());
        let window_len = m.config.window_len;
        let mut samples: Vec<f32> = (0..window_len * 6)
            .map(|i| ((i * 29) % 13) as f32 / 13.0)
            .collect();
        samples[window_len + 3] = f32::NAN;
        samples[3 * window_len - 1] = f32::from_bits(0x7fc0_0bad);

        let mut straight = MonitorSession::new(m.clone(), 1000.0).unwrap();
        let events = straight.push(&samples);

        let cut = 3 * window_len;
        let mut first = MonitorSession::new(m.clone(), 1000.0).unwrap();
        let mut early = first.push(&samples[..cut]);
        let snap = first.snapshot();
        assert!(snap.stft.pending.iter().any(|x| x.is_nan()));
        let bytes = snap.to_bytes();
        let restored = SessionSnapshot::from_bytes(&bytes).expect("NaN snapshot decodes");
        assert_eq!(restored.to_bytes(), bytes, "bit-exact round trip");
        let mut resumed = MonitorSession::restore(m, restored).unwrap();
        early.extend(resumed.push(&samples[cut..]));
        assert_eq!(early, events, "resumed events match uninterrupted run");
    }

    #[test]
    fn restore_rejects_denoiser_buffering_full_block() {
        let m = Arc::new(tiny_model());
        let cfg = SvdDenoiserConfig::new().with_block_windows(2).with_rank(1);
        let session = MonitorSession::with_denoiser(m.clone(), 1000.0, cfg).unwrap();
        let mut snap = session.snapshot();
        let d = snap.denoise.as_mut().unwrap();
        d.state.buffered = (0..2)
            .map(|w| eddie_dsp::Spectrum {
                power: vec![1.0; 4],
                bin_hz: 4.0,
                start_sample: w * 16,
            })
            .collect();
        // Keep the cross-component window counters consistent so the
        // denoiser-state check itself is exercised.
        snap.stft.windows += 2;
        snap.stft.base = snap.stft.windows * m.config.hop;
        let err = MonitorSession::restore(m, snap).expect_err("must fail");
        assert_eq!(err.kind(), ErrorKind::CorruptSnapshot);
        assert!(err.message().contains("denoiser state"));
    }

    #[test]
    fn restore_counts_buffered_windows_in_consistency_check() {
        let m = Arc::new(tiny_model());
        let cfg = SvdDenoiserConfig::new().with_block_windows(8).with_rank(1);
        let hop = m.config.hop;
        let window_len = m.config.window_len;
        let samples: Vec<f32> = (0..window_len + 2 * hop)
            .map(|i| ((i * 13) % 11) as f32 / 11.0)
            .collect();
        let mut session = MonitorSession::with_denoiser(m.clone(), 1000.0, cfg).unwrap();
        session.push(&samples);
        // Three windows produced, all buffered in the denoiser: the
        // monitor has observed none, yet the snapshot must restore.
        assert_eq!(session.windows_observed(), 0);
        let snap = session.snapshot();
        assert_eq!(snap.denoise.as_ref().unwrap().state.buffered.len(), 3);
        let restored = MonitorSession::restore(m, snap).unwrap();
        assert_eq!(restored.windows_observed(), 0);
    }
}
