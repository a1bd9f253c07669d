//! `Fleet::drain` visits only the devices with queued chunks. With 1024
//! sessions registered and chunks queued on two, it must return exactly
//! those two, in key order, with the events and journal records of a
//! dense drain: a twin fleet whose only live devices are the two fed
//! ones, under the same keys, so every live device has chunks queued.
//! Alone in its binary because the journal is process-global.

use std::sync::Arc;

use eddie_cfg::RegionGraph;
use eddie_core::{train_from_labeled, EddieConfig, LabeledRun, MonitorEvent, Sts, TrainedModel};
use eddie_dsp::Peak;
use eddie_isa::{ProgramBuilder, Reg, RegionId};
use eddie_obs::JournalEvent;
use eddie_stream::{DeviceId, Fleet, FleetConfig, MonitorSession, PushResult, StreamEvent};

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

type Drained = Vec<(DeviceId, Vec<StreamEvent>)>;

#[test]
fn drain_returns_only_devices_with_queued_chunks() {
    const FED: [usize; 2] = [37, 901];
    let obs = eddie_obs::install();
    // One drain, with the journal records it wrote.
    let drain = |fleet: &mut Fleet| -> (Drained, Vec<JournalEvent>) {
        let from = obs.journal().next_seq();
        let drained = fleet.drain();
        let records = obs.journal().recent().into_iter();
        (
            drained,
            records.filter(|r| r.seq >= from).map(|r| r.event).collect(),
        )
    };
    let model = tiny_model();
    let session = || MonitorSession::new(model.clone(), 1000.0).unwrap();

    let (mut wide, mut twin) = (
        Fleet::new(FleetConfig::default()),
        Fleet::new(FleetConfig::default()),
    );
    let ids: Vec<DeviceId> = (0..1024).map(|_| wide.add_session(session())).collect();
    let twin_ids: Vec<DeviceId> = (0..1024).map(|_| twin.add_session(session())).collect();
    assert_eq!(twin_ids, ids);
    for (k, &id) in ids.iter().enumerate() {
        if !FED.contains(&k) {
            assert!(twin.remove_session(id).is_some());
        }
    }
    let fed: Vec<DeviceId> = FED.iter().map(|&k| ids[k]).collect();
    let mut alone = [session(), session()];

    // One device off the trained tone (it alarms), one on it.
    let signals: [Vec<f32>; 2] =
        [0.01f32, 0.6283].map(|w| (0..6000).map(|i| (i as f32 * w).sin()).collect());
    let mut anomalies = 0;
    for round in 0..signals[0].len() / 700 {
        let chunks = signals
            .each_ref()
            .map(|s| &s[round * 700..(round + 1) * 700]);
        for (&dev, chunk) in fed.iter().zip(chunks) {
            assert_eq!(wide.push_chunk(dev, chunk.to_vec()), PushResult::Accepted);
            assert_eq!(twin.push_chunk(dev, chunk.to_vec()), PushResult::Accepted);
        }
        let (got, got_journal) = drain(&mut wide);
        let (want, want_journal) = drain(&mut twin);
        let devices: Vec<DeviceId> = got.iter().map(|(d, _)| *d).collect();
        assert_eq!(
            devices, fed,
            "round {round}: exactly the fed devices, in order"
        );
        assert_eq!(got, want, "round {round}: events equal the dense drain's");
        assert_eq!(got_journal, want_journal, "round {round}: journal records");
        for (k, (_, evs)) in got.iter().enumerate() {
            assert_eq!(*evs, alone[k].push(chunks[k]), "round {round}: device {k}");
            anomalies += evs
                .iter()
                .filter(|e| e.event == MonitorEvent::Anomaly)
                .count();
        }
    }
    assert!(anomalies > 0, "the off-tone device journals anomalies");

    // Nothing queued: an empty result and no journal records.
    assert_eq!(drain(&mut wide), (Vec::new(), Vec::new()));
}
