//! The bounded structured event journal: a ring buffer of typed
//! records with monotonic sequence numbers and JSON rendering.

use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::Mutex;

/// One structured, typed event. All payload fields are numeric so the
/// journal never allocates per-event strings on the record path and
/// renders to JSON without escaping concerns.
///
/// Events are decisions and lifecycle changes, never one per window:
/// a per-window record would turn the ring over in milliseconds at
/// ingest rates and evict the transitions and anomalies an operator
/// reads it for (`eddie_core_windows_evaluated_total` counts windows).
///
/// A `device` field holds the session's fleet key, which for a server
/// session is its token: the one its client holds. Tokens are unique
/// per server, and across a cluster's shards because their token bases
/// are disjoint, so every record for a session names it the same way
/// on every server it lives on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JournalEvent {
    /// The monitor moved to a different loop/region id.
    RegionTransition {
        /// Fleet key of the session (a server session's token).
        device: u64,
        /// Window index at which the transition was decided.
        window: u64,
        /// Region id before the transition.
        from: u64,
        /// Region id after the transition.
        to: u64,
    },
    /// The monitor flagged an anomaly.
    AnomalyRaised {
        /// Fleet key of the session (a server session's token).
        device: u64,
        /// Window index at which the anomaly was raised.
        window: u64,
    },
    /// An ingress chunk was shed because the device queue was full.
    ChunkShed {
        /// Fleet key of the session (a server session's token).
        device: u64,
        /// Samples in the shed chunk.
        samples: u64,
    },
    /// A monitoring session was added to the fleet.
    SessionRegistered {
        /// Fleet key of the session (a server session's token).
        device: u64,
    },
    /// A monitoring session was removed from the fleet.
    SessionEvicted {
        /// Fleet key of the session (a server session's token).
        device: u64,
    },
    /// A client connection was accepted by the server.
    ConnectionOpened {
        /// Server-assigned connection id.
        id: u64,
    },
    /// A client connection terminated (cleanly or not).
    ConnectionClosed {
        /// Server-assigned connection id.
        id: u64,
    },
    /// A resumable session's connection dropped abruptly; the session
    /// stays live awaiting a resume.
    SessionParked {
        /// Fleet key of the session (a server session's token).
        device: u64,
    },
    /// A parked session was reclaimed by a reconnecting client.
    SessionResumed {
        /// Fleet key of the session (a server session's token).
        device: u64,
        /// Buffered event frames replayed to the client on reattach.
        replayed: u64,
    },
    /// A resident session was spilled to the cold store to stay inside
    /// the fleet's memory budget (distinct from [`SessionParked`],
    /// which is the serve layer's connection-drop parking).
    ///
    /// [`SessionParked`]: JournalEvent::SessionParked
    SessionColdParked {
        /// Fleet key of the session (a server session's token).
        device: u64,
    },
    /// A cold-parked session was restored from the spill log.
    SessionThawed {
        /// Fleet key of the session (a server session's token).
        device: u64,
    },
    /// A live session was exported to another cluster shard.
    SessionMigratedOut {
        /// Fleet key of the session (its token), as on the importing
        /// shard.
        device: u64,
    },
    /// A live session was imported from another cluster shard.
    SessionMigratedIn {
        /// Fleet key of the session (its token), as on the exporting
        /// shard.
        device: u64,
    },
}

impl JournalEvent {
    /// The event's type tag as it appears in JSON.
    pub fn kind(&self) -> &'static str {
        match self {
            JournalEvent::RegionTransition { .. } => "region_transition",
            JournalEvent::AnomalyRaised { .. } => "anomaly_raised",
            JournalEvent::ChunkShed { .. } => "chunk_shed",
            JournalEvent::SessionRegistered { .. } => "session_registered",
            JournalEvent::SessionEvicted { .. } => "session_evicted",
            JournalEvent::ConnectionOpened { .. } => "connection_opened",
            JournalEvent::ConnectionClosed { .. } => "connection_closed",
            JournalEvent::SessionParked { .. } => "session_parked",
            JournalEvent::SessionResumed { .. } => "session_resumed",
            JournalEvent::SessionColdParked { .. } => "session_cold_parked",
            JournalEvent::SessionThawed { .. } => "session_thawed",
            JournalEvent::SessionMigratedOut { .. } => "session_migrated_out",
            JournalEvent::SessionMigratedIn { .. } => "session_migrated_in",
        }
    }
}

/// A journal entry: an event plus the monotonic sequence number it was
/// assigned when recorded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JournalRecord {
    /// Sequence number, strictly increasing across the life of the
    /// journal (including records since evicted from the ring).
    pub seq: u64,
    /// The recorded event.
    pub event: JournalEvent,
}

impl JournalRecord {
    /// Renders the record as one JSON object.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(96);
        let _ = write!(
            s,
            "{{\"seq\":{},\"kind\":\"{}\"",
            self.seq,
            self.event.kind()
        );
        match self.event {
            JournalEvent::RegionTransition {
                device,
                window,
                from,
                to,
            } => {
                let _ = write!(
                    s,
                    ",\"device\":{device},\"window\":{window},\"from\":{from},\"to\":{to}"
                );
            }
            JournalEvent::AnomalyRaised { device, window } => {
                let _ = write!(s, ",\"device\":{device},\"window\":{window}");
            }
            JournalEvent::ChunkShed { device, samples } => {
                let _ = write!(s, ",\"device\":{device},\"samples\":{samples}");
            }
            JournalEvent::SessionRegistered { device }
            | JournalEvent::SessionEvicted { device } => {
                let _ = write!(s, ",\"device\":{device}");
            }
            JournalEvent::ConnectionOpened { id } | JournalEvent::ConnectionClosed { id } => {
                let _ = write!(s, ",\"id\":{id}");
            }
            JournalEvent::SessionParked { device } => {
                let _ = write!(s, ",\"device\":{device}");
            }
            JournalEvent::SessionResumed { device, replayed } => {
                let _ = write!(s, ",\"device\":{device},\"replayed\":{replayed}");
            }
            JournalEvent::SessionColdParked { device }
            | JournalEvent::SessionThawed { device }
            | JournalEvent::SessionMigratedOut { device }
            | JournalEvent::SessionMigratedIn { device } => {
                let _ = write!(s, ",\"device\":{device}");
            }
        }
        s.push('}');
        s
    }
}

#[derive(Debug)]
struct Inner {
    ring: VecDeque<JournalRecord>,
    next_seq: u64,
    dropped: u64,
}

/// A bounded ring buffer of [`JournalRecord`]s.
///
/// Recording assigns the sequence number *inside* the lock, so ring
/// order always equals sequence order. When full, the oldest record is
/// evicted and counted in [`dropped`](Journal::dropped) — memory stays
/// bounded no matter how long the process runs.
#[derive(Debug)]
pub struct Journal {
    capacity: usize,
    inner: Mutex<Inner>,
}

impl Journal {
    /// A journal holding at most `capacity` records (minimum 1).
    pub fn new(capacity: usize) -> Journal {
        let capacity = capacity.max(1);
        Journal {
            capacity,
            inner: Mutex::new(Inner {
                ring: VecDeque::with_capacity(capacity),
                next_seq: 0,
                dropped: 0,
            }),
        }
    }

    /// Appends `event`, returning the sequence number it was assigned.
    pub fn record(&self, event: JournalEvent) -> u64 {
        let mut inner = self.inner.lock().expect("journal lock");
        let seq = inner.next_seq;
        inner.next_seq += 1;
        if inner.ring.len() == self.capacity {
            inner.ring.pop_front();
            inner.dropped += 1;
        }
        inner.ring.push_back(JournalRecord { seq, event });
        seq
    }

    /// The sequence number the *next* record will get.
    pub fn next_seq(&self) -> u64 {
        self.inner.lock().expect("journal lock").next_seq
    }

    /// Records currently held in the ring.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("journal lock").ring.len()
    }

    /// Whether the ring is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Records evicted so far to keep the ring bounded.
    pub fn dropped(&self) -> u64 {
        self.inner.lock().expect("journal lock").dropped
    }

    /// The ring's contents, oldest first.
    pub fn recent(&self) -> Vec<JournalRecord> {
        self.inner
            .lock()
            .expect("journal lock")
            .ring
            .iter()
            .copied()
            .collect()
    }

    /// Renders the ring as a JSON array, oldest first.
    pub fn render_json(&self) -> String {
        let records = self.recent();
        let mut s = String::with_capacity(2 + records.len() * 96);
        s.push('[');
        for (i, r) in records.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&r.to_json());
        }
        s.push(']');
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequence_is_monotonic_and_ring_is_bounded() {
        let j = Journal::new(3);
        for i in 0..5 {
            let seq = j.record(JournalEvent::AnomalyRaised {
                device: 0,
                window: i,
            });
            assert_eq!(seq, i);
        }
        assert_eq!(j.len(), 3);
        assert_eq!(j.dropped(), 2);
        let recent = j.recent();
        let seqs: Vec<u64> = recent.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![2, 3, 4], "oldest evicted, order == seq order");
        assert_eq!(j.next_seq(), 5);
    }

    #[test]
    fn json_rendering_is_wellformed_per_kind() {
        let j = Journal::new(16);
        j.record(JournalEvent::RegionTransition {
            device: 2,
            window: 7,
            from: 1,
            to: 3,
        });
        j.record(JournalEvent::ChunkShed {
            device: 2,
            samples: 4096,
        });
        j.record(JournalEvent::SessionResumed {
            device: 2,
            replayed: 5,
        });
        let json = j.render_json();
        assert!(json.starts_with('['));
        assert!(json.ends_with(']'));
        assert!(json.contains(
            "{\"seq\":0,\"kind\":\"region_transition\",\"device\":2,\"window\":7,\"from\":1,\"to\":3}"
        ));
        assert!(json.contains("{\"seq\":1,\"kind\":\"chunk_shed\",\"device\":2,\"samples\":4096}"));
        assert!(
            json.contains("{\"seq\":2,\"kind\":\"session_resumed\",\"device\":2,\"replayed\":5}")
        );
    }

    #[test]
    fn concurrent_records_get_unique_sequences() {
        let j = std::sync::Arc::new(Journal::new(1024));
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let j = j.clone();
                std::thread::spawn(move || {
                    (0..100)
                        .map(|_| j.record(JournalEvent::ConnectionOpened { id: t }))
                        .collect::<Vec<u64>>()
                })
            })
            .collect();
        let mut all: Vec<u64> = threads
            .into_iter()
            .flat_map(|t| t.join().unwrap())
            .collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 400, "no duplicate sequence numbers");
    }
}
