//! The server's snapshot file: every live session's runtime state,
//! cold-parked ones included, as one `eddie-codec` value.
//!
//! ```text
//! eddie-snap v5\n
//! <eddie_codec::to_bytes(&SnapshotFile)>
//! ```
//!
//! The magic line names the format. The value carries its own lengths,
//! and decoding it refuses every strict prefix and any trailing byte,
//! so a truncated or padded file fails whole and the caller falls back
//! to a cold start instead of restoring a subset of the sessions.
//! [`persist_sessions`] writes a generation atomically (temp file, then
//! rename), so a crash mid-write leaves the previous generation in
//! place; [`load_snapshot`] reads it back.

use std::io;
use std::path::Path;

use eddie_codec::Encode;
use eddie_stream::SessionSnapshot;

const MAGIC: &[u8] = b"eddie-snap v5\n";

/// One session's persisted runtime state inside a snapshot file. The
/// model itself is not embedded — it rides separately via
/// [`TrainedModel::to_bytes`](eddie_core::TrainedModel::to_bytes),
/// exactly as live migrations do.
#[derive(Debug, Clone, PartialEq)]
pub struct PersistedSession {
    /// The session's token: its key on the server that wrote the file,
    /// and the one its client resumes with.
    pub token: u64,
    /// Which hosted model the session monitors against.
    pub model_id: String,
    /// The session's complete runtime state.
    pub snapshot: SessionSnapshot,
}

eddie_codec::codec_struct!(PersistedSession {
    token,
    model_id,
    snapshot
});

/// One generation of the server's snapshot file: every live session's
/// runtime state plus the observability journal's next sequence
/// number, so a restored server continues — not restarts — the
/// journal numbering (see [`resume_journal`]).
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotFile {
    /// `Journal::next_seq()` at snapshot time (0 when observability
    /// was not installed).
    pub journal_seq: u64,
    /// One entry per live session at snapshot time.
    pub sessions: Vec<PersistedSession>,
}

eddie_codec::codec_struct!(SnapshotFile {
    journal_seq,
    sessions
});

/// Loads a snapshot file written by [`persist_sessions`].
///
/// # Errors
///
/// I/O errors reading the file, or [`io::ErrorKind::InvalidData`] when
/// it is not one complete `eddie-snap v5` file.
pub fn load_snapshot(path: &Path) -> io::Result<SnapshotFile> {
    parse(&std::fs::read(path)?)
}

/// Atomically persists a snapshot generation (write to a sibling temp
/// file, then rename), stamping the current journal sequence, so a
/// crash mid-write never corrupts the previous generation.
/// [`load_snapshot`] reads it back.
///
/// # Errors
///
/// I/O errors writing or renaming the temp file.
pub fn persist_sessions(path: &Path, sessions: &[PersistedSession]) -> io::Result<()> {
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, image(sessions))?;
    std::fs::rename(&tmp, path)
}

/// Continues the installed journal's sequence numbering from a
/// restored snapshot: sequence numbers recorded after this call are
/// `>= file.journal_seq`, keeping the journal monotonic across a
/// snapshot/restore cycle. A no-op when observability is off.
pub fn resume_journal(file: &SnapshotFile) {
    if let Some(o) = eddie_obs::global() {
        o.journal().advance_to(file.journal_seq);
    }
}

/// The file image of a generation holding `sessions`, stamped with the
/// installed journal's next sequence number.
pub(crate) fn image(sessions: &[PersistedSession]) -> Vec<u8> {
    render(&SnapshotFile {
        journal_seq: eddie_obs::global().map_or(0, |o| o.journal().next_seq()),
        sessions: sessions.to_vec(),
    })
}

fn render(file: &SnapshotFile) -> Vec<u8> {
    let mut out = MAGIC.to_vec();
    file.encode(&mut out);
    out
}

fn parse(bytes: &[u8]) -> io::Result<SnapshotFile> {
    let invalid = |msg: String| io::Error::new(io::ErrorKind::InvalidData, msg);
    let value = bytes
        .strip_prefix(MAGIC)
        .ok_or_else(|| invalid("not an eddie-snap v5 file".to_string()))?;
    eddie_codec::from_bytes(value).map_err(|e| invalid(format!("snapshot file: {e}")))
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::path::PathBuf;
    use std::sync::Arc;

    pub(crate) fn tiny_model() -> Arc<eddie_core::TrainedModel> {
        use eddie_isa::{ProgramBuilder, Reg, RegionId};
        let mut b = ProgramBuilder::new();
        let (i, n) = (Reg::R1, Reg::R2);
        b.li(n, 8).li(i, 0);
        b.region_enter(RegionId::new(0));
        let top = b.label_here("t");
        b.addi(i, i, 1).blt_label(i, n, top);
        b.region_exit(RegionId::new(0));
        b.halt();
        let graph = eddie_cfg::RegionGraph::from_program(&b.build().unwrap()).unwrap();
        let run = eddie_core::LabeledRun {
            stss: (0..60)
                .map(|w| eddie_core::Sts {
                    index: w,
                    start_sample: w,
                    peaks: vec![eddie_dsp::Peak {
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
        Arc::new(
            eddie_core::train_from_labeled(&[run], &graph, &eddie_core::EddieConfig::quick())
                .unwrap(),
        )
    }

    /// One live session's snapshot per token, all on the tiny model,
    /// each having seen a different amount of signal.
    pub(crate) fn persisted(tokens: &[u64]) -> Vec<PersistedSession> {
        tokens
            .iter()
            .map(|&token| {
                let mut session = eddie_stream::MonitorSession::new(tiny_model(), 1000.0).unwrap();
                let _ = session.push(&vec![0.25; 300 + 100 * token as usize]);
                PersistedSession {
                    token,
                    model_id: "bitcount".to_string(),
                    snapshot: session.snapshot(),
                }
            })
            .collect()
    }

    /// A fresh directory for one test, and the snapshot path in it.
    fn scratch(tag: &str) -> (PathBuf, PathBuf) {
        let dir = std::env::temp_dir().join(format!("eddie-snap-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let path = dir.join("sessions.snap");
        (dir, path)
    }

    fn assert_invalid(result: io::Result<SnapshotFile>, what: &str) {
        match result {
            Ok(file) => panic!("{what} loaded with {} sessions", file.sessions.len()),
            Err(e) => assert_eq!(e.kind(), io::ErrorKind::InvalidData, "{what}: {e}"),
        }
    }

    #[test]
    fn render_parse_round_trip() {
        let file = SnapshotFile {
            journal_seq: 42,
            sessions: persisted(&[0, 7]),
        };
        assert_eq!(parse(&render(&file)).unwrap(), file);
    }

    #[test]
    fn empty_snapshot_round_trips() {
        let file = SnapshotFile {
            journal_seq: 0,
            sessions: Vec::new(),
        };
        assert_eq!(parse(&render(&file)).unwrap(), file);
    }

    /// On disk, a generation is the magic line followed by the codec
    /// value of the whole file, and nothing else.
    #[test]
    fn file_round_trip() {
        let (dir, path) = scratch("file");
        let sessions = persisted(&[1, 4]);
        persist_sessions(&path, &sessions).unwrap();
        let loaded = load_snapshot(&path).unwrap();
        assert_eq!(loaded.sessions, sessions);
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(bytes[..MAGIC.len()], *MAGIC);
        assert_eq!(bytes[MAGIC.len()..], eddie_codec::to_bytes(&loaded));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Every strict prefix of a written file is refused — including
    /// the ones that end between two sessions — never loaded as a
    /// smaller snapshot.
    #[test]
    fn truncation_is_an_error() {
        let (dir, path) = scratch("trunc");
        persist_sessions(&path, &persisted(&[0, 7])).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        for cut in 0..bytes.len() {
            assert_invalid(parse(&bytes[..cut]), &format!("the {cut}-byte prefix"));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn trailing_byte_is_an_error() {
        let (dir, path) = scratch("trailing");
        persist_sessions(&path, &persisted(&[2])).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.push(b'\n');
        std::fs::write(&path, &bytes).unwrap();
        assert_invalid(load_snapshot(&path), "a file with one trailing byte");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bad_magic_is_an_error() {
        assert_invalid(parse(b"{\"journal_seq\":0}"), "a JSON file");
        assert_invalid(parse(b""), "an empty file");
    }

    /// Files of older versions are refused, not mis-decoded: an
    /// `eddie-snap v3` file (text records and an `end` trailer), and an
    /// `eddie-snap v4` file, whose sessions are keyed by fleet slot.
    #[test]
    fn older_version_is_refused() {
        let (dir, path) = scratch("old");
        std::fs::write(&path, b"eddie-snap v3\nseq 0\nend 0\n").unwrap();
        assert_invalid(load_snapshot(&path), "an eddie-snap v3 file");
        let mut v4 = b"eddie-snap v4\n".to_vec();
        v4.extend_from_slice(
            &render(&SnapshotFile {
                journal_seq: 0,
                sessions: persisted(&[1]),
            })[MAGIC.len()..],
        );
        std::fs::write(&path, &v4).unwrap();
        assert_invalid(load_snapshot(&path), "an eddie-snap v4 file");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
