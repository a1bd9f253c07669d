//! The append-compacted spill log cold parking writes to: scratch space
//! for one open store.
//!
//! One flat file per store, a format line followed by bare payloads:
//!
//! ```text
//! eddie-spill v3\n
//! <payload bytes><payload bytes>...
//! ```
//!
//! Nothing in the file names a session: the in-memory index holds each
//! live key's offset and length, so a record is read back only by the
//! process that wrote it, and [`SpillLog::open`] starts the file empty.
//! Parks only ever *append*; a key's previous record, and the record a
//! thaw or an eviction retires, become dead weight in place without a
//! write. When a park takes the dead fraction across the configured
//! ratio (and the file is big enough to care), the log compacts: live
//! records are rewritten in key order to a temp file which atomically
//! replaces the log.
//!
//! Durability stance: the log is an overflow tier for *resident* state,
//! not a write-ahead log — records are flushed but not fsynced.

use eddie_core::{Error, ErrorKind};
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::PathBuf;

const LAYER: &str = "eddie-store";
const HEADER: &[u8] = b"eddie-spill v3\n";

/// A live record's location in the file.
#[derive(Debug, Clone, Copy)]
struct Record {
    at: u64,
    len: u64,
}

/// Append-only spill file with an in-memory key index and
/// threshold-triggered compaction.
#[derive(Debug)]
pub(crate) struct SpillLog {
    path: PathBuf,
    file: File,
    index: HashMap<u64, Record>,
    file_bytes: u64,
    dead_bytes: u64,
    compactions: u64,
    compact_min_bytes: u64,
    compact_dead_ratio_pct: u32,
}

fn io_err(msg: &str, e: std::io::Error) -> Error {
    Error::with_source(Error::from_io_kind(e.kind()), LAYER, msg.to_string(), e)
}

impl SpillLog {
    /// Opens (or creates) the spill log at `path` and starts it empty.
    /// A file that does not start with the spill magic is refused and
    /// left untouched rather than clobbered.
    ///
    /// # Errors
    ///
    /// [`ErrorKind::Io`] on filesystem failures, or
    /// [`ErrorKind::Serialization`] when `path` holds non-spill data.
    pub(crate) fn open(
        path: impl Into<PathBuf>,
        compact_min_bytes: u64,
        compact_dead_ratio_pct: u32,
    ) -> Result<SpillLog, Error> {
        let path = path.into();
        let mut file = OpenOptions::new()
            .read(true)
            .append(true)
            .create(true)
            .open(&path)
            .map_err(|e| io_err("open spill log", e))?;
        let mut head = Vec::with_capacity(HEADER.len());
        (&mut file)
            .take(HEADER.len() as u64)
            .read_to_end(&mut head)
            .map_err(|e| io_err("read spill header", e))?;
        if !head.is_empty() && head != HEADER {
            return Err(Error::new(
                ErrorKind::Serialization,
                LAYER,
                format!("{} is not an eddie-spill v3 file", path.display()),
            ));
        }
        file.set_len(0)
            .map_err(|e| io_err("truncate spill log", e))?;
        file.write_all(HEADER)
            .map_err(|e| io_err("write spill header", e))?;
        Ok(SpillLog {
            path,
            file,
            index: HashMap::new(),
            file_bytes: HEADER.len() as u64,
            dead_bytes: 0,
            compactions: 0,
            compact_min_bytes,
            compact_dead_ratio_pct,
        })
    }

    /// Appends `payload` as `key`'s record, superseding any previous
    /// one, then compacts if the dead fraction calls for it.
    ///
    /// # Errors
    ///
    /// [`ErrorKind::Io`] on write failure; the in-memory index is only
    /// updated after the bytes are fully written.
    pub(crate) fn append(&mut self, key: u64, payload: &[u8]) -> Result<(), Error> {
        self.file
            .write_all(payload)
            .map_err(|e| io_err("append park record", e))?;
        let len = payload.len() as u64;
        let record = Record {
            at: self.file_bytes,
            len,
        };
        if let Some(old) = self.index.insert(key, record) {
            self.dead_bytes += old.len;
        }
        self.file_bytes += len;
        self.maybe_compact()
    }

    /// Retires `key`'s record, if it has one. Writes nothing: the
    /// bytes stay in the file as dead weight until a compaction.
    /// Returns whether a record was retired.
    pub(crate) fn remove(&mut self, key: u64) -> bool {
        let Some(old) = self.index.remove(&key) else {
            return false;
        };
        self.dead_bytes += old.len;
        true
    }

    /// Reads the live payload for `key`, or `None` when it is not
    /// parked here.
    ///
    /// # Errors
    ///
    /// [`ErrorKind::Io`] on read failure.
    pub(crate) fn read(&mut self, key: u64) -> Result<Option<Vec<u8>>, Error> {
        let Some(record) = self.index.get(&key).copied() else {
            return Ok(None);
        };
        self.file
            .seek(SeekFrom::Start(record.at))
            .map_err(|e| io_err("seek park record", e))?;
        let mut payload = vec![0u8; record.len as usize];
        self.file
            .read_exact(&mut payload)
            .map_err(|e| io_err("read park record", e))?;
        Ok(Some(payload))
    }

    /// Whether `key` has a live record.
    pub(crate) fn contains(&self, key: u64) -> bool {
        self.index.contains_key(&key)
    }

    /// Current on-disk size of the log, header included.
    pub(crate) fn file_bytes(&self) -> u64 {
        self.file_bytes
    }

    /// Compactions performed over this handle's lifetime.
    pub(crate) fn compactions(&self) -> u64 {
        self.compactions
    }

    fn maybe_compact(&mut self) -> Result<(), Error> {
        if self.file_bytes >= self.compact_min_bytes
            && self.dead_bytes * 100 >= self.file_bytes * self.compact_dead_ratio_pct as u64
        {
            self.compact()?;
        }
        Ok(())
    }

    /// Rewrites the log with live records only (key order) and
    /// atomically replaces the file. The original log is untouched
    /// until the final rename.
    fn compact(&mut self) -> Result<(), Error> {
        let mut keys: Vec<u64> = self.index.keys().copied().collect();
        keys.sort_unstable();
        let tmp = self.path.with_extension("tmp");
        let mut out = File::create(&tmp).map_err(|e| io_err("create compaction temp", e))?;
        out.write_all(HEADER)
            .map_err(|e| io_err("write compacted header", e))?;
        let mut index = HashMap::with_capacity(keys.len());
        let mut at = HEADER.len() as u64;
        for key in keys {
            let payload = self
                .read(key)?
                .expect("indexed key must read back during compaction");
            out.write_all(&payload)
                .map_err(|e| io_err("write compacted record", e))?;
            let len = payload.len() as u64;
            index.insert(key, Record { at, len });
            at += len;
        }
        drop(out);
        std::fs::rename(&tmp, &self.path).map_err(|e| io_err("swap compacted spill log", e))?;

        self.file = OpenOptions::new()
            .read(true)
            .append(true)
            .open(&self.path)
            .map_err(|e| io_err("reopen compacted spill log", e))?;
        self.index = index;
        self.file_bytes = at;
        self.dead_bytes = 0;
        self.compactions += 1;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("eddie-store-spill-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn file_len(path: &std::path::Path) -> u64 {
        std::fs::metadata(path).unwrap().len()
    }

    #[test]
    fn append_read_remove_round_trip() {
        let dir = tmpdir("rw");
        let path = dir.join("s.spill");
        let mut log = SpillLog::open(&path, u64::MAX, 50).unwrap();
        log.append(3, b"hello").unwrap();
        log.append(9, b"world!").unwrap();
        assert_eq!(log.read(3).unwrap().as_deref(), Some(&b"hello"[..]));
        assert_eq!(log.read(9).unwrap().as_deref(), Some(&b"world!"[..]));
        assert_eq!(log.read(4).unwrap(), None);
        // A thaw or an eviction retires the record without a write.
        let len = file_len(&path);
        assert!(log.remove(3));
        assert!(!log.remove(3));
        assert_eq!(file_len(&path), len);
        assert_eq!(log.read(3).unwrap(), None);
        assert!(log.contains(9) && !log.contains(3));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn supersede_marks_dead_bytes_and_reads_latest() {
        let dir = tmpdir("supersede");
        let mut log = SpillLog::open(dir.join("s.spill"), u64::MAX, 50).unwrap();
        log.append(1, b"old-old-old").unwrap();
        assert_eq!(log.dead_bytes, 0);
        log.append(1, b"new").unwrap();
        assert_eq!(log.dead_bytes, 11);
        assert_eq!(log.read(1).unwrap().as_deref(), Some(&b"new"[..]));
        assert_eq!(log.index.len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Records are read back only by the handle that wrote them: a
    /// reopened log starts empty, over the previous handle's file.
    #[test]
    fn reopen_starts_empty() {
        let dir = tmpdir("reopen");
        let path = dir.join("s.spill");
        {
            let mut log = SpillLog::open(&path, u64::MAX, 50).unwrap();
            log.append(1, b"one").unwrap();
            log.append(2, b"two").unwrap();
        }
        let mut log = SpillLog::open(&path, u64::MAX, 50).unwrap();
        assert!(log.index.is_empty());
        assert_eq!(log.read(1).unwrap(), None);
        assert_eq!(file_len(&path), HEADER.len() as u64);
        assert_eq!(log.file_bytes(), HEADER.len() as u64);
        log.append(1, b"uno").unwrap();
        assert_eq!(log.read(1).unwrap().as_deref(), Some(&b"uno"[..]));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn foreign_file_is_refused() {
        let dir = tmpdir("foreign");
        let path = dir.join("s.spill");
        let foreign = b"definitely not a spill log";
        std::fs::write(&path, foreign).unwrap();
        let err = SpillLog::open(&path, u64::MAX, 50).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::Serialization);
        assert_eq!(std::fs::read(&path).unwrap(), foreign, "left untouched");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Logs of an older format are refused and left as they are.
    #[test]
    fn older_version_is_refused() {
        let dir = tmpdir("v2");
        let path = dir.join("s.spill");
        let v2 = b"eddie-spill v2\nP 0 0 2\nab\n";
        std::fs::write(&path, v2).unwrap();
        let err = SpillLog::open(&path, u64::MAX, 50).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::Serialization);
        assert_eq!(std::fs::read(&path).unwrap(), v2, "left untouched");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_drops_dead_weight_and_preserves_live() {
        let dir = tmpdir("compact");
        let path = dir.join("s.spill");
        // Tiny min size + 1% ratio: compaction triggers aggressively.
        let mut log = SpillLog::open(&path, 1, 1).unwrap();
        for round in 0..10u8 {
            for key in 0..5u64 {
                log.append(key, &[round; 64]).unwrap();
            }
        }
        assert!(log.compactions() > 0, "threshold compaction must fire");
        assert_eq!(log.index.len(), 5);
        for key in 0..5u64 {
            assert_eq!(log.read(key).unwrap().as_deref(), Some(&[9u8; 64][..]));
        }
        // The file holds only the live records.
        assert_eq!(log.dead_bytes, 0);
        assert_eq!(log.file_bytes(), HEADER.len() as u64 + 5 * 64);
        assert_eq!(file_len(&path), log.file_bytes());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn payload_with_newlines_survives() {
        let dir = tmpdir("binary");
        let mut log = SpillLog::open(dir.join("s.spill"), u64::MAX, 50).unwrap();
        let payload = b"line1\nline2\neddie-spill v3\n";
        log.append(1, payload).unwrap();
        log.append(2, b"").unwrap();
        assert_eq!(log.read(1).unwrap().as_deref(), Some(&payload[..]));
        assert_eq!(log.read(2).unwrap().as_deref(), Some(&b""[..]));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
