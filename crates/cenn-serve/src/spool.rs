//! The durable session spool: atomic checkpoint writes, a versioned
//! manifest journal, and a quarantine for damaged files.
//!
//! Crash safety rests on one discipline applied twice. Every durable
//! write — a suspended session's `CENNCKPT` bytes and the `MANIFEST`
//! journal that indexes them — goes to a `*.tmp` sibling first, is
//! `sync_all`ed, and is then atomically renamed into place (with a
//! best-effort fsync of the containing directory so the rename itself
//! survives power loss). A crash at any instant therefore leaves either
//! the old file or the new one, never a torn hybrid.
//!
//! The manifest is the recovery index: one line per suspended session
//! recording its id, system, grid, step count, checkpoint file name, and
//! an FNV-1a digest of the checkpoint bytes. On restart,
//! [`crate::SessionManager::recover`] replays this journal, admits every
//! checkpoint whose digest matches, and moves the rest into
//! `spool/quarantine/` with a typed [`QuarantineReason`] — a damaged
//! file costs one session its progress since the last suspend, never the
//! server.

use std::collections::BTreeMap;
use std::fmt;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

use cenn_guard::Checkpoint;

use crate::digest::{fnv1a64, fnv1a64_init};

/// File name of the spool manifest journal.
pub const MANIFEST_NAME: &str = "MANIFEST";

/// Manifest format version; bump on any layout change.
pub const MANIFEST_VERSION: u32 = 1;

const MANIFEST_MAGIC: &str = "CENNMANIFEST";

/// Subdirectory (under the spool) that receives damaged checkpoints.
pub const QUARANTINE_DIR: &str = "quarantine";

/// The integrity digest stored in the manifest: FNV-1a 64 over the raw
/// checkpoint bytes (the same hash family as the state digests).
pub fn file_digest(bytes: &[u8]) -> u64 {
    fnv1a64(fnv1a64_init(), bytes)
}

/// Writes `bytes` to `path` crash-safely: a `<path>.tmp` sibling is
/// written and `sync_all`ed, then atomically renamed over `path`, then
/// the parent directory is fsynced (best-effort; some filesystems refuse
/// directory handles). A crash mid-call leaves the previous `path`
/// contents intact.
///
/// # Errors
///
/// Propagates I/O errors from the write, sync, or rename.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let tmp = tmp_path(path);
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    if let Some(dir) = path.parent() {
        if let Ok(d) = std::fs::File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

fn tmp_path(path: &Path) -> PathBuf {
    let mut os = path.as_os_str().to_owned();
    os.push(".tmp");
    PathBuf::from(os)
}

/// One suspended session's manifest record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ManifestEntry {
    /// Server-assigned session id.
    pub session: u64,
    /// System name (registry key).
    pub system: String,
    /// Grid rows.
    pub rows: u32,
    /// Grid cols.
    pub cols: u32,
    /// Step count at suspension.
    pub steps: u64,
    /// Checkpoint file name, relative to the spool directory.
    pub file: String,
    /// [`file_digest`] of the checkpoint bytes.
    pub digest: u64,
}

/// The spool's recovery index: session id → [`ManifestEntry`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Manifest {
    /// How many times [`crate::SessionManager::recover`] has restarted
    /// from this spool. Session ids carry it in their upper 32 bits, so
    /// no id is issued twice, crashes included.
    pub incarnation: u32,
    /// Entries keyed by session id.
    pub entries: BTreeMap<u64, ManifestEntry>,
}

/// Why the manifest could not be read.
#[derive(Debug)]
pub enum SpoolError {
    /// The underlying filesystem failed.
    Io(io::Error),
    /// The manifest text does not parse.
    Format {
        /// 1-based line number of the offending line.
        line: usize,
        /// What was wrong with it.
        reason: String,
    },
}

impl fmt::Display for SpoolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io(e) => write!(f, "spool I/O failed: {e}"),
            Self::Format { line, reason } => {
                write!(f, "malformed manifest at line {line}: {reason}")
            }
        }
    }
}

impl std::error::Error for SpoolError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Io(e) => Some(e),
            Self::Format { .. } => None,
        }
    }
}

impl From<io::Error> for SpoolError {
    fn from(e: io::Error) -> Self {
        Self::Io(e)
    }
}

impl Manifest {
    /// The manifest's path inside `spool`.
    pub fn path_in(spool: &Path) -> PathBuf {
        spool.join(MANIFEST_NAME)
    }

    /// Loads the manifest from `spool`; a missing file is an empty
    /// manifest (a fresh spool has suspended nothing).
    ///
    /// # Errors
    ///
    /// [`SpoolError::Io`] for filesystem failures other than
    /// not-found, [`SpoolError::Format`] for unparseable text.
    pub fn load(spool: &Path) -> Result<Self, SpoolError> {
        let text = match std::fs::read_to_string(Self::path_in(spool)) {
            Ok(t) => t,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Self::default()),
            Err(e) => return Err(e.into()),
        };
        Self::parse(&text)
    }

    /// Serializes and atomically rewrites the manifest in `spool`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from [`write_atomic`].
    pub fn save(&self, spool: &Path) -> io::Result<()> {
        write_atomic(&Self::path_in(spool), self.to_text().as_bytes())
    }

    fn to_text(&self) -> String {
        let mut out = format!("{MANIFEST_MAGIC} {MANIFEST_VERSION}\n");
        // Incarnation 0 is implied by the line's absence, so the manifest
        // of a spool that was never recovered carries no such line.
        if self.incarnation > 0 {
            out.push_str(&format!("incarnation={}\n", self.incarnation));
        }
        for e in self.entries.values() {
            out.push_str(&format!(
                "session={} system={} rows={} cols={} steps={} file={} digest={:016x}\n",
                e.session, e.system, e.rows, e.cols, e.steps, e.file, e.digest,
            ));
        }
        out
    }

    fn parse(text: &str) -> Result<Self, SpoolError> {
        let fail = |line: usize, reason: String| SpoolError::Format { line, reason };
        let mut lines = text.lines().enumerate();
        let Some((_, header)) = lines.next() else {
            return Err(fail(1, "empty manifest".into()));
        };
        match header.split_once(' ') {
            Some((MANIFEST_MAGIC, v)) if v.parse() == Ok(MANIFEST_VERSION) => {}
            Some((MANIFEST_MAGIC, v)) => {
                return Err(fail(
                    1,
                    format!("manifest version {v} (expected {MANIFEST_VERSION})"),
                ))
            }
            _ => return Err(fail(1, format!("bad header {header:?}"))),
        }
        let mut manifest = Self::default();
        for (idx, line) in lines {
            let lineno = idx + 1;
            if line.trim().is_empty() {
                continue;
            }
            let get = |key: &str| -> Result<String, SpoolError> {
                line.split_whitespace()
                    .filter_map(|kv| kv.split_once('='))
                    .find(|(k, _)| *k == key)
                    .map(|(_, v)| v.to_string())
                    .ok_or_else(|| fail(lineno, format!("missing field '{key}'")))
            };
            let num = |key: &str| -> Result<u64, SpoolError> {
                get(key)?
                    .parse()
                    .map_err(|_| fail(lineno, format!("field '{key}' is not a number")))
            };
            let small = |key: &str| -> Result<u32, SpoolError> {
                u32::try_from(num(key)?)
                    .map_err(|_| fail(lineno, format!("field '{key}' does not fit in 32 bits")))
            };
            if lineno == 2 && line.starts_with("incarnation=") {
                manifest.incarnation = small("incarnation")?;
                continue;
            }
            let session = num("session")?;
            let entry = ManifestEntry {
                session,
                system: get("system")?,
                rows: small("rows")?,
                cols: small("cols")?,
                steps: num("steps")?,
                file: get("file")?,
                digest: u64::from_str_radix(&get("digest")?, 16)
                    .map_err(|_| fail(lineno, "field 'digest' is not hex".into()))?,
            };
            manifest.entries.insert(session, entry);
        }
        Ok(manifest)
    }
}

/// Why a spooled checkpoint was refused during recovery.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QuarantineReason {
    /// The manifest references a file that does not exist.
    Missing,
    /// The file's FNV digest does not match the manifest record
    /// (truncation or bit rot).
    DigestMismatch {
        /// Digest recorded in the manifest.
        expected: u64,
        /// Digest of the bytes actually on disk.
        actual: u64,
    },
    /// The bytes do not decode as a `CENNCKPT` checkpoint, or disagree
    /// with the manifest about the session's shape.
    Unreadable(String),
}

impl QuarantineReason {
    /// The stable kebab-case discriminator (used in `cenn-obs` event
    /// details).
    pub fn code(&self) -> &'static str {
        match self {
            Self::Missing => "missing",
            Self::DigestMismatch { .. } => "digest-mismatch",
            Self::Unreadable(_) => "unreadable",
        }
    }
}

impl fmt::Display for QuarantineReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Missing => f.write_str("missing"),
            Self::DigestMismatch { expected, actual } => {
                write!(
                    f,
                    "digest-mismatch (expected {expected:016x}, got {actual:016x})"
                )
            }
            Self::Unreadable(m) => write!(f, "unreadable: {m}"),
        }
    }
}

/// Reads `entry`'s checkpoint from `spool` and checks it against the
/// record: the file digest, a clean `CENNCKPT` decode, and the step
/// count. Recovery quarantines a file on the reason; resume answers
/// `corrupt-checkpoint`.
pub(crate) fn read_checkpoint(
    spool: &Path,
    entry: &ManifestEntry,
) -> Result<Checkpoint, QuarantineReason> {
    let bytes = std::fs::read(spool.join(&entry.file)).map_err(|e| match e.kind() {
        io::ErrorKind::NotFound => QuarantineReason::Missing,
        _ => QuarantineReason::Unreadable(e.to_string()),
    })?;
    let actual = file_digest(&bytes);
    if actual != entry.digest {
        return Err(QuarantineReason::DigestMismatch {
            expected: entry.digest,
            actual,
        });
    }
    let ckpt = Checkpoint::read_from(&bytes[..])
        .map_err(|e| QuarantineReason::Unreadable(e.to_string()))?;
    if ckpt.step() != entry.steps {
        return Err(QuarantineReason::Unreadable(format!(
            "checkpoint at step {} but manifest says {}",
            ckpt.step(),
            entry.steps
        )));
    }
    Ok(ckpt)
}

/// Moves `file` (a name relative to `spool`) into `spool/quarantine/`,
/// creating the directory. Returns the quarantined path.
///
/// # Errors
///
/// Propagates I/O errors from the directory creation or the move.
pub fn quarantine(spool: &Path, file: &str) -> io::Result<PathBuf> {
    let dir = spool.join(QUARANTINE_DIR);
    std::fs::create_dir_all(&dir)?;
    let dest = dir.join(file);
    std::fs::rename(spool.join(file), &dest)?;
    Ok(dest)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("cenn-spool-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn entry(session: u64) -> ManifestEntry {
        ManifestEntry {
            session,
            system: "gray-scott".into(),
            rows: 8,
            cols: 8,
            steps: 30 * session,
            file: format!("session_{session}.ckpt"),
            digest: 0xDEAD_BEEF ^ session,
        }
    }

    #[test]
    fn manifest_round_trips_and_missing_is_empty() {
        let spool = dir("rt");
        assert!(Manifest::load(&spool).unwrap().entries.is_empty());
        let mut m = Manifest::default();
        m.entries.insert(1, entry(1));
        m.entries.insert(9, entry(9));
        m.save(&spool).unwrap();
        assert_eq!(Manifest::load(&spool).unwrap(), m);
        // Atomic discipline leaves no temp residue.
        assert!(!Manifest::path_in(&spool).with_extension("tmp").exists());
        assert!(!spool.join("MANIFEST.tmp").exists());
        let _ = std::fs::remove_dir_all(&spool);
    }

    #[test]
    fn manifest_rejects_bad_header_and_bad_fields() {
        assert!(matches!(
            Manifest::parse("WRONG 1\n"),
            Err(SpoolError::Format { line: 1, .. })
        ));
        assert!(matches!(
            Manifest::parse("CENNMANIFEST 99\n"),
            Err(SpoolError::Format { line: 1, .. })
        ));
        let bad = "CENNMANIFEST 1\nsession=1 system=heat rows=8 cols=8 steps=x file=f digest=0\n";
        assert!(matches!(
            Manifest::parse(bad),
            Err(SpoolError::Format { line: 2, .. })
        ));
        let missing = "CENNMANIFEST 1\nsession=1 rows=8\n";
        assert!(Manifest::parse(missing).is_err());
    }

    #[test]
    fn manifest_rejects_grid_sides_past_u32() {
        let line = "session=1 system=heat rows=4294967304 cols=8 steps=0 file=f digest=0";
        assert!(matches!(
            Manifest::parse(&format!("CENNMANIFEST 1\n{line}\n")),
            Err(SpoolError::Format { line: 2, .. })
        ));
    }

    #[test]
    fn incarnation_line_is_optional_and_only_follows_the_header() {
        let entry_line =
            "session=1 system=heat rows=8 cols=8 steps=0 file=f digest=0000000000000000";
        let never_recovered = format!("CENNMANIFEST 1\n{entry_line}\n");
        let m = Manifest::parse(&never_recovered).unwrap();
        assert_eq!(m.incarnation, 0);
        assert_eq!(m.to_text(), never_recovered, "incarnation 0 writes no line");

        let recovered = format!("CENNMANIFEST 1\nincarnation=3\n{entry_line}\n");
        let m = Manifest::parse(&recovered).unwrap();
        assert_eq!((m.incarnation, m.entries.len()), (3, 1));
        assert_eq!(m.to_text(), recovered);

        let misplaced = format!("CENNMANIFEST 1\n{entry_line}\nincarnation=3\n");
        assert!(matches!(
            Manifest::parse(&misplaced),
            Err(SpoolError::Format { line: 3, .. })
        ));
    }

    #[test]
    fn write_atomic_replaces_content_without_tmp_residue() {
        let spool = dir("wa");
        let path = spool.join("blob");
        write_atomic(&path, b"first").unwrap();
        write_atomic(&path, b"second").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"second");
        assert!(!spool.join("blob.tmp").exists());
        let _ = std::fs::remove_dir_all(&spool);
    }

    #[test]
    fn quarantine_moves_the_file_aside() {
        let spool = dir("q");
        std::fs::write(spool.join("session_3.ckpt"), b"garbage").unwrap();
        let dest = quarantine(&spool, "session_3.ckpt").unwrap();
        assert!(!spool.join("session_3.ckpt").exists());
        assert_eq!(std::fs::read(dest).unwrap(), b"garbage");
        assert_eq!(
            QuarantineReason::DigestMismatch {
                expected: 1,
                actual: 2
            }
            .code(),
            "digest-mismatch"
        );
        let _ = std::fs::remove_dir_all(&spool);
    }
}
