//! Bit-exact checkpoints: in-memory rollback targets and a little-endian
//! binary file format for resumable runs.

use std::collections::VecDeque;
use std::fmt;
use std::io::{Read, Write};
use std::path::Path;

use cenn_core::{CennSim, SimSnapshot};
use cenn_lut::LutStats;

/// A bit-exact restore point: the sim snapshot (raw Q16.16 grid bits plus
/// step/time counters) and the cumulative LUT statistics at capture time.
///
/// The LUT statistics ride along for reporting — they are *not* restored
/// into the sim on rollback, because replayed look-ups are real look-ups
/// (the determinism contract only freezes state trajectories, not cache
/// accounting).
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// The restorable sim state.
    pub snapshot: SimSnapshot,
    /// Cumulative LUT counters at capture time.
    pub lut: LutStats,
}

impl Checkpoint {
    /// Captures the sim's current state.
    pub fn capture(sim: &CennSim) -> Self {
        Self {
            snapshot: sim.snapshot(),
            lut: sim.lut_stats(),
        }
    }

    /// The step count this checkpoint restores to.
    pub fn step(&self) -> u64 {
        self.snapshot.steps
    }

    /// Serializes to the `CENNCKPT` v1 little-endian binary format (see
    /// [`SimSnapshot::encode_ckpt`]).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn write_to(&self, mut out: impl Write) -> std::io::Result<()> {
        let mut bytes = Vec::new();
        self.snapshot.encode_ckpt(&self.lut, &mut bytes);
        out.write_all(&bytes)
    }

    /// Parses the `CENNCKPT` binary format (see
    /// [`SimSnapshot::decode_ckpt`]).
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError`] on I/O failure or malformed content.
    pub fn read_from(mut input: impl Read) -> Result<Self, CheckpointError> {
        let mut buf = Vec::new();
        input.read_to_end(&mut buf)?;
        let (snapshot, lut) = SimSnapshot::decode_ckpt(&buf).map_err(CheckpointError::Format)?;
        Ok(Self { snapshot, lut })
    }

    /// Writes the checkpoint to a file (truncating).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn save(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        self.write_to(&mut f)?;
        f.flush()
    }

    /// Reads a checkpoint from a file.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError`] on I/O failure or malformed content.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, CheckpointError> {
        Self::read_from(std::fs::File::open(path)?)
    }
}

/// Why a checkpoint could not be read.
#[derive(Debug)]
pub enum CheckpointError {
    /// The underlying I/O failed.
    Io(std::io::Error),
    /// The bytes do not form a valid checkpoint.
    Format(String),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io(e) => write!(f, "checkpoint I/O failed: {e}"),
            Self::Format(m) => write!(f, "malformed checkpoint: {m}"),
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Io(e) => Some(e),
            Self::Format(_) => None,
        }
    }
}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e)
    }
}

/// A bounded ring of in-memory checkpoints, newest last.
#[derive(Debug, Clone, Default)]
pub struct CheckpointStore {
    capacity: usize,
    items: VecDeque<Checkpoint>,
}

impl CheckpointStore {
    /// A store keeping at most `capacity` checkpoints (0 keeps none).
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity,
            items: VecDeque::new(),
        }
    }

    /// Number of retained checkpoints.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// `true` if nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Pushes a checkpoint, evicting the oldest beyond capacity.
    pub fn push(&mut self, ckpt: Checkpoint) {
        if self.capacity == 0 {
            return;
        }
        if self.items.len() == self.capacity {
            self.items.pop_front();
        }
        self.items.push_back(ckpt);
    }

    /// The most recent checkpoint.
    pub fn latest(&self) -> Option<&Checkpoint> {
        self.items.back()
    }

    /// Drops the most recent checkpoint (e.g. when its interval turned
    /// out to be tainted) and returns it.
    pub fn pop(&mut self) -> Option<Checkpoint> {
        self.items.pop_back()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Checkpoint {
        Checkpoint {
            snapshot: SimSnapshot {
                steps: 40,
                time: 2.0,
                run_cells: 640,
                states: vec![vec![1, -2, i32::MAX, i32::MIN], vec![0, 65536, -65536, 7]],
            },
            lut: LutStats {
                accesses: 100,
                l1_hits: 80,
                l2_hits: 15,
                dram_fetches: 5,
                dram_points: 40,
                exact_hits: 3,
            },
        }
    }

    #[test]
    fn binary_round_trip_is_bit_exact() {
        let ckpt = sample();
        let mut buf = Vec::new();
        ckpt.write_to(&mut buf).unwrap();
        let back = Checkpoint::read_from(&buf[..]).unwrap();
        assert_eq!(back, ckpt);
    }

    #[test]
    fn malformed_bytes_are_rejected() {
        let ckpt = sample();
        let mut buf = Vec::new();
        ckpt.write_to(&mut buf).unwrap();
        // Bad magic.
        let mut bad = buf.clone();
        bad[0] = b'X';
        assert!(matches!(
            Checkpoint::read_from(&bad[..]),
            Err(CheckpointError::Format(_))
        ));
        // Unsupported version.
        let mut bad = buf.clone();
        bad[8] = 9;
        assert!(Checkpoint::read_from(&bad[..]).is_err());
        // Truncation anywhere.
        for cut in [4, 12, 40, buf.len() - 1] {
            assert!(Checkpoint::read_from(&buf[..cut]).is_err(), "cut at {cut}");
        }
        // Trailing garbage.
        let mut bad = buf.clone();
        bad.push(0);
        assert!(Checkpoint::read_from(&bad[..]).is_err());
    }

    #[test]
    fn oversized_layer_length_is_rejected_before_allocating() {
        // A 92-byte file: a valid header claiming one layer of 2^32 - 1
        // cells, with no payload behind it.
        let mut buf = Vec::new();
        Checkpoint {
            snapshot: SimSnapshot {
                steps: 0,
                time: 0.0,
                run_cells: 0,
                states: vec![Vec::new()],
            },
            lut: LutStats::default(),
        }
        .write_to(&mut buf)
        .unwrap();
        buf[88..92].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(buf.len(), 92);
        assert!(matches!(
            Checkpoint::read_from(&buf[..]),
            Err(CheckpointError::Format(_))
        ));
    }

    #[test]
    fn store_evicts_oldest() {
        let mut store = CheckpointStore::new(2);
        for steps in [1u64, 2, 3] {
            let mut c = sample();
            c.snapshot.steps = steps;
            store.push(c);
        }
        assert_eq!(store.len(), 2);
        assert_eq!(store.latest().unwrap().step(), 3);
        assert_eq!(store.pop().unwrap().step(), 3);
        assert_eq!(store.latest().unwrap().step(), 2);
    }

    #[test]
    fn zero_capacity_store_keeps_nothing() {
        let mut store = CheckpointStore::new(0);
        store.push(sample());
        assert!(store.is_empty());
        assert!(store.latest().is_none());
    }
}
