//! Bit-exact simulator snapshots and their `CENNCKPT` v1 file codec.
//!
//! One codec serves every `CENNCKPT` producer and consumer: guard
//! checkpoints, session spool files, and the streamed engine's chunk
//! spool. The layout is little-endian throughout:
//!
//! ```text
//! magic "CENNCKPT" | version u32 | steps u64 | time f64 bits | run_cells u64
//! | six LUT counters u64 | n_layers u32 | per layer: len u32, len × i32
//! ```
//!
//! One digest, too: [`snapshot_digest`] folds a snapshot's *state
//! trajectory* — step counter, simulated-time bits, cumulative cell
//! evaluations, and every layer's raw Q16.16 words — through FNV-1a 64.
//! It deliberately excludes LUT cache statistics: caches come up cold
//! after a checkpoint resume, so hit counters legally differ between an
//! interrupted and an uninterrupted run even though every state bit is
//! identical. The digest covers exactly the bits the determinism contract
//! freezes and nothing else, so in-core sims and streamed engines (whose
//! snapshots are assembled from the chunk spool) compare digest for
//! digest.

use cenn_lut::LutStats;

use crate::sim::CennSim;

/// `CENNCKPT` file magic.
pub(crate) const MAGIC: &[u8; 8] = b"CENNCKPT";
/// `CENNCKPT` format version.
const VERSION: u32 = 1;
/// Bytes before the first layer record.
pub(crate) const HEADER_LEN: usize = 8 + 4 + 3 * 8 + 6 * 8 + 4;

/// A bit-exact snapshot of the simulator's restorable state: the raw
/// Q16.16 bits of every layer grid plus the step/time counters. Produced
/// by [`CennSim::snapshot`](crate::CennSim::snapshot) and applied by
/// [`CennSim::restore`](crate::CennSim::restore).
///
/// Cache contents and LUT statistics are deliberately *not* captured:
/// the determinism contract guarantees cache state never changes a
/// looked-up value, so replay from a snapshot reproduces the state
/// trajectory bit-identically regardless of what the caches held —
/// only hit/miss accounting can differ.
#[derive(Debug, Clone, PartialEq)]
pub struct SimSnapshot {
    /// Steps executed when the snapshot was taken.
    pub steps: u64,
    /// Simulated time when the snapshot was taken.
    pub time: f64,
    /// Cumulative cell evaluations when the snapshot was taken.
    pub run_cells: u64,
    /// Raw Q16.16 bits of each layer's state grid, declaration order.
    pub states: Vec<Vec<i32>>,
}

impl SimSnapshot {
    /// Appends the snapshot to `out` as a `CENNCKPT` v1 image, with `lut`
    /// as the recorded LUT counters.
    pub fn encode_ckpt(&self, lut: &LutStats, out: &mut Vec<u8>) {
        encode(
            out,
            (self.steps, self.time, self.run_cells),
            lut,
            self.states.iter().map(|l| l.iter().copied()),
        );
    }

    /// Parses a `CENNCKPT` v1 image into the snapshot and its recorded
    /// LUT counters.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformation: bad magic or
    /// version, truncation, a layer claiming more cells than the bytes
    /// left, or trailing bytes. Nothing is allocated for a layer before
    /// its length has been checked against the input.
    pub fn decode_ckpt(bytes: &[u8]) -> Result<(Self, LutStats), String> {
        let view = CkptView::parse(bytes)?;
        let states = (0..view.n_layers())
            .map(|l| view.words(l, 0, view.layer_len(l)).collect())
            .collect();
        let (steps, time, run_cells) = view.counters;
        Ok((
            Self {
                steps,
                time,
                run_cells,
                states,
            },
            view.lut,
        ))
    }
}

/// Appends one `CENNCKPT` v1 image to `out`: the `(steps, time,
/// run_cells)` counters, the LUT counters, and each layer's raw words.
pub(crate) fn encode<L>(
    out: &mut Vec<u8>,
    (steps, time, run_cells): (u64, f64, u64),
    lut: &LutStats,
    layers: impl ExactSizeIterator<Item = L>,
) where
    L: ExactSizeIterator<Item = i32>,
{
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    for v in [
        steps,
        time.to_bits(),
        run_cells,
        lut.accesses,
        lut.l1_hits,
        lut.l2_hits,
        lut.dram_fetches,
        lut.dram_points,
        lut.exact_hits,
    ] {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out.extend_from_slice(&(layers.len() as u32).to_le_bytes());
    for layer in layers {
        out.extend_from_slice(&(layer.len() as u32).to_le_bytes());
        for w in layer {
            out.extend_from_slice(&w.to_le_bytes());
        }
    }
}

/// A `CENNCKPT` v1 fixed header: the `(steps, time, run_cells)` counters,
/// the LUT counters, and the layer count.
pub(crate) type Header = ((u64, f64, u64), LutStats, usize);

/// Checks the fixed header at the start of `bytes` (length, magic,
/// version) and returns it.
pub(crate) fn parse_header(bytes: &[u8]) -> Result<Header, String> {
    if bytes.len() < HEADER_LEN {
        return Err("truncated header".into());
    }
    if &bytes[..8] != MAGIC {
        return Err("bad magic".into());
    }
    let u32_at = |pos: usize| u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap());
    let u64_at = |pos: usize| u64::from_le_bytes(bytes[pos..pos + 8].try_into().unwrap());
    let version = u32_at(8);
    if version != VERSION {
        return Err(format!(
            "unsupported version {version} (expected {VERSION})"
        ));
    }
    let counters = (u64_at(12), f64::from_bits(u64_at(20)), u64_at(28));
    let lut = LutStats {
        accesses: u64_at(36),
        l1_hits: u64_at(44),
        l2_hits: u64_at(52),
        dram_fetches: u64_at(60),
        dram_points: u64_at(68),
        exact_hits: u64_at(76),
    };
    Ok((counters, lut, u32_at(HEADER_LEN - 4) as usize))
}

/// A validated `CENNCKPT` v1 image, borrowed: the header fields plus
/// where each layer's payload lies, so callers copy words straight out of
/// the input without an intermediate buffer.
#[derive(Debug)]
pub(crate) struct CkptView<'a> {
    bytes: &'a [u8],
    /// `(steps, time, run_cells)`.
    pub(crate) counters: (u64, f64, u64),
    pub(crate) lut: LutStats,
    /// `(byte offset, cells)` of each layer's payload.
    layers: Vec<(usize, usize)>,
}

impl<'a> CkptView<'a> {
    /// Validates the framing of `bytes` (see
    /// [`SimSnapshot::decode_ckpt`] for what is rejected).
    pub(crate) fn parse(bytes: &'a [u8]) -> Result<Self, String> {
        let (counters, lut, n_layers) = parse_header(bytes)?;
        let u32_at = |pos: usize| u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap());
        let mut pos = HEADER_LEN;
        // Every layer record needs at least its 4-byte length.
        if n_layers > (bytes.len() - pos) / 4 {
            return Err(format!("{n_layers} layers cannot fit the file"));
        }
        let mut layers = Vec::with_capacity(n_layers);
        for _ in 0..n_layers {
            if bytes.len() - pos < 4 {
                return Err("truncated layer header".into());
            }
            let cells = u32_at(pos) as usize;
            pos += 4;
            if cells > (bytes.len() - pos) / 4 {
                return Err("truncated layer payload".into());
            }
            layers.push((pos, cells));
            pos += cells * 4;
        }
        if pos != bytes.len() {
            return Err("trailing bytes".into());
        }
        Ok(Self {
            bytes,
            counters,
            lut,
            layers,
        })
    }

    /// Number of layer records.
    pub(crate) fn n_layers(&self) -> usize {
        self.layers.len()
    }

    /// Cells in layer `l`.
    pub(crate) fn layer_len(&self, l: usize) -> usize {
        self.layers[l].1
    }

    /// `n` raw words of layer `l` starting at cell `start`.
    pub(crate) fn words(&self, l: usize, start: usize, n: usize) -> impl Iterator<Item = i32> + 'a {
        let off = self.layers[l].0 + start * 4;
        self.bytes[off..off + n * 4]
            .chunks_exact(4)
            .map(|b| i32::from_le_bytes(b.try_into().unwrap()))
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a 64 over a byte slice, continuing from `hash`.
pub fn fnv1a64(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// Starts a fresh FNV-1a 64 accumulator.
pub fn fnv1a64_init() -> u64 {
    FNV_OFFSET
}

/// Digest of the sim's complete deterministic state.
pub fn state_digest(sim: &CennSim) -> u64 {
    snapshot_digest(&sim.snapshot())
}

/// Digest of an already-taken snapshot — the same bytes and fold as
/// [`state_digest`].
pub fn snapshot_digest(snap: &SimSnapshot) -> u64 {
    let mut d = StateDigest::new((snap.steps, snap.time, snap.run_cells), snap.states.len());
    for layer in &snap.states {
        d.layer(layer.len());
        d.cells(layer.iter().copied());
    }
    d.finish()
}

/// The [`snapshot_digest`] fold taken piece by piece: the counters and
/// layer count, then each layer's cell count followed by its cells in
/// row order, in as many pieces as the caller likes. A streamed engine
/// digests its spool this way, one chunk at a time
/// ([`Engine::fold_state`](crate::Engine::fold_state)).
#[derive(Debug, Clone, Copy)]
pub(crate) struct StateDigest(u64);

impl StateDigest {
    /// Starts the fold with the `(steps, time, run_cells)` counters and
    /// the layer count.
    pub(crate) fn new((steps, time, run_cells): (u64, f64, u64), n_layers: usize) -> Self {
        let mut h = fnv1a64_init();
        h = fnv1a64(h, &steps.to_le_bytes());
        h = fnv1a64(h, &time.to_bits().to_le_bytes());
        h = fnv1a64(h, &run_cells.to_le_bytes());
        Self(fnv1a64(h, &(n_layers as u64).to_le_bytes()))
    }

    /// Opens the next layer, of `cells` cells.
    pub(crate) fn layer(&mut self, cells: usize) {
        self.0 = fnv1a64(self.0, &(cells as u64).to_le_bytes());
    }

    /// Folds the next raw Q16.16 words of the open layer.
    pub(crate) fn cells(&mut self, words: impl IntoIterator<Item = i32>) {
        for w in words {
            self.0 = fnv1a64(self.0, &w.to_le_bytes());
        }
    }

    /// The digest.
    pub(crate) fn finish(self) -> u64 {
        self.0
    }
}
