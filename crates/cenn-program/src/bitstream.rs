//! The §3 program bitstream.

use std::fmt;

use cenn_core::{Boundary, CennModel, Integrator, LayerKind, TemplateKind, WeightExpr};
use cenn_lut::{LutSpec, OffChipLut, SampleIdx};
use fixedpt::Q16_16;

/// Magic bytes opening every program stream.
pub const BITSTREAM_MAGIC: [u8; 4] = *b"CENN";
/// Current stream format version.
pub const BITSTREAM_VERSION: u8 = 1;

/// Errors from encoding or decoding a [`Program`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProgramError {
    /// The grid side is not a power of two (§3: "the side length is
    /// constrained to be the power of 2" so the exponent can be encoded).
    NonPowerOfTwoInput(usize),
    /// Kernel side is even or zero.
    BadKernel(usize),
    /// More than 8 layers (3-bit `N_layer`).
    TooManyLayers(usize),
    /// Stream does not start with the magic bytes.
    BadMagic,
    /// Unsupported stream version.
    BadVersion(u8),
    /// Stream ended mid-field.
    Truncated,
    /// A length field disagrees with the data that follows.
    Inconsistent(&'static str),
}

impl fmt::Display for ProgramError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::NonPowerOfTwoInput(n) => {
                write!(f, "input side {n} is not a power of two")
            }
            Self::BadKernel(k) => write!(f, "kernel side {k} is not odd and positive"),
            Self::TooManyLayers(n) => write!(f, "{n} layers exceed the 3-bit N_layer field"),
            Self::BadMagic => write!(f, "stream does not begin with the CENN magic"),
            Self::BadVersion(v) => write!(f, "unsupported bitstream version {v}"),
            Self::Truncated => write!(f, "stream truncated"),
            Self::Inconsistent(what) => write!(f, "inconsistent field: {what}"),
        }
    }
}

impl std::error::Error for ProgramError {}

/// Where a dynamic-weight descriptor applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DynSite {
    /// Entry `pos` (row-major) of the template at `template_index` in the
    /// program's template list.
    TemplateEntry {
        /// Index into [`Program::templates`].
        template_index: u16,
        /// Row-major position within the kernel.
        pos: u16,
    },
    /// Offset `index` in [`Program::offsets`].
    Offset {
        /// Index into [`Program::offsets`].
        index: u16,
    },
}

/// One nonlinear factor: function id + driving layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DynFactor {
    /// Registered function id.
    pub func: u16,
    /// Driving layer index.
    pub layer: u8,
}

/// A dynamic-weight descriptor (the generalized nonlinear template of
/// DESIGN.md; the word at the site holds the constant scale).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DynDescriptor {
    /// The programmed site.
    pub site: DynSite,
    /// The factor product.
    pub factors: Vec<DynFactor>,
}

/// One template image: quantized weight words plus the WUI indicator
/// bitmap (§3: "binary indicator matrices for real-time weight update").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TemplateImage {
    /// 0 = state (Â), 1 = output (A), 2 = feedforward (B).
    pub kind: u8,
    /// Destination layer.
    pub dest: u8,
    /// Source layer.
    pub src: u8,
    /// Kernel side.
    pub k: u8,
    /// Row-major Q16.16 weight words (scale for dynamic entries).
    pub words: Vec<i32>,
    /// WUI bits, one per word, packed LSB-first.
    pub wui: Vec<u8>,
}

impl TemplateImage {
    /// Reads the WUI bit for word `pos`.
    pub fn wui_bit(&self, pos: usize) -> bool {
        (self.wui[pos / 8] >> (pos % 8)) & 1 == 1
    }
}

/// One offset image.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OffsetImage {
    /// Destination layer.
    pub dest: u8,
    /// Q16.16 word (scale for dynamic offsets).
    pub word: i32,
    /// Real-time update indicator.
    pub wui: bool,
}

/// A sampled off-chip LUT image for one function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LutImage {
    /// First sample index.
    pub min_idx: i32,
    /// Last sample index.
    pub max_idx: i32,
    /// Spacing exponent (`2^-s`).
    pub log2_inv_spacing: u8,
    /// `{l(p), a1, a2, a3}` quadruples, quantized.
    pub entries: Vec<[i32; 4]>,
}

/// The complete solver program of §3/Fig. 3.
///
/// # Examples
///
/// ```
/// use cenn_program::Program;
/// use cenn_equations::{DynamicalSystem, Heat};
///
/// let setup = Heat::default().build(64, 64).unwrap();
/// let prog = Program::from_model(&setup.model).unwrap();
/// let bytes = prog.encode();
/// assert_eq!(Program::decode(&bytes).unwrap(), prog);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    /// log2 of the row count.
    pub rows_exp: u8,
    /// log2 of the column count.
    pub cols_exp: u8,
    /// Largest kernel side (`Size_kernel`).
    pub kernel: u8,
    /// Layer count (`N_layer`, ≤ 8).
    pub n_layers: u8,
    /// Layer kinds (0 = dynamic, 1 = algebraic).
    pub layer_kinds: Vec<u8>,
    /// Per-layer boundary condition: code (0 = zero-flux, 1 = periodic,
    /// 2 = Dirichlet, 3 = zero) plus the Q16.16 Dirichlet value.
    pub boundaries: Vec<(u8, i32)>,
    /// Integration scheme (0 = Euler, 1 = Heun).
    pub integrator: u8,
    /// Q16.16 integration step.
    pub dt_bits: i32,
    /// All template images.
    pub templates: Vec<TemplateImage>,
    /// All offset images.
    pub offsets: Vec<OffsetImage>,
    /// Dynamic-weight descriptors.
    pub dyn_descs: Vec<DynDescriptor>,
    /// Off-chip LUT images, indexed by function id.
    pub luts: Vec<LutImage>,
}

fn kind_code(kind: TemplateKind) -> u8 {
    match kind {
        TemplateKind::State => 0,
        TemplateKind::Output => 1,
        TemplateKind::Input => 2,
    }
}

impl Program {
    /// Compiles a validated model into its program image, sampling every
    /// registered function into its off-chip LUT (the host-side half of
    /// "Program DE solver", §3).
    ///
    /// # Errors
    ///
    /// Returns [`ProgramError::NonPowerOfTwoInput`] for grids whose sides
    /// are not powers of two, [`ProgramError::BadKernel`] /
    /// [`ProgramError::TooManyLayers`] for field overflows.
    pub fn from_model(model: &CennModel) -> Result<Self, ProgramError> {
        let rows_exp = side_exp(model.rows())?;
        let cols_exp = side_exp(model.cols())?;
        let kernel = model.kernel_size();
        if kernel == 0 || kernel.is_multiple_of(2) {
            return Err(ProgramError::BadKernel(kernel));
        }
        if model.n_layers() > 8 {
            return Err(ProgramError::TooManyLayers(model.n_layers()));
        }

        let mut templates = Vec::new();
        let mut dyn_descs = Vec::new();
        for kind in [
            TemplateKind::State,
            TemplateKind::Output,
            TemplateKind::Input,
        ] {
            for (dest, src, t) in model.all_templates(kind) {
                let k = t.size();
                let mut words = Vec::with_capacity(k * k);
                let mut wui = vec![0u8; (k * k).div_ceil(8)];
                for (i, (_, _, w)) in t.iter().enumerate() {
                    match w {
                        WeightExpr::Const(v) => words.push(v.to_bits()),
                        WeightExpr::Dyn { scale, factors } => {
                            words.push(scale.to_bits());
                            wui[i / 8] |= 1 << (i % 8);
                            dyn_descs.push(DynDescriptor {
                                site: DynSite::TemplateEntry {
                                    template_index: templates.len() as u16,
                                    pos: i as u16,
                                },
                                factors: factors
                                    .iter()
                                    .map(|f| DynFactor {
                                        func: f.func.0,
                                        layer: f.layer.index() as u8,
                                    })
                                    .collect(),
                            });
                        }
                    }
                }
                templates.push(TemplateImage {
                    kind: kind_code(kind),
                    dest: dest.index() as u8,
                    src: src.index() as u8,
                    k: k as u8,
                    words,
                    wui,
                });
            }
        }

        let mut offsets = Vec::new();
        for dest in model.layer_ids() {
            for w in model.offsets(dest) {
                match w {
                    WeightExpr::Const(v) => offsets.push(OffsetImage {
                        dest: dest.index() as u8,
                        word: v.to_bits(),
                        wui: false,
                    }),
                    WeightExpr::Dyn { scale, factors } => {
                        dyn_descs.push(DynDescriptor {
                            site: DynSite::Offset {
                                index: offsets.len() as u16,
                            },
                            factors: factors
                                .iter()
                                .map(|f| DynFactor {
                                    func: f.func.0,
                                    layer: f.layer.index() as u8,
                                })
                                .collect(),
                        });
                        offsets.push(OffsetImage {
                            dest: dest.index() as u8,
                            word: scale.to_bits(),
                            wui: true,
                        });
                    }
                }
            }
        }

        let mut luts = Vec::new();
        for (id, f) in model.library().iter() {
            let spec = model.lut_config().spec_for(id);
            let table = OffChipLut::generate(f, spec)
                .map_err(|_| ProgramError::Inconsistent("LUT spec"))?;
            let entries = (spec.min_idx..=spec.max_idx)
                .map(|i| {
                    let e = table.read(SampleIdx(i));
                    [
                        e.l_p.to_bits(),
                        e.a1.to_bits(),
                        e.a2.to_bits(),
                        e.a3.to_bits(),
                    ]
                })
                .collect();
            luts.push(LutImage {
                min_idx: spec.min_idx,
                max_idx: spec.max_idx,
                log2_inv_spacing: spec.log2_inv_spacing as u8,
                entries,
            });
        }

        Ok(Self {
            rows_exp,
            cols_exp,
            kernel: kernel as u8,
            n_layers: model.n_layers() as u8,
            layer_kinds: model
                .layer_ids()
                .map(|id| match model.layer(id).kind() {
                    LayerKind::Dynamic => 0,
                    LayerKind::Algebraic => 1,
                })
                .collect(),
            boundaries: model
                .layer_ids()
                .map(|id| match model.layer(id).boundary() {
                    Boundary::ZeroFlux => (0, 0),
                    Boundary::Periodic => (1, 0),
                    Boundary::Dirichlet(v) => (2, Q16_16::from_f64(v).to_bits()),
                    Boundary::Zero => (3, 0),
                })
                .collect(),
            integrator: match model.integrator() {
                Integrator::Euler => 0,
                Integrator::Heun => 1,
            },
            dt_bits: model.dt_fx().to_bits(),
            templates,
            offsets,
            dyn_descs,
            luts,
        })
    }

    /// Serializes the program to the byte stream pushed into the solver.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Vec::new();
        w.extend_from_slice(&BITSTREAM_MAGIC);
        w.push(BITSTREAM_VERSION);
        w.push(self.rows_exp);
        w.push(self.cols_exp);
        w.push(self.kernel);
        w.push(self.n_layers);
        w.extend_from_slice(&self.layer_kinds);
        for (code, value) in &self.boundaries {
            w.push(*code);
            w.extend_from_slice(&value.to_le_bytes());
        }
        w.push(self.integrator);
        w.extend_from_slice(&self.dt_bits.to_le_bytes());

        w.extend_from_slice(&(self.templates.len() as u16).to_le_bytes());
        for t in &self.templates {
            w.push(t.kind);
            w.push(t.dest);
            w.push(t.src);
            w.push(t.k);
            for word in &t.words {
                w.extend_from_slice(&word.to_le_bytes());
            }
            w.extend_from_slice(&t.wui);
        }

        w.extend_from_slice(&(self.offsets.len() as u16).to_le_bytes());
        for o in &self.offsets {
            w.push(o.dest);
            w.push(o.wui as u8);
            w.extend_from_slice(&o.word.to_le_bytes());
        }

        w.extend_from_slice(&(self.dyn_descs.len() as u16).to_le_bytes());
        for d in &self.dyn_descs {
            match d.site {
                DynSite::TemplateEntry {
                    template_index,
                    pos,
                } => {
                    w.push(0);
                    w.extend_from_slice(&template_index.to_le_bytes());
                    w.extend_from_slice(&pos.to_le_bytes());
                }
                DynSite::Offset { index } => {
                    w.push(1);
                    w.extend_from_slice(&index.to_le_bytes());
                    w.extend_from_slice(&0u16.to_le_bytes());
                }
            }
            w.push(d.factors.len() as u8);
            for f in &d.factors {
                w.extend_from_slice(&f.func.to_le_bytes());
                w.push(f.layer);
            }
        }

        w.extend_from_slice(&(self.luts.len() as u16).to_le_bytes());
        for l in &self.luts {
            w.extend_from_slice(&l.min_idx.to_le_bytes());
            w.extend_from_slice(&l.max_idx.to_le_bytes());
            w.push(l.log2_inv_spacing);
            for e in &l.entries {
                for v in e {
                    w.extend_from_slice(&v.to_le_bytes());
                }
            }
        }
        w
    }

    /// Parses a program stream.
    ///
    /// # Errors
    ///
    /// Returns a [`ProgramError`] describing the first malformed field.
    pub fn decode(bytes: &[u8]) -> Result<Self, ProgramError> {
        let mut r = Reader { bytes, at: 0 };
        if r.take(4)? != BITSTREAM_MAGIC {
            return Err(ProgramError::BadMagic);
        }
        let version = r.u8()?;
        if version != BITSTREAM_VERSION {
            return Err(ProgramError::BadVersion(version));
        }
        let rows_exp = r.u8()?;
        let cols_exp = r.u8()?;
        let kernel = r.u8()?;
        let n_layers = r.u8()?;
        if n_layers == 0 || n_layers > 8 {
            return Err(ProgramError::TooManyLayers(n_layers as usize));
        }
        if kernel == 0 || kernel % 2 == 0 {
            return Err(ProgramError::BadKernel(kernel as usize));
        }
        let layer_kinds = r.take(n_layers as usize)?.to_vec();
        let mut boundaries = Vec::with_capacity(n_layers as usize);
        for _ in 0..n_layers {
            let code = r.u8()?;
            if code > 3 {
                return Err(ProgramError::Inconsistent("boundary code"));
            }
            boundaries.push((code, r.i32()?));
        }
        let integrator = r.u8()?;
        if integrator > 1 {
            return Err(ProgramError::Inconsistent("integrator"));
        }
        let dt_bits = r.i32()?;

        // Vectors grow as their elements decode: a count read off the wire
        // reserves nothing, so a corrupt count fails on the bytes it lacks.
        let mut templates = Vec::new();
        for _ in 0..r.u16()? {
            let kind = r.u8()?;
            if kind > 2 {
                return Err(ProgramError::Inconsistent("template kind"));
            }
            let dest = r.u8()?;
            let src = r.u8()?;
            let k = r.u8()?;
            if k == 0 || k % 2 == 0 {
                return Err(ProgramError::BadKernel(k as usize));
            }
            let kk = (k as usize) * (k as usize);
            let mut words = Vec::new();
            for _ in 0..kk {
                words.push(r.i32()?);
            }
            let wui = r.take(kk.div_ceil(8))?.to_vec();
            templates.push(TemplateImage {
                kind,
                dest,
                src,
                k,
                words,
                wui,
            });
        }

        let mut offsets = Vec::new();
        for _ in 0..r.u16()? {
            let dest = r.u8()?;
            let wui = r.u8()? != 0;
            let word = r.i32()?;
            offsets.push(OffsetImage { dest, word, wui });
        }

        let mut dyn_descs = Vec::new();
        for _ in 0..r.u16()? {
            let tag = r.u8()?;
            let a = r.u16()?;
            let b = r.u16()?;
            let site = match tag {
                0 => {
                    if a as usize >= templates.len() {
                        return Err(ProgramError::Inconsistent("dyn template index"));
                    }
                    DynSite::TemplateEntry {
                        template_index: a,
                        pos: b,
                    }
                }
                1 => {
                    if a as usize >= offsets.len() {
                        return Err(ProgramError::Inconsistent("dyn offset index"));
                    }
                    DynSite::Offset { index: a }
                }
                _ => return Err(ProgramError::Inconsistent("dyn site tag")),
            };
            let mut factors = Vec::new();
            for _ in 0..r.u8()? {
                let func = r.u16()?;
                let layer = r.u8()?;
                if layer >= n_layers {
                    return Err(ProgramError::Inconsistent("factor layer"));
                }
                factors.push(DynFactor { func, layer });
            }
            dyn_descs.push(DynDescriptor { site, factors });
        }

        let mut luts = Vec::new();
        for _ in 0..r.u16()? {
            let min_idx = r.i32()?;
            let max_idx = r.i32()?;
            // Validate the (untrusted) range BEFORE allocating: the span
            // must be within the LutSpec cap and backed by actual bytes,
            // or a flipped bit could demand a multi-gigabyte allocation.
            let span = max_idx as i64 - min_idx as i64;
            if !(0..(1 << 24)).contains(&span) {
                return Err(ProgramError::Inconsistent("LUT range"));
            }
            let log2_inv_spacing = r.u8()?;
            let n = span as usize + 1;
            if r.remaining() < n * 16 {
                return Err(ProgramError::Truncated);
            }
            let mut entries = Vec::with_capacity(n);
            for _ in 0..n {
                entries.push([r.i32()?, r.i32()?, r.i32()?, r.i32()?]);
            }
            luts.push(LutImage {
                min_idx,
                max_idx,
                log2_inv_spacing,
                entries,
            });
        }

        Ok(Self {
            rows_exp,
            cols_exp,
            kernel,
            n_layers,
            layer_kinds,
            boundaries,
            integrator,
            dt_bits,
            templates,
            offsets,
            dyn_descs,
            luts,
        })
    }

    /// Size of the encoded stream in bytes.
    pub fn encoded_len(&self) -> usize {
        self.encode().len()
    }

    /// Grid rows.
    pub fn rows(&self) -> usize {
        1 << self.rows_exp
    }

    /// Grid columns.
    pub fn cols(&self) -> usize {
        1 << self.cols_exp
    }

    /// Total LUT bytes shipped with the program (each entry is 16 B).
    pub fn lut_bytes(&self) -> usize {
        self.luts.iter().map(|l| l.entries.len() * 16).sum()
    }

    /// The LUT spec of function `id` as a [`LutSpec`].
    pub fn lut_spec(&self, id: usize) -> LutSpec {
        let l = &self.luts[id];
        LutSpec {
            min_idx: l.min_idx,
            max_idx: l.max_idx,
            log2_inv_spacing: l.log2_inv_spacing as u32,
        }
    }
}

fn side_exp(n: usize) -> Result<u8, ProgramError> {
    if !n.is_power_of_two() {
        return Err(ProgramError::NonPowerOfTwoInput(n));
    }
    Ok(n.trailing_zeros() as u8)
}

struct Reader<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    fn remaining(&self) -> usize {
        self.bytes.len() - self.at
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ProgramError> {
        if self.at + n > self.bytes.len() {
            return Err(ProgramError::Truncated);
        }
        let s = &self.bytes[self.at..self.at + n];
        self.at += n;
        Ok(s)
    }
    fn u8(&mut self) -> Result<u8, ProgramError> {
        Ok(self.take(1)?[0])
    }
    fn u16(&mut self) -> Result<u16, ProgramError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }
    fn i32(&mut self) -> Result<i32, ProgramError> {
        let b = self.take(4)?;
        Ok(i32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cenn_equations::{
        DynamicalSystem, Fisher, Heat, HodgkinHuxley, Izhikevich, NavierStokes, ReactionDiffusion,
    };

    #[test]
    fn heat_program_round_trips() {
        let setup = Heat::default().build(64, 64).unwrap();
        let p = Program::from_model(&setup.model).unwrap();
        assert_eq!(p.rows_exp, 6);
        assert_eq!(p.kernel, 3);
        assert_eq!(p.n_layers, 1);
        assert!(p.dyn_descs.is_empty());
        assert!(p.luts.is_empty());
        let decoded = Program::decode(&p.encode()).unwrap();
        assert_eq!(decoded, p);
    }

    #[test]
    fn every_benchmark_program_round_trips() {
        let systems: Vec<Box<dyn DynamicalSystem>> = vec![
            Box::new(Heat::default()),
            Box::new(NavierStokes::default()),
            Box::new(Fisher::default()),
            Box::new(ReactionDiffusion::default()),
            Box::new(HodgkinHuxley::default()),
            Box::new(Izhikevich::default()),
        ];
        for sys in systems {
            let setup = sys.build(32, 32).unwrap();
            let p = Program::from_model(&setup.model).unwrap_or_else(|_| panic!("{}", sys.name()));
            let decoded = Program::decode(&p.encode()).unwrap_or_else(|_| panic!("{}", sys.name()));
            assert_eq!(decoded, p, "{}", sys.name());
            assert_eq!(p.rows(), 32);
            assert_eq!(p.cols(), 32);
        }
    }

    #[test]
    fn boundaries_and_integrator_survive_round_trip() {
        use cenn_core::Integrator;
        let setup = Heat::default().build(32, 32).unwrap();
        // Heat uses zero-flux boundaries and Euler by default.
        let p = Program::from_model(&setup.model).unwrap();
        assert_eq!(p.boundaries, vec![(0, 0)]);
        assert_eq!(p.integrator, 0);
        // Heun variant flips the field.
        let heun = setup.model.clone_with_integrator(Integrator::Heun);
        let p2 = Program::from_model(&heun).unwrap();
        assert_eq!(p2.integrator, 1);
        assert_eq!(Program::decode(&p2.encode()).unwrap(), p2);
        // RD uses periodic boundaries on both layers.
        let rd = ReactionDiffusion::default().build(32, 32).unwrap();
        let p3 = Program::from_model(&rd.model).unwrap();
        assert_eq!(p3.boundaries, vec![(1, 0), (1, 0)]);
    }

    #[test]
    fn wui_bits_mark_dynamic_sites() {
        let setup = ReactionDiffusion::default().build(32, 32).unwrap();
        let p = Program::from_model(&setup.model).unwrap();
        // RD's nonlinearity is a dynamic offset: exactly one WUI offset.
        assert_eq!(p.offsets.iter().filter(|o| o.wui).count(), 1);
        assert_eq!(p.dyn_descs.len(), 1);
        assert!(matches!(p.dyn_descs[0].site, DynSite::Offset { .. }));
    }

    #[test]
    fn ns_advection_wui_lands_in_template_bitmap() {
        let setup = NavierStokes::default().build(32, 32).unwrap();
        let p = Program::from_model(&setup.model).unwrap();
        let wui_entries: usize = p
            .templates
            .iter()
            .map(|t| (0..t.words.len()).filter(|&i| t.wui_bit(i)).count())
            .sum();
        assert_eq!(wui_entries, 4, "four advection taps");
    }

    #[test]
    fn non_power_of_two_is_rejected() {
        let setup = Heat::default().build(48, 64).unwrap();
        assert_eq!(
            Program::from_model(&setup.model).unwrap_err(),
            ProgramError::NonPowerOfTwoInput(48)
        );
    }

    #[test]
    fn decode_rejects_garbage() {
        assert_eq!(
            Program::decode(b"JUNK").unwrap_err(),
            ProgramError::BadMagic
        );
        assert_eq!(Program::decode(b"CE").unwrap_err(), ProgramError::Truncated);
        let setup = Heat::default().build(64, 64).unwrap();
        let mut bytes = Program::from_model(&setup.model).unwrap().encode();
        bytes[4] = 99; // version
        assert_eq!(
            Program::decode(&bytes).unwrap_err(),
            ProgramError::BadVersion(99)
        );
        let setup = Heat::default().build(64, 64).unwrap();
        let good = Program::from_model(&setup.model).unwrap().encode();
        assert_eq!(
            Program::decode(&good[..good.len() - 2]).unwrap_err(),
            ProgramError::Truncated
        );
    }

    #[test]
    fn lut_images_ship_with_the_program() {
        let setup = HodgkinHuxley::default().build(32, 32).unwrap();
        let p = Program::from_model(&setup.model).unwrap();
        assert_eq!(p.luts.len(), setup.model.library().len());
        assert!(p.lut_bytes() > 0);
        // The V-domain spec survives the round trip.
        let spec = p.lut_spec(0);
        assert_eq!(spec.min_idx, -100);
        assert_eq!(spec.max_idx, 60);
    }

    #[test]
    fn bitstream_format_is_frozen() {
        // Format-freeze golden test: the heat program's header bytes are
        // part of the v1 wire format. Any layout change must bump
        // BITSTREAM_VERSION and update this test.
        let setup = Heat::default().build(64, 64).unwrap();
        let bytes = Program::from_model(&setup.model).unwrap().encode();
        // magic, version, rows_exp, cols_exp, kernel, n_layers
        assert_eq!(&bytes[..4], b"CENN");
        assert_eq!(bytes[4], BITSTREAM_VERSION);
        assert_eq!(&bytes[5..9], &[6, 6, 3, 1]);
        // layer kind (dynamic), boundary (zero-flux, value 0)
        assert_eq!(bytes[9], 0);
        assert_eq!(&bytes[10..15], &[0, 0, 0, 0, 0]);
        // integrator euler, dt = 0.1 in Q16.16 (6554 = 0x199A le)
        assert_eq!(bytes[15], 0);
        assert_eq!(&bytes[16..20], &6554i32.to_le_bytes());
        // one template follows
        assert_eq!(&bytes[20..22], &1u16.to_le_bytes());
        // total size is stable
        assert_eq!(bytes.len(), 70, "v1 heat program is 70 bytes");
    }

    #[test]
    fn error_messages_are_descriptive() {
        for (e, needle) in [
            (ProgramError::NonPowerOfTwoInput(48), "power of two"),
            (ProgramError::BadKernel(4), "not odd"),
            (ProgramError::TooManyLayers(9), "N_layer"),
            (ProgramError::BadMagic, "magic"),
            (ProgramError::Truncated, "truncated"),
        ] {
            assert!(e.to_string().contains(needle), "{e}");
        }
    }
}
