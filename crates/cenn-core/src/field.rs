//! Per-cell fields: a layer's initial state or input map as a rule that
//! yields any cell's value, so an engine can be seeded row by row without
//! a whole-grid `f64` copy.

use std::fmt;
use std::sync::Arc;

use fixedpt::Q16_16;

use crate::error::ModelError;
use crate::grid::Grid;

/// A value for every cell of a layer: a constant, a pure function of the
/// cell's `(row, col)`, or a materialized grid. The in-core engine
/// quantizes a field into its slabs; the streamed engine writes it into
/// its chunk spool window by window, so a memory-budgeted run never holds
/// the grid.
///
/// # Examples
///
/// ```
/// use cenn_core::{Field, Grid};
///
/// let front = Field::cells(|_, c| if c < 2 { 1.0 } else { 0.0 });
/// assert_eq!(front.at(5, 1), 1.0);
/// let grid = front.to_grid(4, 4).unwrap();
/// assert_eq!(grid.get(3, 3), 0.0);
/// // A grid converts into a field whose shape the engine checks.
/// assert!(Field::from(grid).to_grid(4, 8).is_err());
/// ```
#[derive(Clone)]
pub enum Field {
    /// The same value in every cell.
    Const(f64),
    /// `f(row, col)`; it must be pure, as cells are visited in any order.
    Cells(Arc<dyn Fn(usize, usize) -> f64 + Send + Sync>),
    /// A materialized grid, which must match the model's shape.
    Grid(Arc<Grid<f64>>),
}

impl Field {
    /// A field computed per cell by `f(row, col)`.
    pub fn cells(f: impl Fn(usize, usize) -> f64 + Send + Sync + 'static) -> Self {
        Self::Cells(Arc::new(f))
    }

    /// The value at `(row, col)`.
    pub fn at(&self, row: usize, col: usize) -> f64 {
        match self {
            Self::Const(v) => *v,
            Self::Cells(f) => f(row, col),
            Self::Grid(g) => g.get(row, col),
        }
    }

    /// Checks that the field can cover a `rows × cols` grid: only a
    /// materialized grid has a shape of its own.
    pub(crate) fn check(&self, rows: usize, cols: usize) -> Result<(), ModelError> {
        match self {
            Self::Grid(g) if (g.rows(), g.cols()) != (rows, cols) => {
                Err(ModelError::ShapeMismatch {
                    expected: (rows, cols),
                    got: (g.rows(), g.cols()),
                })
            }
            _ => Ok(()),
        }
    }

    /// Materializes the field over a `rows × cols` grid.
    ///
    /// # Errors
    ///
    /// [`ModelError::ShapeMismatch`] when a grid's shape differs.
    pub fn to_grid(&self, rows: usize, cols: usize) -> Result<Grid<f64>, ModelError> {
        self.check(rows, cols)?;
        Ok(match self {
            Self::Grid(g) => Grid::clone(g),
            _ => Grid::from_fn(rows, cols, |r, c| self.at(r, c)),
        })
    }

    /// Quantizes row `row` into `out`, one cell per column.
    pub(crate) fn quantize_row(&self, row: usize, out: &mut [Q16_16]) {
        match self {
            Self::Const(v) => out.fill(Q16_16::from_f64(*v)),
            Self::Cells(f) => {
                for (c, slot) in out.iter_mut().enumerate() {
                    *slot = Q16_16::from_f64(f(row, c));
                }
            }
            Self::Grid(g) => {
                let cols = out.len();
                for (slot, &v) in out.iter_mut().zip(&g.as_slice()[row * cols..]) {
                    *slot = Q16_16::from_f64(v);
                }
            }
        }
    }
}

impl From<Grid<f64>> for Field {
    fn from(g: Grid<f64>) -> Self {
        Self::Grid(Arc::new(g))
    }
}

impl fmt::Debug for Field {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Const(v) => write!(f, "Const({v})"),
            Self::Cells(_) => f.write_str("Cells(..)"),
            Self::Grid(g) => write!(f, "Grid({}x{})", g.rows(), g.cols()),
        }
    }
}
