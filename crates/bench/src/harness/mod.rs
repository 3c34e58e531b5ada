//! The experiment-harness subsystem: declarative grids of benchmark cells.
//!
//! The paper's evidence is a grid of *cells* — one (protocol, workload,
//! thread count, configuration, replication) point each, measured with the
//! closed-loop or fixed-TPS driver.  This module makes that grid data
//! instead of code:
//!
//! * [`cell`] — [`CellSpec`] (one declarative cell) and [`CellOutcome`]
//!   (goodput, abort rate, p50/p95/p99, metrics snapshot, per-second
//!   samples for open-loop cells);
//! * [`grid`] — the named grids in [`GRIDS`]: the recorded [`paper_grid`],
//!   the CI [`smoke_grid`] and one grid per reproduced figure;
//! * [`record`] — JSON rendering of outcomes and the append-a-block-per-PR
//!   protocol of `BENCH_workloads.json`.
//!
//! `bench_workloads --grid <name>` runs any of them, and every result has
//! the same cell lines and the same validated JSON block.

pub mod cell;
pub mod grid;
pub mod record;

pub use cell::{CellOutcome, CellSpec};
pub use grid::{named_grid, paper_grid, smoke_grid, GridSpec, GRIDS};
pub use record::{block_json, cell_json, merge_block, render_json, validate_block, Provenance};
