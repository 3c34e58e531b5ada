//! # txsql-bench
//!
//! The benchmark binaries and the helpers they share:
//!
//! * `bench_workloads` runs a named grid of end-to-end cells from the
//!   [`harness`] (`--grid paper`, `smoke`, or one grid per reproduced
//!   figure, `fig02` … `fig13`) and records `BENCH_workloads.json`;
//! * `bench_lockmgr` runs the lock-manager, read-view, commit-pipeline and
//!   single-row protocol micro-benchmarks behind `BENCH_lockmgr.json`;
//! * `exp_recovery` crashes and restarts an engine (§6.4.6).
//!
//! Absolute numbers are laptop-scale (this engine is an in-memory
//! reproduction, not the paper's 80-core testbed); what is expected to
//! match is the *shape*: which protocol wins, by roughly what factor, and
//! where the crossovers are.  ARCHITECTURE.md "Fidelity substitutions"
//! names what the engine models instead of measuring.
//!
//! `TXSQL_BENCH_SECONDS` sets the measurement window per cell in seconds
//! (fractional values allowed; default 0.4).

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod harness;

use std::time::Duration;
use txsql_workloads::ClosedLoopOptions;

/// Measurement window per benchmark cell.
pub fn measure_duration() -> Duration {
    let secs = std::env::var("TXSQL_BENCH_SECONDS")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
        .unwrap_or(0.4);
    Duration::from_secs_f64(secs.max(0.05))
}

/// Warm-up window per benchmark cell.
pub fn warmup_duration() -> Duration {
    Duration::from_secs_f64(measure_duration().as_secs_f64() * 0.25)
}

/// Closed-loop options for `threads` clients with the configured windows.
pub fn closed_loop(threads: usize) -> ClosedLoopOptions {
    ClosedLoopOptions::default()
        .with_threads(threads)
        .with_durations(warmup_duration(), measure_duration())
}

/// Prints a titled, whitespace-aligned table.
pub fn print_table(title: &str, headers: &[String], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let print_row = |cells: &[String]| {
        let line: Vec<String> = cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>width$}", c, width = widths.get(i).copied().unwrap_or(8)))
            .collect();
        println!("  {}", line.join("  "));
    };
    print_row(headers);
    print_row(
        &widths
            .iter()
            .map(|w| "-".repeat(*w))
            .collect::<Vec<String>>(),
    );
    for row in rows {
        print_row(row);
    }
}

/// Formats a float with a sensible number of digits for table output.
pub fn fmt(value: f64) -> String {
    if value >= 1_000.0 {
        format!("{value:.0}")
    } else if value >= 10.0 {
        format!("{value:.1}")
    } else {
        format!("{value:.3}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn durations_are_positive() {
        assert!(measure_duration() > Duration::ZERO);
        assert!(warmup_duration() > Duration::ZERO);
    }

    #[test]
    fn fmt_uses_adaptive_precision() {
        assert_eq!(fmt(12_345.6), "12346");
        assert_eq!(fmt(12.34), "12.3");
        assert_eq!(fmt(0.5), "0.500");
    }
}
