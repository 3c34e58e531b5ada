//! The experiment runner: runs one named grid of protocol × workload ×
//! threads × replication cells and optionally records the result as a
//! per-PR block in `BENCH_workloads.json`.
//!
//! ```text
//! bench_workloads                     # run the paper grid, print only
//! bench_workloads --grid smoke        # run the small CI grid
//! bench_workloads --grid fig09        # reproduce one paper figure
//! bench_workloads --record pr7        # run the paper grid, merge block `pr7`
//! bench_workloads --grid smoke --record smoke --out target/smoke.json
//! bench_workloads --check BENCH_workloads.json   # validate an existing file
//! bench_workloads --seed 7            # override the base RNG seed
//! ```
//!
//! An unknown grid name exits 2 and lists the valid ones.  A cell whose
//! correctness check fails (TPC-C YTD consistency) prints `VIOLATED`, and
//! the run exits 1 without recording a block.
//!
//! Closed-loop cells measure for `TXSQL_BENCH_SECONDS`; open-loop cells run
//! for their trace length instead.

use std::path::PathBuf;
use txsql_bench::harness::{block_json, merge_block, named_grid, record, Provenance, GRIDS};
use txsql_bench::{fmt, measure_duration, print_table, warmup_duration};

#[derive(Debug)]
struct Args {
    grid: String,
    record: Option<String>,
    out: PathBuf,
    check: Option<PathBuf>,
    seed: u64,
}

fn parse_args(mut iter: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        grid: "paper".to_string(),
        record: None,
        out: PathBuf::from("BENCH_workloads.json"),
        check: None,
        seed: 42,
    };
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--grid" => {
                let name = iter.next().ok_or("--grid needs a grid name")?;
                if !GRIDS.iter().any(|(grid, _)| *grid == name) {
                    let names: Vec<&str> = GRIDS.iter().map(|(grid, _)| *grid).collect();
                    return Err(format!(
                        "unknown grid `{name}`; valid grids: {}",
                        names.join(", ")
                    ));
                }
                args.grid = name;
            }
            "--record" => {
                args.record = Some(iter.next().ok_or("--record needs a block key (e.g. pr7)")?);
            }
            "--out" => {
                args.out = PathBuf::from(iter.next().ok_or("--out needs a path")?);
            }
            "--check" => {
                args.check = Some(PathBuf::from(iter.next().ok_or("--check needs a path")?));
            }
            "--seed" => {
                args.seed = iter
                    .next()
                    .ok_or("--seed needs a value")?
                    .parse()
                    .map_err(|_| "--seed needs an integer")?;
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(err) => {
            eprintln!("bench_workloads: {err}");
            std::process::exit(2);
        }
    };

    if let Some(path) = &args.check {
        let text = match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(err) => {
                eprintln!("bench_workloads: cannot read {}: {err}", path.display());
                std::process::exit(1);
            }
        };
        match record::validate_file(&text) {
            Ok(cells) => {
                println!("{}: schema ok ({cells} cells)", path.display());
                return;
            }
            Err(err) => {
                eprintln!("bench_workloads: {}: {err}", path.display());
                std::process::exit(1);
            }
        }
    }

    let grid = named_grid(&args.grid, args.seed).expect("grid name checked by parse_args");
    println!(
        "grid `{}`: {} cells, warmup {:.2}s + measure {:.2}s per closed-loop cell, seed {}",
        grid.name,
        grid.cells.len(),
        warmup_duration().as_secs_f64(),
        measure_duration().as_secs_f64(),
        args.seed
    );

    let outcomes = grid.run(|outcome| {
        let mut line = format!(
            "cell {:<55} goodput={:>9} tps  aborts={:>6.2}%  p95={} ms",
            outcome.id(),
            fmt(outcome.goodput_tps),
            outcome.abort_rate_pct,
            fmt(outcome.p95_ms),
        );
        if let Some(repl) = &outcome.replication {
            line.push_str(&format!(
                "  degraded_commits={} timeouts={} resyncs={} caught_up={}",
                repl.degraded_commits,
                repl.semi_sync_timeouts,
                repl.semi_sync_resyncs,
                repl.caught_up,
            ));
        }
        if let Some(admission) = &outcome.admission {
            line.push_str(&format!(
                "  admission_shed={} queued={} budget_exhausted={} pre/post_goodput={}/{}",
                admission.shed,
                admission.queued,
                admission.budget_exhausted,
                fmt(admission.pre_burst_goodput_tps),
                fmt(admission.post_burst_goodput_tps),
            ));
        }
        println!("{line}");
    });

    let rows: Vec<Vec<String>> = outcomes
        .iter()
        .map(|o| {
            vec![
                o.id(),
                fmt(o.goodput_tps),
                format!("{:.2}%", o.abort_rate_pct),
                fmt(o.p50_ms),
                fmt(o.p95_ms),
                fmt(o.p99_ms),
                match o.tpcc_consistent {
                    Some(true) => "ok".to_string(),
                    Some(false) => "VIOLATED".to_string(),
                    None => "-".to_string(),
                },
            ]
        })
        .collect();
    print_table(
        &format!("workload grid `{}`", grid.name),
        &[
            "cell".into(),
            "goodput".into(),
            "aborts".into(),
            "p50_ms".into(),
            "p95_ms".into(),
            "p99_ms".into(),
            "tpcc".into(),
        ],
        &rows,
    );

    let violated: Vec<String> = outcomes
        .iter()
        .filter(|o| o.violated())
        .map(|o| o.id())
        .collect();
    if !violated.is_empty() {
        eprintln!(
            "bench_workloads: correctness check VIOLATED in {} cell(s), no block recorded: {}",
            violated.len(),
            violated.join(", ")
        );
        std::process::exit(1);
    }

    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let provenance = Provenance {
        grid: grid.name.clone(),
        seed: args.seed,
        warmup_secs: warmup_duration().as_secs_f64(),
        measure_secs: measure_duration().as_secs_f64(),
        note: format!(
            "{cpus}-CPU host; open-loop cells run their trace length; shapes over absolutes"
        ),
    };
    let block = block_json(&outcomes, &provenance);
    match record::validate_block(&block) {
        Ok(cells) => println!("block schema: ok ({cells} cells)"),
        Err(err) => {
            eprintln!("bench_workloads: emitted block failed validation: {err}");
            std::process::exit(1);
        }
    }

    if let Some(key) = &args.record {
        if let Err(err) = merge_block(&args.out, key, &block) {
            eprintln!(
                "bench_workloads: cannot record to {}: {err}",
                args.out.display()
            );
            std::process::exit(1);
        }
        println!("recorded block `{key}` to {}", args.out.display());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn grid_defaults_to_paper_and_accepts_every_named_grid() {
        assert_eq!(parse(&[]).unwrap().grid, "paper");
        for (name, _) in GRIDS {
            assert_eq!(parse(&["--grid", name]).unwrap().grid, *name);
        }
    }

    #[test]
    fn unknown_grid_is_rejected_with_the_valid_names() {
        let err = parse(&["--grid", "fig99"]).unwrap_err();
        assert!(err.contains("unknown grid `fig99`"), "{err}");
        for (name, _) in GRIDS {
            assert!(err.contains(name), "{err} lacks `{name}`");
        }
        assert!(parse(&["--grid"]).is_err());
        assert!(
            parse(&["--smoke"]).is_err(),
            "--grid smoke replaced --smoke"
        );
    }
}
