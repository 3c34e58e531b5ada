//! `txbench`: the repository's benchmark of the TXSQL engine in its shipped
//! configuration.
//!
//! ```text
//! cargo run --release --manifest-path txbench/Cargo.toml -- \
//!     --workload <hot-payment|cold-mixed|replicated-payment> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` sets the workload up at least five times (reporting the median
//! set-up time and memory), drives it untraced for the window and prints the
//! end-to-end metrics.  `--trace 1` runs the same untraced window, then a
//! fresh engine with every call into the engine wrapped in a span, and
//! prints the per-layer metrics and the tracing overhead.  Every run checks
//! the engine's final state against the ledger of committed programs; a
//! failed check exits 1.  The last line of standard output is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`.  See NOTES.md.

mod clients;
mod stats;
mod trace;
mod workload;

use clients::ClientLog;
use stats::{median, percentile, ratio, Percentile};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};
use trace::{Layer, Op, TimedHook};
use txsql_core::CommitHook;
use workload::{Loaded, Workload};

/// A `--trace 0` run sets up at least `SETUPS` times and until
/// `SETUP_BUDGET` has passed, and reports the median: one set-up of a
/// payment workload takes ~60 ms, too short to time once.
const SETUPS: usize = 5;
const SETUP_BUDGET: Duration = Duration::from_millis(1500);
/// Spans written to the trace file: the earliest this many, so a traced
/// `cold-mixed` run (millions of spans) writes tens of MB, not hundreds.
const WRITTEN_SPANS: usize = 200_000;

struct Args {
    workload: Workload,
    seed: u64,
    window: Duration,
    traced: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut values: HashMap<String, String> = HashMap::new();
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {flag}"))?;
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        values.insert(key.to_string(), value);
    }
    let get = |key: &str| {
        values
            .get(key)
            .cloned()
            .ok_or_else(|| format!("missing --{key}"))
    };
    let name = get("workload")?;
    let workload = Workload::parse(&name).ok_or_else(|| format!("unknown workload {name}"))?;
    let seed = get("seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: u64 = get("seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(1..=60).contains(&seconds) {
        return Err("--seconds must be within 1..=60".into());
    }
    let traced = match get("trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other}")),
    };
    Ok(Args {
        workload,
        seed,
        window: Duration::from_secs(seconds),
        traced,
    })
}

/// Resident set size of this process, bytes.
fn rss_bytes() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmRSS:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<u64>()
                .ok()
        })
        .map_or(0, |kb| kb * 1024)
}

/// One measured window on one freshly loaded engine.
struct Window {
    log: ClientLog,
    /// Latencies of every commit, sorted.
    latencies: Vec<u64>,
    /// Latencies of the commits completed in each tenth of the window,
    /// sorted.
    tenths: Vec<Vec<u64>>,
    rss_after_setup: u64,
    rss_after_window: u64,
    hot_chain_versions: u64,
    counters: txsql_common::metrics::MetricsSnapshot,
    blocked_share: f64,
    shipped: Option<(u64, u64)>,
    failures: Vec<String>,
}

fn measure(args: &Args, loaded: Loaded, timed: Option<Arc<TimedHook>>, traced: bool) -> Window {
    let workload = args.workload;
    let db = &loaded.db;
    let rss_after_setup = rss_bytes();
    db.reset_metrics();
    let log = if workload.open_loop() {
        clients::open_loop(
            db,
            workload,
            args.seed,
            args.window,
            workload::ARRIVALS_PER_SEC,
            workload::LATENCY_LIMIT,
            traced,
        )
    } else {
        clients::closed_loop(db, workload, args.seed, args.window, traced)
    };
    let rss_after_window = rss_bytes();
    let counters = db.snapshot_metrics(args.window);
    let busy = db.metrics().busy_nanos.get() as f64;
    let blocked = db.metrics().blocked_nanos.get() as f64;
    let hot_chain_versions = loaded.hot_row.map_or(0, |record| {
        db.storage()
            .table(workload::MERCHANTS)
            .and_then(|t| t.slot(record))
            .map_or(0, |slot| slot.read().version_count() as u64)
    });

    let mut failures: Vec<String> = log
        .errors
        .iter()
        .map(|e| format!("non-retryable error: {e}"))
        .collect();
    let seen = workload::observe(workload, db);
    failures.extend(workload::check_conservation(workload, &log.ledger, &seen));
    failures.extend(workload::check_replication(
        &loaded,
        log.ledger.commits,
        Duration::from_secs(10),
    ));
    if log.ledger.commits == 0 {
        failures.push("no transaction committed".into());
    }
    db.shutdown();

    let tenth = (args.window.as_nanos() as u64 / 10).max(1);
    let mut tenths = vec![Vec::new(); 10];
    for &(at, latency) in &log.commits {
        if let Some(slot) = tenths.get_mut((at / tenth) as usize) {
            slot.push(latency);
        }
    }
    for slot in &mut tenths {
        slot.sort_unstable();
    }
    let mut latencies: Vec<u64> = log.commits.iter().map(|&(_, latency)| latency).collect();
    latencies.sort_unstable();
    Window {
        latencies,
        tenths,
        rss_after_setup,
        rss_after_window,
        hot_chain_versions,
        blocked_share: ratio(blocked, busy + blocked),
        shipped: timed.map(|t| t.counts()),
        counters,
        failures,
        log,
    }
}

/// Metrics in output order: name, value, unit, and a note for the log.
#[derive(Default)]
struct Report {
    metrics: Vec<(String, f64, &'static str, String)>,
}

impl Report {
    fn add(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics
            .push((name.to_string(), value, unit, String::new()));
    }

    /// Adds a nanosecond percentile in `unit` (`ms` or `us`), noting its
    /// sample count and how many samples lie beyond it.
    fn add_pct(&mut self, name: &str, p: Percentile, unit: &'static str) {
        let scale = if unit == "ms" { 1e-6 } else { 1e-3 };
        self.metrics.push((
            name.to_string(),
            p.value as f64 * scale,
            unit,
            format!("n={} beyond={}", p.n, p.beyond),
        ));
    }

    fn json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, value, unit, _)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push('}');
        out
    }
}

// Throughput and median latency are medians over the tenths of the window,
// so a few seconds of host interference move them less than a whole-window
// figure.

/// Median over the window's tenths of each tenth's commit rate.
fn commit_tps(w: &Window, window: Duration) -> f64 {
    let tenth_s = window.as_secs_f64() / 10.0;
    let rates: Vec<f64> = w.tenths.iter().map(|t| t.len() as f64 / tenth_s).collect();
    median(&rates)
}

/// Median over the window's tenths of each tenth's p50 latency, with the
/// whole window's sample count and the samples beyond the reported value.
fn latency_p50(w: &Window) -> Percentile {
    let p50s: Vec<f64> = w
        .tenths
        .iter()
        .map(|t| percentile(t, 0.50).value as f64)
        .collect();
    let value = median(&p50s).round() as u64;
    Percentile {
        value,
        n: w.latencies.len(),
        beyond: w.latencies.len() - w.latencies.partition_point(|&l| l <= value),
    }
}

fn end_to_end(
    report: &mut Report,
    w: &Window,
    window: Duration,
    setup_s: &[f64],
    setup_rss: &[f64],
) {
    let log = &w.log;
    report.add("commit_tps", commit_tps(w, window), "1/s");
    report.add_pct("latency_p50_ms", latency_p50(w), "ms");
    report.add(
        "goodput_pct",
        100.0 * ratio((log.attempted - log.failed) as f64, log.attempted as f64),
        "%",
    );
    report.add("setup_s", median(setup_s), "s");
    report.add("setup_rss_mb", median(setup_rss), "MB");
    let growth = w.rss_after_window as f64 - w.rss_after_setup as f64;
    report.add(
        "rss_growth_b_per_commit",
        ratio(growth, log.ledger.commits as f64),
        "B/commit",
    );
}

fn per_layer(report: &mut Report, plain: &Window, traced: &Window, window: Duration) {
    let log = &plain.log;
    let c = &plain.counters;
    let commits = log.ledger.commits as f64;
    report.add(
        "client.attempts_per_commit",
        ratio(log.attempts as f64, commits),
        "count",
    );
    report.add(
        "client.tps_last_over_first",
        ratio(plain.tenths[9].len() as f64, plain.tenths[0].len() as f64),
        "ratio",
    );
    report.add_pct(
        "client.latency_p95_ms",
        percentile(&plain.latencies, 0.95),
        "ms",
    );
    report.add_pct(
        "client.latency_p99_ms",
        percentile(&plain.latencies, 0.99),
        "ms",
    );
    report.add_pct("client.sched_lag_p99_ms", percentile(&log.lags, 0.99), "ms");

    // Call timings and self times come from the traced window.
    let spans = &traced.log.spans;
    let selfs = trace::self_times(spans);
    let mut durations: HashMap<Op, Vec<u64>> = HashMap::new();
    let mut commit_self = Vec::new();
    let mut layer_self: HashMap<Layer, u64> = HashMap::new();
    for (span, &own) in spans.iter().zip(&selfs) {
        durations.entry(span.op).or_default().push(span.duration());
        *layer_self.entry(span.op.layer()).or_default() += own;
        if span.op == Op::Commit {
            commit_self.push(own);
        }
    }
    for samples in durations.values_mut() {
        samples.sort_unstable();
    }
    commit_self.sort_unstable();
    let calls = |op: Op| durations.get(&op).map_or(&[][..], |v| v.as_slice());

    report.add_pct("txn.begin_us_p50", percentile(calls(Op::Begin), 0.50), "us");
    report.add_pct(
        "storage.read_us_p50",
        percentile(calls(Op::Read), 0.50),
        "us",
    );
    report.add_pct(
        "storage.read_us_p99",
        percentile(calls(Op::Read), 0.99),
        "us",
    );
    report.add_pct(
        "storage.insert_us_p50",
        percentile(calls(Op::Insert), 0.50),
        "us",
    );
    report.add(
        "storage.hot_chain_versions",
        plain.hot_chain_versions as f64,
        "count",
    );
    let cold = calls(Op::ColdUpdate);
    report.add_pct(
        "lightweight.cold_update_us_p50",
        percentile(cold, 0.50),
        "us",
    );
    report.add_pct(
        "lightweight.cold_update_us_p99",
        percentile(cold, 0.99),
        "us",
    );
    report.add("lightweight.locks_per_query", c.locks_per_query, "count");
    report.add(
        "lightweight.release_shard_locks_per_commit",
        ratio(c.release_shard_locks as f64, commits),
        "count",
    );
    report.add(
        "lightweight.lock_waits_per_commit",
        ratio(c.lock_waits as f64, commits),
        "count",
    );
    let hot = calls(Op::HotUpdate);
    report.add_pct("group_lock.hot_update_us_p50", percentile(hot, 0.50), "us");
    report.add_pct("group_lock.hot_update_us_p99", percentile(hot, 0.99), "us");
    report.add(
        "group_lock.txns_per_group",
        ratio(c.hotspot_group_entries as f64, c.groups_formed as f64),
        "count",
    );
    report.add(
        "group_lock.handover_shard_locks_per_commit",
        ratio(c.handover_shard_locks as f64, commits),
        "count",
    );
    report.add(
        "group_lock.mean_grant_scan_len",
        c.mean_grant_scan_len,
        "count",
    );
    report.add("group_lock.blocked_share", plain.blocked_share, "ratio");
    let commit = calls(Op::Commit);
    report.add_pct("commit.commit_us_p50", percentile(commit, 0.50), "us");
    report.add_pct("commit.commit_us_p99", percentile(commit, 0.99), "us");
    report.add_pct("commit.self_us_p50", percentile(&commit_self, 0.50), "us");
    report.add(
        "commit.txns_per_batch",
        ratio(c.committed as f64, c.commit_batches as f64),
        "count",
    );
    let ship = calls(Op::Ship);
    report.add_pct("replication.ship_us_p50", percentile(ship, 0.50), "us");
    report.add_pct("replication.ship_us_p99", percentile(ship, 0.99), "us");
    let (ships, shipped) = traced.shipped.unwrap_or_default();
    report.add(
        "replication.txns_per_ship",
        ratio(shipped as f64, ships as f64),
        "count",
    );

    let traced_commits = traced.log.ledger.commits as f64;
    for layer in Layer::ALL {
        let own = layer_self.get(&layer).copied().unwrap_or_default() as f64;
        report.add(
            &format!("self.{}_us_per_commit", layer.name()),
            ratio(own * 1e-3, traced_commits),
            "us",
        );
    }
    let (plain_tps, traced_tps) = (commit_tps(plain, window), commit_tps(traced, window));
    report.add("trace.commit_tps", traced_tps, "1/s");
    report.add(
        "trace.overhead_pct",
        100.0 * ratio(plain_tps - traced_tps, plain_tps),
        "%",
    );
}

/// Writes the earliest [`WRITTEN_SPANS`] spans of the traced window as CSV
/// next to the benchmark sources.
fn write_spans(args: &Args, spans: &[trace::Span]) -> std::io::Result<String> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/traces");
    std::fs::create_dir_all(dir)?;
    let path = format!("{dir}/{}-seed{}.csv", args.workload.name(), args.seed);
    let mut earliest: Vec<&trace::Span> = spans.iter().collect();
    earliest.sort_unstable_by_key(|s| s.start);
    earliest.truncate(WRITTEN_SPANS);
    let mut out = String::from("trace,span,parent,name,start_ns,end_ns\n");
    for s in earliest {
        let parent = s.parent.map_or(String::new(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{},{},{},{},{},{}",
            s.trace,
            s.id,
            parent,
            s.op.name(),
            s.start,
            s.end
        );
    }
    std::fs::write(&path, out)?;
    Ok(path)
}

fn describe_window(label: &str, w: &Window) {
    let log = &w.log;
    println!(
        "# {label}: attempted={} committed={} failed={} engine_calls={} latency_samples={}",
        log.attempted,
        log.ledger.commits,
        log.failed,
        log.attempts,
        w.latencies.len()
    );
    let per_tenth: Vec<usize> = w.tenths.iter().map(Vec::len).collect();
    println!("# {label}: commits per tenth of the window {per_tenth:?}");
    let tail: Vec<String> = [0.5, 0.9, 0.95, 0.99, 0.999, 1.0]
        .iter()
        .map(|&q| {
            format!(
                "p{}={:.3}",
                q * 100.0,
                percentile(&w.latencies, q).value as f64 * 1e-6
            )
        })
        .collect();
    println!("# {label}: latency ms {}", tail.join(" "));
    for failure in &w.failures {
        println!("# CHECK FAILED ({label}): {failure}");
    }
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(err) => {
            eprintln!("txbench: {err}");
            eprintln!(
                "usage: txbench --workload <hot-payment|cold-mixed|replicated-payment> --seed <n> --seconds <1..60> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "# txbench seed={} seconds={} trace={} nproc={nproc}",
        args.seed,
        args.window.as_secs(),
        u8::from(args.traced)
    );
    println!("# params {}", args.workload.describe());

    let mut report = Report::default();
    let windows: Vec<Window>;
    if args.traced {
        let plain = measure(&args, workload::load(args.workload, |h| h), None, false);
        let mut timed = None;
        let loaded = workload::load(args.workload, |hook| {
            let t = Arc::new(TimedHook::new(hook));
            timed = Some(Arc::clone(&t));
            t as Arc<dyn CommitHook>
        });
        let traced = measure(&args, loaded, timed, true);
        per_layer(&mut report, &plain, &traced, args.window);
        match write_spans(&args, &traced.log.spans) {
            Ok(path) => println!(
                "# spans: {} recorded, the earliest {} written to {path}",
                traced.log.spans.len(),
                traced.log.spans.len().min(WRITTEN_SPANS)
            ),
            Err(err) => println!("# spans: not written ({err})"),
        }
        windows = vec![plain, traced];
    } else {
        let mut setup_s = Vec::new();
        let mut setup_rss = Vec::new();
        let mut loaded = None;
        let began_setups = Instant::now();
        while setup_s.len() < SETUPS || began_setups.elapsed() < SETUP_BUDGET {
            drop(loaded.take());
            let began = Instant::now();
            loaded = Some(workload::load(args.workload, |h| h));
            setup_s.push(began.elapsed().as_secs_f64());
            setup_rss.push(rss_bytes() as f64 / (1024.0 * 1024.0));
        }
        println!(
            "# set-ups: {}, setup_s min {:.4} max {:.4}",
            setup_s.len(),
            setup_s.iter().copied().fold(f64::INFINITY, f64::min),
            setup_s.iter().copied().fold(0.0, f64::max)
        );
        let plain = measure(&args, loaded.expect("loaded"), None, false);
        end_to_end(&mut report, &plain, args.window, &setup_s, &setup_rss);
        windows = vec![plain];
    }

    let labels = ["untraced", "traced"];
    for (label, w) in labels.iter().zip(&windows) {
        describe_window(label, w);
    }
    for (name, value, unit, note) in &report.metrics {
        println!("metric {name} = {value} {unit} {note}");
    }
    let correct = windows.iter().all(|w| w.failures.is_empty());
    println!(
        "# verdict: {}",
        if correct { "correct" } else { "CHECK FAILED" }
    );
    let measured = &windows[0].log;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        measured.attempted,
        measured.failed,
        report.json()
    );
    if !correct {
        std::process::exit(1);
    }
}
