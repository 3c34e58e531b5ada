//! The load generators: a closed loop of clients and an open loop that
//! serves a seeded arrival schedule, each executing programs untraced
//! (`Database::execute_program`) or traced (the same session calls, each
//! wrapped in a span).

use crate::trace::{self, Op, Span};
use crate::workload::{Generator, Ledger, Txn, Workload, CLIENTS, JOURNAL, MERCHANTS};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};
use txsql_common::rng::XorShiftRng;
use txsql_common::{Error, Row};
use txsql_core::{Database, Operation, TxnProgram};

/// Attempts after which a transaction that keeps aborting is given up.
const MAX_ATTEMPTS: u64 = 1_000;

/// What one client (or open-loop worker) saw.
#[derive(Default)]
pub struct ClientLog {
    /// Transactions started.
    pub attempted: u64,
    /// Transactions that never committed, or in the open loop committed
    /// later than the latency limit.
    pub failed: u64,
    /// Engine calls made, retries included.
    pub attempts: u64,
    /// `(completion time since the window opened, latency)` of each
    /// committed transaction, ns.
    pub commits: Vec<(u64, u64)>,
    /// How late each transaction started after it was due, ns.
    pub lags: Vec<u64>,
    /// Effects of the committed transactions.
    pub ledger: Ledger,
    /// Errors that no client should ever see (not retryable).
    pub errors: Vec<String>,
    /// Spans recorded on the client's thread (traced runs only).
    pub spans: Vec<Span>,
}

impl ClientLog {
    /// Merges the logs of every client.
    pub fn merge(logs: Vec<ClientLog>) -> ClientLog {
        let mut all = ClientLog::default();
        for log in logs {
            all.attempted += log.attempted;
            all.failed += log.failed;
            all.attempts += log.attempts;
            all.commits.extend(log.commits);
            all.lags.extend(log.lags);
            all.ledger.add(&log.ledger);
            all.errors.extend(log.errors);
            all.spans.extend(log.spans);
        }
        all.commits.sort_unstable();
        all.lags.sort_unstable();
        all
    }

    /// Runs `txn` until it commits, retrying retryable aborts.  Returns true
    /// when it committed.
    fn run(&mut self, db: &Database, txn: &Txn, traced: bool, trace_base: u64) -> bool {
        self.attempted += 1;
        for _ in 0..MAX_ATTEMPTS {
            self.attempts += 1;
            let result = if traced {
                trace::root(trace_base + self.attempts, || {
                    execute_traced(db, &txn.program)
                })
            } else {
                db.execute_program(&txn.program).map(|o| o.committed)
            };
            match result {
                Ok(true) => {
                    self.ledger.add(&txn.effect);
                    return true;
                }
                Ok(false) => break,
                Err(err) if err.is_retryable() => continue,
                Err(err) => {
                    self.errors.push(err.to_string());
                    break;
                }
            }
        }
        false
    }

    fn finish(mut self, traced: bool) -> Self {
        if traced {
            self.spans = trace::take_thread_spans();
        }
        self
    }
}

/// Replays `program` through the session calls `execute_program` makes,
/// one span per call.
fn execute_traced(db: &Database, program: &TxnProgram) -> Result<bool, Error> {
    let mut txn = trace::span(Op::Begin, || db.begin());
    for op in &program.operations {
        let step = match *op {
            Operation::Read { table, pk } => {
                trace::span(Op::Read, || db.read(&mut txn, table, pk)).map(drop)
            }
            Operation::UpdateAdd {
                table,
                pk,
                column,
                delta,
            } => {
                let call = if table == MERCHANTS {
                    Op::HotUpdate
                } else {
                    Op::ColdUpdate
                };
                trace::span(call, || db.update_add(&mut txn, table, pk, column, delta)).map(drop)
            }
            Operation::Insert { table, pk, fill } => {
                debug_assert_eq!(table, JOURNAL);
                let row = Row::from_ints(&[pk, fill, fill]);
                trace::span(Op::Insert, || db.insert(&mut txn, table, row))
            }
            ref other => unreachable!("the benchmark generates no {other:?}"),
        };
        if let Err(err) = step {
            trace::span(Op::Rollback, || db.rollback(txn, Some(&err)));
            return Err(err);
        }
    }
    trace::span(Op::Commit, || db.commit(txn)).map(|()| true)
}

fn since(start: Instant, t: Instant) -> u64 {
    t.saturating_duration_since(start).as_nanos() as u64
}

/// Closed loop: each client starts its next transaction as soon as the last
/// one commits, until the window closes.  A transaction's latency runs from
/// its first attempt; its lag is how long after the previous commit it
/// started (client-side work between transactions).
pub fn closed_loop(
    db: &Database,
    workload: Workload,
    seed: u64,
    window: Duration,
    traced: bool,
) -> ClientLog {
    let start = Instant::now();
    let logs = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS as u64)
            .map(|client| {
                s.spawn(move || {
                    let mut generator = Generator::new(workload, seed, client);
                    let mut log = ClientLog::default();
                    let mut due = start;
                    while due.duration_since(start) < window {
                        let txn = generator.next_txn();
                        let began = Instant::now();
                        let committed = log.run(db, &txn, traced, client << 48);
                        let done = Instant::now();
                        log.lags.push(since(due, began));
                        if committed {
                            log.commits.push((since(start, done), since(began, done)));
                        } else {
                            log.failed += 1;
                        }
                        due = done;
                    }
                    log.finish(traced)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    ClientLog::merge(logs)
}

/// Arrival offsets of a Poisson process of `rate` per second over `window`,
/// conditioned on its expected count: that many uniform points, sorted.
/// The same seed gives the same schedule.
pub fn arrival_schedule(seed: u64, rate: f64, window: Duration) -> Vec<Duration> {
    let count = (rate * window.as_secs_f64()).round() as usize;
    let mut rng = XorShiftRng::for_worker(seed, u64::MAX);
    let mut offsets: Vec<Duration> = (0..count).map(|_| window.mul_f64(rng.next_f64())).collect();
    offsets.sort_unstable();
    offsets
}

/// Open loop: the workers share one arrival schedule and each takes the next
/// due arrival.  Latency runs from the arrival's due time, so time spent
/// queued behind a slow transaction counts; a commit later than `limit`
/// counts as failed.
pub fn open_loop(
    db: &Database,
    workload: Workload,
    seed: u64,
    window: Duration,
    rate: f64,
    limit: Duration,
    traced: bool,
) -> ClientLog {
    let schedule = arrival_schedule(seed, rate, window);
    let mut generator = Generator::new(workload, seed, 0);
    let txns: Vec<Txn> = schedule.iter().map(|_| generator.next_txn()).collect();
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let logs = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS as u64)
            .map(|worker| {
                let (schedule, txns, next) = (&schedule, &txns, &next);
                s.spawn(move || {
                    let mut log = ClientLog::default();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(offset) = schedule.get(i) else { break };
                        let due = start + *offset;
                        if let Some(wait) = due.checked_duration_since(Instant::now()) {
                            std::thread::sleep(wait);
                        }
                        let began = Instant::now();
                        log.lags.push(since(due, began));
                        let committed = log.run(db, &txns[i], traced, worker << 48);
                        let done = Instant::now();
                        let latency = since(due, done);
                        if committed && latency <= limit.as_nanos() as u64 {
                            log.commits.push((since(start, done), latency));
                        } else {
                            log.failed += 1;
                        }
                    }
                    log.finish(traced)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("open-loop worker panicked"))
            .collect()
    });
    ClientLog::merge(logs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_gives_the_same_arrivals() {
        let window = Duration::from_secs(10);
        let a = arrival_schedule(5, 200.0, window);
        let b = arrival_schedule(5, 200.0, window);
        let c = arrival_schedule(6, 200.0, window);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.len(), 2_000);
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!(a.iter().all(|t| *t < window));
        // Uniform points: about half the arrivals fall in each half.
        let first_half = a.iter().filter(|t| **t < window / 2).count();
        assert!((900..1_100).contains(&first_half), "{first_half}");
    }
}
