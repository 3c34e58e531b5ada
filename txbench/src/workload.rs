//! The three workloads: their tables, their programs, and the ledger that
//! every run's final state is checked against.
//!
//! All three run the engine's shipped configuration
//! (`EngineConfig::default()`, i.e. `Protocol::GroupLockingTxsql`) and differ
//! only in data, program shape, latency model and replication:
//!
//! * `hot-payment`: FiT-shaped payments on one pinned hot merchant row,
//!   local-SSD fsync, closed loop;
//! * `cold-mixed`: 8 snapshot reads and 2 increments over 1M uniform rows,
//!   in memory, closed loop, no hot row;
//! * `replicated-payment`: the same payments as an open loop at a fixed
//!   Poisson rate behind semi-sync replication to two replicas.

use std::sync::Arc;
use std::time::Duration;
use txsql_common::latency::LatencyModel;
use txsql_common::rng::XorShiftRng;
use txsql_common::{RecordId, Row, TableId};
use txsql_core::{CommitHook, Database, EngineConfig, Operation, TxnProgram};
use txsql_replication::{ReplicationHook, ReplicationMode};
use txsql_storage::TableSchema;

/// Merchant balances; row 0 is the pinned hot row.
pub const MERCHANTS: TableId = TableId(1);
/// Payment journal, one row per committed payment.
pub const JOURNAL: TableId = TableId(2);
/// Cold user balances.
pub const USERS: TableId = TableId(3);
/// The `cold-mixed` table.
pub const ROWS: TableId = TableId(4);

/// Client threads driving every workload (the box has 2 CPUs).
pub const CLIENTS: usize = 2;
/// Users a payment may debit.
pub const USER_COUNT: i64 = 100_000;
/// Share of payments that also debit a user.
pub const DEBIT_SHARE: f64 = 0.5;
/// Rows of the `cold-mixed` table.
pub const ROW_COUNT: i64 = 1_000_000;
/// Snapshot reads per `cold-mixed` transaction.
pub const READS_PER_TXN: usize = 8;
/// Increments per `cold-mixed` transaction.
pub const UPDATES_PER_TXN: usize = 2;
/// Replicas behind the semi-sync hook.
pub const REPLICAS: usize = 2;
/// Open-loop arrival rate: about half the closed-loop capacity of the
/// replicated configuration with 2 clients (~400 commits/s).
pub const ARRIVALS_PER_SEC: f64 = 200.0;
/// Open-loop latency limit; a payment that commits later counts as failed.
pub const LATENCY_LIMIT: Duration = Duration::from_millis(100);

const HOT_INITIAL: i64 = 1_000_000_000;
const USER_INITIAL: i64 = 1_000_000;
const HOT_PK: i64 = 0;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Closed-loop payments on a pinned hot row, local-SSD fsync.
    HotPayment,
    /// Closed-loop uniform reads and increments over 1M rows, in memory.
    ColdMixed,
    /// Open-loop payments at a fixed rate behind semi-sync replication.
    ReplicatedPayment,
}

impl Workload {
    /// Parses a workload name as `BENCHMARK.json` spells it.
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "hot-payment" => Some(Workload::HotPayment),
            "cold-mixed" => Some(Workload::ColdMixed),
            "replicated-payment" => Some(Workload::ReplicatedPayment),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::HotPayment => "hot-payment",
            Workload::ColdMixed => "cold-mixed",
            Workload::ReplicatedPayment => "replicated-payment",
        }
    }

    fn latency(self) -> (&'static str, LatencyModel) {
        match self {
            Workload::HotPayment => ("local_ssd", LatencyModel::local_ssd()),
            Workload::ColdMixed => ("in_memory", LatencyModel::in_memory()),
            Workload::ReplicatedPayment => (
                "semi_sync_replication",
                LatencyModel::semi_sync_replication(),
            ),
        }
    }

    /// True for the open-loop workload.
    pub fn open_loop(self) -> bool {
        self == Workload::ReplicatedPayment
    }

    fn is_payment(self) -> bool {
        self != Workload::ColdMixed
    }

    /// The workload parameters and load shape, as one JSON object.
    pub fn describe(self) -> String {
        let (model, latency) = self.latency();
        let load = if self.open_loop() {
            format!(
                "\"loop\": \"open\", \"workers\": {CLIENTS}, \"arrivals_per_s\": {ARRIVALS_PER_SEC}, \"latency_limit_ms\": {}",
                LATENCY_LIMIT.as_millis()
            )
        } else {
            format!("\"loop\": \"closed\", \"clients\": {CLIENTS}")
        };
        let data = if self.is_payment() {
            format!(
                "\"hot_rows\": 1, \"users\": {USER_COUNT}, \"debit_share\": {DEBIT_SHARE}, \"replicas\": {}",
                if self.open_loop() { REPLICAS } else { 0 }
            )
        } else {
            format!(
                "\"rows\": {ROW_COUNT}, \"reads_per_txn\": {READS_PER_TXN}, \"updates_per_txn\": {UPDATES_PER_TXN}"
            )
        };
        format!(
            "{{\"workload\": \"{}\", \"protocol\": \"GroupLockingTxsql\", {load}, {data}, \"latency_model\": \"{model}\", \"fsync_us\": {}, \"network_one_way_us\": {}}}",
            self.name(),
            latency.fsync.as_micros(),
            latency.network_one_way.as_micros()
        )
    }
}

/// An engine loaded for one workload.
pub struct Loaded {
    /// The engine.
    pub db: Database,
    /// The semi-sync hook (`replicated-payment` only).
    pub replication: Option<Arc<ReplicationHook>>,
    /// The pinned hot row (payment workloads only).
    pub hot_row: Option<RecordId>,
}

/// Builds the engine for `workload`: loads its tables, pins the hot row and
/// registers the replication hook.  `wrap_hook` decorates the hook before it
/// is registered (the traced run times it); pass `|h| h` otherwise.
pub fn load(
    workload: Workload,
    wrap_hook: impl FnOnce(Arc<dyn CommitHook>) -> Arc<dyn CommitHook>,
) -> Loaded {
    let db = Database::new(EngineConfig::default().with_latency(workload.latency().1));
    let mut hot_row = None;
    if workload.is_payment() {
        db.create_table(TableSchema::new(MERCHANTS, "merchants", 2))
            .expect("create merchants");
        let hot = db
            .load_row(MERCHANTS, Row::from_ints(&[HOT_PK, HOT_INITIAL]))
            .expect("load hot row");
        // Two clients never queue the 32 waiters that promote a row, so the
        // hot row is declared up front.
        db.hotspots().pin(hot);
        hot_row = Some(hot);
        db.create_table(TableSchema::new(JOURNAL, "journal", 3))
            .expect("create journal");
        db.create_table(TableSchema::new(USERS, "users", 2))
            .expect("create users");
        for pk in 0..USER_COUNT {
            db.load_row(USERS, Row::from_ints(&[pk, USER_INITIAL]))
                .expect("load user");
        }
    } else {
        db.create_table(TableSchema::new(ROWS, "rows", 2))
            .expect("create rows");
        for pk in 0..ROW_COUNT {
            db.load_row(ROWS, Row::from_ints(&[pk, 0]))
                .expect("load row");
        }
    }
    let replication = workload.open_loop().then(|| {
        let hook =
            ReplicationHook::builder(ReplicationMode::Synchronous, workload.latency().1, REPLICAS)
                .metrics(db.metrics_handle())
                .build();
        db.register_commit_hook(wrap_hook(hook.clone()));
        hook
    });
    Loaded {
        db,
        replication,
        hot_row,
    }
}

/// What a committed program changes, for the conservation checks.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Ledger {
    /// Committed transactions.
    pub commits: u64,
    /// Sum of the hot-row credits.
    pub credits: i64,
    /// Sum of the user debits.
    pub debits: i64,
    /// Committed increments of the `cold-mixed` table.
    pub increments: i64,
}

impl Ledger {
    /// Adds `other` into `self`.
    pub fn add(&mut self, other: &Ledger) {
        self.commits += other.commits;
        self.credits += other.credits;
        self.debits += other.debits;
        self.increments += other.increments;
    }
}

/// A generated transaction: the program handed to the engine and what it
/// changes if it commits.
#[derive(Debug, Clone)]
pub struct Txn {
    /// The program.
    pub program: TxnProgram,
    /// Its effect (with `commits == 1`).
    pub effect: Ledger,
}

/// Seeded program generator for one client (or one open-loop arrival
/// stream).  Journal keys are unique per `stream`, so no insert collides.
pub struct Generator {
    workload: Workload,
    rng: XorShiftRng,
    journal_base: i64,
    issued: i64,
}

impl Generator {
    /// The generator of `stream` under `seed`.
    pub fn new(workload: Workload, seed: u64, stream: u64) -> Self {
        Self {
            workload,
            rng: XorShiftRng::for_worker(seed, stream),
            journal_base: (stream as i64 + 1) << 40,
            issued: 0,
        }
    }

    /// The next transaction.
    pub fn next_txn(&mut self) -> Txn {
        self.issued += 1;
        let mut effect = Ledger {
            commits: 1,
            ..Ledger::default()
        };
        let mut ops = Vec::new();
        if self.workload.is_payment() {
            let amount = 1 + self.rng.next_bounded(100) as i64;
            effect.credits = amount;
            ops.push(Operation::UpdateAdd {
                table: MERCHANTS,
                pk: HOT_PK,
                column: 1,
                delta: amount,
            });
            ops.push(Operation::Insert {
                table: JOURNAL,
                pk: self.journal_base + self.issued,
                fill: amount,
            });
            if self.rng.next_bool(DEBIT_SHARE) {
                effect.debits = amount;
                ops.push(Operation::UpdateAdd {
                    table: USERS,
                    pk: self.rng.next_bounded(USER_COUNT as u64) as i64,
                    column: 1,
                    delta: -amount,
                });
            }
        } else {
            for _ in 0..READS_PER_TXN {
                ops.push(Operation::Read {
                    table: ROWS,
                    pk: self.rng.next_bounded(ROW_COUNT as u64) as i64,
                });
            }
            for _ in 0..UPDATES_PER_TXN {
                ops.push(Operation::UpdateAdd {
                    table: ROWS,
                    pk: self.rng.next_bounded(ROW_COUNT as u64) as i64,
                    column: 1,
                    delta: 1,
                });
            }
            effect.increments = UPDATES_PER_TXN as i64;
        }
        Txn {
            program: TxnProgram::new(ops),
            effect,
        }
    }
}

/// The committed state the conservation checks compare with the ledger.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Observed {
    /// Balance of the hot merchant row.
    pub hot_balance: i64,
    /// Sum of all user balances.
    pub user_sum: i64,
    /// Rows in the journal.
    pub journal_rows: i64,
    /// Sum of the `cold-mixed` column.
    pub column_sum: i64,
}

fn committed_int(db: &Database, table: TableId, pk: i64) -> Option<i64> {
    let record = db.record_id(table, pk).ok()?;
    db.storage().read_committed(table, record).ok()??.get_int(1)
}

/// Sum of column 1 over rows `0..rows`; a missing row reads as `i64::MIN`,
/// which no conservation check expects.
fn column_sum(db: &Database, table: TableId, rows: i64) -> i64 {
    (0..rows)
        .map(|pk| committed_int(db, table, pk))
        .sum::<Option<i64>>()
        .unwrap_or(i64::MIN)
}

/// Reads the committed state of `workload`'s tables.
pub fn observe(workload: Workload, db: &Database) -> Observed {
    if workload.is_payment() {
        Observed {
            hot_balance: committed_int(db, MERCHANTS, HOT_PK).unwrap_or(i64::MIN),
            user_sum: column_sum(db, USERS, USER_COUNT),
            journal_rows: db
                .storage()
                .table(JOURNAL)
                .map_or(-1, |t| t.row_count() as i64),
            column_sum: 0,
        }
    } else {
        Observed {
            column_sum: column_sum(db, ROWS, ROW_COUNT),
            ..Observed::default()
        }
    }
}

/// Conservation checks: the committed state must equal the initial state
/// plus exactly the effects of the committed programs.  Returns one message
/// per violated check.
pub fn check_conservation(workload: Workload, ledger: &Ledger, seen: &Observed) -> Vec<String> {
    let mut failures = Vec::new();
    let mut expect = |what: &str, want: i64, got: i64| {
        if want != got {
            failures.push(format!("{what}: expected {want}, found {got}"));
        }
    };
    if workload.is_payment() {
        expect(
            "hot balance",
            HOT_INITIAL + ledger.credits,
            seen.hot_balance,
        );
        expect(
            "sum of user balances",
            USER_COUNT * USER_INITIAL - ledger.debits,
            seen.user_sum,
        );
        expect("journal rows", ledger.commits as i64, seen.journal_rows);
    } else {
        expect("column sum", ledger.increments, seen.column_sum);
    }
    failures
}

/// Replication checks: both replicas applied every commit, hold exactly the
/// primary's committed rows, and the hook never fell back to asynchronous
/// shipping (which would mean the run measured async replication).
pub fn check_replication(loaded: &Loaded, commits: u64, catch_up: Duration) -> Vec<String> {
    let Some(hook) = &loaded.replication else {
        return Vec::new();
    };
    let db = &loaded.db;
    let mut failures = Vec::new();
    if !hook.wait_caught_up(commits, catch_up) {
        failures.push(format!("replicas did not catch up to {commits} commits"));
    }
    for replica in hook.replicas() {
        let diverging = replica.diverging_rows(|table, pk| {
            let record = db.record_id(table, pk).ok()?;
            db.storage().read_committed(table, record).ok()?
        });
        if !diverging.is_empty() {
            failures.push(format!(
                "{} diverges from the primary on {} rows",
                replica.name(),
                diverging.len()
            ));
        }
    }
    let timeouts = db.metrics().semi_sync_timeouts.get();
    if timeouts != 0 {
        failures.push(format!("{timeouts} semi-sync ack timeouts"));
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;
    use txsql_core::ProgramOutcome;

    fn run(workload: Workload, txns: usize) -> (Loaded, Ledger) {
        let loaded = load(workload, |h| h);
        let mut generator = Generator::new(workload, 42, 0);
        let mut ledger = Ledger::default();
        for _ in 0..txns {
            let txn = generator.next_txn();
            let outcome: ProgramOutcome = loaded.db.execute_program(&txn.program).unwrap();
            assert!(outcome.committed);
            ledger.add(&txn.effect);
        }
        (loaded, ledger)
    }

    #[test]
    fn payments_conserve_money() {
        let (loaded, ledger) = run(Workload::HotPayment, 50);
        let seen = observe(Workload::HotPayment, &loaded.db);
        assert_eq!(
            check_conservation(Workload::HotPayment, &ledger, &seen),
            Vec::<String>::new()
        );
        assert!(ledger.credits > 0 && ledger.debits > 0);
    }

    #[test]
    fn a_wrong_ledger_fails_every_conservation_check() {
        let (loaded, mut ledger) = run(Workload::HotPayment, 20);
        let seen = observe(Workload::HotPayment, &loaded.db);
        ledger.commits += 1;
        ledger.credits += 5;
        ledger.debits -= 3;
        let failures = check_conservation(Workload::HotPayment, &ledger, &seen);
        assert_eq!(failures.len(), 3, "{failures:?}");
        assert!(failures[0].starts_with("hot balance"));

        let cold = Observed {
            column_sum: 10,
            ..Observed::default()
        };
        let wrong = Ledger {
            increments: 12,
            ..Ledger::default()
        };
        assert_eq!(
            check_conservation(Workload::ColdMixed, &wrong, &cold),
            vec!["column sum: expected 12, found 10".to_string()]
        );
    }

    #[test]
    fn replicated_payments_reach_both_replicas() {
        let (loaded, ledger) = run(Workload::ReplicatedPayment, 10);
        assert_eq!(
            check_replication(&loaded, ledger.commits, Duration::from_secs(10)),
            Vec::<String>::new()
        );
        assert_eq!(
            check_replication(&loaded, ledger.commits + 1, Duration::from_millis(50)).len(),
            1,
            "a commit the replicas never saw must fail the catch-up check"
        );
    }

    #[test]
    fn the_same_seed_generates_the_same_programs() {
        let mut a = Generator::new(Workload::ColdMixed, 9, 1);
        let mut b = Generator::new(Workload::ColdMixed, 9, 1);
        let mut c = Generator::new(Workload::ColdMixed, 10, 1);
        let (pa, pb, pc) = (a.next_txn(), b.next_txn(), c.next_txn());
        assert_eq!(pa.program.operations, pb.program.operations);
        assert_ne!(pa.program.operations, pc.program.operations);
        assert_eq!(pa.program.len(), READS_PER_TXN + UPDATES_PER_TXN);
    }
}
