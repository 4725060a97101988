//! `bank`: the write path with reads running beside the writes.
//!
//! `Sentinel` API, 16 384 `Account` objects with an index on `bal`, and
//! three rules:
//!
//! * `Overdraft` — class-level, immediate, on `begin Withdraw`: aborts the
//!   transaction when the balance would go negative;
//! * `DepWit` — class-level, deferred `Chronicle` sequence deposit →
//!   withdraw (§4.6), counted into the ledger at commit;
//! * `LargeTransfer` — detached audit of withdrawals above 250 from a
//!   watched account (every 1024th), an instance rule subscribed to each.
//!
//! One writer thread runs closed-loop transactions: transfers (withdraw +
//! deposit, in either order) and, as every 20th, a settlement ring that
//! passes one amount around 10 accounts (20 sends). One reader thread
//! opens a `Session` and, at a fixed 500 reads per second, reads one
//! balance and runs one index range `Query`, each read timed from its due
//! time. Sentinel's background worker runs the detached audits (and, when
//! durable, the group fsync) under the core lock the writer waits for.
//!
//! The untraced run keeps the store in memory: with a durable store every
//! figure follows the host's fsync latency, which drifts too far between
//! runs to hold a regression bound. The traced run is durable
//! (`SyncPolicy::Grouped`), checkpoints every 10 000 commits between
//! transactions, and ends by timing `Database::recover`, whose result
//! must equal the state before shutdown and the writer's shadow model.

use crate::alloc;
use crate::report::Outcome;
use crate::stats::{peak_rss_mb, Hist, Schedule, Window, Windows, WINDOW};
use crate::trace::{self, Layer};
use crate::Run;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sentinel_db::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Accounts in the full workload.
pub const ACCOUNTS: usize = 16_384;
/// Opening balances are drawn from this range.
pub const OPENING: std::ops::Range<i64> = 500..1_500;
/// Transfer amounts are drawn from `1..=MAX_AMOUNT`.
pub const MAX_AMOUNT: i64 = 300;
/// Withdrawals above this are audited by the detached rule.
pub const LARGE: i64 = 250;
/// Every `WATCHED`-th account is watched: `LargeTransfer` is subscribed
/// to it. A detached rule evaluates its condition in its own transaction,
/// so every withdrawal it sees wakes the worker; on every account that
/// would put a worker hand-off on the core lock in every transaction, and
/// the latency tail would follow the host's thread wake-ups.
pub const WATCHED: usize = 1024;

/// Whether `LargeTransfer` watches account `i`.
pub fn is_watched(i: usize) -> bool {
    i.is_multiple_of(WATCHED)
}

/// Every `RING_EVERY`-th transaction of the stream is a settlement ring.
/// The rings are a fixed 5 % mode of heavier transactions, so
/// `txn_p99_us` falls inside that mode and not on the edge of the 0.5-1 %
/// of transfers that a host interruption or a concurrent read delays.
pub const RING_EVERY: u64 = 20;
/// Accounts in a settlement ring.
pub const RING: usize = 10;
/// Writer commits between checkpoints.
pub const CHECKPOINT_EVERY: u64 = 10_000;
/// Transactions committed after the last checkpoint, replayed by recovery.
pub const TAIL_TXNS: usize = 2_000;
/// Reader requests per second.
pub const READ_RATE: f64 = 500.0;
/// Width of the reader's `bal` range query (about 16 accounts per unit).
pub const READ_SPAN: i64 = 2;
/// The reader sleeps until this close to a due time, then spins.
const SPIN: Duration = Duration::from_micros(100);
/// Transactions run before the clock starts.
const WARMUP_TXNS: usize = 2_000;
/// Transactions of the allocation-count pass.
const COUNT_TXNS: usize = 300;

/// One transfer transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transfer {
    pub from: usize,
    pub to: usize,
    pub amount: i64,
    pub withdraw_first: bool,
}

/// Opening balances for `accounts` accounts.
pub fn opening_balances(seed: u64, accounts: usize) -> Vec<i64> {
    let mut r = StdRng::seed_from_u64(seed ^ 0xBA1A_0CE5);
    (0..accounts).map(|_| r.random_range(OPENING)).collect()
}

/// A settlement ring: each account in turn receives `amount` and pays
/// it on to the next, the last paying the first. Every withdrawal follows
/// a deposit of the same amount into the same account, so a ring never
/// overdraws, and it leaves every balance as it found it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ring {
    pub accounts: [usize; RING],
    pub amount: i64,
}

/// One writer transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Txn {
    Transfer(Transfer),
    Ring(Ring),
}

impl Txn {
    /// Number of sends in the transaction.
    fn sends(&self) -> usize {
        match self {
            Txn::Transfer(_) => 2,
            Txn::Ring(_) => 2 * RING,
        }
    }

    /// Send `i`: `(account, is a withdrawal, amount)`.
    fn send(&self, i: usize) -> (usize, bool, i64) {
        match self {
            Txn::Transfer(t) => {
                let withdraw = (i == 0) == t.withdraw_first;
                (if withdraw { t.from } else { t.to }, withdraw, t.amount)
            }
            Txn::Ring(r) => (r.accounts[i / 2], i % 2 == 1, r.amount),
        }
    }
}

/// The seed-determined endless transaction stream.
pub struct Transfers {
    rng: StdRng,
    accounts: usize,
    drawn: u64,
}

impl Transfers {
    /// The stream for `seed` over `accounts` accounts.
    pub fn new(seed: u64, accounts: usize) -> Self {
        Transfers {
            rng: StdRng::seed_from_u64(seed ^ 0x7A45_F3E5),
            accounts,
            drawn: 0,
        }
    }

    /// The next transaction: a ring as every `RING_EVERY`-th, otherwise
    /// a transfer.
    pub fn next_txn(&mut self) -> Txn {
        self.drawn += 1;
        if !self.drawn.is_multiple_of(RING_EVERY) {
            return Txn::Transfer(self.next_transfer());
        }
        let r = &mut self.rng;
        let accounts = std::array::from_fn(|_| r.random_range(0..self.accounts));
        Txn::Ring(Ring {
            accounts,
            amount: r.random_range(1..MAX_AMOUNT + 1),
        })
    }

    /// The next transfer (between two distinct accounts).
    fn next_transfer(&mut self) -> Transfer {
        let r = &mut self.rng;
        let from = r.random_range(0..self.accounts);
        let to = (from + r.random_range(1..self.accounts)) % self.accounts;
        Transfer {
            from,
            to,
            amount: r.random_range(1..MAX_AMOUNT + 1),
            withdraw_first: r.random_bool(0.5),
        }
    }
}

/// The writer's shadow model of committed transactions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Shadow {
    pub balances: Vec<i64>,
    /// `DepWit` detections: with one class-level `Chronicle` detector, a
    /// withdraw pairs with the oldest unconsumed earlier deposit of any
    /// account, so only the number of waiting deposits matters.
    pub pairs: i64,
    pub audits: i64,
    pub committed: u64,
    pub aborted: u64,
    waiting_deposits: u64,
}

impl Shadow {
    /// The model over the given opening balances.
    pub fn new(balances: Vec<i64>) -> Self {
        Shadow {
            balances,
            pairs: 0,
            audits: 0,
            committed: 0,
            aborted: 0,
            waiting_deposits: 0,
        }
    }

    /// Apply a transaction; `false` when `Overdraft` aborts it.
    pub fn apply(&mut self, txn: &Txn) -> bool {
        match txn {
            Txn::Transfer(t) => self.transfer(t),
            Txn::Ring(r) => {
                // Each withdrawal pairs with the oldest waiting deposit,
                // and each deposit before it keeps one waiting.
                self.pairs += RING as i64;
                if r.amount > LARGE {
                    self.audits += r.accounts.iter().filter(|&&a| is_watched(a)).count() as i64;
                }
                self.committed += 1;
                true
            }
        }
    }

    fn transfer(&mut self, t: &Transfer) -> bool {
        if self.balances[t.from] < t.amount {
            self.aborted += 1;
            return false;
        }
        if t.withdraw_first {
            if self.waiting_deposits > 0 {
                self.waiting_deposits -= 1;
                self.pairs += 1;
            }
            self.waiting_deposits += 1;
        } else {
            // Deposit first: the withdraw always finds a waiting deposit.
            self.pairs += 1;
        }
        self.balances[t.from] -= t.amount;
        self.balances[t.to] += t.amount;
        if t.amount > LARGE && is_watched(t.from) {
            self.audits += 1;
        }
        self.committed += 1;
        true
    }

    /// Total money held.
    pub fn total(&self) -> i64 {
        self.balances.iter().sum()
    }
}

/// The store's location (`None` in memory), its accounts and ledger.
pub struct Bank {
    pub dir: Option<PathBuf>,
    pub accounts: Vec<Oid>,
    pub ledger: Oid,
}

impl Bank {
    /// Bytes in the WAL file (0 in memory).
    fn wal_len(&self) -> u64 {
        self.dir
            .as_deref()
            .and_then(|dir| std::fs::metadata(wal_path(dir)).ok())
            .map_or(0, |m| m.len())
    }
}

fn config(dir: &Path) -> DbConfig {
    DbConfig::durable(dir).sync(SyncPolicy::Grouped {
        max_batch: 16,
        max_wait: Duration::from_millis(1),
    })
}

fn wal_path(dir: &Path) -> PathBuf {
    config(dir).wal_path().expect("durable configuration")
}

fn bump(w: &mut dyn World, oid: Oid, attr: &str) -> Result<()> {
    let n = w.get_attr(oid, attr)?.as_int()?;
    w.set_attr(oid, attr, Value::Int(n + 1))
}

fn withdrawal(f: &Firing) -> Result<(Oid, i64)> {
    let occ = f
        .occurrence
        .constituent_for_method("Withdraw")
        .ok_or_else(|| ObjectError::App("rule fired without a withdrawal".into()))?;
    let amount = occ
        .param(0)
        .ok_or_else(|| ObjectError::App("withdrawal without an amount".into()))?;
    Ok((occ.oid, amount.as_int()?))
}

/// Build schema, rules, index and accounts, in memory or in a fresh
/// durable store at `dir`, and optionally run (and time) `analyze`. A
/// durable store is checkpointed, so the run starts from an empty WAL.
/// Returns the open database, its handles and the analyze time in
/// seconds.
pub fn build(dir: Option<&Path>, balances: &[i64], analyze: bool) -> Result<(Database, Bank, f64)> {
    let mut db = match dir {
        Some(dir) => {
            let _ = std::fs::remove_dir_all(dir);
            Database::with_config(config(dir))?
        }
        None => Database::new(),
    };
    db.define_class(
        ClassDecl::reactive("Account")
            .attr("bal", TypeTag::Int)
            .event_method("Deposit", &[("x", TypeTag::Int)], EventSpec::End)
            .event_method("Withdraw", &[("x", TypeTag::Int)], EventSpec::Begin),
    )?;
    db.define_class(
        ClassDecl::new("Ledger")
            .attr("pairs", TypeTag::Int)
            .attr("audits", TypeTag::Int),
    )?;
    db.register_method("Account", "Deposit", |w, this, args| {
        trace::span(Layer::Body, || {
            let b = w.get_attr(this, "bal")?.as_int()?;
            w.set_attr(this, "bal", Value::Int(b + args[0].as_int()?))?;
            Ok(Value::Null)
        })
    })?;
    db.register_method("Account", "Withdraw", |w, this, args| {
        trace::span(Layer::Body, || {
            let b = w.get_attr(this, "bal")?.as_int()?;
            w.set_attr(this, "bal", Value::Int(b - args[0].as_int()?))?;
            Ok(Value::Null)
        })
    })?;
    db.register_condition("would-overdraw", |w, f| {
        trace::enter(Layer::Condition);
        let out = withdrawal(f)
            .and_then(|(acct, amount)| Ok(w.get_attr(acct, "bal")?.as_int()? < amount));
        trace::exit(Layer::Condition);
        if let Ok(true) = out {
            // The abort runs from here to the failing send's return.
            trace::enter(Layer::Abort);
        }
        out
    });
    db.register_condition("large", |_w, f| {
        trace::span(Layer::Condition, || Ok(withdrawal(f)?.1 > LARGE))
    });
    let ledger = db.create("Ledger")?;
    db.register(
        ActionDef::new("count-pair")
            .writes(("Ledger", "pairs"))
            .body(move |w, _f| trace::span(Layer::Action, || bump(w, ledger, "pairs"))),
    )?;
    db.register(
        ActionDef::new("audit")
            .writes(("Ledger", "audits"))
            .body(move |w, _f| trace::span(Layer::Action, || bump(w, ledger, "audits"))),
    )?;
    db.add_class_rule(
        "Account",
        RuleDef::on(event("begin Account::Withdraw(int x)")?)
            .named("Overdraft")
            .when("would-overdraw")
            .then(ACTION_ABORT)
            .priority(10),
    )?;
    db.add_class_rule(
        "Account",
        RuleDef::on(
            event("end Account::Deposit(int x)")?.then(event("begin Account::Withdraw(int x)")?),
        )
        .named("DepWit")
        .then("count-pair")
        .context(ParamContext::Chronicle)
        .coupling(CouplingMode::Deferred),
    )?;
    db.add_rule(
        RuleDef::on(event("begin Account::Withdraw(int x)")?)
            .named("LargeTransfer")
            .when("large")
            .then("audit")
            .coupling(CouplingMode::Detached),
    )?;
    db.create_index("Account", "bal")?;
    db.begin()?;
    let mut accounts = Vec::with_capacity(balances.len());
    for &b in balances {
        accounts.push(db.create_with("Account", &[("bal", Value::Int(b))])?);
    }
    db.commit()?;
    for (i, &acct) in accounts.iter().enumerate() {
        if is_watched(i) {
            db.subscribe(acct, "LargeTransfer")?;
        }
    }
    let mut analyze_s = 0.0;
    if analyze {
        let t = Instant::now();
        let report = db.analyze();
        analyze_s = t.elapsed().as_secs_f64();
        report.gate()?;
    }
    if dir.is_some() {
        db.sync_wal()?;
        db.checkpoint()?;
    }
    let bank = Bank {
        dir: dir.map(Path::to_path_buf),
        accounts,
        ledger,
    };
    Ok((db, bank, analyze_s))
}

/// Send the transaction's messages in order, timing each send.
fn txn_sends(
    db: &mut Database,
    bank: &Bank,
    txn: &Txn,
    send_hist: Option<&mut Hist>,
    sends: &mut u64,
    send_allocs: &mut u64,
) -> Result<()> {
    let mut send_hist = send_hist;
    for i in 0..txn.sends() {
        let (acct, withdraw, amount) = txn.send(i);
        let method = if withdraw { "Withdraw" } else { "Deposit" };
        let a = alloc::count();
        let timer = send_hist.is_some().then(Instant::now);
        trace::enter(Layer::Send);
        let r = db.send(bank.accounts[acct], method, &[Value::Int(amount)]);
        trace::exit(Layer::Abort);
        trace::exit(Layer::Send);
        if let (Some(h), Some(timer)) = (send_hist.as_deref_mut(), timer) {
            h.record_since(timer);
        }
        *send_allocs += alloc::count() - a;
        *sends += 1;
        r?;
    }
    Ok(())
}

/// Compare a transaction's result with the shadow's prediction.
fn check_result(r: Result<()>, t: &Txn, shadow: &mut Shadow, out: &mut Outcome) {
    let expected = trace::span(Layer::Harness, || shadow.apply(t));
    match r {
        Ok(()) => out.check(expected, || format!("{t:?} committed, shadow aborts it")),
        Err(e) if e.is_abort() => {
            out.check(!expected, || format!("{t:?} aborted, shadow commits it"))
        }
        Err(e) => {
            out.attempted += 1;
            out.fail(format!("{t:?} failed: {e}"));
        }
    }
}

/// What the writer measured in one phase.
#[derive(Default)]
struct WriterPhase {
    txns: u64,
    sends: u64,
    checkpoints: Hist,
    window: Window,
    windows: Windows,
    lock_wait: Hist,
    rings: u64,
    wal_bytes: u64,
    committed: u64,
}

/// What the reader measured in one phase.
#[derive(Default)]
struct ReaderPhase {
    reads: u64,
    errors: u64,
    read: Hist,
    get_attr: Hist,
    query: Hist,
    lateness: Hist,
}

fn reader(session: Session, bank: &Bank, seed: u64, stop: &AtomicBool) -> ReaderPhase {
    let mut p = ReaderPhase::default();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5EAD_E125);
    let schedule = Schedule::new(Instant::now(), READ_RATE);
    let mut k = 0;
    while !stop.load(Ordering::Relaxed) {
        let due = schedule.due(k);
        loop {
            let now = Instant::now();
            if now >= due {
                break;
            }
            let left = due - now;
            if left > SPIN {
                std::thread::sleep(left - SPIN);
            } else {
                std::hint::spin_loop();
            }
        }
        p.lateness.record(schedule.lateness(k, Instant::now()));
        let acct = bank.accounts[rng.random_range(0..bank.accounts.len())];
        let t = Instant::now();
        let v = session.get_attr(acct, "bal");
        p.get_attr.record_since(t);
        let lo = rng.random_range(OPENING);
        let t = Instant::now();
        let q = Query::over("Account")
            .range(
                "bal",
                Some(Value::Int(lo)),
                Some(Value::Int(lo + READ_SPAN - 1)),
            )
            .run_oids(&session);
        p.query.record_since(t);
        p.read.record(due.elapsed());
        if !matches!(v, Ok(Value::Int(_))) || q.is_err() {
            p.errors += 1;
        }
        p.reads += 1;
        k += 1;
    }
    p
}

/// One writer transaction through `Sentinel::transaction`.
fn writer_txn(
    s: &Sentinel,
    bank: &Bank,
    t: &Txn,
    w: &mut WriterPhase,
    shadow: &mut Shadow,
    out: &mut Outcome,
) {
    let start = Instant::now();
    let mut waited = Duration::ZERO;
    let mut send_allocs = 0;
    // The traced phase times no sends: its spans would count the
    // timing as unattributed time.
    let send = (!trace::enabled()).then_some(&mut w.window.send);
    let sends = &mut w.sends;
    trace::enter(Layer::LockWait);
    let r = s.transaction(|db| {
        waited = start.elapsed();
        trace::exit(Layer::LockWait);
        txn_sends(db, bank, t, send, sends, &mut send_allocs)?;
        // The commit runs from here to the transaction's return.
        trace::enter(Layer::Commit);
        Ok(())
    });
    trace::exit(Layer::Commit);
    trace::exit(Layer::LockWait);
    w.window.txn.record_since(start);
    if matches!(t, Txn::Ring(_)) {
        w.rings += 1;
    }
    w.window.txns += 1;
    w.lock_wait.record(waited);
    w.txns += 1;
    if r.is_ok() {
        w.committed += 1;
    }
    check_result(r, t, shadow, out);
}

/// Drain, then checkpoint; returns the WAL length before truncation.
fn checkpoint(s: &Sentinel, bank: &Bank, out: &mut Outcome) -> u64 {
    s.drain();
    let len = bank.wal_len();
    let r = s.with(|db| db.checkpoint());
    out.check(r.is_ok(), || format!("checkpoint failed: {r:?}"));
    len
}

/// The workload's live state between phases.
struct Live {
    s: Sentinel,
    bank: Bank,
    transfers: Transfers,
    shadow: Shadow,
    since_checkpoint: u64,
}

fn phase(
    live: &mut Live,
    seconds: f64,
    seed: u64,
    out: &mut Outcome,
) -> (WriterPhase, ReaderPhase, Duration) {
    let stop = AtomicBool::new(false);
    let mut w = WriterPhase::default();
    let wal0 = live.bank.wal_len();
    let (r, wall) = std::thread::scope(|sc| {
        let session = live.s.session();
        let bank = &live.bank;
        let stop = &stop;
        let reader = sc.spawn(move || reader(session, bank, seed, stop));
        let start = Instant::now();
        let mut window_start = start;
        while start.elapsed().as_secs_f64() < seconds {
            let open = window_start.elapsed();
            if open >= WINDOW {
                w.windows.close(&mut w.window, open);
                window_start = Instant::now();
            }
            let t = trace::span(Layer::Harness, || live.transfers.next_txn());
            let committed = w.committed;
            writer_txn(&live.s, &live.bank, &t, &mut w, &mut live.shadow, out);
            live.since_checkpoint += w.committed - committed;
            if live.bank.dir.is_some() && live.since_checkpoint >= CHECKPOINT_EVERY {
                let c = Instant::now();
                trace::enter(Layer::Checkpoint);
                w.wal_bytes += checkpoint(&live.s, &live.bank, out);
                trace::exit(Layer::Checkpoint);
                w.checkpoints.record_since(c);
                live.since_checkpoint = 0;
            }
        }
        // The clock stops once the last commit is durable.
        live.s.drain();
        let wall = start.elapsed();
        stop.store(true, Ordering::Relaxed);
        (reader.join().expect("reader thread panicked"), wall)
    });
    w.wal_bytes = (w.wal_bytes + live.bank.wal_len()).saturating_sub(wal0);
    (w, r, wall)
}

/// The durable state: balances, then the ledger's counters.
fn state_of(db: &Database, bank: &Bank) -> Result<Vec<i64>> {
    let mut v = Vec::with_capacity(bank.accounts.len() + 2);
    for &a in &bank.accounts {
        v.push(db.get_attr(a, "bal")?.as_int()?);
    }
    v.push(db.get_attr(bank.ledger, "pairs")?.as_int()?);
    v.push(db.get_attr(bank.ledger, "audits")?.as_int()?);
    Ok(v)
}

fn expected_state(shadow: &Shadow) -> Vec<i64> {
    let mut v = shadow.balances.clone();
    v.push(shadow.pairs);
    v.push(shadow.audits);
    v
}

/// Shut down and check the state against the shadow model. A durable
/// store is then recovered, and recovery must return every acknowledged
/// commit; returns `(recover time, WAL records replayed)` for it.
fn shutdown_and_check(live: Live, out: &mut Outcome) -> Result<Option<(Duration, u64)>> {
    let Live {
        s, bank, shadow, ..
    } = live;
    let db = s.shutdown()?;
    let before = state_of(&db, &bank)?;
    out.check(before == expected_state(&shadow), || {
        "state at shutdown differs from the shadow model".into()
    });
    let total: i64 = before[..bank.accounts.len()].iter().sum();
    out.check(total == shadow.total(), || {
        format!("money not conserved: {total} vs {}", shadow.total())
    });
    out.line(format!(
        "reference: {} transactions committed, {} overdrafts aborted, {} DepWit pairs, {} audits",
        shadow.committed, shadow.aborted, shadow.pairs, shadow.audits
    ));
    let Some(dir) = &bank.dir else {
        return Ok(None);
    };
    out.check(db.wal_staged_commits() == 0, || {
        "commits still await their fsync after shutdown".into()
    });
    drop(db);
    let records = std::fs::read(wal_path(dir))
        .map_or(0, |b| b.iter().filter(|&&c| c == b'\n').count() as u64);
    let t = Instant::now();
    let recovered = Database::recover(config(dir))?;
    let took = t.elapsed();
    let after = state_of(&recovered, &bank)?;
    out.check(after == before, || {
        "recovered state differs from the state before shutdown".into()
    });
    drop(recovered);
    let _ = std::fs::remove_dir_all(dir);
    Ok(Some((took, records)))
}

/// Counts over a fixed prefix on the `Database` behind the handle: the
/// writer's `begin`/`send`/`commit` allocations, with the worker's part
/// (detached runs and the group fsync) done between transactions.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
struct Counts {
    sends: u64,
    send_allocs: u64,
    txn_allocs: u64,
    notifications: u64,
    commits: u64,
    wal_bytes: u64,
}

fn count_pass(dir: &Path, seed: u64, accounts: usize, out: &mut Outcome) -> Result<Counts> {
    let balances = opening_balances(seed, accounts);
    let (mut db, bank, _) = build(Some(dir), &balances, false)?;
    db.set_inline_detached(false);
    let mut transfers = Transfers::new(seed, accounts);
    let mut shadow = Shadow::new(balances);
    let mut c = Counts::default();
    let n0 = db.engine_stats().notifications;
    let commits0 = db.stats().commits;
    let wal0 = bank.wal_len();
    for _ in 0..COUNT_TXNS {
        let t = transfers.next_txn();
        let a = alloc::count();
        db.begin()?;
        let r = txn_sends(&mut db, &bank, &t, None, &mut c.sends, &mut c.send_allocs)
            .and_then(|()| db.commit());
        if r.is_err() && db.in_txn() {
            db.abort()?;
        }
        c.txn_allocs += alloc::count() - a;
        check_result(r, &t, &mut shadow, out);
        db.run_pending_detached()?;
        db.sync_wal()?;
    }
    c.notifications = db.engine_stats().notifications - n0;
    c.commits = db.stats().commits - commits0;
    c.wal_bytes = bank.wal_len() - wal0;
    drop(db);
    let _ = std::fs::remove_dir_all(dir);
    Ok(c)
}

fn run_dir(tag: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join(".run")
        .join(format!("bank-{}-{tag}", std::process::id()))
}

/// Run the workload.
pub fn run(cfg: &Run, out: &mut Outcome) -> Result<()> {
    let balances = opening_balances(cfg.seed, ACCOUNTS);
    // The untraced run keeps its store in memory: the host's fsync
    // latency drifts too far over minutes for a durable store's figures
    // to hold a regression bound. The traced run is durable.
    let durable = cfg.trace;
    let (db, bank) = crate::timed_setups(out, |k| {
        let dir = durable.then(|| run_dir(&k.to_string()));
        let (db, bank, analyze_s) = build(dir.as_deref(), &balances, true)?;
        Ok(((db, bank), analyze_s))
    })?;
    // Every set-up but the last leaves its store behind.
    for k in 0..crate::SETUPS - 1 {
        let _ = std::fs::remove_dir_all(run_dir(&k.to_string()));
    }
    out.line(format!(
        "bank: {ACCOUNTS} accounts, {} rules, {}, {} cores available",
        db.rule_count(),
        if durable {
            "durable, Grouped sync"
        } else {
            "in memory"
        },
        std::thread::available_parallelism().map_or(0, |n| n.get())
    ));
    let mut live = Live {
        s: Sentinel::open(db),
        bank,
        transfers: Transfers::new(cfg.seed, ACCOUNTS),
        shadow: Shadow::new(balances),
        since_checkpoint: 0,
    };

    let mut warm = WriterPhase::default();
    for _ in 0..WARMUP_TXNS {
        let t = live.transfers.next_txn();
        writer_txn(&live.s, &live.bank, &t, &mut warm, &mut live.shadow, out);
    }
    live.since_checkpoint += warm.committed;

    let phases: &[bool] = if cfg.trace { &[false, true] } else { &[false] };
    let phase_secs = cfg.seconds / phases.len() as f64;
    let mut rates = Vec::new();
    for &traced in phases {
        let e0 = live.s.with(|db| db.engine_stats());
        let d0 = live.s.with(|db| db.stats());
        let durable0 = live.s.with(|db| db.durable_commits());
        live.s.with(|db| {
            db.telemetry().reset();
            db.telemetry().set_enabled(traced);
        });
        trace::reset();
        trace::set_enabled(traced);
        let (w, r, wall) = phase(&mut live, phase_secs, cfg.seed, out);
        trace::set_enabled(false);
        let tel = live.s.with(|db| {
            db.telemetry().set_enabled(false);
            db.telemetry().snapshot()
        });
        let rate = w.txns as f64 / wall.as_secs_f64();
        rates.push(rate);
        out.attempted += r.reads;
        out.failed += r.errors;
        let rings = w.rings as f64 / w.txns.max(1) as f64;
        let label = if traced { "traced" } else { "untraced" };
        out.line(format!(
            "{label}: {} txns ({} committed, rings {:.1} %) in {:.2} s, {} checkpoints, \
             {} reads ({} late > 1 ms)",
            w.txns,
            w.committed,
            rings * 100.0,
            wall.as_secs_f64(),
            w.checkpoints.count(),
            r.reads,
            (r.lateness.share_above_ns(1_000_000) * r.reads as f64).round(),
        ));
        if !traced {
            let [txn_p50, txn_p99, send_p50, send_p99] = w.windows.latencies();
            out.set("txn_per_s", w.windows.rate());
            out.set("txn_p50_us", txn_p50);
            out.set("txn_p99_us", txn_p99);
            out.set("send_p50_us", send_p50);
            out.set("send_p99_us", send_p99);
            out.set("mix.share", rings);
            out.set("read_p50_us", r.read.quantile_us(0.5));
            out.set("read_p99_us", r.read.quantile_us(0.99));
            out.set(
                "log_bytes_per_txn",
                w.wal_bytes as f64 / w.committed.max(1) as f64,
            );
            out.line(w.windows.describe());
            out.line(format!(
                "{} reads; read p50 {:.1} us, p99 {:.1} us; WAL {:.0} bytes per committed transaction",
                r.read.count(),
                r.read.quantile_us(0.5),
                r.read.quantile_us(0.99),
                w.wal_bytes as f64 / w.committed.max(1) as f64
            ));
            continue;
        }
        let e1 = live.s.with(|db| db.engine_stats());
        let d1 = live.s.with(|db| db.stats());
        let durable1 = live.s.with(|db| db.durable_commits());
        let sends = w.sends.max(1) as f64;
        let commits = (d1.commits - d0.commits).max(1) as f64;
        let notifications = (e1.notifications - e0.notifications) as f64;
        let firings = (e1.immediate - e0.immediate)
            + (e1.deferred - e0.deferred)
            + (e1.detached - e0.detached);
        let batches = tel.stage_count(Stage::WalBatch).max(1) as f64;
        let fsync_us = tel
            .stage(Stage::WalFsync)
            .map_or(0.0, |s| s.values.mean() / 1e3);
        out.set("db.send_self_us", trace::mean_self_us(Layer::Send));
        out.set("db.commit_us", trace::mean_self_us(Layer::Commit));
        out.set("db.abort_us", trace::mean_self_us(Layer::Abort));
        out.set(
            "db.aborts_per_txn",
            (d1.aborts - d0.aborts) as f64 / w.txns.max(1) as f64,
        );
        out.set(
            "rules.firings_per_notification",
            firings as f64 / notifications.max(1.0),
        );
        out.set("rules.condition_us", trace::mean_self_us(Layer::Condition));
        out.set(
            "rules.condition_evals_per_send",
            (d1.condition_evals - d0.condition_evals) as f64 / sends,
        );
        out.set("rules.action_us", trace::mean_self_us(Layer::Action));
        out.set(
            "rules.deferred_per_commit",
            (e1.deferred - e0.deferred) as f64 / commits,
        );
        out.set(
            "rules.detached_per_commit",
            (e1.detached - e0.detached) as f64 / commits,
        );
        out.set(
            "events.occurrences_per_send",
            (e1.occurrences - e0.occurrences) as f64 / sends,
        );
        out.set("session.lock_wait_p50_us", w.lock_wait.quantile_us(0.5));
        out.set("session.lock_wait_p99_us", w.lock_wait.quantile_us(0.99));
        out.set("object.get_attr_us", r.get_attr.mean_us());
        out.set("query.run_us", r.query.mean_us());
        out.set("query.lateness_us", r.lateness.quantile_us(0.99));
        out.set(
            "storage.commits_per_fsync",
            (durable1 - durable0) as f64 / batches,
        );
        out.set("storage.fsync_us", fsync_us);
        out.set("storage.checkpoint_ms", w.checkpoints.mean_us() / 1e3);
        out.line(format!(
            "core lock wait p50 {:.1} us, p99 {:.1} us; group fsync {:.1} us covering {:.1} commits",
            w.lock_wait.quantile_us(0.5),
            w.lock_wait.quantile_us(0.99),
            fsync_us,
            (durable1 - durable0) as f64 / batches
        ));
        crate::reconcile(out, wall);
        out.set("trace.overhead", rate / rates[0]);
    }

    // Recovery: a fixed tail after a fresh checkpoint, so every run
    // replays the same amount of log.
    if durable {
        checkpoint(&live.s, &live.bank, out);
        let mut tail = WriterPhase::default();
        for _ in 0..TAIL_TXNS {
            let t = live.transfers.next_txn();
            writer_txn(&live.s, &live.bank, &t, &mut tail, &mut live.shadow, out);
        }
    }
    if let Some((took, records)) = shutdown_and_check(live, out)? {
        out.set("recover_s", took.as_secs_f64());
        out.set(
            "storage.recover_records_per_s",
            records as f64 / took.as_secs_f64(),
        );
        out.line(format!(
            "recovery: {records} log records after the last checkpoint in {:.1} ms",
            took.as_secs_f64() * 1e3
        ));
    }

    if cfg.trace {
        let a = count_pass(&run_dir("count-a"), cfg.seed, ACCOUNTS, out)?;
        let b = count_pass(&run_dir("count-b"), cfg.seed, ACCOUNTS, out)?;
        out.check(a == b, || {
            format!("counts differ between passes: {a:?} vs {b:?}")
        });
        out.set("db.allocs_per_send", a.send_allocs as f64 / a.sends as f64);
        out.set("db.allocs_per_txn", a.txn_allocs as f64 / COUNT_TXNS as f64);
        out.set(
            "rules.notifications_per_send",
            a.notifications as f64 / a.sends as f64,
        );
        out.set(
            "storage.log_bytes_per_commit",
            a.wal_bytes as f64 / a.commits as f64,
        );
    }
    out.set("peak_rss_mb", peak_rss_mb());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(from: usize, to: usize, amount: i64, withdraw_first: bool) -> Txn {
        Txn::Transfer(Transfer {
            from,
            to,
            amount,
            withdraw_first,
        })
    }

    #[test]
    fn generators_are_deterministic_per_seed() {
        assert_eq!(opening_balances(4, 100), opening_balances(4, 100));
        assert_ne!(opening_balances(4, 100), opening_balances(5, 100));
        let take = |seed| {
            let mut g = Transfers::new(seed, 50);
            (0..200).map(|_| g.next_txn()).collect::<Vec<_>>()
        };
        assert_eq!(take(9), take(9));
        assert_ne!(take(9), take(10));
        for (k, txn) in take(9).iter().enumerate() {
            let ring = (k as u64 + 1).is_multiple_of(RING_EVERY);
            match txn {
                Txn::Transfer(t) => assert!(!ring && t.from != t.to && t.amount >= 1),
                Txn::Ring(r) => assert!(ring && r.amount >= 1),
            }
        }
    }

    fn hand_built() -> Vec<Txn> {
        vec![
            t(0, 1, 100, true),  // no deposit waiting yet; commits
            t(1, 2, 300, false), // deposit then withdraw: pairs; 1 is not watched
            t(3, 0, 101, true),  // overdraft (3 holds 100): aborts
            t(2, 3, 50, true),   // pairs with the waiting deposit
            t(0, 2, 260, true),  // pairs; 0 is watched, so audited
            // Every withdrawal pairs; 0 pays three times: 3 audits. Account
            // 3 holds 150 and pays 290 after receiving it.
            Txn::Ring(Ring {
                accounts: [3, 0, 1, 2, 3, 0, 1, 2, 3, 0],
                amount: 290,
            }),
        ]
    }

    #[test]
    fn shadow_gives_known_answers() {
        let mut s = Shadow::new(vec![400, 300, 200, 100]);
        let results: Vec<bool> = hand_built().iter().map(|t| s.apply(t)).collect();
        assert_eq!(results, [true, true, false, true, true, true]);
        assert_eq!(s.balances, vec![40, 100, 710, 150]);
        assert_eq!((s.pairs, s.audits), (13, 4));
        assert_eq!((s.committed, s.aborted), (5, 1));
        assert_eq!(s.total(), 1000);
    }

    #[test]
    fn database_and_recovery_agree_with_shadow_on_a_hand_built_stream() {
        let _g = crate::trace::test_lock();
        let dir = run_dir("unit-test");
        let balances = vec![400, 300, 200, 100];
        let (db, bank, _) = build(Some(&dir), &balances, true).unwrap();
        let s = Sentinel::open(db);
        let mut shadow = Shadow::new(balances);
        let mut out = Outcome::default();
        let mut w = WriterPhase::default();
        for t in hand_built() {
            writer_txn(&s, &bank, &t, &mut w, &mut shadow, &mut out);
        }
        let live = Live {
            s,
            bank,
            transfers: Transfers::new(0, 4),
            shadow,
            since_checkpoint: 0,
        };
        assert!(shutdown_and_check(live, &mut out).unwrap().is_some());
        assert_eq!(out.failed, 0, "{:?}", out.lines);
        assert_eq!((w.committed, w.rings), (5, 1));
    }
}
