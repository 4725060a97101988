//! `portfolio`: the paper's Stock/FinancialInfo `Purchase` conjunction
//! (§2.1) at 256 instance rules, plus a class-level price-band rule that
//! aborts its transaction.
//!
//! In memory, `Database` API, closed loop, one thread. Input is
//! `workload::market_stream` ticks; a transaction runs the ticks up to
//! and including the next index tick, so every transaction holds exactly
//! one index tick (1 in 16 ticks, 16 ticks per transaction on average).
//! An index tick reaches all 256 `Purchase` rules; a price tick reaches
//! two rules. A price tick outside the band aborts its transaction, and
//! every abort sweeps the detectors of all 257 rules.

use crate::alloc;
use crate::report::Outcome;
use crate::stats::{peak_rss_mb, Hist};
use crate::trace::{self, Layer};
use crate::Run;
use sentinel_bench::workload::{market_stream, MarketEvent};
use sentinel_db::prelude::*;
use std::time::Instant;

/// Stocks, each with its own `Purchase` rule.
pub const STOCKS: usize = 256;
/// Probability that a tick is an index tick.
pub const INDEX_RATIO: f64 = 1.0 / 16.0;
/// Price band; `market_stream` draws prices from `[40, 140)`, so about
/// 0.2 % of price ticks fall outside and abort their transaction.
pub const BAND: (f64, f64) = (40.1, 139.9);
/// The `Purchase` condition: buy below this price...
pub const BUY_BELOW: f64 = 80.0;
/// ...while the index change is below this.
pub const INDEX_BELOW: f64 = 3.4;
/// Opening price of every stock and opening index change: in the band,
/// outside the buy window.
pub const OPENING_PRICE: f64 = 100.0;
pub const OPENING_INDEX: f64 = 4.0;
/// Ticks drawn per `market_stream` call.
const CHUNK: usize = 1 << 16;
/// Transactions run before the clock starts.
const WARMUP_TXNS: usize = 2_000;
/// Transactions of the allocation-count pass.
const COUNT_TXNS: usize = 400;

/// Stocks whose `Purchase` rule detects on index ticks; the rest detect
/// on their own price ticks.
pub const INDEX_DETECTORS: usize = STOCKS / 4;

/// The opening transaction, committed during set-up: a price for the
/// first `INDEX_DETECTORS` stocks, the index, then a price for the rest.
/// Those first rules so retain their stock side and detect on every index
/// tick; the others retain the index side and detect on their own price
/// ticks. Fixing the split at set-up keeps the work per tick the same for
/// every seed, and a 1:3 split keeps the median price tick away from the
/// boundary between ticks that detect and ticks that do not.
pub fn opening() -> Vec<MarketEvent> {
    let mut ticks: Vec<MarketEvent> = (0..INDEX_DETECTORS)
        .map(|i| MarketEvent::Price(i, OPENING_PRICE))
        .collect();
    ticks.push(MarketEvent::IndexChange(OPENING_INDEX));
    ticks.extend((INDEX_DETECTORS..STOCKS).map(|i| MarketEvent::Price(i, OPENING_PRICE)));
    ticks
}

/// An endless, seed-determined tick stream cut into transactions.
pub struct Ticks {
    seed: u64,
    chunk: u64,
    buf: Vec<MarketEvent>,
    pos: usize,
}

impl Ticks {
    /// The stream for `seed`.
    pub fn new(seed: u64) -> Self {
        Ticks {
            seed,
            chunk: 0,
            buf: Vec::new(),
            pos: 0,
        }
    }

    fn next_tick(&mut self) -> MarketEvent {
        if self.pos == self.buf.len() {
            let chunk_seed = self.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ self.chunk;
            self.buf = market_stream(chunk_seed, STOCKS, CHUNK, INDEX_RATIO);
            self.chunk += 1;
            self.pos = 0;
        }
        self.pos += 1;
        self.buf[self.pos - 1]
    }

    /// Fill `txn` with the next transaction: ticks up to and including
    /// the next index tick.
    pub fn next_txn(&mut self, txn: &mut Vec<MarketEvent>) {
        txn.clear();
        loop {
            let t = self.next_tick();
            txn.push(t);
            if matches!(t, MarketEvent::IndexChange(_)) {
                return;
            }
        }
    }
}

/// What a `Purchase` rule's `Recent` conjunction retains: once one side
/// is retained, each arrival on the other side detects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Retained {
    Nothing,
    Stock,
    Index,
}

/// A plain-Rust replay of the rule set over the tick stream.
#[derive(Debug, Clone, PartialEq)]
pub struct Reference {
    /// Current price per stock.
    pub prices: Vec<f64>,
    /// Current index change.
    pub index: f64,
    /// Committed purchases per stock.
    pub buys: Vec<i64>,
    /// Transactions the band rule aborted.
    pub aborts: u64,
    retained: Vec<Retained>,
}

impl Default for Reference {
    fn default() -> Self {
        Reference {
            prices: vec![0.0; STOCKS],
            index: 0.0,
            buys: vec![0; STOCKS],
            aborts: 0,
            retained: vec![Retained::Nothing; STOCKS],
        }
    }
}

impl Reference {
    /// The state after the [`opening`] transaction.
    pub fn opened() -> Self {
        let mut r = Reference::default();
        let aborted = r.apply(&opening());
        debug_assert!(aborted.is_none(), "the opening is inside the band");
        r
    }

    fn fire(&mut self, i: usize) {
        if self.prices[i] < BUY_BELOW && self.index < INDEX_BELOW {
            self.buys[i] += 1;
        }
    }

    /// Apply one transaction. Returns the position of the tick whose
    /// band violation aborted it (state rolled back), or `None` when it
    /// commits.
    pub fn apply(&mut self, txn: &[MarketEvent]) -> Option<usize> {
        let before = self.clone();
        for (pos, tick) in txn.iter().enumerate() {
            match *tick {
                MarketEvent::Price(i, p) => {
                    self.prices[i] = p;
                    match self.retained[i] {
                        Retained::Index => self.fire(i),
                        _ => self.retained[i] = Retained::Stock,
                    }
                    if !(BAND.0..=BAND.1).contains(&p) {
                        *self = before;
                        self.aborts += 1;
                        return Some(pos);
                    }
                }
                MarketEvent::IndexChange(v) => {
                    self.index = v;
                    for i in 0..STOCKS {
                        match self.retained[i] {
                            Retained::Stock => self.fire(i),
                            _ => self.retained[i] = Retained::Index,
                        }
                    }
                }
            }
        }
        None
    }
}

/// The database with its stocks and index object.
pub struct Market {
    pub db: Database,
    pub stocks: Vec<Oid>,
    pub index: Oid,
}

/// Build schema, objects, rules and subscriptions; optionally run (and
/// time) `analyze`. Returns the market and the analyze time in seconds.
pub fn build(analyze: bool) -> Result<(Market, f64)> {
    let mut db = Database::new();
    db.define_class(
        ClassDecl::reactive("Stock")
            .attr("price", TypeTag::Float)
            .attr("buys", TypeTag::Int)
            .event_method("SetPrice", &[("p", TypeTag::Float)], EventSpec::End),
    )?;
    db.define_class(
        ClassDecl::reactive("FinancialInfo")
            .attr("change", TypeTag::Float)
            .event_method("SetValue", &[("v", TypeTag::Float)], EventSpec::End),
    )?;
    db.register_method("Stock", "SetPrice", |w, this, args| {
        trace::span(Layer::Body, || {
            w.set_attr(this, "price", args[0].clone())?;
            Ok(Value::Null)
        })
    })?;
    db.register_method("FinancialInfo", "SetValue", |w, this, args| {
        trace::span(Layer::Body, || {
            w.set_attr(this, "change", args[0].clone())?;
            Ok(Value::Null)
        })
    })?;
    db.register_condition("buy-window", |w, f| {
        trace::span(Layer::Condition, || {
            let stock = f.occurrence.constituent_for_method("SetPrice");
            let index = f.occurrence.constituent_for_method("SetValue");
            let (Some(stock), Some(index)) = (stock, index) else {
                return Err(ObjectError::App("Purchase fired without both ticks".into()));
            };
            Ok(w.get_attr(stock.oid, "price")?.as_float()? < BUY_BELOW
                && w.get_attr(index.oid, "change")?.as_float()? < INDEX_BELOW)
        })
    });
    db.register(
        ActionDef::new("buy")
            .writes(("Stock", "buys"))
            .body(|w, f| {
                trace::span(Layer::Action, || {
                    let Some(stock) = f.occurrence.constituent_for_method("SetPrice") else {
                        return Err(ObjectError::App("Purchase fired without a price".into()));
                    };
                    let n = w.get_attr(stock.oid, "buys")?.as_int()?;
                    w.set_attr(stock.oid, "buys", Value::Int(n + 1))
                })
            }),
    )?;
    db.register_condition("out-of-band", |_w, f| {
        trace::enter(Layer::Condition);
        let p = f
            .param_of("SetPrice", 0)
            .ok_or_else(|| ObjectError::App("price tick without a price".into()))
            .and_then(Value::as_float);
        let out = p.map(|p| !(BAND.0..=BAND.1).contains(&p));
        trace::exit(Layer::Condition);
        if let Ok(true) = out {
            // The abort runs from here to the failing send's return.
            trace::enter(Layer::Abort);
        }
        out
    });

    let index = db.create("FinancialInfo")?;
    let purchase =
        event("end Stock::SetPrice(float p)")?.and(event("end FinancialInfo::SetValue(float v)")?);
    let mut stocks = Vec::with_capacity(STOCKS);
    for i in 0..STOCKS {
        let s = db.create("Stock")?;
        let name = format!("Purchase{i}");
        db.add_rule(
            RuleDef::on(purchase.clone())
                .named(&name)
                .when("buy-window")
                .then("buy")
                .context(ParamContext::Recent),
        )?;
        db.subscribe(s, &name)?;
        db.subscribe(index, &name)?;
        stocks.push(s);
    }
    db.add_class_rule(
        "Stock",
        RuleDef::on(event("end Stock::SetPrice(float p)")?)
            .named("PriceBand")
            .when("out-of-band")
            .then(ACTION_ABORT),
    )?;
    db.begin()?;
    for tick in opening() {
        match tick {
            MarketEvent::Price(i, p) => db.send(stocks[i], "SetPrice", &[Value::Float(p)])?,
            MarketEvent::IndexChange(v) => db.send(index, "SetValue", &[Value::Float(v)])?,
        };
    }
    db.commit()?;
    let mut analyze_s = 0.0;
    if analyze {
        let t = Instant::now();
        let report = db.analyze();
        analyze_s = t.elapsed().as_secs_f64();
        report.gate()?;
    }
    Ok((Market { db, stocks, index }, analyze_s))
}

/// Per-transaction counters of one drive.
#[derive(Debug, Default, Clone, PartialEq)]
struct Drive {
    txns: u64,
    sends: u64,
    index_sends: u64,
    aborts: u64,
    send_allocs: u64,
    txn_allocs: u64,
}

/// Run one transaction against the database and the reference; checks
/// that both agree on whether and where it aborts.
fn run_txn(
    m: &mut Market,
    txn: &[MarketEvent],
    reference: &mut Reference,
    out: &mut Outcome,
    d: &mut Drive,
    mut send_hist: Option<&mut Hist>,
) {
    let a0 = alloc::count();
    trace::span(Layer::Begin, || m.db.begin()).expect("begin outside a transaction");
    let mut aborted_at = None;
    for (pos, tick) in txn.iter().enumerate() {
        let (oid, method, v) = match *tick {
            MarketEvent::Price(i, p) => (m.stocks[i], "SetPrice", p),
            MarketEvent::IndexChange(v) => {
                d.index_sends += 1;
                (m.index, "SetValue", v)
            }
        };
        let s_alloc = alloc::count();
        let timer = send_hist.is_some().then(Instant::now);
        trace::enter(Layer::Send);
        let r = m.db.send(oid, method, &[Value::Float(v)]);
        trace::exit(Layer::Abort);
        trace::exit(Layer::Send);
        if let (Some(h), Some(timer)) = (send_hist.as_deref_mut(), timer) {
            h.record_since(timer);
        }
        d.send_allocs += alloc::count() - s_alloc;
        d.sends += 1;
        match r {
            Ok(_) => {}
            Err(e) if e.is_abort() => {
                aborted_at = Some(pos);
                break;
            }
            Err(e) => {
                out.fail(format!("portfolio send failed: {e}"));
                if m.db.in_txn() {
                    let _ = m.db.abort();
                }
                aborted_at = Some(pos);
                break;
            }
        }
    }
    if aborted_at.is_none() {
        if let Err(e) = trace::span(Layer::Commit, || m.db.commit()) {
            out.fail(format!("portfolio commit failed: {e}"));
        }
    }
    d.txn_allocs += alloc::count() - a0;
    d.txns += 1;
    if aborted_at.is_some() {
        d.aborts += 1;
    }
    let expected = trace::span(Layer::Harness, || reference.apply(txn));
    if expected != aborted_at {
        out.fail(format!(
            "abort at {aborted_at:?}, reference says {expected:?}"
        ));
    }
}

/// Compare the database with the reference replay.
fn final_check(m: &Market, reference: &Reference, d: &Drive, out: &mut Outcome) {
    let get = |oid, attr| m.db.get_attr(oid, attr);
    let mut bad_prices = 0;
    let mut bad_buys = 0;
    let mut purchases = 0;
    for (i, &s) in m.stocks.iter().enumerate() {
        if get(s, "price").ok() != Some(Value::Float(reference.prices[i])) {
            bad_prices += 1;
        }
        if get(s, "buys").ok() != Some(Value::Int(reference.buys[i])) {
            bad_buys += 1;
        }
        purchases += reference.buys[i];
    }
    out.check(bad_prices == 0, || {
        format!("{bad_prices} final prices differ")
    });
    out.check(bad_buys == 0, || {
        format!("{bad_buys} purchase counts differ")
    });
    out.check(
        get(m.index, "change").ok() == Some(Value::Float(reference.index)),
        || "index value differs".into(),
    );
    out.check(d.aborts == reference.aborts, || {
        format!("{} aborts, reference {}", d.aborts, reference.aborts)
    });
    out.check(m.db.stats().aborts == reference.aborts, || {
        "DbStats.aborts differs from the reference".into()
    });
    out.line(format!(
        "reference: {} txns, {} aborts, {purchases} purchases",
        d.txns, reference.aborts
    ));
}

/// The allocation and notification counts of the first `COUNT_TXNS`
/// transactions of a fresh database (untraced).
fn count_pass(seed: u64, out: &mut Outcome) -> Result<(Drive, u64)> {
    let (mut m, _) = build(false)?;
    let mut ticks = Ticks::new(seed);
    let mut reference = Reference::opened();
    let mut d = Drive::default();
    let mut txn = Vec::new();
    let n0 = m.db.engine_stats().notifications;
    for _ in 0..COUNT_TXNS {
        ticks.next_txn(&mut txn);
        run_txn(&mut m, &txn, &mut reference, out, &mut d, None);
    }
    Ok((d, m.db.engine_stats().notifications - n0))
}

/// Run the workload.
pub fn run(cfg: &Run, out: &mut Outcome) -> Result<()> {
    let mut m = crate::timed_setups(out, |_| build(true))?;
    out.line(format!(
        "portfolio: {STOCKS} stocks, {} rules, Serial execution",
        m.db.rule_count()
    ));

    let mut ticks = Ticks::new(cfg.seed);
    let mut reference = Reference::opened();
    let mut txn = Vec::new();
    let mut warm = Drive::default();
    for _ in 0..WARMUP_TXNS {
        ticks.next_txn(&mut txn);
        run_txn(&mut m, &txn, &mut reference, out, &mut warm, None);
    }

    // The untraced phase gives the end-to-end metrics; a traced run
    // measures half as long untraced, then half traced.
    let phases: &[bool] = if cfg.trace { &[false, true] } else { &[false] };
    let phase_secs = cfg.seconds / phases.len() as f64;
    let mut total = warm;
    let mut rates = Vec::new();
    for &traced in phases {
        let mut d = Drive::default();
        let db0 = m.db.stats();
        let e0 = m.db.engine_stats();
        trace::reset();
        trace::set_enabled(traced);
        let mut state = (
            &mut ticks,
            &mut txn,
            &mut m,
            &mut reference,
            &mut *out,
            &mut d,
        );
        let (windows, wall) = crate::closed_loop(
            &mut state,
            phase_secs,
            traced,
            |(ticks, txn, ..)| ticks.next_txn(txn),
            |(_, txn, m, reference, out, d), send| run_txn(m, txn, reference, out, d, send),
        );
        trace::set_enabled(false);
        let rate = d.txns as f64 / wall.as_secs_f64();
        rates.push(rate);
        out.attempted += d.txns;
        total.txns += d.txns;
        total.aborts += d.aborts;
        let index_share = d.index_sends as f64 / d.sends.max(1) as f64;
        let label = if traced { "traced" } else { "untraced" };
        out.line(format!(
            "{label}: {} txns ({} aborted) in {:.2} s, {} sends; index ticks {:.2} % of sends",
            d.txns,
            d.aborts,
            wall.as_secs_f64(),
            d.sends,
            index_share * 100.0
        ));
        if !traced {
            let [txn_p50, txn_p99, send_p50, send_p99] = windows.latencies();
            out.set("txn_per_s", windows.rate());
            out.set("txn_p50_us", txn_p50);
            out.set("txn_p99_us", txn_p99);
            out.set("send_p50_us", send_p50);
            out.set("send_p99_us", send_p99);
            out.line(windows.describe());
            out.set("mix.share", index_share);
            out.line(format!(
                "aborted txns {:.2} %",
                100.0 * d.aborts as f64 / d.txns.max(1) as f64
            ));
            continue;
        }
        let db1 = m.db.stats();
        let e1 = m.db.engine_stats();
        let sends = d.sends.max(1) as f64;
        let notifications = (e1.notifications - e0.notifications) as f64;
        let firings = (e1.immediate - e0.immediate)
            + (e1.deferred - e0.deferred)
            + (e1.detached - e0.detached);
        out.set("db.send_self_us", trace::mean_self_us(Layer::Send));
        out.set("db.commit_us", trace::mean_self_us(Layer::Commit));
        out.set("db.abort_us", trace::mean_self_us(Layer::Abort));
        out.set("db.aborts_per_txn", d.aborts as f64 / d.txns.max(1) as f64);
        out.set(
            "rules.firings_per_notification",
            firings as f64 / notifications.max(1.0),
        );
        out.set("rules.condition_us", trace::mean_self_us(Layer::Condition));
        out.set(
            "rules.condition_evals_per_send",
            (db1.condition_evals - db0.condition_evals) as f64 / sends,
        );
        out.set("rules.action_us", trace::mean_self_us(Layer::Action));
        out.set(
            "events.occurrences_per_send",
            (e1.occurrences - e0.occurrences) as f64 / sends,
        );
        crate::reconcile(out, wall);
        out.set("trace.overhead", rate / rates[0]);
    }
    final_check(&m, &reference, &total, out);

    if cfg.trace {
        // Exact counts over a fixed prefix, twice on fresh databases.
        let (a, na) = count_pass(cfg.seed, out)?;
        let (b, nb) = count_pass(cfg.seed, out)?;
        out.check(a == b && na == nb, || {
            format!(
                "allocation/notification counts differ between passes: {a:?}/{na} vs {b:?}/{nb}"
            )
        });
        out.set("db.allocs_per_send", a.send_allocs as f64 / a.sends as f64);
        out.set("db.allocs_per_txn", a.txn_allocs as f64 / a.txns as f64);
        out.set("rules.notifications_per_send", na as f64 / a.sends as f64);
    }
    out.set("peak_rss_mb", peak_rss_mb());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tick_stream_is_deterministic_per_seed() {
        let take = |seed| {
            let mut t = Ticks::new(seed);
            let mut txn = Vec::new();
            let mut all = Vec::new();
            for _ in 0..50 {
                t.next_txn(&mut txn);
                all.extend_from_slice(&txn);
            }
            all
        };
        assert_eq!(take(7), take(7));
        assert_ne!(take(7), take(8));
    }

    #[test]
    fn every_transaction_ends_with_its_only_index_tick() {
        let mut t = Ticks::new(3);
        let mut txn = Vec::new();
        let mut ticks = 0;
        for _ in 0..2_000 {
            t.next_txn(&mut txn);
            ticks += txn.len();
            let (last, rest) = txn.split_last().unwrap();
            assert!(matches!(last, MarketEvent::IndexChange(_)));
            assert!(rest.iter().all(|e| matches!(e, MarketEvent::Price(..))));
        }
        let mean = ticks as f64 / 2_000.0;
        assert!(
            (14.0..18.0).contains(&mean),
            "mean transaction length {mean}"
        );
    }

    #[test]
    fn reference_follows_recent_conjunction_and_rolls_back_aborts() {
        use MarketEvent::*;
        let mut r = Reference::default();
        // Stock 0 ticks first: its rule retains the stock side and then
        // detects on every index tick. Stock 1 first sees the index, so
        // its rule detects on its own price ticks.
        assert_eq!(r.apply(&[Price(0, 50.0), IndexChange(1.0)]), None);
        assert_eq!(r.buys[0], 1);
        assert_eq!(
            r.apply(&[Price(1, 60.0), Price(0, 90.0), IndexChange(2.0)]),
            None
        );
        assert_eq!(r.buys[1], 1, "stock 1 detects on its price tick");
        assert_eq!(r.buys[0], 1, "90 is outside the buy window");
        assert_eq!(r.apply(&[Price(1, 70.0), IndexChange(5.0)]), None);
        assert_eq!(
            r.buys[1], 2,
            "condition read the old index (2.0) at the price tick"
        );
        // An out-of-band tick rolls back everything in its transaction.
        let before = r.clone();
        assert_eq!(
            r.apply(&[Price(1, 45.0), Price(2, 140.0), IndexChange(0.5)]),
            Some(1)
        );
        assert_eq!(r.prices, before.prices);
        assert_eq!(r.buys, before.buys);
        assert_eq!(r.aborts, 1);
    }

    #[test]
    fn database_agrees_with_reference_on_a_hand_built_stream() {
        use MarketEvent::*;
        let _g = crate::trace::test_lock();
        let (mut m, _) = build(false).unwrap();
        let txns = [
            vec![Price(0, 50.0), IndexChange(1.0)],
            vec![Price(1, 60.0), Price(0, 90.0), IndexChange(2.0)],
            vec![Price(1, 45.0), Price(2, 140.0), IndexChange(0.5)],
            vec![Price(1, 70.0), IndexChange(5.0)],
        ];
        let mut reference = Reference::opened();
        let mut out = Outcome::default();
        let mut d = Drive::default();
        for txn in &txns {
            run_txn(&mut m, txn, &mut reference, &mut out, &mut d, None);
        }
        final_check(&m, &reference, &d, &mut out);
        assert_eq!(out.failed, 0, "{:?}", out.lines);
        assert_eq!(reference.aborts, 1);
        // After the opening, stocks 0..64 detect on index ticks only.
        assert_eq!(reference.buys[..3], [1, 1, 0]);
    }
}
