//! `fraud`: windowed fraud signatures as *instance* rules, one set of
//! detectors per card, over a virtual clock.
//!
//! In memory, `TimeMode::Virtual`, `Database` API, closed loop, one
//! thread. Each of 128 cards has three rules subscribed to it alone:
//!
//! * `TestThenSpend` — a probe followed by a spend inside a 20-instant
//!   sliding window (`Chronicle`: each spend consumes the oldest probe),
//!   whose condition asks for a real spend (at least 10);
//! * `RapidFire` — at least 3 spends inside 60 instants (`count_within`);
//! * `LargeOutflow` — spends summing to 5000 inside 100 instants
//!   (`sum_within`).
//!
//! A single `every(400)` sweep rule clears the soft flags. Card picks
//! are skewed (half the events go to 16 hot cards), `advance_time` moves
//! the clock 0–3 instants before each event, and a transaction holds 64
//! events; nothing aborts. About a quarter of the transactions contain a
//! sweep.

use crate::alloc;
use crate::report::Outcome;
use crate::stats::{peak_rss_mb, Hist};
use crate::trace::{self, Layer};
use crate::Run;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sentinel_db::prelude::*;
use std::collections::VecDeque;
use std::time::Instant;

/// Cards, each with its own three detectors.
pub const CARDS: usize = 128;
/// Cards that receive half of all events.
pub const HOT_CARDS: usize = 16;
/// Share of events that are zero-amount probes.
pub const PROBE_SHARE: f64 = 0.1;
/// Events per transaction.
pub const EVENTS_PER_TXN: usize = 64;
/// The clock advances `0..=MAX_ADVANCE` instants before each event.
pub const MAX_ADVANCE: u64 = 3;
/// Spend amounts are drawn from `1..=MAX_SPEND`.
pub const MAX_SPEND: i64 = 2_000;
/// `TestThenSpend`: window and the smallest spend that counts.
pub const PROBE_WINDOW: u64 = 20;
pub const REAL_SPEND: i64 = 10;
/// `RapidFire`: window and spend count.
pub const RAPID_WINDOW: u64 = 60;
pub const RAPID_COUNT: usize = 3;
/// `LargeOutflow`: window and spend sum.
pub const OUTFLOW_WINDOW: u64 = 100;
pub const OUTFLOW_SUM: i64 = 5_000;
/// Sweep period in instants.
pub const SWEEP_EVERY: u64 = 400;
/// Transactions run before the clock starts.
const WARMUP_TXNS: usize = 200;
/// Transactions of the allocation-count pass.
const COUNT_TXNS: usize = 100;

/// One card event: the clock advances, then the card is probed or spent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CardEvent {
    pub advance: u64,
    pub card: usize,
    /// `None` for a probe, the amount for a spend.
    pub spend: Option<i64>,
}

/// The seed-determined endless event stream.
pub struct Events(StdRng);

impl Events {
    /// The stream for `seed`.
    pub fn new(seed: u64) -> Self {
        Events(StdRng::seed_from_u64(seed ^ 0xF4A0_D000))
    }

    /// The next event.
    pub fn next_event(&mut self) -> CardEvent {
        let r = &mut self.0;
        let advance = r.random_range(0..MAX_ADVANCE + 1);
        let card = if r.random_bool(0.5) {
            r.random_range(0..HOT_CARDS)
        } else {
            r.random_range(HOT_CARDS..CARDS)
        };
        let spend = if r.random_bool(PROBE_SHARE) {
            None
        } else {
            Some(r.random_range(1..MAX_SPEND + 1))
        };
        CardEvent {
            advance,
            card,
            spend,
        }
    }

    /// Fill `txn` with the next transaction's events.
    pub fn next_txn(&mut self, txn: &mut Vec<CardEvent>) {
        txn.clear();
        txn.extend((0..EVENTS_PER_TXN).map(|_| self.next_event()));
    }
}

/// One card's detector state in the reference.
#[derive(Debug, Clone, Default)]
struct CardState {
    probes: VecDeque<u64>,
    spends: VecDeque<u64>,
    rapid_latched: bool,
    outflow: VecDeque<(u64, i64)>,
    outflow_latched: bool,
}

/// Expected per-card outcome.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CardTotals {
    pub spent: i64,
    pub flags: i64,
    pub freezes: i64,
    pub flagged: bool,
}

/// A plain-Rust windowed count/sum over the event stream.
#[derive(Debug, Clone)]
pub struct Reference {
    pub now: u64,
    pub cards: Vec<CardTotals>,
    pub sweeps: i64,
    pub cleared: i64,
    next_sweep: u64,
    state: Vec<CardState>,
}

impl Default for Reference {
    fn default() -> Self {
        Reference {
            now: 0,
            cards: vec![CardTotals::default(); CARDS],
            sweeps: 0,
            cleared: 0,
            next_sweep: SWEEP_EVERY,
            state: vec![CardState::default(); CARDS],
        }
    }
}

impl Reference {
    fn flag(&mut self, card: usize) {
        self.cards[card].flags += 1;
        self.cards[card].flagged = true;
    }

    /// Apply one event: advance the clock (running due sweeps), then the
    /// probe or spend.
    pub fn apply(&mut self, e: &CardEvent) {
        self.now += e.advance;
        while self.next_sweep <= self.now {
            for c in &mut self.cards {
                if c.flagged {
                    c.flagged = false;
                    self.cleared += 1;
                }
            }
            self.sweeps += 1;
            self.next_sweep += SWEEP_EVERY;
        }
        let now = self.now;
        let st = &mut self.state[e.card];
        // The probe window covers (now - 20, now].
        while st.probes.front().is_some_and(|&t| t + PROBE_WINDOW <= now) {
            st.probes.pop_front();
        }
        let Some(amount) = e.spend else {
            st.probes.push_back(now);
            return;
        };
        self.cards[e.card].spent += amount;
        let mut flags = 0;
        let mut freeze = false;
        if st.probes.pop_front().is_some() && amount >= REAL_SPEND {
            flags += 1;
        }
        while st.spends.front().is_some_and(|&t| t + RAPID_WINDOW <= now) {
            st.spends.pop_front();
        }
        st.spends.push_back(now);
        if st.spends.len() >= RAPID_COUNT {
            freeze = !st.rapid_latched;
            st.rapid_latched = true;
        } else {
            st.rapid_latched = false;
        }
        while st
            .outflow
            .front()
            .is_some_and(|&(t, _)| t + OUTFLOW_WINDOW <= now)
        {
            st.outflow.pop_front();
        }
        st.outflow.push_back((now, amount));
        if st.outflow.iter().map(|&(_, a)| a).sum::<i64>() >= OUTFLOW_SUM {
            if !st.outflow_latched {
                flags += 1;
            }
            st.outflow_latched = true;
        } else {
            st.outflow_latched = false;
        }
        for _ in 0..flags {
            self.flag(e.card);
        }
        if freeze {
            self.cards[e.card].freezes += 1;
        }
    }
}

/// The database with its cards and ledger.
pub struct Bureau {
    pub db: Database,
    pub cards: Vec<Oid>,
    pub ledger: Oid,
}

fn card_of(f: &Firing) -> Result<Oid> {
    f.occurrence
        .last()
        .map(|c| c.oid)
        .ok_or_else(|| ObjectError::App("card rule fired without an event".into()))
}

fn bump(w: &mut dyn World, oid: Oid, attr: &str) -> Result<()> {
    let n = w.get_attr(oid, attr)?.as_int()?;
    w.set_attr(oid, attr, Value::Int(n + 1))
}

/// Build schema, objects, rules and subscriptions; optionally run (and
/// time) `analyze`. Returns the bureau and the analyze time in seconds.
pub fn build(analyze: bool) -> Result<(Bureau, f64)> {
    let mut db = Database::with_config(DbConfig::in_memory().time_mode(TimeMode::Virtual))?;
    db.define_class(
        ClassDecl::reactive("Card")
            .attr("spent", TypeTag::Int)
            .attr("flags", TypeTag::Int)
            .attr("freezes", TypeTag::Int)
            .attr("flagged", TypeTag::Bool)
            .event_method("Probe", &[], EventSpec::End)
            .event_method("Spend", &[("amount", TypeTag::Int)], EventSpec::End),
    )?;
    db.define_class(
        ClassDecl::new("Ledger")
            .attr("sweeps", TypeTag::Int)
            .attr("cleared", TypeTag::Int),
    )?;
    db.register_method("Card", "Probe", |_w, _this, _args| {
        trace::span(Layer::Body, || Ok(Value::Null))
    })?;
    db.register_method("Card", "Spend", |w, this, args| {
        trace::span(Layer::Body, || {
            let total = w.get_attr(this, "spent")?.as_int()?;
            w.set_attr(this, "spent", Value::Int(total + args[0].as_int()?))?;
            Ok(Value::Null)
        })
    })?;
    db.register_condition("real-spend", |_w, f| {
        trace::span(Layer::Condition, || {
            let amount = f
                .param_of("Spend", 0)
                .ok_or_else(|| ObjectError::App("spend without an amount".into()))?;
            Ok(amount.as_int()? >= REAL_SPEND)
        })
    });
    db.register(
        ActionDef::new("flag")
            .writes(("Card", "flags"))
            .writes(("Card", "flagged"))
            .body(|w, f| {
                trace::span(Layer::Action, || {
                    let card = card_of(f)?;
                    bump(w, card, "flags")?;
                    w.set_attr(card, "flagged", Value::Bool(true))
                })
            }),
    )?;
    db.register(
        ActionDef::new("freeze")
            .writes(("Card", "freezes"))
            .body(|w, f| trace::span(Layer::Action, || bump(w, card_of(f)?, "freezes"))),
    )?;
    let ledger = db.create("Ledger")?;
    db.register(
        ActionDef::new("sweep")
            .writes(("Card", "flagged"))
            .writes(("Ledger", "sweeps"))
            .writes(("Ledger", "cleared"))
            .body(move |w, _f| {
                trace::span(Layer::Action, || {
                    let mut cleared = 0;
                    for c in w.extent("Card")? {
                        if w.get_attr(c, "flagged")? == Value::Bool(true) {
                            w.set_attr(c, "flagged", Value::Bool(false))?;
                            cleared += 1;
                        }
                    }
                    let n = w.get_attr(ledger, "cleared")?.as_int()?;
                    w.set_attr(ledger, "cleared", Value::Int(n + cleared))?;
                    bump(w, ledger, "sweeps")
                })
            }),
    )?;

    let probe = event("end Card::Probe()")?;
    let spend = event("end Card::Spend(int amount)")?;
    let mut cards = Vec::with_capacity(CARDS);
    for i in 0..CARDS {
        let card = db.create("Card")?;
        let rules = [
            // Priority orders this before LargeOutflow: both write the
            // card's flags, and a fixed order keeps the pair confluent.
            RuleDef::on(
                probe
                    .clone()
                    .then(spend.clone())
                    .sliding_window(PROBE_WINDOW),
            )
            .named(format!("TestThenSpend{i}"))
            .when("real-spend")
            .then("flag")
            .context(ParamContext::Chronicle)
            .priority(1)
            .build(),
            RuleDef::new(
                format!("RapidFire{i}"),
                spend.clone().count_within(RAPID_WINDOW, RAPID_COUNT as i64),
                "freeze",
            ),
            RuleDef::new(
                format!("LargeOutflow{i}"),
                spend.clone().sum_within(OUTFLOW_WINDOW, 0, OUTFLOW_SUM),
                "flag",
            ),
        ];
        for rule in rules {
            let name = rule.name.clone();
            db.add_rule(rule)?;
            db.subscribe(card, &name)?;
        }
        cards.push(card);
    }
    db.add_rule(RuleDef::new(
        "Sweep",
        EventExpr::every(SWEEP_EVERY),
        "sweep",
    ))?;
    let mut analyze_s = 0.0;
    if analyze {
        let t = Instant::now();
        let report = db.analyze();
        analyze_s = t.elapsed().as_secs_f64();
        report.gate()?;
    }
    Ok((Bureau { db, cards, ledger }, analyze_s))
}

#[derive(Debug, Default, Clone, PartialEq)]
struct Drive {
    txns: u64,
    sends: u64,
    sweep_txns: u64,
    send_allocs: u64,
    txn_allocs: u64,
}

/// Run one transaction: `advance_time` then `send`, per event.
fn run_txn(
    b: &mut Bureau,
    txn: &[CardEvent],
    reference: &mut Reference,
    out: &mut Outcome,
    d: &mut Drive,
    mut send_hist: Option<&mut Hist>,
) {
    let a0 = alloc::count();
    let sweeps0 = reference.sweeps;
    trace::span(Layer::Begin, || b.db.begin()).expect("begin outside a transaction");
    for e in txn {
        trace::enter(Layer::Advance);
        if let Err(err) = b.db.advance_time(e.advance) {
            out.fail(format!("advance_time failed: {err}"));
        }
        let oid = b.cards[e.card];
        let s_alloc = alloc::count();
        let timer = send_hist.is_some().then(Instant::now);
        trace::switch(Layer::Advance, Layer::Send);
        let r = match e.spend {
            None => b.db.send(oid, "Probe", &[]),
            Some(a) => b.db.send(oid, "Spend", &[Value::Int(a)]),
        };
        trace::exit(Layer::Send);
        if let (Some(h), Some(timer)) = (send_hist.as_deref_mut(), timer) {
            h.record_since(timer);
        }
        d.send_allocs += alloc::count() - s_alloc;
        d.sends += 1;
        if let Err(err) = r {
            out.fail(format!("fraud send failed: {err}"));
        }
    }
    if let Err(err) = trace::span(Layer::Commit, || b.db.commit()) {
        out.fail(format!("fraud commit failed: {err}"));
    }
    d.txn_allocs += alloc::count() - a0;
    trace::span(Layer::Harness, || {
        txn.iter().for_each(|e| reference.apply(e))
    });
    d.txns += 1;
    if reference.sweeps > sweeps0 {
        d.sweep_txns += 1;
    }
}

fn final_check(b: &Bureau, reference: &Reference, out: &mut Outcome) {
    let get = |oid, attr| b.db.get_attr(oid, attr).ok();
    let mut bad = 0;
    let (mut flags, mut freezes) = (0, 0);
    for (i, &c) in b.cards.iter().enumerate() {
        let want = &reference.cards[i];
        let got = CardTotals {
            spent: get(c, "spent").and_then(|v| v.as_int().ok()).unwrap_or(-1),
            flags: get(c, "flags").and_then(|v| v.as_int().ok()).unwrap_or(-1),
            freezes: get(c, "freezes")
                .and_then(|v| v.as_int().ok())
                .unwrap_or(-1),
            flagged: get(c, "flagged") == Some(Value::Bool(true)),
        };
        if &got != want {
            bad += 1;
            if bad <= 3 {
                out.line(format!("card {i}: got {got:?}, reference {want:?}"));
            }
        }
        flags += want.flags;
        freezes += want.freezes;
    }
    out.check(bad == 0, || {
        format!("{bad} cards differ from the reference")
    });
    out.check(
        get(b.ledger, "sweeps") == Some(Value::Int(reference.sweeps))
            && get(b.ledger, "cleared") == Some(Value::Int(reference.cleared)),
        || "sweep ledger differs from the reference".into(),
    );
    out.check(b.db.now_instant() == reference.now, || {
        format!(
            "clock at {}, reference {}",
            b.db.now_instant(),
            reference.now
        )
    });
    out.line(format!(
        "reference: t={} flags {flags}, freezes {freezes}, sweeps {}",
        reference.now, reference.sweeps
    ));
}

fn count_pass(seed: u64, out: &mut Outcome) -> Result<(Drive, u64, i64)> {
    let (mut b, _) = build(false)?;
    let mut events = Events::new(seed);
    let mut reference = Reference::default();
    let mut d = Drive::default();
    let mut txn = Vec::new();
    for _ in 0..COUNT_TXNS {
        events.next_txn(&mut txn);
        run_txn(&mut b, &txn, &mut reference, out, &mut d, None);
    }
    let notifications = b.db.engine_stats().notifications;
    let sweeps = b.db.get_attr(b.ledger, "sweeps")?.as_int()?;
    Ok((d, notifications, sweeps))
}

/// Run the workload.
pub fn run(cfg: &Run, out: &mut Outcome) -> Result<()> {
    let mut b = crate::timed_setups(out, |_| build(true))?;
    out.line(format!(
        "fraud: {CARDS} cards, {} rules, virtual time, Serial execution",
        b.db.rule_count()
    ));

    let mut events = Events::new(cfg.seed);
    let mut reference = Reference::default();
    let mut txn = Vec::new();
    let mut warm = Drive::default();
    for _ in 0..WARMUP_TXNS {
        events.next_txn(&mut txn);
        run_txn(&mut b, &txn, &mut reference, out, &mut warm, None);
    }

    let phases: &[bool] = if cfg.trace { &[false, true] } else { &[false] };
    let phase_secs = cfg.seconds / phases.len() as f64;
    let mut rates = Vec::new();
    for &traced in phases {
        let mut d = Drive::default();
        let db0 = b.db.stats();
        let e0 = b.db.engine_stats();
        trace::reset();
        trace::set_enabled(traced);
        let mut state = (
            &mut events,
            &mut txn,
            &mut b,
            &mut reference,
            &mut *out,
            &mut d,
        );
        let (windows, wall) = crate::closed_loop(
            &mut state,
            phase_secs,
            traced,
            |(events, txn, ..)| events.next_txn(txn),
            |(_, txn, b, reference, out, d), send| run_txn(b, txn, reference, out, d, send),
        );
        trace::set_enabled(false);
        let rate = d.txns as f64 / wall.as_secs_f64();
        rates.push(rate);
        out.attempted += d.txns;
        let sweep_share = d.sweep_txns as f64 / d.txns.max(1) as f64;
        let label = if traced { "traced" } else { "untraced" };
        out.line(format!(
            "{label}: {} txns in {:.2} s, {} sends; txns with a sweep {:.1} %",
            d.txns,
            wall.as_secs_f64(),
            d.sends,
            sweep_share * 100.0
        ));
        if !traced {
            let [txn_p50, txn_p99, send_p50, send_p99] = windows.latencies();
            out.set("txn_per_s", windows.rate());
            out.set("txn_p50_us", txn_p50);
            out.set("txn_p99_us", txn_p99);
            out.set("send_p50_us", send_p50);
            out.set("send_p99_us", send_p99);
            out.line(windows.describe());
            out.set("mix.share", sweep_share);
            continue;
        }
        let db1 = b.db.stats();
        let e1 = b.db.engine_stats();
        let sends = d.sends.max(1) as f64;
        let notifications = (e1.notifications - e0.notifications) as f64;
        let firings = (e1.immediate - e0.immediate)
            + (e1.deferred - e0.deferred)
            + (e1.detached - e0.detached);
        out.set("db.send_self_us", trace::mean_self_us(Layer::Send));
        out.set("db.commit_us", trace::mean_self_us(Layer::Commit));
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
        out.set("events.advance_us", trace::mean_self_us(Layer::Advance));
        crate::reconcile(out, wall);
        out.set("trace.overhead", rate / rates[0]);
    }
    final_check(&b, &reference, out);

    if cfg.trace {
        let (a, na, sa) = count_pass(cfg.seed, out)?;
        let (c, nc, sc) = count_pass(cfg.seed, out)?;
        out.check(a == c && na == nc && sa == sc, || {
            format!("counts differ between passes: {a:?}/{na}/{sa} vs {c:?}/{nc}/{sc}")
        });
        out.set("db.allocs_per_send", a.send_allocs as f64 / a.sends as f64);
        out.set("db.allocs_per_txn", a.txn_allocs as f64 / a.txns as f64);
        out.set("rules.notifications_per_send", na as f64 / a.sends as f64);
        out.set("events.timer_fires", sa as f64);
    }
    out.set("peak_rss_mb", peak_rss_mb());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_stream_is_deterministic_per_seed() {
        let take = |seed| {
            let mut e = Events::new(seed);
            (0..500).map(|_| e.next_event()).collect::<Vec<_>>()
        };
        assert_eq!(take(11), take(11));
        assert_ne!(take(11), take(12));
        let evs = take(11);
        let hot = evs.iter().filter(|e| e.card < HOT_CARDS).count();
        assert!(
            (200..300).contains(&hot),
            "half the events hit hot cards: {hot}"
        );
    }

    fn spend(advance: u64, card: usize, amount: i64) -> CardEvent {
        CardEvent {
            advance,
            card,
            spend: Some(amount),
        }
    }

    fn probe(advance: u64, card: usize) -> CardEvent {
        CardEvent {
            advance,
            card,
            spend: None,
        }
    }

    fn hand_built() -> Vec<CardEvent> {
        vec![
            // Card 0: probe, then a real spend 20 instants later — the
            // probe has just left the window, no flag.
            probe(1, 0),
            spend(20, 0, 50),
            // Probe then real spend 19 instants later: flag.
            probe(1, 0),
            spend(19, 0, 50),
            // Probe then a tiny spend: consumed, condition false.
            probe(1, 0),
            spend(1, 0, 5),
            // Card 1: three spends inside 60 instants freeze once; the
            // fourth stays latched; after the window empties, three more
            // freeze again.
            spend(1, 1, 1),
            spend(10, 1, 1),
            spend(10, 1, 1),
            spend(10, 1, 1),
            spend(100, 1, 1),
            spend(1, 1, 1),
            spend(1, 1, 1),
            // Card 2: 3000 + 2500 inside 100 instants: one flag; a third
            // spend at the same instant keeps the sum above 5000
            // (latched, no new flag).
            spend(1, 2, 3000),
            spend(99, 2, 2500),
            spend(0, 2, 100),
            // Past instant 400: the sweep clears every soft flag.
            probe(200, 3),
        ]
    }

    #[test]
    fn reference_gives_known_answers() {
        let mut r = Reference::default();
        for e in hand_built() {
            r.apply(&e);
        }
        assert_eq!(r.cards[0].flags, 1);
        assert_eq!(r.cards[0].spent, 105);
        assert_eq!(r.cards[1].freezes, 2);
        assert_eq!(r.cards[1].flags, 0);
        assert_eq!(r.cards[2].flags, 1);
        assert_eq!(r.sweeps, 1, "now = {}", r.now);
        assert_eq!(r.cleared, 2, "cards 0 and 2 were flagged");
        assert!(r.cards.iter().all(|c| !c.flagged));
    }

    #[test]
    fn database_agrees_with_reference_on_a_hand_built_stream() {
        let _g = crate::trace::test_lock();
        let (mut b, _) = build(false).unwrap();
        let mut reference = Reference::default();
        let mut out = Outcome::default();
        let mut d = Drive::default();
        let events = hand_built();
        for txn in events.chunks(5) {
            run_txn(&mut b, txn, &mut reference, &mut out, &mut d, None);
        }
        final_check(&b, &reference, &mut out);
        assert_eq!(out.failed, 0, "{:?}", out.lines);
    }
}
