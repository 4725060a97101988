//! Aborts leave detection state exactly as the last commit left it.
//!
//! Every detector mutation inside a transaction — an occurrence
//! delivered, a timer fired, the reset of a rule disabled in it — is
//! journaled on the rule's detector and undone on abort. There is no
//! second, clock-based sweep to fall back on, so these tests are the
//! proof that the journal alone is complete:
//!
//! * a regression test for disabling a rule inside a transaction that
//!   then aborts (the rule's committed partial detection must survive);
//! * a regression test for the same abort when a subclass was defined
//!   in the transaction (restoring detection state must not restore the
//!   rule's pre-transaction event alphabet);
//! * a database-level property test: random sends, `disable_rule` /
//!   `enable_rule`, `add_rule` and `advance_time` inside transactions
//!   that randomly commit or abort must leave per-rule buffered counts
//!   and firing counts — and which occurrences the firings were made
//!   of — equal to a replay of only the committed transactions on a
//!   fresh database.

use sentinel::prelude::*;

/// `A(k)` and `B(k)`: the argument tags each send, so a firing's
/// constituents can be told apart from other occurrences of the same
/// method.
fn src_class() -> ClassDecl {
    ClassDecl::reactive("Src")
        .event_method("A", &[("k", TypeTag::Int)], EventSpec::End)
        .event_method("B", &[("k", TypeTag::Int)], EventSpec::End)
}

fn prim(m: &str) -> EventExpr {
    EventExpr::primitive(PrimitiveEventSpec::end("Src", m))
}

fn noop_body(db: &mut Database, method: &str) {
    db.register_method("Src", method, |_, _, _| Ok(Value::Null))
        .unwrap();
}

#[test]
fn disabling_inside_an_aborted_transaction_keeps_committed_partial_detection() {
    let mut db = Database::new();
    db.define_class(src_class()).unwrap();
    noop_body(&mut db, "A");
    noop_body(&mut db, "B");
    let src = db.create("Src").unwrap();
    db.add_rule(RuleDef::new(
        "AthenB",
        prim("A").then(prim("B")),
        ACTION_NOOP,
    ))
    .unwrap();
    db.subscribe(src, "AthenB").unwrap();

    // 1. A committed `A` is the sequence's partial detection.
    db.send(src, "A", &[Value::Int(1)]).unwrap();
    assert_eq!(db.rule_detector_buffered("AthenB").unwrap(), 1);

    // 2. Disabling discards it — inside a transaction that aborts.
    db.begin().unwrap();
    db.disable_rule("AthenB").unwrap();
    assert_eq!(db.rule_detector_buffered("AthenB").unwrap(), 0);
    db.abort().unwrap();

    // 3. The abort re-enables the rule with its committed state.
    assert!(db.rule_enabled("AthenB").unwrap());
    assert_eq!(db.rule_detector_buffered("AthenB").unwrap(), 1);

    // 4. ...so a following `B` completes the sequence.
    let before = db.rule_stats("AthenB").unwrap().actions_run;
    db.send(src, "B", &[Value::Int(2)]).unwrap();
    assert_eq!(db.rule_stats("AthenB").unwrap().actions_run, before + 1);
}

#[test]
fn aborted_reset_keeps_alphabets_of_classes_defined_in_the_transaction() {
    // Class definitions are not transactional, but a rule's detection
    // state is. Disabling a rule inside a transaction journals its
    // pre-reset state; aborting restores that state and nothing else, so
    // a subclass defined in the aborted transaction still reaches the
    // rule afterwards.
    let mut db = Database::new();
    db.define_class(src_class()).unwrap();
    noop_body(&mut db, "A");
    let src = db.create("Src").unwrap();
    db.add_rule(RuleDef::new("R", prim("A"), ACTION_NOOP))
        .unwrap();
    db.subscribe(src, "R").unwrap();

    db.begin().unwrap();
    db.disable_rule("R").unwrap();
    db.define_class(ClassDecl::reactive("Late").parent("Src"))
        .unwrap();
    db.enable_rule("R").unwrap();
    db.send(src, "A", &[Value::Int(1)]).unwrap();
    db.abort().unwrap();

    let late = db.create("Late").unwrap();
    db.subscribe(late, "R").unwrap();
    let before = db.rule_stats("R").unwrap().actions_run;
    db.send(late, "A", &[Value::Int(2)]).unwrap();
    assert_eq!(db.rule_stats("R").unwrap().actions_run, before + 1);
}

/// Period of the timer rule; aborted transactions never cross one of
/// its boundaries (see [`Op::Advance`]).
const PERIOD: u64 = 10;
/// Rules that exist from the start; the toggle ops pick among them.
const BASE_RULES: [&str; 5] = ["rec", "chr", "unr", "cnt", "tick"];
/// Upper bound on rules created by `AddRule` ops.
const MAX_LATE: usize = 6;

#[derive(Debug, Clone, Copy)]
enum Op {
    /// Send `A(k)` / `B(k)`; `k` is unique within the workload.
    SendA(i64),
    SendB(i64),
    Disable(usize),
    Enable(usize),
    AddRule,
    /// Advance virtual time. Time is not transactional: a timer that
    /// came due inside an aborted transaction fired there and died with
    /// it, which no replay of committed transactions can reproduce. So
    /// the generator clamps aborted transactions' advances short of the
    /// next period boundary; the replay applies them outside any
    /// transaction, keeping both clocks in step.
    Advance(u64),
}

#[derive(Debug, Clone)]
struct Txn {
    ops: Vec<Op>,
    commit: bool,
}

/// A small deterministic generator (xorshift64*), so a failing seed
/// reproduces exactly.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

fn workload(seed: u64, txns: usize) -> Vec<Txn> {
    let mut g = Gen(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
    let mut now = 0u64;
    let mut late = 0usize;
    let mut k = 0i64;
    (0..txns)
        .map(|_| {
            let commit = g.below(5) < 3;
            let n = 1 + g.below(6) as usize;
            let mut adds = 0;
            let ops = (0..n)
                .map(|_| match g.below(10) {
                    0..=2 => {
                        k += 1;
                        Op::SendA(k)
                    }
                    3..=5 => {
                        k += 1;
                        Op::SendB(k)
                    }
                    6 => Op::Disable(g.below(BASE_RULES.len() as u64) as usize),
                    7 => Op::Enable(g.below(BASE_RULES.len() as u64) as usize),
                    8 if late + adds < MAX_LATE => {
                        adds += 1;
                        Op::AddRule
                    }
                    _ => {
                        let mut d = 1 + g.below(2 * PERIOD);
                        if !commit {
                            d = d.min(PERIOD - 1 - now % PERIOD);
                        }
                        now += d;
                        Op::Advance(d)
                    }
                })
                .collect();
            if commit {
                late += adds;
            }
            Txn { ops, commit }
        })
        .collect()
}

/// Every rule name a run can create: the base rules, then the late ones.
fn rule_names() -> impl Iterator<Item = String> {
    BASE_RULES
        .iter()
        .map(|r| r.to_string())
        .chain((0..MAX_LATE).map(|k| format!("late{k}")))
}

/// A database with the base rule set, one tally object per (base or
/// late) rule in [`rule_names`] order, and a `bump_<rule>` action per
/// tally that counts the firing and adds its constituents' tags to a
/// checksum. Returns the event source and the tallies.
fn fresh() -> (Database, Oid, Vec<Oid>) {
    let mut db = Database::with_config(DbConfig::in_memory().time_mode(TimeMode::Virtual)).unwrap();
    db.define_class(src_class()).unwrap();
    db.define_class(
        ClassDecl::new("Tally")
            .attr("n", TypeTag::Int)
            .attr("tags", TypeTag::Int),
    )
    .unwrap();
    noop_body(&mut db, "A");
    noop_body(&mut db, "B");
    let src = db.create("Src").unwrap();
    let mut tallies = Vec::new();
    for name in rule_names() {
        let tally = db.create("Tally").unwrap();
        tallies.push(tally);
        db.register_action(&format!("bump_{name}"), move |w, f| {
            let n = w.get_attr(tally, "n")?.as_int()?;
            w.set_attr(tally, "n", Value::Int(n + 1))?;
            let tags: i64 = f
                .occurrence
                .constituents
                .iter()
                .filter_map(|c| c.param(0)?.as_int().ok())
                .sum();
            let sum = w.get_attr(tally, "tags")?.as_int()?;
            w.set_attr(tally, "tags", Value::Int(sum + tags))
        });
    }
    let base = [
        ("rec", prim("A").and(prim("B")), ParamContext::Recent),
        ("chr", prim("A").then(prim("B")), ParamContext::Chronicle),
        ("unr", prim("A").and(prim("B")), ParamContext::Unrestricted),
        ("cnt", prim("A").count_within(15, 3), ParamContext::Recent),
        // A sequence closed by a periodic timer: ticks consume `B`s.
        (
            "tick",
            prim("B").then(EventExpr::every(PERIOD)),
            ParamContext::Chronicle,
        ),
    ];
    for (name, expr, ctx) in base {
        add_rule(&mut db, src, name, expr, ctx);
    }
    (db, src, tallies)
}

fn add_rule(db: &mut Database, src: Oid, name: &str, expr: EventExpr, ctx: ParamContext) {
    db.add_rule(RuleDef::new(name, expr, format!("bump_{name}")).consume(ctx))
        .unwrap();
    db.subscribe(src, name).unwrap();
}

/// Apply one op inside the open transaction. `late` counts `AddRule`
/// ops seen so far in this run, naming the next late rule.
fn apply(db: &mut Database, src: Oid, op: Op, late: &mut usize) {
    match op {
        Op::SendA(k) => {
            db.send(src, "A", &[Value::Int(k)]).unwrap();
        }
        Op::SendB(k) => {
            db.send(src, "B", &[Value::Int(k)]).unwrap();
        }
        Op::Disable(i) => db.disable_rule(BASE_RULES[i]).unwrap(),
        Op::Enable(i) => db.enable_rule(BASE_RULES[i]).unwrap(),
        Op::AddRule => {
            let (expr, ctx) = if late.is_multiple_of(2) {
                (prim("A").and(prim("B")), ParamContext::Recent)
            } else {
                (prim("A").then(prim("B")), ParamContext::Chronicle)
            };
            add_rule(db, src, &format!("late{late}"), expr, ctx);
            *late += 1;
        }
        Op::Advance(d) => {
            db.advance_time(d).unwrap();
        }
    }
}

/// Per existing rule: (name, enabled, buffered occurrences, committed
/// firings, checksum of the committed firings' constituent tags).
type Observed = (String, bool, usize, i64, i64);

fn observe(db: &Database, tallies: &[Oid]) -> Vec<Observed> {
    let int = |oid: Oid, attr: &str| db.get_attr(oid, attr).unwrap().as_int().unwrap();
    rule_names()
        .enumerate()
        .filter_map(|(i, name)| {
            let enabled = db.rule_enabled(&name).ok()?;
            let buffered = db.rule_detector_buffered(&name).unwrap();
            Some((
                name,
                enabled,
                buffered,
                int(tallies[i], "n"),
                int(tallies[i], "tags"),
            ))
        })
        .collect()
}

#[test]
fn aborts_match_a_replay_of_only_the_committed_transactions() {
    for seed in 1..=48u64 {
        let txns = workload(seed, 40);

        // Every transaction, aborting the ones marked so.
        let (mut db, src, tallies) = fresh();
        let mut late = 0;
        for t in &txns {
            let late_before = late;
            db.begin().unwrap();
            for &op in &t.ops {
                apply(&mut db, src, op, &mut late);
            }
            if t.commit {
                db.commit().unwrap();
            } else {
                db.abort().unwrap();
                late = late_before;
            }
        }

        // Only the committed transactions; aborted ones contribute just
        // their (boundary-free) clock advances.
        let (mut oracle, osrc, otallies) = fresh();
        let mut olate = 0;
        for t in &txns {
            if t.commit {
                oracle.begin().unwrap();
                for &op in &t.ops {
                    apply(&mut oracle, osrc, op, &mut olate);
                }
                oracle.commit().unwrap();
            } else {
                for op in &t.ops {
                    if let Op::Advance(d) = op {
                        oracle.advance_time(*d).unwrap();
                    }
                }
            }
        }

        assert_eq!(db.now_instant(), oracle.now_instant(), "seed {seed}");
        assert_eq!(
            observe(&db, &tallies),
            observe(&oracle, &otallies),
            "seed {seed}"
        );
    }
}
