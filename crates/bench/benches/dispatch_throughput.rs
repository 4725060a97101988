//! Routing-index dispatch throughput: occurrences/sec on a many-rules
//! hot object with symbol-keyed routing vs. ADAM-style centralized
//! dispatch of the same rule set.
//!
//! The scenario is the routing index's target case: 400 rules watching
//! one hot object, each for a single one of its 40 event methods. With
//! routing, an occurrence notifies only the 10 rules whose alphabet
//! contains its symbol. The ADAM baseline (`sentinel-baselines`)
//! attaches the same 400 rules to the class and scans all of them twice
//! per send (before and after the method body), evaluating the 10 whose
//! event matches.
//!
//! A custom harness (not Criterion) so the run can assert the
//! notification counts, compute the speedup, and record the result in
//! `BENCH_dispatch.json` at the repository root. `--quick` is the CI
//! smoke mode: a short run with the same functional assertions that
//! leaves the committed JSON untouched.

use sentinel_baselines::ActiveEngine;
use sentinel_bench::scenarios::{adam_routing_scenario, routing_scenario};
use sentinel_db::prelude::*;
use sentinel_db::Database;
use serde::Serialize;
use std::hint::black_box;
use std::time::Instant;

const RULES: usize = 400;
const METHODS: usize = 40;

#[derive(Serialize)]
struct Scenario {
    rules: usize,
    methods: usize,
    hot_objects: usize,
    sends_per_sample: usize,
    samples_per_config: usize,
}

/// Rule work per send in each engine.
#[derive(Serialize)]
struct Checks {
    /// Rules ADAM scans per send (its whole class table, before and
    /// after the body).
    adam_rule_checks: usize,
    /// Rules the routing index notifies per send.
    routed_notifications: usize,
}

#[derive(Serialize)]
struct Report {
    bench: &'static str,
    scenario: Scenario,
    checks_per_send: Checks,
    adam_occ_per_sec: f64,
    routed_occ_per_sec: f64,
    speedup_vs_adam: f64,
}

/// Round-robin `sends` method invocations on the hot object through
/// `send`; returns elapsed seconds.
fn drive(mut send: impl FnMut(&str), names: &[String], sends: usize) -> f64 {
    let t0 = Instant::now();
    for i in 0..sends {
        send(&names[i % names.len()]);
    }
    t0.elapsed().as_secs_f64()
}

/// Median occurrences/sec over `reps` samples of `sends` each.
fn measure(mut send: impl FnMut(&str), names: &[String], sends: usize, reps: usize) -> f64 {
    drive(&mut send, names, names.len() * 4); // warm up (index build, caches)
    let mut samples: Vec<f64> = (0..reps).map(|_| drive(&mut send, names, sends)).collect();
    samples.sort_by(f64::total_cmp);
    sends as f64 / samples[samples.len() / 2]
}

/// One round of every method on the hot object.
fn round(db: &mut Database, obj: Oid, names: &[String]) {
    for n in names {
        db.send(obj, n, &[]).unwrap();
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (sends, reps) = if quick { (4_000, 1) } else { (40_000, 5) };

    let (mut db, obj, names) = routing_scenario(RULES, METHODS);
    let (mut adam, adam_obj, adam_names) = adam_routing_scenario(RULES, METHODS);

    // Functional check before timing anything: with routing, one full
    // round of the methods notifies each rule exactly once (only the
    // alphabet-matching watchers hear each occurrence); ADAM scans all
    // RULES rules before and after every body and evaluates each rule's
    // condition once per round.
    round(&mut db, obj, &names);
    db.reset_stats();
    round(&mut db, obj, &names);
    assert_eq!(db.engine_stats().notifications, RULES as u64);
    for n in &adam_names {
        adam.send(adam_obj, n, &[]).unwrap();
    }
    let c = adam.counters();
    assert_eq!(c.rule_checks, (2 * RULES * METHODS) as u64);
    assert_eq!(c.condition_evals, RULES as u64);

    let baseline = measure(
        |m| {
            black_box(adam.send(adam_obj, m, &[]).unwrap());
        },
        &adam_names,
        sends,
        reps,
    );
    let routed = measure(
        |m| {
            black_box(db.send(obj, m, &[]).unwrap());
        },
        &names,
        sends,
        reps,
    );
    let speedup = routed / baseline;

    println!("dispatch_throughput ({RULES} rules, {METHODS} methods, 1 hot object)");
    println!("  ADAM (class table scan): {baseline:>12.0} occ/s");
    println!("  routed (symbol index):   {routed:>12.0} occ/s");
    println!("  speedup:                 {speedup:>12.2}x");

    if quick {
        println!("  (--quick: smoke run, BENCH_dispatch.json not rewritten)");
        return;
    }
    let report = Report {
        bench: "dispatch_throughput",
        scenario: Scenario {
            rules: RULES,
            methods: METHODS,
            hot_objects: 1,
            sends_per_sample: sends,
            samples_per_config: reps,
        },
        checks_per_send: Checks {
            adam_rule_checks: 2 * RULES,
            routed_notifications: RULES / METHODS,
        },
        adam_occ_per_sec: baseline,
        routed_occ_per_sec: routed,
        speedup_vs_adam: speedup,
    };
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_dispatch.json");
    std::fs::write(path, serde_json::to_string_pretty(&report).unwrap() + "\n").unwrap();
    println!("  wrote {path}");
}
