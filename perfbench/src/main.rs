//! End-to-end benchmark of Sentinel.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload portfolio|fraud|bank --seed N --seconds S --trace 0|1
//! ```
//!
//! Each workload drives the whole stack through Sentinel's public API
//! for `--seconds` seconds, checks every outcome against a plain-Rust
//! reference, and prints a table followed by one JSON result line. With
//! `--trace 0` the result holds the end-to-end metrics; with `--trace 1`
//! the run measures half its time untraced and half traced, and the
//! result holds the per-layer metrics. See the package's `README.md`.

mod alloc;
mod bank;
mod fraud;
mod portfolio;
mod report;
mod stats;
mod trace;

use report::{Outcome, END_TO_END, PER_LAYER};
use stats::{Hist, Window, Windows, WINDOW};
use std::time::{Duration, Instant};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Largest share of the driving thread's wall time that may fall outside
/// its spans before the traced run fails reconciliation.
pub const RECONCILE_TOLERANCE: f64 = 0.05;

/// One invocation's settings.
#[derive(Debug, Clone, PartialEq)]
pub struct Run {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse(args: &[String]) -> Result<Run, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| bad(&e))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(bad(&"must be in (0, 3600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !["portfolio", "fraud", "bank"].contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (portfolio, fraud, bank)"
        ));
    }
    Ok(Run {
        workload,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// Set-ups timed per run; `setup_s` is their median.
pub const SETUPS: usize = 7;

/// Build `SETUPS` times, dropping each build before the next, and record
/// the median set-up time and the median `analyze` time (the second value
/// `build` returns, in seconds). Returns the last build.
pub fn timed_setups<T>(
    out: &mut Outcome,
    mut build: impl FnMut(usize) -> sentinel_db::prelude::Result<(T, f64)>,
) -> sentinel_db::prelude::Result<T> {
    let mut last = None;
    let mut setups = Vec::with_capacity(SETUPS);
    let mut analyzes = Vec::with_capacity(SETUPS);
    for k in 0..SETUPS {
        drop(last.take());
        let t = Instant::now();
        let (built, analyze_s) = build(k)?;
        setups.push(t.elapsed().as_secs_f64());
        analyzes.push(analyze_s);
        last = Some(built);
    }
    out.set("setup_s", stats::median(&setups));
    out.set("analyze.ms", stats::median(&analyzes) * 1e3);
    Ok(last.expect("SETUPS is positive"))
}

/// Drive a closed loop of transactions for `secs` seconds: `next` draws
/// the next transaction's input inside a harness span, `txn` runs it.
/// Untraced, each transaction is timed into `WINDOW`s and `txn` gets the
/// window's send histogram; traced, nothing is timed, since the spans
/// would count the timing as unattributed time. Returns the windows and
/// the wall time.
pub fn closed_loop<S>(
    state: &mut S,
    secs: f64,
    traced: bool,
    mut next: impl FnMut(&mut S),
    mut txn: impl FnMut(&mut S, Option<&mut Hist>),
) -> (Windows, Duration) {
    let mut window = Window::default();
    let mut windows = Windows::default();
    let start = Instant::now();
    let mut window_start = start;
    while start.elapsed().as_secs_f64() < secs {
        trace::span(trace::Layer::Harness, || next(state));
        if traced {
            txn(state, None);
            continue;
        }
        let t = Instant::now();
        txn(state, Some(&mut window.send));
        window.txn.record_since(t);
        window.txns += 1;
        let open = window_start.elapsed();
        if open >= WINDOW {
            windows.close(&mut window, open);
            window_start = Instant::now();
        }
    }
    (windows, start.elapsed())
}

/// Reconcile the calling thread's spans with its wall time `wall`:
/// record the unattributed share and print the self-time table.
pub fn reconcile(out: &mut Outcome, wall: Duration) {
    let wall_ns = wall.as_nanos() as f64;
    let covered = trace::top_level_ns() as f64;
    let unattributed = ((wall_ns - covered) / wall_ns).abs();
    out.set("trace.unattributed", unattributed);
    out.line(format!(
        "{:<24} {:>10} {:>12} {:>8}",
        "layer (self time)", "spans", "total ms", "share"
    ));
    for layer in trace::LAYERS {
        let (n, ns) = trace::totals(layer);
        if n > 0 {
            out.line(format!(
                "{:<24} {:>10} {:>12.1} {:>7.1}%",
                layer.name(),
                n,
                ns as f64 / 1e6,
                100.0 * ns as f64 / wall_ns
            ));
        }
    }
    out.line(format!(
        "{:<24} {:>10} {:>12.1} {:>7.1}%  (tolerance {:.0} %)",
        "unattributed",
        "",
        (wall_ns - covered) / 1e6,
        100.0 * unattributed,
        RECONCILE_TOLERANCE * 100.0
    ));
    out.check(unattributed <= RECONCILE_TOLERANCE, || {
        format!(
            "spans cover {:.1} % of the driving thread's wall time",
            100.0 * covered / wall_ns
        )
    });
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let mut out = Outcome::default();
    let result = match cfg.workload.as_str() {
        "portfolio" => portfolio::run(&cfg, &mut out),
        "fraud" => fraud::run(&cfg, &mut out),
        _ => bank::run(&cfg, &mut out),
    };
    if let Err(e) = result {
        for l in &out.lines {
            eprintln!("{l}");
        }
        eprintln!("perfbench: {} failed: {e}", cfg.workload);
        std::process::exit(1);
    }
    let catalog = if cfg.trace { PER_LAYER } else { END_TO_END };
    println!(
        "== {} seed {} for {} s, trace {}",
        cfg.workload, cfg.seed, cfg.seconds, cfg.trace as u8
    );
    for l in &out.lines {
        println!("{l}");
    }
    for (name, unit) in catalog {
        let v = out.values.get(name).copied().unwrap_or(0.0);
        println!("{name:<34} {v:>14.4} {unit}");
    }
    println!(
        "{:<34} {:>14.6} (failed {} of {} attempted)",
        "error_rate",
        out.failed as f64 / out.attempted.max(1) as f64,
        out.failed,
        out.attempted
    );
    println!("{}", out.result_json(catalog));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let r = parse(&args("--workload bank --seed 7 --seconds 10 --trace 1")).unwrap();
        assert_eq!(
            r,
            Run {
                workload: "bank".into(),
                seed: 7,
                seconds: 10.0,
                trace: true
            }
        );
        assert!(parse(&args("--workload nope")).is_err());
        assert!(parse(&args("--workload bank --trace 2")).is_err());
        assert!(parse(&args("--workload bank --seconds")).is_err());
        assert!(parse(&args("--seed 1")).is_err());
    }
}
