//! Spans around the benchmark's own calls into Sentinel and around the
//! closures it registers with the engine.
//!
//! A span is opened with [`enter`] and closed with [`exit`] on the same
//! thread; spans nest through a per-thread stack. A span's *self* time
//! is its duration minus the time of the spans nested inside it, so the
//! self times of one thread add up to the time its top-level spans
//! cover. Totals are kept per layer, summed over all threads; each
//! thread also keeps the total of its own top-level spans so the driving
//! thread can reconcile them against its wall time.
//!
//! Tracing is off unless [`set_enabled`] turned it on; an off span is a
//! single relaxed load.

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::time::Instant;

/// The layers a span is attributed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `Database::send`, minus the closures it runs.
    Send,
    /// A registered method body.
    Body,
    /// A registered rule condition.
    Condition,
    /// A registered rule action.
    Action,
    /// `Database::begin`.
    Begin,
    /// `Database::commit` (or the commit inside `Sentinel::transaction`),
    /// minus the deferred actions it runs.
    Commit,
    /// From a rule's decision to abort to the failing call's return.
    Abort,
    /// `Database::advance_time`: timer drain and window watermarks.
    Advance,
    /// From a `Sentinel::transaction` call to entry into its closure.
    LockWait,
    /// `Database::checkpoint` (with the drain before it).
    Checkpoint,
    /// The benchmark's own work: input generation and reference model.
    Harness,
}

/// Every layer, in report order.
pub const LAYERS: [Layer; 11] = [
    Layer::Send,
    Layer::Body,
    Layer::Condition,
    Layer::Action,
    Layer::Begin,
    Layer::Commit,
    Layer::Abort,
    Layer::Advance,
    Layer::LockWait,
    Layer::Checkpoint,
    Layer::Harness,
];

impl Layer {
    /// Short name for the reconciliation table.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Send => "db.send (self)",
            Layer::Body => "method bodies",
            Layer::Condition => "rules.condition",
            Layer::Action => "rules.action",
            Layer::Begin => "db.begin",
            Layer::Commit => "db.commit (self)",
            Layer::Abort => "db.undo abort",
            Layer::Advance => "events.advance (self)",
            Layer::LockWait => "session.lock_wait",
            Layer::Checkpoint => "storage.checkpoint",
            Layer::Harness => "harness",
        }
    }
}

struct Totals {
    count: AtomicU64,
    self_ns: AtomicU64,
}

#[allow(clippy::declare_interior_mutable_const)]
const ZERO: Totals = Totals {
    count: AtomicU64::new(0),
    self_ns: AtomicU64::new(0),
};

static ENABLED: AtomicBool = AtomicBool::new(false);
static TOTALS: [Totals; LAYERS.len()] = [ZERO; LAYERS.len()];

struct Frame {
    layer: Layer,
    start: Instant,
    child_ns: u64,
}

thread_local! {
    static STACK: RefCell<Vec<Frame>> = RefCell::new(Vec::with_capacity(16));
    static TOP_NS: Cell<u64> = const { Cell::new(0) };
}

/// Turn span recording on or off for every thread.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Relaxed);
}

/// Is span recording on?
pub fn enabled() -> bool {
    ENABLED.load(Relaxed)
}

/// Open a span of `layer` on this thread.
pub fn enter(layer: Layer) {
    if !enabled() {
        return;
    }
    STACK.with(|s| {
        s.borrow_mut().push(Frame {
            layer,
            start: Instant::now(),
            child_ns: 0,
        })
    });
}

/// Close this thread's innermost span if it is of `layer`. A span that
/// straddles a [`set_enabled`] toggle has no matching frame and is
/// dropped, so an exit that finds another layer on top does nothing.
pub fn exit(layer: Layer) {
    if !enabled() {
        return;
    }
    STACK.with(|s| {
        let mut s = s.borrow_mut();
        let now = Instant::now();
        if s.last().is_some_and(|f| f.layer == layer) {
            let f = s.pop().expect("checked non-empty");
            close(&mut s, f, now);
        }
    });
}

/// Close this thread's innermost span of `from` (as [`exit`] does) and
/// open one of `to` at the same instant, so no time falls between them.
pub fn switch(from: Layer, to: Layer) {
    if !enabled() {
        return;
    }
    STACK.with(|s| {
        let mut s = s.borrow_mut();
        let now = Instant::now();
        if s.last().is_some_and(|f| f.layer == from) {
            let f = s.pop().expect("checked non-empty");
            close(&mut s, f, now);
        }
        s.push(Frame {
            layer: to,
            start: now,
            child_ns: 0,
        });
    });
}

fn close(stack: &mut [Frame], f: Frame, now: Instant) {
    let ns = now.duration_since(f.start).as_nanos() as u64;
    let t = &TOTALS[f.layer as usize];
    t.count.fetch_add(1, Relaxed);
    t.self_ns.fetch_add(ns.saturating_sub(f.child_ns), Relaxed);
    match stack.last_mut() {
        Some(parent) => parent.child_ns += ns,
        None => TOP_NS.with(|c| c.set(c.get() + ns)),
    }
}

/// Run `f` inside a span of `layer`.
pub fn span<R>(layer: Layer, f: impl FnOnce() -> R) -> R {
    enter(layer);
    let r = f();
    exit(layer);
    r
}

/// Per-layer totals since the last [`reset`]: `(spans, self ns)`.
pub fn totals(layer: Layer) -> (u64, u64) {
    let t = &TOTALS[layer as usize];
    (t.count.load(Relaxed), t.self_ns.load(Relaxed))
}

/// Mean self time of `layer`'s spans in microseconds (0 without spans).
pub fn mean_self_us(layer: Layer) -> f64 {
    let (n, ns) = totals(layer);
    if n == 0 {
        0.0
    } else {
        ns as f64 / n as f64 / 1e3
    }
}

/// Time covered by this thread's top-level spans since the last
/// [`reset`], in nanoseconds.
pub fn top_level_ns() -> u64 {
    TOP_NS.with(Cell::get)
}

/// Zero every total and this thread's top-level sum.
pub fn reset() {
    for t in &TOTALS {
        t.count.store(0, Relaxed);
        t.self_ns.store(0, Relaxed);
    }
    TOP_NS.with(|c| c.set(0));
}

#[cfg(test)]
pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn busy(d: Duration) {
        let t = Instant::now();
        while t.elapsed() < d {}
    }

    #[test]
    fn self_times_partition_the_top_level_span() {
        let _g = test_lock();
        set_enabled(true);
        reset();
        let wall = Instant::now();
        span(Layer::Send, || {
            busy(Duration::from_millis(2));
            span(Layer::Condition, || busy(Duration::from_millis(3)));
            span(Layer::Action, || busy(Duration::from_millis(1)));
        });
        let wall = wall.elapsed().as_nanos() as u64;
        set_enabled(false);
        let (_, send) = totals(Layer::Send);
        let (nc, cond) = totals(Layer::Condition);
        let (_, act) = totals(Layer::Action);
        assert_eq!(nc, 1);
        assert!(cond >= 3_000_000 && send >= 2_000_000 && act >= 1_000_000);
        assert!(send < 3_000_000, "nested time is not self time: {send}");
        // Self times add up to the top-level span exactly.
        assert_eq!(send + cond + act, top_level_ns());
        assert!(top_level_ns() <= wall);
    }

    #[test]
    fn switch_leaves_no_gap_between_spans() {
        let _g = test_lock();
        set_enabled(true);
        reset();
        let wall = Instant::now();
        enter(Layer::Advance);
        busy(Duration::from_micros(300));
        switch(Layer::Advance, Layer::Send);
        busy(Duration::from_micros(300));
        exit(Layer::Send);
        let wall = wall.elapsed().as_nanos() as u64;
        set_enabled(false);
        assert_eq!(totals(Layer::Advance).0, 1);
        assert_eq!(totals(Layer::Send).0, 1);
        assert_eq!(
            totals(Layer::Advance).1 + totals(Layer::Send).1,
            top_level_ns()
        );
        assert!(top_level_ns() <= wall);
    }

    #[test]
    fn disabled_spans_record_nothing() {
        let _g = test_lock();
        set_enabled(false);
        reset();
        span(Layer::Harness, || ());
        assert_eq!(totals(Layer::Harness), (0, 0));
    }

    #[test]
    fn exit_ignores_a_span_that_is_not_innermost() {
        let _g = test_lock();
        set_enabled(true);
        reset();
        enter(Layer::Send);
        enter(Layer::Abort);
        exit(Layer::Condition);
        exit(Layer::Abort);
        exit(Layer::Send);
        // An exit with nothing open (its enter ran while disabled).
        exit(Layer::Commit);
        set_enabled(false);
        assert_eq!(totals(Layer::Abort).0, 1);
        assert_eq!(totals(Layer::Send).0, 1);
        assert_eq!(totals(Layer::Commit).0, 0);
    }
}
