//! Windows and windowed aggregation.
//!
//! A window lives on the *instant* axis (the detector's
//! [`TimeSource`](crate::clock::TimeSource)), while operand state is
//! stamped on the *sequence* axis. Two structures bridge the gap:
//!
//! * [`Watermarks`] — a monotone record of `(instant, seq)` samples the
//!   window node collects from every stimulus. Translating a window's
//!   cutoff instant into a sequence cutoff lets the node evict operand
//!   state that has left the window. Samples are clock facts (the
//!   logical clock never rewinds, even on abort), so they need no undo
//!   journaling.
//! * The aggregate window buffer ([`WindowBuf`](super::state::WindowBuf))
//!   — operand occurrences stamped with their arrival instant, from
//!   which `count` / `sum` are evaluated against the threshold.
//!
//! Window geometry: a sliding window at instant `t` covers `(t-size, t]`
//! — an entry exactly at `t-size` has left. Tumbling epochs are aligned
//! to multiples of `size`: instant `t` belongs to epoch `t / size`, so
//! an event exactly on an epoch edge starts the new epoch.
//!
//! Aggregate emission is *latched*: the node fires when the aggregate
//! first reaches the threshold, then stays quiet until the value drops
//! below it (sliding: eviction; tumbling: epoch roll), preventing one
//! breach from firing on every subsequent arrival.

use std::collections::VecDeque;

use crate::algebra::AggFn;
use crate::occurrence::CompositeOccurrence;
use sentinel_object::Value;

use super::state::{Env, NodeUndo, WindowBuf};

/// Bound on retained `(instant, seq)` samples; past it the oldest is
/// dropped, which only delays eviction (never evicts wrongly).
const MAX_SAMPLES: usize = 1024;

/// A monotone `(instant, seq)` record translating instant cutoffs into
/// sequence cutoffs.
#[derive(Debug, Clone, Default)]
pub(super) struct Watermarks {
    samples: VecDeque<(u64, u64)>,
}

impl Watermarks {
    /// Record that the sequence axis had reached `seq` at `instant`.
    pub(super) fn observe(&mut self, instant: u64, seq: u64) {
        if let Some((i, s)) = self.samples.back_mut() {
            if *i == instant {
                *s = (*s).max(seq);
                return;
            }
        }
        self.samples.push_back((instant, seq));
        if self.samples.len() > MAX_SAMPLES {
            self.samples.pop_front();
        }
    }

    /// The largest observed seq issued at or before `instant`, if any.
    /// Consumes older samples (each is popped once), leaving a floor
    /// sample so repeated queries stay monotone.
    pub(super) fn seq_at_or_before(&mut self, instant: u64) -> Option<u64> {
        let mut out = None;
        while self
            .samples
            .front()
            .map(|(i, _)| *i <= instant)
            .unwrap_or(false)
        {
            out = self.samples.pop_front().map(|(_, s)| s);
        }
        if let Some(s) = out {
            self.samples.push_front((instant, s));
        }
        out
    }

    /// Export the raw samples (checkpoint persistence).
    pub(super) fn export(&self) -> Vec<(u64, u64)> {
        self.samples.iter().copied().collect()
    }

    /// Restore from exported samples.
    pub(super) fn import(samples: Vec<(u64, u64)>) -> Self {
        Watermarks {
            samples: samples.into_iter().collect(),
        }
    }
}

/// The sequence cutoff for a window at instant `now`: operand state
/// issued at or before the returned seq has left the window.
pub(super) fn window_cutoff(
    marks: &mut Watermarks,
    now: u64,
    size: u64,
    tumbling: bool,
) -> Option<u64> {
    let cut_instant = if tumbling {
        // State strictly before the current epoch's start is out.
        (now / size.max(1)).checked_mul(size)?.checked_sub(1)
    } else {
        // Sliding covers (now-size, now]: the entry at now-size is out.
        now.checked_sub(size)
    }?;
    marks.seq_at_or_before(cut_instant)
}

/// One aggregate step: roll/evict the window to `now`, absorb the
/// operand's new occurrences (draining `arrivals`), evaluate, and emit
/// into `out` on an unlatched threshold crossing.
#[allow(clippy::too_many_arguments)]
pub(super) fn step_aggregate(
    id: usize,
    arrivals: &mut Vec<CompositeOccurrence>,
    size: u64,
    tumbling: bool,
    agg: AggFn,
    threshold: i64,
    wbuf: &mut WindowBuf,
    epoch: &mut u64,
    latched: &mut bool,
    env: &mut Env<'_>,
    out: &mut Vec<CompositeOccurrence>,
) {
    let now = env.now;
    if tumbling {
        let cur = now / size.max(1);
        if cur != *epoch {
            if env.journaling() {
                env.record(
                    id,
                    NodeUndo::RestoreWindow {
                        items: wbuf.clone(),
                        epoch: *epoch,
                        latched: *latched,
                    },
                );
            }
            wbuf.clear();
            *epoch = cur;
            *latched = false;
        }
    } else if let Some(cut) = now.checked_sub(size) {
        // Steady-state eviction pops only from the front, so the undo
        // records just the evicted entries — never a full window clone.
        if wbuf.front().map(|(t, _)| *t <= cut).unwrap_or(false) {
            let journaling = env.journaling();
            let mut evicted = Vec::new();
            while wbuf.front().map(|(t, _)| *t <= cut).unwrap_or(false) {
                let e = wbuf.pop_front().unwrap();
                if journaling {
                    evicted.push(e);
                }
            }
            if journaling {
                env.record(id, NodeUndo::RestoreWindowFront { items: evicted });
            }
        }
    }
    for a in arrivals.drain(..) {
        wbuf.push_back((now, a));
        env.record(id, NodeUndo::PopWindowBack);
    }
    let value = eval(agg, wbuf);
    if value >= threshold && !wbuf.is_empty() {
        if !*latched {
            env.record(id, NodeUndo::SetLatched { prev: false });
            *latched = true;
            out.push(CompositeOccurrence::merge_all(wbuf.iter().map(|(_, o)| o)));
        }
    } else if *latched {
        env.record(id, NodeUndo::SetLatched { prev: true });
        *latched = false;
    }
}

/// Evaluate the aggregate over the current window contents.
pub(super) fn eval(agg: AggFn, wbuf: &WindowBuf) -> i64 {
    match agg {
        AggFn::Count => wbuf.len() as i64,
        AggFn::Sum(i) => wbuf
            .iter()
            .map(|(_, o)| {
                o.last()
                    .and_then(|c| c.params.get(i))
                    .map(as_i64)
                    .unwrap_or(0)
            })
            .sum(),
    }
}

fn as_i64(v: &Value) -> i64 {
    match v {
        Value::Int(i) => *i,
        Value::Float(f) => *f as i64,
        Value::Bool(b) => i64::from(*b),
        _ => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn watermarks_translate_instants_to_seqs() {
        let mut m = Watermarks::default();
        m.observe(10, 1);
        m.observe(10, 2); // coalesced per instant
        m.observe(20, 3);
        m.observe(35, 4);
        assert_eq!(m.seq_at_or_before(5), None);
        assert_eq!(m.seq_at_or_before(20), Some(3));
        // Floor sample keeps repeated queries monotone.
        assert_eq!(m.seq_at_or_before(20), Some(3));
        assert_eq!(m.seq_at_or_before(40), Some(4));
    }

    #[test]
    fn capped_samples_only_delay_eviction() {
        let mut m = Watermarks::default();
        for i in 0..(MAX_SAMPLES as u64 + 100) {
            m.observe(i, i);
        }
        // The oldest samples were dropped: early cutoffs find nothing
        // (no eviction yet) rather than a wrong seq.
        assert_eq!(m.seq_at_or_before(10), None);
        assert!(m.seq_at_or_before(MAX_SAMPLES as u64 + 99).is_some());
    }

    #[test]
    fn window_cutoffs_follow_the_geometry() {
        // Sliding (t-size, t]: at now=30, size=10 the cutoff instant is
        // 20 — an entry at 20 is out.
        let mut m = Watermarks::default();
        m.observe(20, 7);
        m.observe(30, 9);
        assert_eq!(window_cutoff(&mut m, 30, 10, false), Some(7));
        // Tumbling: at now=30, size=10 the epoch starts at 30 itself, so
        // everything at instants <= 29 is out.
        let mut m = Watermarks::default();
        m.observe(29, 8);
        m.observe(30, 9);
        assert_eq!(window_cutoff(&mut m, 30, 10, true), Some(8));
    }
}
