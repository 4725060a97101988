//! Detection state, kept apart from the operator tree: one [`Slot`] per
//! node in a flat arena indexed by the node's pre-order id, the undo
//! journal whose entries address those slots, and the bounded occurrence
//! buffers that hold partial detections.

use crate::context::ParamContext;
use crate::occurrence::{CompositeOccurrence, PrimitiveOccurrence};
use sentinel_object::EventSym;
use std::collections::VecDeque;

use super::leaf::Leaf;
use super::window::Watermarks;
use super::{DetectorCaps, Node};

/// One stimulus driven through the node tree: either a primitive
/// occurrence (raised by an object) or a timer fire (delivered by the
/// engine's due-timer drain to the `at`/`every` leaf at `idx` in
/// [`EventExpr::timer_specs`](crate::EventExpr::timer_specs) order).
#[derive(Debug, Clone, Copy)]
pub(super) enum Stim<'a> {
    Prim(&'a PrimitiveOccurrence),
    Timer { idx: usize, seq: u64 },
}

impl Stim<'_> {
    /// The stimulus's logical timestamp on the sequence axis.
    #[inline]
    pub(super) fn seq(&self) -> u64 {
        match self {
            Stim::Prim(o) => o.at,
            Stim::Timer { seq, .. } => *seq,
        }
    }
}

/// A window buffer: operand occurrences stamped with the instant they
/// arrived at the window node.
pub(super) type WindowBuf = VecDeque<(u64, CompositeOccurrence)>;

/// Inverse of one state mutation, applied to the slot of the node that
/// recorded it. Entries are applied in reverse journal order on abort.
#[derive(Debug, Clone)]
pub(super) enum NodeUndo {
    /// Undo an append to a buffer side.
    PopBack { side: u8 },
    /// Undo an in-place replacement of a buffer side's retained
    /// occurrence (the `Recent` context keeps only the newest).
    ReplaceBack { side: u8, prev: CompositeOccurrence },
    /// Undo a consumption (or cap-drop) from the front of a buffer side.
    PushFront { side: u8, occ: CompositeOccurrence },
    /// Undo a clear/retain of a whole buffer side.
    RestoreSide {
        side: u8,
        items: VecDeque<CompositeOccurrence>,
    },
    /// Undo a write to an `Any` node's latest-per-child slot.
    SetLatest {
        i: usize,
        prev: Option<CompositeOccurrence>,
    },
    /// Undo a write to a window node's `open` slot.
    SetOpen { prev: Option<CompositeOccurrence> },
    /// Undo a write to a `Not` node's violation flag.
    SetViolated { prev: bool },
    /// Undo an append to an `Aggregate` node's window buffer.
    PopWindowBack,
    /// Undo an eviction/roll of an `Aggregate` node's window state.
    RestoreWindow {
        items: WindowBuf,
        epoch: u64,
        latched: bool,
    },
    /// Undo a sliding eviction from the front of an `Aggregate` node's
    /// window buffer: `items` hold the evicted entries in eviction
    /// order and are re-prepended in reverse. Recorded instead of a
    /// full `RestoreWindow` snapshot on the steady-state path, where
    /// cloning the whole window per stimulus would cost O(window).
    RestoreWindowFront {
        items: Vec<(u64, CompositeOccurrence)>,
    },
    /// Undo a write to an `Aggregate` node's emission latch.
    SetLatched { prev: bool },
}

#[derive(Debug, Clone)]
pub(super) enum JournalEntry {
    Node {
        node: usize,
        undo: NodeUndo,
    },
    /// Every slot's pre-state (recorded by `reset` when a journal is
    /// active — rare, so the clone is acceptable there). The operator
    /// tree and the leaf alphabets are not detection state and stay out.
    Full(Vec<Slot>),
}

/// Per-call environment threaded through the node recursion.
pub(super) struct Env<'a> {
    /// The detector's primitive leaves (`Node::Primitive` indexes here).
    pub(super) leaves: &'a [Leaf],
    /// The occurrence's interned symbol (`None` = out-of-schema event).
    pub(super) sym: Option<EventSym>,
    pub(super) context: ParamContext,
    pub(super) caps: DetectorCaps,
    /// The stimulus's position on the instant axis, which windows and
    /// epochs are measured on (the caller reads it once per stimulus).
    pub(super) now: u64,
    pub(super) matched: bool,
    pub(super) dropped: u64,
    pub(super) journal: Option<&'a mut Vec<JournalEntry>>,
    /// The detector's pool of operand buffers (see [`take_buf`](Self::take_buf)).
    pub(super) scratch: &'a mut Vec<Vec<CompositeOccurrence>>,
}

impl Env<'_> {
    #[inline]
    pub(super) fn record(&mut self, node: usize, undo: NodeUndo) {
        if let Some(j) = self.journal.as_deref_mut() {
            j.push(JournalEntry::Node { node, undo });
        }
    }

    #[inline]
    pub(super) fn journaling(&self) -> bool {
        self.journal.is_some()
    }

    /// Borrow an empty operand buffer from the pool; hand it back with
    /// [`give_buf`](Self::give_buf) so its capacity serves the next
    /// stimulus.
    #[inline]
    pub(super) fn take_buf(&mut self) -> Vec<CompositeOccurrence> {
        self.scratch.pop().unwrap_or_default()
    }

    #[inline]
    pub(super) fn give_buf(&mut self, mut buf: Vec<CompositeOccurrence>) {
        buf.clear();
        self.scratch.push(buf);
    }

    /// Drive `node` into a pooled buffer and return what `pick` takes
    /// from its emissions (the buffer goes back to the pool).
    pub(super) fn drive<R>(
        &mut self,
        node: &Node,
        slots: &mut [Slot],
        stim: &Stim<'_>,
        pick: impl FnOnce(&mut Vec<CompositeOccurrence>) -> R,
    ) -> R {
        let mut es = self.take_buf();
        node.process(stim, slots, self, &mut es);
        let picked = pick(&mut es);
        self.give_buf(es);
        picked
    }
}

/// A bounded occurrence buffer (one side of a binary operator).
#[derive(Debug, Default, Clone)]
pub(super) struct Buffer {
    pub(super) items: VecDeque<CompositeOccurrence>,
}

impl Buffer {
    /// Append, honouring the cap; journals the append (and any cap-drop).
    pub(super) fn push(
        &mut self,
        node: usize,
        side: u8,
        occ: CompositeOccurrence,
        env: &mut Env<'_>,
    ) {
        if self.items.len() >= env.caps.max_buffered_per_node {
            if let Some(dropped) = self.items.pop_front() {
                env.record(node, NodeUndo::PushFront { side, occ: dropped });
                env.dropped += 1;
            }
        }
        self.items.push_back(occ);
        env.record(node, NodeUndo::PopBack { side });
    }

    /// Make `occ` the side's only occurrence (the `Recent` context). A
    /// retained occurrence is replaced in place and journaled as one
    /// [`NodeUndo::ReplaceBack`], so the steady state neither frees nor
    /// regrows the side's storage.
    pub(super) fn retain_only(
        &mut self,
        node: usize,
        side: u8,
        occ: CompositeOccurrence,
        env: &mut Env<'_>,
    ) {
        if self.items.len() == 1 {
            let back = self.items.back_mut().expect("one retained occurrence");
            let prev = std::mem::replace(back, occ);
            env.record(node, NodeUndo::ReplaceBack { side, prev });
        } else {
            self.clear(node, side, env);
            self.push(node, side, occ, env);
        }
    }

    /// Consume from the front; journals the consumption.
    pub(super) fn pop_front(
        &mut self,
        node: usize,
        side: u8,
        env: &mut Env<'_>,
    ) -> Option<CompositeOccurrence> {
        let occ = self.items.pop_front()?;
        if env.journaling() {
            env.record(
                node,
                NodeUndo::PushFront {
                    side,
                    occ: occ.clone(),
                },
            );
        }
        Some(occ)
    }

    /// Drop everything; journals the old contents.
    pub(super) fn clear(&mut self, node: usize, side: u8, env: &mut Env<'_>) {
        if self.items.is_empty() {
            return;
        }
        let old = std::mem::take(&mut self.items);
        if env.journaling() {
            env.record(node, NodeUndo::RestoreSide { side, items: old });
        }
    }

    pub(super) fn len(&self) -> usize {
        self.items.len()
    }
}

/// One node's detection state. Every node owns exactly one slot, at its
/// pre-order id, so a subtree's slots are one contiguous range; the
/// variant is fixed by the node's operator at compile time. Undo, reset,
/// scope eviction and checkpointing are loops over the arena (or a
/// range of it) that never walk the tree.
#[derive(Debug, Clone)]
pub(super) enum Slot {
    /// Primitive and timer leaves, `Or`, `Within`.
    Stateless,
    /// Operand buffers: `And` (two sides), `Seq` / `Times` / `Plus` (one).
    Bufs(Vec<Buffer>),
    /// `Any`'s latest occurrence per child.
    Latest(Vec<Option<CompositeOccurrence>>),
    /// `Not` / `Aperiodic`: the open window's initiator and (`Not` only)
    /// whether the watched event occurred inside it.
    Open {
        open: Option<CompositeOccurrence>,
        violated: bool,
    },
    /// `Aggregate`'s instant-stamped window, tumbling epoch and latch.
    Windowed {
        items: WindowBuf,
        epoch: u64,
        latched: bool,
    },
    /// `Window`'s instant→seq watermarks. Clock facts rather than
    /// detection state: neither journaled nor cleared by a reset.
    Marks(Watermarks),
}

impl Slot {
    pub(super) fn bufs(&mut self) -> &mut [Buffer] {
        match self {
            Slot::Bufs(bufs) => bufs,
            other => unreachable!("buffer access to {other:?}"),
        }
    }

    pub(super) fn latest(&mut self) -> &mut [Option<CompositeOccurrence>] {
        match self {
            Slot::Latest(latest) => latest,
            other => unreachable!("latest access to {other:?}"),
        }
    }

    pub(super) fn open(&mut self) -> (&mut Option<CompositeOccurrence>, &mut bool) {
        match self {
            Slot::Open { open, violated } => (open, violated),
            other => unreachable!("open access to {other:?}"),
        }
    }

    /// Apply one journaled inverse.
    pub(super) fn undo(&mut self, undo: NodeUndo) {
        match (self, undo) {
            (Slot::Bufs(b), NodeUndo::PopBack { side }) => {
                b[usize::from(side)].items.pop_back();
            }
            (Slot::Bufs(b), NodeUndo::ReplaceBack { side, prev }) => {
                if let Some(back) = b[usize::from(side)].items.back_mut() {
                    *back = prev;
                }
            }
            (Slot::Bufs(b), NodeUndo::PushFront { side, occ }) => {
                b[usize::from(side)].items.push_front(occ);
            }
            (Slot::Bufs(b), NodeUndo::RestoreSide { side, items }) => {
                b[usize::from(side)].items = items;
            }
            (Slot::Latest(latest), NodeUndo::SetLatest { i, prev }) => latest[i] = prev,
            (Slot::Open { open, .. }, NodeUndo::SetOpen { prev }) => *open = prev,
            (Slot::Open { violated, .. }, NodeUndo::SetViolated { prev }) => *violated = prev,
            (Slot::Windowed { items, .. }, NodeUndo::PopWindowBack) => {
                items.pop_back();
            }
            (
                Slot::Windowed {
                    items,
                    epoch,
                    latched,
                },
                NodeUndo::RestoreWindow {
                    items: i,
                    epoch: e,
                    latched: l,
                },
            ) => {
                *items = i;
                *epoch = e;
                *latched = l;
            }
            (Slot::Windowed { items, .. }, NodeUndo::RestoreWindowFront { items: front }) => {
                for e in front.into_iter().rev() {
                    items.push_front(e);
                }
            }
            (Slot::Windowed { latched, .. }, NodeUndo::SetLatched { prev }) => *latched = prev,
            (slot, undo) => unreachable!("undo {undo:?} does not fit {slot:?}"),
        }
    }

    /// Discard the partial detection (the tumbling epoch and the
    /// watermarks are positions on the clock, and survive).
    pub(super) fn reset(&mut self) {
        match self {
            Slot::Bufs(bufs) => bufs.iter_mut().for_each(|b| b.items.clear()),
            Slot::Latest(latest) => latest.fill(None),
            Slot::Open { open, violated } => {
                *open = None;
                *violated = false;
            }
            Slot::Windowed { items, latched, .. } => {
                items.clear();
                *latched = false;
            }
            Slot::Stateless | Slot::Marks(_) => {}
        }
    }

    /// Occurrences held (the detector-state metric of experiment E12).
    pub(super) fn buffered(&self) -> usize {
        match self {
            Slot::Bufs(bufs) => bufs.iter().map(Buffer::len).sum(),
            Slot::Latest(latest) => latest.iter().flatten().count(),
            Slot::Open { open, .. } => usize::from(open.is_some()),
            Slot::Windowed { items, .. } => items.len(),
            Slot::Stateless | Slot::Marks(_) => 0,
        }
    }

    /// Evict occurrences that have left an enclosing temporal scope:
    /// those whose scope key — `start` for the `within` axis
    /// (`by_start`), `end` for the window axis — is at or before
    /// `cutoff` (sequence units). Journaled against slot `id`, so aborts
    /// restore evicted state like any other mutation.
    pub(super) fn evict(&mut self, id: usize, cutoff: u64, by_start: bool, env: &mut Env<'_>) {
        let stale = |o: &CompositeOccurrence| (if by_start { o.start } else { o.end }) <= cutoff;
        match self {
            Slot::Bufs(bufs) => {
                for (side, buf) in (0u8..).zip(bufs.iter_mut()) {
                    if buf.items.iter().any(stale) {
                        if env.journaling() {
                            let items = buf.items.clone();
                            env.record(id, NodeUndo::RestoreSide { side, items });
                        }
                        buf.items.retain(|o| !stale(o));
                    }
                }
            }
            Slot::Latest(latest) => {
                for (i, l) in latest.iter_mut().enumerate() {
                    if l.as_ref().is_some_and(stale) {
                        let prev = l.take();
                        env.record(id, NodeUndo::SetLatest { i, prev });
                    }
                }
            }
            Slot::Open { open, violated } => {
                if open.as_ref().is_some_and(stale) {
                    let prev = open.take();
                    env.record(id, NodeUndo::SetOpen { prev });
                    if *violated {
                        env.record(id, NodeUndo::SetViolated { prev: true });
                        *violated = false;
                    }
                }
            }
            Slot::Windowed {
                items,
                epoch,
                latched,
            } => {
                if items.iter().any(|(_, o)| stale(o)) {
                    if env.journaling() {
                        let undo = NodeUndo::RestoreWindow {
                            items: items.clone(),
                            epoch: *epoch,
                            latched: *latched,
                        };
                        env.record(id, undo);
                    }
                    items.retain(|(_, o)| !stale(o));
                }
            }
            Slot::Stateless | Slot::Marks(_) => {}
        }
    }
}
