//! Incremental composite-event detection.
//!
//! Each rule in the paper owns a "local event detector" (Figure 2) that
//! receives the primitive events propagated to the rule and signals the
//! rule when its (possibly composite) event occurs. A
//! [`DetectorInstance`] is that detector: an [`EventExpr`] compiled into
//! a tree of operator nodes plus the partial-detection state the paper
//! describes for the `Conjunction` subclass (Figure 6: the two
//! constituent event references plus a `Raised` flag — generalised here
//! to occurrence buffers so that constituent *parameters* survive until
//! the composite completes).
//!
//! Detection is driven one primitive occurrence at a time through
//! [`DetectorInstance::process`]; occurrences must arrive in timestamp
//! order (the database's logical clock guarantees this).
//!
//! ## Operator semantics (with `Unrestricted`, the paper's context)
//!
//! * `And(a, b)` — every occurrence of `a` pairs with every occurrence of
//!   `b`, regardless of order.
//! * `Or(a, b)` — every occurrence of either side is an occurrence of the
//!   whole.
//! * `Seq(a, b)` — every occurrence of `b` pairs with every *earlier*
//!   occurrence of `a` (strictly: `a.end < b.start`).
//!
//! The restricted contexts ([`ParamContext`]) change which buffered
//! occurrences participate and whether they are consumed; see the module
//! docs in [`crate::context`].
//!
//! ## Transactional detection state
//!
//! Rules are "subject to the same transaction semantics" as other
//! objects (paper §2) — which must include their *detection state*: an
//! occurrence generated inside a rolled-back transaction must not later
//! complete a composite event, and an occurrence *consumed* by a
//! detection that was rolled back must be re-armed.
//!
//! The detector therefore keeps structure and state apart. The operator
//! tree is immutable after compile; every node owns one state slot in a
//! flat arena indexed by its pre-order id, and primitive leaves index a
//! leaf table holding their symbol alphabets. Between
//! [`begin_txn`](DetectorInstance::begin_txn) and
//! [`commit_txn`](DetectorInstance::commit_txn) /
//! [`abort_txn`](DetectorInstance::abort_txn) every slot mutation
//! records its inverse, addressed by slot id. The journal costs O(1) per
//! mutation (a marker for appends; a clone only for destructive
//! pops/clears), so a transaction over a detector with a large buffer
//! does **not** pay for the buffer size (see DESIGN.md §9). Abort, reset,
//! scope eviction and checkpoint export/import are all loops over the
//! arena; since the alphabets are not in it, no restore path can roll
//! them back.

mod conjunction;
mod leaf;
mod sequence;
mod state;
mod temporal;
mod window;

use crate::algebra::{AggFn, EventExpr};
use crate::context::ParamContext;
use crate::occurrence::{CompositeOccurrence, PrimitiveOccurrence};
use sentinel_object::{ClassRegistry, EventSym, Result};
use sentinel_telemetry::{Stage, Telemetry, Timer};
use serde::{Deserialize, Serialize};
use std::ops::Range;
use std::sync::Arc;

use conjunction::pair_and;
use leaf::Leaf;
use sequence::pair_seq;
use state::{Buffer, Env, JournalEntry, NodeUndo, Slot, Stim, WindowBuf};
use window::Watermarks;

/// Resource limits protecting against unbounded detector state (the
/// unrestricted context never discards occurrences on its own).
#[derive(Debug, Clone, Copy)]
pub struct DetectorCaps {
    /// Maximum occurrences buffered per operator-node side; the oldest
    /// occurrence is dropped (and counted) when the cap is exceeded.
    pub max_buffered_per_node: usize,
}

impl Default for DetectorCaps {
    fn default() -> Self {
        DetectorCaps {
            max_buffered_per_node: 65_536,
        }
    }
}

/// Counters exposed for the event-management-cost experiments (E2, E12).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DetectorStats {
    /// Occurrences offered to the detector.
    pub offered: u64,
    /// Occurrences that matched at least one primitive leaf.
    pub matched: u64,
    /// Composite occurrences emitted at the root.
    pub emitted: u64,
    /// Occurrences dropped because a node buffer hit its cap.
    pub dropped: u64,
}

/// Journal capacity a detector keeps pooled across transactions; a
/// larger high-water mark (one bulk transaction) is released at its end.
const JOURNAL_RETAIN: usize = 1024;

/// A compiled, stateful detector for one event expression.
///
/// `Clone` duplicates the full partial-detection state (used by tests to
/// cross-check the journal against brute-force snapshots).
#[derive(Clone)]
pub struct DetectorInstance {
    /// The operator tree: structure only, never mutated after compile.
    root: Node,
    /// Detection state: one slot per node, at the node's pre-order id.
    slots: Vec<Slot>,
    /// Primitive leaves in pre-order; `Node::Primitive` indexes here.
    leaves: Vec<Leaf>,
    context: ParamContext,
    caps: DetectorCaps,
    stats: DetectorStats,
    /// Undo journal of the transaction in flight. Pooled: a transaction
    /// end clears it instead of dropping it, so steady-state
    /// transactions journal into capacity they already own.
    journal: Vec<JournalEntry>,
    /// Is a transaction journaling into [`journal`](Self::journal)?
    in_txn: bool,
    /// Pooled operand buffers lent to the node recursion (see
    /// `Env::take_buf`); after warm-up detection allocates nothing here.
    scratch: Vec<Vec<CompositeOccurrence>>,
    telemetry: Option<Arc<Telemetry>>,
    label: Arc<str>,
    /// Registry length the leaf alphabets were computed against. The
    /// registry is append-only, so a length mismatch means classes were
    /// defined since compile time and subclass closures may be stale.
    schema_len: usize,
}

impl std::fmt::Debug for DetectorInstance {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DetectorInstance")
            .field("context", &self.context)
            .field("stats", &self.stats)
            .field("buffered", &self.buffered())
            .field("in_txn", &self.in_txn)
            .finish()
    }
}

impl DetectorInstance {
    /// Compile an expression against the schema. Class names in primitive
    /// specs are resolved here; unknown classes are reported immediately
    /// rather than silently never matching.
    pub fn compile(
        expr: &EventExpr,
        registry: &ClassRegistry,
        context: ParamContext,
        caps: DetectorCaps,
    ) -> Result<Self> {
        let mut c = Compiler {
            registry,
            slots: Vec::new(),
            leaves: Vec::new(),
            timers: 0,
        };
        Ok(DetectorInstance {
            root: c.node(expr)?,
            slots: c.slots,
            leaves: c.leaves,
            context,
            caps,
            stats: DetectorStats::default(),
            journal: Vec::new(),
            in_txn: false,
            scratch: Vec::new(),
            telemetry: None,
            label: Arc::from(""),
            schema_len: registry.len(),
        })
    }

    /// Attach an observability handle. `label` (typically the owning
    /// rule's name) becomes the subject of the detector's trace records.
    pub fn set_telemetry(&mut self, telemetry: Arc<Telemetry>, label: impl Into<Arc<str>>) {
        self.telemetry = Some(telemetry);
        self.label = label.into();
    }

    /// Compile with default context and caps.
    pub fn compile_default(expr: &EventExpr, registry: &ClassRegistry) -> Result<Self> {
        Self::compile(
            expr,
            registry,
            ParamContext::default(),
            DetectorCaps::default(),
        )
    }

    /// Feed one primitive occurrence; returns the composite occurrences
    /// of the whole expression completed by it (possibly several under
    /// the unrestricted context, at most one under the restricted ones
    /// for binary operators). The occurrence's seq doubles as its
    /// instant — logical-mode semantics; the engine, which owns the time
    /// source, calls [`process_at`](Self::process_at) instead.
    pub fn process(
        &mut self,
        registry: &ClassRegistry,
        occ: &PrimitiveOccurrence,
    ) -> Vec<CompositeOccurrence> {
        let sym = occ.sym(registry);
        let mut out = Vec::new();
        self.process_at(registry, occ, sym, occ.at, &mut out);
        out
    }

    /// Feed one primitive occurrence at instant `now`, appending the
    /// completed composite occurrences to `out`; returns how many were
    /// appended. `sym` is the occurrence's interned symbol, resolved
    /// once by the caller and shared across every notified detector
    /// (`None` means the occurrence names a method outside the schema,
    /// which matches no leaf). `now` is the occurrence's position on the
    /// instant axis windows are measured on; the engine reads it once
    /// per occurrence, so every rule the occurrence reaches sees the
    /// same instant.
    pub fn process_at(
        &mut self,
        registry: &ClassRegistry,
        occ: &PrimitiveOccurrence,
        sym: Option<EventSym>,
        now: u64,
        out: &mut Vec<CompositeOccurrence>,
    ) -> usize {
        if self.schema_len != registry.len() {
            for leaf in &mut self.leaves {
                leaf.refresh(registry);
            }
            self.schema_len = registry.len();
        }
        let timer = match &self.telemetry {
            Some(t) => t.timer(),
            None => Timer::off(),
        };
        let emitted = self.run(Stim::Prim(occ), sym, now, out);
        if let Some(tel) = &self.telemetry {
            // The enabled check also guards the `buffered` slot loop.
            if tel.is_enabled() {
                let label = &self.label;
                tel.observe_timer(Stage::DetectorTransition, occ.at, timer, || {
                    label.to_string()
                });
                tel.observe(Stage::DetectorDepth, occ.at, self.buffered() as u64, || {
                    label.to_string()
                });
            }
        }
        emitted
    }

    /// Deliver one timer fire to the `at`/`every` leaf at `idx` (its
    /// position in [`EventExpr::timer_specs`] leaf order), appending the
    /// completions to `out`. `due` is the instant the timer came due —
    /// windows advance to it — and `seq` the fresh logical timestamp the
    /// engine assigned to the fire, so the tick is totally ordered
    /// against event occurrences. Returns how many were appended.
    pub fn process_timer(
        &mut self,
        idx: usize,
        due: u64,
        seq: u64,
        out: &mut Vec<CompositeOccurrence>,
    ) -> usize {
        self.run(Stim::Timer { idx, seq }, None, due, out)
    }

    /// Drive one stimulus through the node tree at instant `now`.
    fn run(
        &mut self,
        stim: Stim<'_>,
        sym: Option<EventSym>,
        now: u64,
        out: &mut Vec<CompositeOccurrence>,
    ) -> usize {
        self.stats.offered += 1;
        let before = out.len();
        let mut env = Env {
            leaves: &self.leaves,
            sym,
            context: self.context,
            caps: self.caps,
            now,
            matched: false,
            dropped: 0,
            journal: self.in_txn.then_some(&mut self.journal),
            scratch: &mut self.scratch,
        };
        self.root.process(&stim, &mut self.slots, &mut env, out);
        if env.matched {
            self.stats.matched += 1;
        }
        self.stats.dropped += env.dropped;
        let emitted = out.len() - before;
        self.stats.emitted += emitted as u64;
        emitted
    }

    /// Export the detector's partial-detection state for a checkpoint:
    /// the slot arena, one entry per node in pre-order.
    pub fn export_state(&self) -> DetectorState {
        DetectorState {
            nodes: self.slots.iter().map(NodeState::of).collect(),
        }
    }

    /// Restore state exported by [`export_state`](Self::export_state).
    /// Returns `false` (leaving the detector untouched) when the state's
    /// shape does not match this detector's expression — e.g. the rule
    /// was redefined between checkpoint and recovery.
    pub fn import_state(&mut self, state: &DetectorState) -> bool {
        if state.nodes.len() != self.slots.len() {
            return false;
        }
        let restored = self.slots.iter().zip(&state.nodes);
        let Some(slots) = restored.map(|(slot, node)| node.restore(slot)).collect() else {
            return false;
        };
        self.slots = slots;
        true
    }

    /// Start journaling state mutations for the enclosing transaction.
    pub fn begin_txn(&mut self) {
        debug_assert!(!self.in_txn, "nested detector transactions");
        debug_assert!(self.journal.is_empty());
        self.in_txn = true;
    }

    /// The transaction committed: discard the journal's entries.
    pub fn commit_txn(&mut self) {
        self.journal.clear();
        self.end_txn();
    }

    /// The transaction aborted: replay the journal in reverse, restoring
    /// exactly the pre-transaction detection state.
    pub fn abort_txn(&mut self) {
        if !self.in_txn {
            return;
        }
        while let Some(entry) = self.journal.pop() {
            match entry {
                JournalEntry::Full(slots) => self.slots = slots,
                JournalEntry::Node { node, undo } => self.slots[node].undo(undo),
            }
        }
        self.end_txn();
    }

    fn end_txn(&mut self) {
        self.in_txn = false;
        if self.journal.capacity() > JOURNAL_RETAIN {
            self.journal.shrink_to(JOURNAL_RETAIN);
        }
    }

    /// Is a journal currently active?
    pub fn in_txn(&self) -> bool {
        self.in_txn
    }

    /// Total occurrences currently buffered across all operator nodes —
    /// the detector-state metric of experiment E12.
    pub fn buffered(&self) -> usize {
        self.slots.iter().map(Slot::buffered).sum()
    }

    /// Counters so far.
    pub fn stats(&self) -> DetectorStats {
        self.stats
    }

    /// Discard all partial state (e.g. when a rule is disabled; the paper
    /// says a disabled rule no longer records propagated events). When a
    /// journal is active the pre-reset slots are recorded so an abort can
    /// restore them.
    pub fn reset(&mut self) {
        if self.in_txn {
            self.journal.push(JournalEntry::Full(self.slots.clone()));
        }
        self.slots.iter_mut().for_each(Slot::reset);
    }

    /// The parameter context the detector was compiled with.
    pub fn context(&self) -> ParamContext {
        self.context
    }
}

/// Serializable partial-detection state: one entry per node, in
/// pre-order. Persisted into the checkpoint snapshot so long-lived
/// sequence/conjunction/window progress survives a restart.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DetectorState {
    nodes: Vec<NodeState>,
}

impl DetectorState {
    /// `true` when no node holds any partial state (nothing worth
    /// persisting).
    pub fn is_trivial(&self) -> bool {
        self.nodes.iter().all(|n| match n {
            NodeState::Stateless => true,
            NodeState::Bufs(bufs) => bufs.iter().all(Vec::is_empty),
            NodeState::Latest(slots) => slots.iter().all(Option::is_none),
            NodeState::Open { open, violated } => open.is_none() && !violated,
            NodeState::Windowed { items, latched, .. } => items.is_empty() && !latched,
            NodeState::Marks(samples) => samples.is_empty(),
        })
    }
}

/// One node's exported state: the serialized form of its [`Slot`]
/// (shape-checked on import).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum NodeState {
    /// Primitive / timer leaves, `Or`, `Within`.
    Stateless,
    /// `And` (two sides), `Seq` / `Times` / `Plus` (one).
    Bufs(Vec<Vec<CompositeOccurrence>>),
    /// `Any`'s latest-per-child slots.
    Latest(Vec<Option<CompositeOccurrence>>),
    /// `Not` / `Aperiodic` window slots.
    Open {
        open: Option<CompositeOccurrence>,
        violated: bool,
    },
    /// `Aggregate`'s instant-stamped window buffer.
    Windowed {
        items: Vec<(u64, CompositeOccurrence)>,
        epoch: u64,
        latched: bool,
    },
    /// `Window`'s instant→seq watermark samples.
    Marks(Vec<(u64, u64)>),
}

impl NodeState {
    fn of(slot: &Slot) -> NodeState {
        match slot {
            Slot::Stateless => NodeState::Stateless,
            Slot::Bufs(bufs) => NodeState::Bufs(
                bufs.iter()
                    .map(|b| b.items.iter().cloned().collect())
                    .collect(),
            ),
            Slot::Latest(latest) => NodeState::Latest(latest.clone()),
            Slot::Open { open, violated } => NodeState::Open {
                open: open.clone(),
                violated: *violated,
            },
            Slot::Windowed {
                items,
                epoch,
                latched,
            } => NodeState::Windowed {
                items: items.iter().cloned().collect(),
                epoch: *epoch,
                latched: *latched,
            },
            Slot::Marks(marks) => NodeState::Marks(marks.export()),
        }
    }

    /// The slot this state restores into `slot`'s place, or `None` when
    /// the shapes differ.
    fn restore(&self, slot: &Slot) -> Option<Slot> {
        Some(match (slot, self) {
            (Slot::Stateless, NodeState::Stateless) => Slot::Stateless,
            (Slot::Bufs(bufs), NodeState::Bufs(saved)) if bufs.len() == saved.len() => Slot::Bufs(
                saved
                    .iter()
                    .map(|items| Buffer {
                        items: items.iter().cloned().collect(),
                    })
                    .collect(),
            ),
            (Slot::Latest(latest), NodeState::Latest(saved)) if latest.len() == saved.len() => {
                Slot::Latest(saved.clone())
            }
            (Slot::Open { .. }, NodeState::Open { open, violated }) => Slot::Open {
                open: open.clone(),
                violated: *violated,
            },
            (
                Slot::Windowed { .. },
                NodeState::Windowed {
                    items,
                    epoch,
                    latched,
                },
            ) => Slot::Windowed {
                items: items.iter().cloned().collect(),
                epoch: *epoch,
                latched: *latched,
            },
            (Slot::Marks(_), NodeState::Marks(samples)) => {
                Slot::Marks(Watermarks::import(samples.clone()))
            }
            _ => return None,
        })
    }
}

/// One operator node: structure only. A node that keeps state names its
/// slot by `id`, its pre-order position in the tree.
#[derive(Debug, Clone)]
enum Node {
    /// A primitive event: index into the detector's leaf table.
    Primitive {
        leaf: usize,
    },
    /// An `at` / `every` timer leaf, matched by timer-fire stimuli only.
    Timer {
        idx: usize,
    },
    And {
        id: usize,
        left: Box<Node>,
        right: Box<Node>,
    },
    Or {
        left: Box<Node>,
        right: Box<Node>,
    },
    Seq {
        id: usize,
        left: Box<Node>,
        right: Box<Node>,
    },
    Any {
        id: usize,
        m: usize,
        children: Vec<Node>,
    },
    Not {
        id: usize,
        watch: Box<Node>,
        start: Box<Node>,
        end: Box<Node>,
    },
    Aperiodic {
        id: usize,
        start: Box<Node>,
        each: Box<Node>,
        end: Box<Node>,
    },
    Times {
        id: usize,
        n: usize,
        child: Box<Node>,
    },
    Plus {
        id: usize,
        child: Box<Node>,
        delta: u64,
    },
    /// Deadline scope: filters operand emissions by interval span and
    /// evicts operand state too old to ever complete in time. `scope` is
    /// the child subtree's slot range.
    Within {
        child: Box<Node>,
        deadline: u64,
        scope: Range<usize>,
    },
    /// Window scope: evicts operand state that left the window on the
    /// instant axis, so e.g. `Seq(a, b)` inside a window only pairs
    /// constituents from the same window.
    Window {
        id: usize,
        child: Box<Node>,
        size: u64,
        tumbling: bool,
        scope: Range<usize>,
    },
    /// Windowed aggregation with a latched threshold.
    Aggregate {
        id: usize,
        child: Box<Node>,
        size: u64,
        tumbling: bool,
        agg: AggFn,
        threshold: i64,
    },
}

/// Builds the tree, its slot arena and its leaf table in one pre-order
/// pass.
struct Compiler<'r> {
    registry: &'r ClassRegistry,
    slots: Vec<Slot>,
    leaves: Vec<Leaf>,
    /// Timer leaves take their delivery index in the same traversal
    /// order `EventExpr::timer_specs` collects specs.
    timers: usize,
}

impl Compiler<'_> {
    /// Compile `expr`: the node takes the next slot before its operands
    /// do, so every subtree owns a contiguous slot range.
    fn node(&mut self, expr: &EventExpr) -> Result<Node> {
        let id = self.slots.len();
        self.slots.push(Slot::Stateless);
        let bufs = |n| Slot::Bufs(vec![Buffer::default(); n]);
        let open = || Slot::Open {
            open: None,
            violated: false,
        };
        let (node, slot) = match expr {
            EventExpr::Primitive(spec) => {
                self.leaves.push(Leaf::compile(spec, self.registry)?);
                let leaf = self.leaves.len() - 1;
                (Node::Primitive { leaf }, Slot::Stateless)
            }
            EventExpr::At { .. } | EventExpr::Every { .. } => {
                self.timers += 1;
                let idx = self.timers - 1;
                (Node::Timer { idx }, Slot::Stateless)
            }
            EventExpr::And(a, b) => {
                let (left, right) = (self.boxed(a)?, self.boxed(b)?);
                (Node::And { id, left, right }, bufs(2))
            }
            EventExpr::Or(a, b) => {
                let (left, right) = (self.boxed(a)?, self.boxed(b)?);
                (Node::Or { left, right }, Slot::Stateless)
            }
            EventExpr::Seq(a, b) => {
                let (left, right) = (self.boxed(a)?, self.boxed(b)?);
                (Node::Seq { id, left, right }, bufs(1))
            }
            EventExpr::Any { m, exprs } => {
                let children = exprs.iter().map(|e| self.node(e)).collect::<Result<_>>()?;
                let latest = Slot::Latest(vec![None; exprs.len()]);
                (
                    Node::Any {
                        id,
                        m: *m,
                        children,
                    },
                    latest,
                )
            }
            EventExpr::Not { watch, start, end } => {
                let watch = self.boxed(watch)?;
                let (start, end) = (self.boxed(start)?, self.boxed(end)?);
                let node = Node::Not {
                    id,
                    watch,
                    start,
                    end,
                };
                (node, open())
            }
            EventExpr::Aperiodic { start, each, end } => {
                let start = self.boxed(start)?;
                let (each, end) = (self.boxed(each)?, self.boxed(end)?);
                let node = Node::Aperiodic {
                    id,
                    start,
                    each,
                    end,
                };
                (node, open())
            }
            EventExpr::Times { n, expr } => {
                let child = self.boxed(expr)?;
                (
                    Node::Times {
                        id,
                        n: (*n).max(1),
                        child,
                    },
                    bufs(1),
                )
            }
            EventExpr::Plus { expr, delta } => {
                let child = self.boxed(expr)?;
                (
                    Node::Plus {
                        id,
                        child,
                        delta: *delta,
                    },
                    bufs(1),
                )
            }
            EventExpr::Within { expr, deadline } => {
                let child = self.boxed(expr)?;
                let node = Node::Within {
                    child,
                    deadline: *deadline,
                    scope: id + 1..self.slots.len(),
                };
                (node, Slot::Stateless)
            }
            EventExpr::Window {
                expr,
                size,
                tumbling,
            } => {
                let child = self.boxed(expr)?;
                let node = Node::Window {
                    id,
                    child,
                    size: (*size).max(1),
                    tumbling: *tumbling,
                    scope: id + 1..self.slots.len(),
                };
                (node, Slot::Marks(Watermarks::default()))
            }
            EventExpr::Aggregate {
                expr,
                size,
                tumbling,
                agg,
                threshold,
            } => {
                let node = Node::Aggregate {
                    id,
                    child: self.boxed(expr)?,
                    size: (*size).max(1),
                    tumbling: *tumbling,
                    agg: *agg,
                    threshold: *threshold,
                };
                let slot = Slot::Windowed {
                    items: WindowBuf::new(),
                    epoch: 0,
                    latched: false,
                };
                (node, slot)
            }
        };
        self.slots[id] = slot;
        Ok(node)
    }

    fn boxed(&mut self, expr: &EventExpr) -> Result<Box<Node>> {
        self.node(expr).map(Box::new)
    }
}

/// Evict stale operand state from the scope slots `scope` (see
/// [`Slot::evict`]).
fn evict(slots: &mut [Slot], scope: &Range<usize>, cutoff: u64, by_start: bool, env: &mut Env<'_>) {
    for id in scope.clone() {
        slots[id].evict(id, cutoff, by_start, env);
    }
}

impl Node {
    /// Drive one stimulus through this node, appending the composite
    /// occurrences it completes to `out`. Operand streams of inner nodes
    /// go through buffers borrowed from the `Env` pool, so steady-state
    /// detection allocates nothing beyond the occurrences it keeps.
    fn process(
        &self,
        stim: &Stim<'_>,
        slots: &mut [Slot],
        env: &mut Env<'_>,
        out: &mut Vec<CompositeOccurrence>,
    ) {
        match self {
            Node::Primitive { leaf } => {
                if let Stim::Prim(occ) = stim {
                    if env.leaves[*leaf].matches(env.sym) {
                        env.matched = true;
                        out.push(CompositeOccurrence::from_primitive((*occ).clone()));
                    }
                }
            }

            Node::Timer { idx } => {
                if let Stim::Timer { idx: fired, seq } = stim {
                    if fired == idx {
                        env.matched = true;
                        out.push(temporal::timer_occurrence(*seq));
                    }
                }
            }

            Node::Or { left, right } => {
                left.process(stim, slots, env, out);
                right.process(stim, slots, env, out);
            }

            Node::And { id, left, right } => {
                let mut le = env.take_buf();
                left.process(stim, slots, env, &mut le);
                let mut re = env.take_buf();
                right.process(stim, slots, env, &mut re);
                if let [lbuf, rbuf] = slots[*id].bufs() {
                    pair_and(*id, &mut le, &mut re, lbuf, rbuf, env, out);
                }
                env.give_buf(le);
                env.give_buf(re);
            }

            Node::Seq { id, left, right } => {
                let mut le = env.take_buf();
                left.process(stim, slots, env, &mut le);
                let mut re = env.take_buf();
                right.process(stim, slots, env, &mut re);
                let lbuf = &mut slots[*id].bufs()[0];
                pair_seq(*id, &mut le, &mut re, lbuf, env, out);
                env.give_buf(le);
                env.give_buf(re);
            }

            Node::Within {
                child,
                deadline,
                scope,
            } => {
                let deadline = *deadline;
                // Evict operand state that can no longer complete in
                // time — this is what bounds a never-completing
                // composite's memory.
                if let Some(cut) = temporal::within_cutoff(stim.seq(), deadline) {
                    evict(slots, scope, cut, true, env);
                }
                let mut es = env.take_buf();
                child.process(stim, slots, env, &mut es);
                out.extend(
                    es.drain(..)
                        .filter(|o| temporal::within_span_ok(o, deadline)),
                );
                env.give_buf(es);
            }

            Node::Window {
                id,
                child,
                size,
                tumbling,
                scope,
            } => {
                if let Slot::Marks(marks) = &mut slots[*id] {
                    marks.observe(env.now, stim.seq());
                    if let Some(cut) = window::window_cutoff(marks, env.now, *size, *tumbling) {
                        evict(slots, scope, cut, false, env);
                    }
                }
                child.process(stim, slots, env, out);
            }

            Node::Aggregate {
                id,
                child,
                size,
                tumbling,
                agg,
                threshold,
            } => {
                let mut arrivals = env.take_buf();
                child.process(stim, slots, env, &mut arrivals);
                if let Slot::Windowed {
                    items,
                    epoch,
                    latched,
                } = &mut slots[*id]
                {
                    window::step_aggregate(
                        *id,
                        &mut arrivals,
                        *size,
                        *tumbling,
                        *agg,
                        *threshold,
                        items,
                        epoch,
                        latched,
                        env,
                        out,
                    );
                }
                env.give_buf(arrivals);
            }

            Node::Any { id, m, children } => {
                let id = *id;
                for (i, child) in children.iter().enumerate() {
                    let Some(e) = env.drive(child, slots, stim, Vec::pop) else {
                        continue;
                    };
                    let latest = slots[id].latest();
                    let prev = latest[i].replace(e);
                    let was_present = prev.is_some();
                    env.record(id, NodeUndo::SetLatest { i, prev });
                    if !was_present {
                        let present = latest.iter().filter(|l| l.is_some()).count();
                        if present >= *m {
                            let merged = CompositeOccurrence::merge_all(latest.iter().flatten());
                            for (j, l) in latest.iter_mut().enumerate() {
                                let prev = l.take();
                                if prev.is_some() {
                                    env.record(id, NodeUndo::SetLatest { i: j, prev });
                                }
                            }
                            out.push(merged);
                        }
                    }
                }
            }

            Node::Not {
                id,
                watch,
                start,
                end,
            } => {
                let id = *id;
                // Deterministic intra-occurrence ordering: close windows
                // first, then record violations, then open new windows.
                let first =
                    |es: &mut Vec<CompositeOccurrence>| (!es.is_empty()).then(|| es.swap_remove(0));
                if let Some(e) = env.drive(end, slots, stim, first) {
                    let (open, violated) = slots[id].open();
                    let prev_open = open.take();
                    if let Some(s) = prev_open.as_ref() {
                        if !*violated {
                            out.push(CompositeOccurrence::merge(s, e));
                        }
                    }
                    env.record(id, NodeUndo::SetOpen { prev: prev_open });
                    if *violated {
                        env.record(id, NodeUndo::SetViolated { prev: true });
                        *violated = false;
                    }
                }
                if slots[id].open().0.is_some()
                    && env.drive(watch, slots, stim, |es| !es.is_empty())
                {
                    let (_, violated) = slots[id].open();
                    if !*violated {
                        env.record(id, NodeUndo::SetViolated { prev: false });
                        *violated = true;
                    }
                }
                if let Some(s) = env.drive(start, slots, stim, Vec::pop) {
                    let (open, violated) = slots[id].open();
                    let prev = open.replace(s);
                    env.record(id, NodeUndo::SetOpen { prev });
                    if *violated {
                        env.record(id, NodeUndo::SetViolated { prev: true });
                        *violated = false;
                    }
                }
            }

            Node::Aperiodic {
                id,
                start,
                each,
                end,
            } => {
                let id = *id;
                if env.drive(end, slots, stim, |es| !es.is_empty()) {
                    let (open, _) = slots[id].open();
                    if open.is_some() {
                        let prev = open.take();
                        env.record(id, NodeUndo::SetOpen { prev });
                    }
                }
                // The child is driven even with no window open, so its
                // own state stays fresh.
                let mut es = env.take_buf();
                each.process(stim, slots, env, &mut es);
                if let Some(s) = slots[id].open().0.as_ref() {
                    out.extend(es.drain(..).map(|e| CompositeOccurrence::merge(s, e)));
                }
                env.give_buf(es);
                if let Some(s) = env.drive(start, slots, stim, Vec::pop) {
                    let prev = slots[id].open().0.replace(s);
                    env.record(id, NodeUndo::SetOpen { prev });
                }
            }

            Node::Times { id, n, child } => {
                let id = *id;
                let mut es = env.take_buf();
                child.process(stim, slots, env, &mut es);
                let buf = &mut slots[id].bufs()[0];
                for e in es.drain(..) {
                    buf.push(id, 0, e, env);
                    if buf.len() >= *n {
                        let merged = CompositeOccurrence::merge_all(buf.items.iter());
                        buf.clear(id, 0, env);
                        out.push(merged);
                    }
                }
                env.give_buf(es);
            }

            Node::Plus { id, child, delta } => {
                let id = *id;
                // Deadlines are checked against the *current* stimulus's
                // timestamp first (lazy timer), then new bases enqueue.
                let at = stim.seq();
                let pending = &mut slots[id].bufs()[0];
                while pending.items.front().is_some_and(|b| b.end + *delta <= at) {
                    let base = pending.pop_front(id, 0, env).expect("checked non-empty");
                    out.push(CompositeOccurrence {
                        constituents: base.constituents,
                        start: base.start,
                        end: at,
                    });
                }
                let mut es = env.take_buf();
                child.process(stim, slots, env, &mut es);
                let pending = &mut slots[id].bufs()[0];
                for e in es.drain(..) {
                    pending.push(id, 0, e, env);
                }
                env.give_buf(es);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::restore_props::journaled_state;
    use super::*;
    use crate::spec::{EventModifier, PrimitiveEventSpec as P};
    use sentinel_object::{ClassDecl, Oid, Value};
    use std::sync::Arc;

    /// Schema with two reactive classes used throughout. Leaves match by
    /// interned symbol, so every method a test sends is declared here.
    fn registry() -> ClassRegistry {
        let mut reg = ClassRegistry::new();
        let stock = ["SetPrice", "a", "b", "c", "e", "m", "s", "w", "x"]
            .iter()
            .fold(ClassDecl::reactive("Stock"), |d, &m| d.method(m, &[]));
        reg.define(stock).unwrap();
        reg.define(
            ClassDecl::reactive("FinancialInfo")
                .method("SetValue", &[])
                .method("c", &[]),
        )
        .unwrap();
        reg.define(ClassDecl::reactive("Growth").parent("Stock"))
            .unwrap();
        reg
    }

    fn occ(reg: &ClassRegistry, at: u64, class: &str, method: &str) -> PrimitiveOccurrence {
        let cid = reg.id_of(class).unwrap();
        PrimitiveOccurrence {
            at,
            oid: Oid(at),
            class: cid,
            owner: cid,
            method: method.into(),
            modifier: EventModifier::End,
            params: Arc::from(vec![Value::Int(at as i64)]),
        }
    }

    fn stock(m: &str) -> EventExpr {
        EventExpr::primitive(P::end("Stock", m))
    }
    fn fininfo(m: &str) -> EventExpr {
        EventExpr::primitive(P::end("FinancialInfo", m))
    }

    #[test]
    fn primitive_matches_class_method_modifier() {
        let reg = registry();
        let mut d = DetectorInstance::compile_default(&stock("SetPrice"), &reg).unwrap();
        assert_eq!(d.process(&reg, &occ(&reg, 1, "Stock", "SetPrice")).len(), 1);
        // Wrong method.
        assert!(d.process(&reg, &occ(&reg, 2, "Stock", "Other")).is_empty());
        // Wrong class.
        assert!(d
            .process(&reg, &occ(&reg, 3, "FinancialInfo", "SetPrice"))
            .is_empty());
        // Wrong modifier.
        let mut begin_occ = occ(&reg, 4, "Stock", "SetPrice");
        begin_occ.modifier = EventModifier::Begin;
        assert!(d.process(&reg, &begin_occ).is_empty());
        let s = d.stats();
        assert_eq!(s.offered, 4);
        assert_eq!(s.matched, 1);
        assert_eq!(s.emitted, 1);
    }

    #[test]
    fn primitive_matches_subclass_instances() {
        let reg = registry();
        let mut d = DetectorInstance::compile_default(&stock("SetPrice"), &reg).unwrap();
        // Growth is a subclass of Stock: its invocations match.
        assert_eq!(
            d.process(&reg, &occ(&reg, 1, "Growth", "SetPrice")).len(),
            1
        );
    }

    #[test]
    fn subclass_defined_after_compile_still_matches() {
        // The leaf alphabet is computed at compile time; defining a new
        // subclass afterwards must refresh it (lazily, keyed on registry
        // length) so the subclass's fresh symbols match.
        let mut reg = registry();
        let mut d = DetectorInstance::compile_default(&stock("SetPrice"), &reg).unwrap();
        assert_eq!(d.process(&reg, &occ(&reg, 1, "Stock", "SetPrice")).len(), 1);
        reg.define(ClassDecl::reactive("Late").parent("Stock"))
            .unwrap();
        assert_eq!(d.process(&reg, &occ(&reg, 2, "Late", "SetPrice")).len(), 1);
        // And the pre-resolved entry point agrees.
        let o = occ(&reg, 3, "Late", "SetPrice");
        let sym = o.sym(&reg);
        assert!(sym.is_some());
        assert_eq!(d.process_at(&reg, &o, sym, o.at, &mut Vec::new()), 1);
    }

    #[test]
    fn compile_rejects_unknown_class() {
        let reg = registry();
        let err =
            DetectorInstance::compile_default(&EventExpr::primitive(P::end("Nope", "m")), &reg)
                .err()
                .unwrap();
        assert!(matches!(err, sentinel_object::ObjectError::UnknownClass(_)));
    }

    #[test]
    fn conjunction_detects_in_any_order() {
        let reg = registry();
        let expr = stock("SetPrice").and(fininfo("SetValue"));
        let mut d = DetectorInstance::compile_default(&expr, &reg).unwrap();
        assert!(d
            .process(&reg, &occ(&reg, 1, "Stock", "SetPrice"))
            .is_empty());
        let got = d.process(&reg, &occ(&reg, 2, "FinancialInfo", "SetValue"));
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].start, 1);
        assert_eq!(got[0].end, 2);
        // Reverse order also detects.
        let mut d = DetectorInstance::compile_default(&expr, &reg).unwrap();
        assert!(d
            .process(&reg, &occ(&reg, 3, "FinancialInfo", "SetValue"))
            .is_empty());
        assert_eq!(d.process(&reg, &occ(&reg, 4, "Stock", "SetPrice")).len(), 1);
    }

    #[test]
    fn conjunction_unrestricted_all_combinations() {
        let reg = registry();
        let expr = stock("SetPrice").and(fininfo("SetValue"));
        let mut d = DetectorInstance::compile_default(&expr, &reg).unwrap();
        d.process(&reg, &occ(&reg, 1, "Stock", "SetPrice"));
        d.process(&reg, &occ(&reg, 2, "Stock", "SetPrice"));
        // Two buffered lefts: one right pairs with both.
        let got = d.process(&reg, &occ(&reg, 3, "FinancialInfo", "SetValue"));
        assert_eq!(got.len(), 2);
        // Nothing is consumed: another right pairs with both lefts again.
        let got = d.process(&reg, &occ(&reg, 4, "FinancialInfo", "SetValue"));
        assert_eq!(got.len(), 2);
        assert_eq!(d.buffered(), 4);
    }

    #[test]
    fn disjunction_forwards_both_sides() {
        let reg = registry();
        let expr = stock("SetPrice").or(fininfo("SetValue"));
        let mut d = DetectorInstance::compile_default(&expr, &reg).unwrap();
        assert_eq!(d.process(&reg, &occ(&reg, 1, "Stock", "SetPrice")).len(), 1);
        assert_eq!(
            d.process(&reg, &occ(&reg, 2, "FinancialInfo", "SetValue"))
                .len(),
            1
        );
        assert!(d
            .process(&reg, &occ(&reg, 3, "Stock", "Nothing"))
            .is_empty());
        assert_eq!(d.buffered(), 0, "disjunction is stateless");
    }

    #[test]
    fn sequence_requires_order() {
        let reg = registry();
        let expr = stock("SetPrice").then(fininfo("SetValue"));
        let mut d = DetectorInstance::compile_default(&expr, &reg).unwrap();
        // Right before left: no detection, right is discarded.
        assert!(d
            .process(&reg, &occ(&reg, 1, "FinancialInfo", "SetValue"))
            .is_empty());
        assert!(d
            .process(&reg, &occ(&reg, 2, "Stock", "SetPrice"))
            .is_empty());
        let got = d.process(&reg, &occ(&reg, 3, "FinancialInfo", "SetValue"));
        assert_eq!(got.len(), 1);
        assert_eq!((got[0].start, got[0].end), (2, 3));
    }

    #[test]
    fn nested_composites_propagate() {
        // (a ; b) && c — paper: "E1 and E2 may potentially be composite".
        let reg = registry();
        let expr = stock("a").then(stock("b")).and(fininfo("c"));
        let mut d = DetectorInstance::compile_default(&expr, &reg).unwrap();
        d.process(&reg, &occ(&reg, 1, "Stock", "a"));
        d.process(&reg, &occ(&reg, 2, "FinancialInfo", "c"));
        // Seq completes now, pairing with buffered c.
        let got = d.process(&reg, &occ(&reg, 3, "Stock", "b"));
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].constituents.len(), 3);
        assert_eq!((got[0].start, got[0].end), (1, 3));
    }

    #[test]
    fn same_primitive_on_both_sides_of_and() {
        // And(e, e): one occurrence matches both children and pairs with
        // itself exactly once.
        let reg = registry();
        let expr = stock("SetPrice").and(stock("SetPrice"));
        let mut d = DetectorInstance::compile_default(&expr, &reg).unwrap();
        let got = d.process(&reg, &occ(&reg, 1, "Stock", "SetPrice"));
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].constituents.len(), 2);
    }

    #[test]
    fn same_primitive_on_both_sides_of_seq_never_self_pairs() {
        // Seq(e, e): an occurrence is not strictly after itself.
        let reg = registry();
        let expr = stock("SetPrice").then(stock("SetPrice"));
        let mut d = DetectorInstance::compile_default(&expr, &reg).unwrap();
        assert!(d
            .process(&reg, &occ(&reg, 1, "Stock", "SetPrice"))
            .is_empty());
        // Second occurrence pairs with the first.
        assert_eq!(d.process(&reg, &occ(&reg, 2, "Stock", "SetPrice")).len(), 1);
    }

    #[test]
    fn recent_context_keeps_latest_initiator() {
        let reg = registry();
        let expr = stock("SetPrice").and(fininfo("SetValue"));
        let mut d =
            DetectorInstance::compile(&expr, &reg, ParamContext::Recent, DetectorCaps::default())
                .unwrap();
        d.process(&reg, &occ(&reg, 1, "Stock", "SetPrice"));
        d.process(&reg, &occ(&reg, 2, "Stock", "SetPrice")); // replaces t=1
        let got = d.process(&reg, &occ(&reg, 3, "FinancialInfo", "SetValue"));
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].start, 2, "most recent left wins");
        // Initiator retained: another terminator pairs again.
        let got = d.process(&reg, &occ(&reg, 4, "FinancialInfo", "SetValue"));
        assert_eq!(got.len(), 1);
        assert!(d.buffered() <= 1, "recent context state is bounded");
    }

    #[test]
    fn chronicle_context_pairs_fifo_and_consumes() {
        let reg = registry();
        let expr = stock("SetPrice").and(fininfo("SetValue"));
        let mut d = DetectorInstance::compile(
            &expr,
            &reg,
            ParamContext::Chronicle,
            DetectorCaps::default(),
        )
        .unwrap();
        d.process(&reg, &occ(&reg, 1, "Stock", "SetPrice"));
        d.process(&reg, &occ(&reg, 2, "Stock", "SetPrice"));
        let got = d.process(&reg, &occ(&reg, 3, "FinancialInfo", "SetValue"));
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].start, 1, "oldest left pairs first");
        let got = d.process(&reg, &occ(&reg, 4, "FinancialInfo", "SetValue"));
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].start, 2);
        // Both lefts consumed.
        let got = d.process(&reg, &occ(&reg, 5, "FinancialInfo", "SetValue"));
        assert!(got.is_empty());
    }

    #[test]
    fn cumulative_context_flushes_everything_once() {
        let reg = registry();
        let expr = stock("SetPrice").and(fininfo("SetValue"));
        let mut d = DetectorInstance::compile(
            &expr,
            &reg,
            ParamContext::Cumulative,
            DetectorCaps::default(),
        )
        .unwrap();
        d.process(&reg, &occ(&reg, 1, "Stock", "SetPrice"));
        d.process(&reg, &occ(&reg, 2, "Stock", "SetPrice"));
        let got = d.process(&reg, &occ(&reg, 3, "FinancialInfo", "SetValue"));
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].constituents.len(), 3, "all occurrences flushed");
        assert_eq!(d.buffered(), 0);
    }

    #[test]
    fn any_two_of_three() {
        let reg = registry();
        let expr = EventExpr::any(2, vec![stock("a"), stock("b"), stock("c")]);
        let mut d = DetectorInstance::compile_default(&expr, &reg).unwrap();
        assert!(d.process(&reg, &occ(&reg, 1, "Stock", "a")).is_empty());
        // Repeats of the same child do not complete.
        assert!(d.process(&reg, &occ(&reg, 2, "Stock", "a")).is_empty());
        let got = d.process(&reg, &occ(&reg, 3, "Stock", "c"));
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].constituents.len(), 2);
        // State cleared after detection.
        assert!(d.process(&reg, &occ(&reg, 4, "Stock", "b")).is_empty());
    }

    #[test]
    fn not_between_window() {
        let reg = registry();
        let expr = EventExpr::not_between(stock("w"), stock("s"), stock("e"));
        let mut d = DetectorInstance::compile_default(&expr, &reg).unwrap();
        // s .. e with no w: detect.
        d.process(&reg, &occ(&reg, 1, "Stock", "s"));
        assert_eq!(d.process(&reg, &occ(&reg, 2, "Stock", "e")).len(), 1);
        // s .. w .. e: suppressed.
        d.process(&reg, &occ(&reg, 3, "Stock", "s"));
        d.process(&reg, &occ(&reg, 4, "Stock", "w"));
        assert!(d.process(&reg, &occ(&reg, 5, "Stock", "e")).is_empty());
        // e without open window: nothing.
        assert!(d.process(&reg, &occ(&reg, 6, "Stock", "e")).is_empty());
    }

    #[test]
    fn aperiodic_emits_each_inside_window() {
        let reg = registry();
        let expr = EventExpr::aperiodic(stock("s"), stock("m"), stock("e"));
        let mut d = DetectorInstance::compile_default(&expr, &reg).unwrap();
        assert!(d.process(&reg, &occ(&reg, 1, "Stock", "m")).is_empty());
        d.process(&reg, &occ(&reg, 2, "Stock", "s"));
        assert_eq!(d.process(&reg, &occ(&reg, 3, "Stock", "m")).len(), 1);
        assert_eq!(d.process(&reg, &occ(&reg, 4, "Stock", "m")).len(), 1);
        d.process(&reg, &occ(&reg, 5, "Stock", "e"));
        assert!(d.process(&reg, &occ(&reg, 6, "Stock", "m")).is_empty());
    }

    #[test]
    fn caps_drop_oldest_and_count() {
        let reg = registry();
        let expr = stock("SetPrice").and(fininfo("SetValue"));
        let mut d = DetectorInstance::compile(
            &expr,
            &reg,
            ParamContext::Unrestricted,
            DetectorCaps {
                max_buffered_per_node: 2,
            },
        )
        .unwrap();
        for t in 1..=5 {
            d.process(&reg, &occ(&reg, t, "Stock", "SetPrice"));
        }
        assert_eq!(d.buffered(), 2);
        assert_eq!(d.stats().dropped, 3);
        // Only the two newest survive to pair.
        let got = d.process(&reg, &occ(&reg, 6, "FinancialInfo", "SetValue"));
        assert_eq!(got.len(), 2);
        assert_eq!(got.iter().map(|g| g.start).min(), Some(4));
    }

    #[test]
    fn reset_clears_partial_state() {
        let reg = registry();
        let expr = stock("SetPrice").and(fininfo("SetValue"));
        let mut d = DetectorInstance::compile_default(&expr, &reg).unwrap();
        d.process(&reg, &occ(&reg, 1, "Stock", "SetPrice"));
        assert_eq!(d.buffered(), 1);
        d.reset();
        assert_eq!(d.buffered(), 0);
        assert!(d
            .process(&reg, &occ(&reg, 2, "FinancialInfo", "SetValue"))
            .is_empty());
    }

    // -----------------------------------------------------------------
    // Journal (transactional detection state) tests
    // -----------------------------------------------------------------

    /// Drive `during` through a journaled detector that then aborts, and
    /// assert its state equals the pre-transaction state exactly.
    fn assert_abort_restores(
        expr: &EventExpr,
        ctx: ParamContext,
        pre: &[PrimitiveOccurrence],
        during: &[PrimitiveOccurrence],
        reg: &ClassRegistry,
    ) {
        let mut d = DetectorInstance::compile(expr, reg, ctx, DetectorCaps::default()).unwrap();
        for o in pre {
            d.process(reg, o);
        }
        let before = journaled_state(&d);
        d.begin_txn();
        for o in during {
            d.process(reg, o);
        }
        d.abort_txn();
        assert_eq!(journaled_state(&d), before, "{expr} under {ctx:?}");
    }

    #[test]
    fn abort_restores_state_across_contexts() {
        let reg = registry();
        let expr = stock("SetPrice").and(fininfo("SetValue"));
        let pre: Vec<_> = (1..6).map(|t| occ(&reg, t, "Stock", "SetPrice")).collect();
        let during: Vec<_> = vec![
            occ(&reg, 10, "FinancialInfo", "SetValue"), // consumes under chronicle
            occ(&reg, 11, "Stock", "SetPrice"),
            occ(&reg, 12, "FinancialInfo", "SetValue"),
        ];
        for ctx in ParamContext::ALL {
            assert_abort_restores(&expr, ctx, &pre, &during, &reg);
        }
    }

    #[test]
    fn abort_restores_seq_and_extensions() {
        let reg = registry();
        let pre: Vec<_> = (1..4).map(|t| occ(&reg, t, "Stock", "SetPrice")).collect();
        let during: Vec<_> = vec![
            occ(&reg, 10, "FinancialInfo", "SetValue"),
            occ(&reg, 11, "Stock", "SetPrice"),
        ];
        let seq = stock("SetPrice").then(fininfo("SetValue"));
        for ctx in ParamContext::ALL {
            assert_abort_restores(&seq, ctx, &pre, &during, &reg);
        }
        // Any / Not / Aperiodic use window state.
        let any = EventExpr::any(2, vec![stock("SetPrice"), fininfo("SetValue"), stock("x")]);
        assert_abort_restores(&any, ParamContext::Unrestricted, &pre, &during, &reg);
        let not = EventExpr::not_between(stock("w"), stock("SetPrice"), fininfo("SetValue"));
        assert_abort_restores(&not, ParamContext::Unrestricted, &pre, &during, &reg);
        let ap = EventExpr::aperiodic(stock("SetPrice"), fininfo("SetValue"), stock("e"));
        assert_abort_restores(&ap, ParamContext::Unrestricted, &pre, &during, &reg);
    }

    #[test]
    fn abort_restores_consumed_occurrences() {
        // The banking regression shape, at detector level: a chronicle
        // sequence whose left constituent is consumed inside the aborted
        // transaction must be re-armed.
        let reg = registry();
        let expr = stock("SetPrice").then(fininfo("SetValue"));
        let mut d = DetectorInstance::compile(
            &expr,
            &reg,
            ParamContext::Chronicle,
            DetectorCaps::default(),
        )
        .unwrap();
        d.process(&reg, &occ(&reg, 1, "Stock", "SetPrice"));
        d.begin_txn();
        let got = d.process(&reg, &occ(&reg, 2, "FinancialInfo", "SetValue"));
        assert_eq!(got.len(), 1, "detection inside the transaction");
        d.abort_txn();
        // The left is armed again: a new terminator pairs.
        let got = d.process(&reg, &occ(&reg, 3, "FinancialInfo", "SetValue"));
        assert_eq!(got.len(), 1, "consumed occurrence restored by abort");
    }

    #[test]
    fn commit_keeps_transaction_state() {
        let reg = registry();
        let expr = stock("SetPrice").and(fininfo("SetValue"));
        let mut d = DetectorInstance::compile_default(&expr, &reg).unwrap();
        d.begin_txn();
        d.process(&reg, &occ(&reg, 1, "Stock", "SetPrice"));
        d.commit_txn();
        assert_eq!(d.buffered(), 1);
        let got = d.process(&reg, &occ(&reg, 2, "FinancialInfo", "SetValue"));
        assert_eq!(got.len(), 1);
    }

    #[test]
    fn reset_inside_txn_is_undone_by_abort() {
        let reg = registry();
        let expr = stock("SetPrice").and(fininfo("SetValue"));
        let mut d = DetectorInstance::compile_default(&expr, &reg).unwrap();
        d.process(&reg, &occ(&reg, 1, "Stock", "SetPrice"));
        d.begin_txn();
        d.reset();
        assert_eq!(d.buffered(), 0);
        d.abort_txn();
        assert_eq!(d.buffered(), 1, "reset rolled back");
    }

    #[test]
    fn journal_overhead_is_constant_per_event() {
        // The journal must not clone buffers on append-only workloads:
        // with N buffered occurrences, a journaled append stays O(1).
        // (Guarded indirectly: entries recorded equal events processed.)
        let reg = registry();
        let expr = stock("SetPrice").and(fininfo("SetValue"));
        let mut d = DetectorInstance::compile_default(&expr, &reg).unwrap();
        for t in 1..=1000 {
            d.process(&reg, &occ(&reg, t, "Stock", "SetPrice"));
        }
        d.begin_txn();
        d.process(&reg, &occ(&reg, 2000, "Stock", "SetPrice"));
        assert_eq!(d.journal.len(), 1, "one journal marker for one append");
        d.commit_txn();
    }
}

#[cfg(test)]
mod extension_op_tests {
    use super::*;
    use crate::spec::{EventModifier, PrimitiveEventSpec as P};
    use sentinel_object::{ClassDecl, Oid, Value};
    use std::sync::Arc;

    fn registry() -> ClassRegistry {
        let mut reg = ClassRegistry::new();
        reg.define(ClassDecl::reactive("C").method("m", &[]).method("x", &[]))
            .unwrap();
        reg
    }

    fn occ(reg: &ClassRegistry, at: u64, method: &str) -> PrimitiveOccurrence {
        let cid = reg.id_of("C").unwrap();
        PrimitiveOccurrence {
            at,
            oid: Oid(at),
            class: cid,
            owner: cid,
            method: method.into(),
            modifier: EventModifier::End,
            params: Arc::from(Vec::<Value>::new()),
        }
    }

    fn leaf(m: &str) -> EventExpr {
        EventExpr::primitive(P::end("C", m))
    }

    #[test]
    fn times_emits_every_nth_and_consumes() {
        let reg = registry();
        let mut d = DetectorInstance::compile_default(&leaf("m").times(3), &reg).unwrap();
        let mut emissions = 0;
        for t in 1..=9 {
            emissions += d.process(&reg, &occ(&reg, t, "m")).len();
        }
        assert_eq!(emissions, 3, "9 occurrences / n=3");
        assert_eq!(d.buffered(), 0, "every group consumed");
        // Each emission carries its n constituents.
        let mut d = DetectorInstance::compile_default(&leaf("m").times(2), &reg).unwrap();
        d.process(&reg, &occ(&reg, 1, "m"));
        let got = d.process(&reg, &occ(&reg, 2, "m"));
        assert_eq!(got[0].constituents.len(), 2);
        assert_eq!((got[0].start, got[0].end), (1, 2));
    }

    #[test]
    fn times_abort_restores_partial_count() {
        let reg = registry();
        let mut d = DetectorInstance::compile_default(&leaf("m").times(3), &reg).unwrap();
        d.process(&reg, &occ(&reg, 1, "m"));
        d.begin_txn();
        d.process(&reg, &occ(&reg, 2, "m"));
        assert_eq!(d.process(&reg, &occ(&reg, 3, "m")).len(), 1);
        d.abort_txn();
        // Back to one buffered occurrence: two more complete the group.
        assert_eq!(d.buffered(), 1);
        d.process(&reg, &occ(&reg, 4, "m"));
        assert_eq!(d.process(&reg, &occ(&reg, 5, "m")).len(), 1);
    }

    #[test]
    fn plus_fires_lazily_at_or_after_deadline() {
        let reg = registry();
        // m + 10 ticks, signalled by whatever occurrence crosses it.
        let mut d = DetectorInstance::compile_default(&leaf("m").plus(10), &reg).unwrap();
        d.process(&reg, &occ(&reg, 5, "m")); // base at t=5, deadline 15
        assert!(d.process(&reg, &occ(&reg, 10, "x")).is_empty(), "too early");
        let got = d.process(&reg, &occ(&reg, 16, "x"));
        assert_eq!(got.len(), 1);
        assert_eq!((got[0].start, got[0].end), (5, 16));
        assert_eq!(d.buffered(), 0);
    }

    #[test]
    fn plus_queues_multiple_bases_fifo() {
        let reg = registry();
        let mut d = DetectorInstance::compile_default(&leaf("m").plus(5), &reg).unwrap();
        d.process(&reg, &occ(&reg, 1, "m"));
        d.process(&reg, &occ(&reg, 3, "m"));
        // t=8 crosses 1+5 and 3+5: both fire, oldest first.
        let got = d.process(&reg, &occ(&reg, 8, "x"));
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].start, 1);
        assert_eq!(got[1].start, 3);
    }

    #[test]
    fn plus_abort_reinstates_pending_deadline() {
        let reg = registry();
        let mut d = DetectorInstance::compile_default(&leaf("m").plus(5), &reg).unwrap();
        d.process(&reg, &occ(&reg, 1, "m"));
        d.begin_txn();
        assert_eq!(d.process(&reg, &occ(&reg, 7, "x")).len(), 1);
        d.abort_txn();
        // The pending deadline is re-armed and fires again.
        assert_eq!(d.process(&reg, &occ(&reg, 9, "x")).len(), 1);
    }

    #[test]
    fn continuous_context_one_detection_per_initiator() {
        let reg = registry();
        let mut d = DetectorInstance::compile(
            &leaf("m").and(leaf("x")),
            &reg,
            ParamContext::Continuous,
            DetectorCaps::default(),
        )
        .unwrap();
        d.process(&reg, &occ(&reg, 1, "m"));
        d.process(&reg, &occ(&reg, 2, "m"));
        // The terminator completes *both* open initiators at once...
        let got = d.process(&reg, &occ(&reg, 3, "x"));
        assert_eq!(got.len(), 2);
        assert_eq!(d.buffered(), 0, "initiators consumed");
        // ...and a lone arrival afterwards opens a window of its own.
        assert!(d.process(&reg, &occ(&reg, 4, "x")).is_empty());
        assert_eq!(d.process(&reg, &occ(&reg, 5, "m")).len(), 1);
    }

    #[test]
    fn continuous_sequence_discards_unterminated_rights() {
        let reg = registry();
        let mut d = DetectorInstance::compile(
            &leaf("m").then(leaf("x")),
            &reg,
            ParamContext::Continuous,
            DetectorCaps::default(),
        )
        .unwrap();
        assert!(d.process(&reg, &occ(&reg, 1, "x")).is_empty());
        d.process(&reg, &occ(&reg, 2, "m"));
        d.process(&reg, &occ(&reg, 3, "m"));
        let got = d.process(&reg, &occ(&reg, 4, "x"));
        assert_eq!(got.len(), 2, "one detection per open initiator");
        assert_eq!(d.buffered(), 0);
        assert!(d.process(&reg, &occ(&reg, 5, "x")).is_empty());
    }

    #[test]
    fn composition_times_of_sequence() {
        // Every 2nd (a ; b) pair.
        let reg = registry();
        let expr = leaf("m").then(leaf("x")).times(2);
        let mut d = DetectorInstance::compile(
            &expr,
            &reg,
            ParamContext::Chronicle,
            DetectorCaps::default(),
        )
        .unwrap();
        let mut emissions = 0;
        for t in 0..8 {
            let m = if t % 2 == 0 { "m" } else { "x" };
            emissions += d.process(&reg, &occ(&reg, t + 1, m)).len();
        }
        // 4 sequence detections → 2 times-emissions of 4 constituents.
        assert_eq!(emissions, 2);
    }
}

#[cfg(test)]
mod temporal_op_tests {
    use super::restore_props::journaled_state;
    use super::*;
    use crate::algebra::AggFn;
    use crate::spec::{EventModifier, PrimitiveEventSpec as P};
    use sentinel_object::{ClassDecl, Oid, Value};
    use std::sync::Arc;

    fn registry() -> ClassRegistry {
        let mut reg = ClassRegistry::new();
        reg.define(ClassDecl::reactive("C").method("m", &[]).method("x", &[]))
            .unwrap();
        reg
    }

    fn occ_amt(reg: &ClassRegistry, at: u64, method: &str, amount: i64) -> PrimitiveOccurrence {
        let cid = reg.id_of("C").unwrap();
        PrimitiveOccurrence {
            at,
            oid: Oid(at),
            class: cid,
            owner: cid,
            method: method.into(),
            modifier: EventModifier::End,
            params: Arc::from(vec![Value::Int(amount)]),
        }
    }

    fn occ(reg: &ClassRegistry, at: u64, method: &str) -> PrimitiveOccurrence {
        occ_amt(reg, at, method, at as i64)
    }

    fn leaf(m: &str) -> EventExpr {
        EventExpr::primitive(P::end("C", m))
    }

    fn tick(d: &mut DetectorInstance, idx: usize, due: u64, seq: u64) -> Vec<CompositeOccurrence> {
        let mut out = Vec::new();
        d.process_timer(idx, due, seq, &mut out);
        out
    }

    #[test]
    fn one_explicit_instant_gives_every_detector_the_same_window() {
        // The engine reads the instant once per occurrence and hands it
        // to every notified detector. Two detectors fed the same stream
        // at the same explicit instants evict identically — even though
        // the instants run ahead of the occurrences' seqs, which a
        // per-detector clock read could not promise.
        let reg = registry();
        let expr = leaf("m").count_within(10, 3);
        let mut a = DetectorInstance::compile_default(&expr, &reg).unwrap();
        let mut b = a.clone();
        let mut out = Vec::new();
        for (seq, instant) in [(1, 100), (2, 105), (3, 109), (4, 116), (5, 130)] {
            let o = occ(&reg, seq, "m");
            let sym = o.sym(&reg);
            let fa = a.process_at(&reg, &o, sym, instant, &mut out);
            let fb = b.process_at(&reg, &o, sym, instant, &mut out);
            assert_eq!(fa, fb, "same completions at instant {instant}");
            assert_eq!(a.buffered(), b.buffered(), "same window at {instant}");
        }
        // 100, 105, 109 crossed the threshold once (per detector); by 130
        // only 130 itself is left in (120, 130] — eviction followed the
        // instants, not the seqs.
        assert_eq!(out.len(), 2);
        assert_eq!(a.buffered(), 1);
    }

    #[test]
    fn at_timer_fires_only_via_the_timer_path() {
        let reg = registry();
        let mut d = DetectorInstance::compile_default(&EventExpr::at(5), &reg).unwrap();
        // Primitive occurrences never match a timer leaf.
        assert!(d.process(&reg, &occ(&reg, 1, "m")).is_empty());
        let got = tick(&mut d, 0, 5, 2);
        assert_eq!(got.len(), 1);
        assert!(got[0].constituents.is_empty(), "a tick has no parameters");
        assert_eq!((got[0].start, got[0].end), (2, 2));
        assert_eq!(d.stats().matched, 1);
    }

    #[test]
    fn timer_pairs_in_sequence_like_an_event() {
        // m ; every(10) — the tick terminates the sequence.
        let reg = registry();
        let expr = leaf("m").then(EventExpr::every(10));
        let mut d = DetectorInstance::compile_default(&expr, &reg).unwrap();
        d.process(&reg, &occ(&reg, 5, "m"));
        let got = tick(&mut d, 0, 10, 6);
        assert_eq!(got.len(), 1);
        assert_eq!((got[0].start, got[0].end), (5, 6));
        assert_eq!(got[0].constituents.len(), 1, "only the event constituent");
        // A fire addressed to a different leaf index is ignored.
        assert!(tick(&mut d, 1, 20, 7).is_empty());
    }

    #[test]
    fn timer_fire_inside_txn_is_undone_by_abort() {
        let reg = registry();
        let expr = leaf("m").then(EventExpr::every(5));
        let mut d = DetectorInstance::compile(
            &expr,
            &reg,
            ParamContext::Chronicle,
            DetectorCaps::default(),
        )
        .unwrap();
        d.process(&reg, &occ(&reg, 1, "m"));
        d.begin_txn();
        assert_eq!(tick(&mut d, 0, 5, 2).len(), 1);
        d.abort_txn();
        // The consumed left is re-armed: the next fire pairs again.
        assert_eq!(tick(&mut d, 0, 10, 3).len(), 1);
    }

    #[test]
    fn within_filters_by_span_and_evicts_stale_state() {
        let reg = registry();
        let expr = leaf("m").then(leaf("x")).within(5);
        let mut d = DetectorInstance::compile_default(&expr, &reg).unwrap();
        d.process(&reg, &occ(&reg, 1, "m"));
        // Nine ticks later: over the deadline — and the stale left was
        // evicted before it could pair.
        assert!(d.process(&reg, &occ(&reg, 10, "x")).is_empty());
        assert_eq!(d.buffered(), 0, "stale operand state evicted");
        d.process(&reg, &occ(&reg, 20, "m"));
        let got = d.process(&reg, &occ(&reg, 23, "x"));
        assert_eq!(got.len(), 1);
        assert_eq!((got[0].start, got[0].end), (20, 23));
    }

    #[test]
    fn within_bounds_memory_under_never_completing_composite() {
        // Regression: an unrestricted Seq buffers every left forever when
        // its right never arrives. A `within` scope gives the buffer an
        // eviction rule, so memory stays bounded by the deadline.
        let reg = registry();
        let expr = leaf("m").then(leaf("x")).within(8);
        let mut d = DetectorInstance::compile_default(&expr, &reg).unwrap();
        for t in 1..=5_000 {
            d.process(&reg, &occ(&reg, t, "m"));
        }
        assert!(
            d.buffered() <= 10,
            "buffered {} grew past the deadline bound",
            d.buffered()
        );
        // And the unscoped control really does grow without bound.
        let mut ctl = DetectorInstance::compile_default(&leaf("m").then(leaf("x")), &reg).unwrap();
        for t in 1..=5_000 {
            ctl.process(&reg, &occ(&reg, t, "m"));
        }
        assert_eq!(ctl.buffered(), 5_000);
    }

    #[test]
    fn sliding_window_scopes_sequence_pairing() {
        // The fraud shape: m ; x inside a sliding window — constituents
        // further apart than the window never pair.
        let reg = registry();
        let expr = leaf("m").then(leaf("x")).sliding_window(10);
        let mut d = DetectorInstance::compile_default(&expr, &reg).unwrap();
        d.process(&reg, &occ(&reg, 1, "m"));
        assert!(d.process(&reg, &occ(&reg, 20, "x")).is_empty());
        assert_eq!(d.buffered(), 0, "out-of-window left evicted");
        d.process(&reg, &occ(&reg, 21, "m"));
        assert_eq!(d.process(&reg, &occ(&reg, 25, "x")).len(), 1);
    }

    #[test]
    fn sliding_aggregate_latches_on_crossing() {
        let reg = registry();
        let expr = leaf("m").count_within(5, 2);
        let mut d = DetectorInstance::compile_default(&expr, &reg).unwrap();
        assert!(d.process(&reg, &occ(&reg, 3, "m")).is_empty());
        // Window (1, 6] holds both: crossing emits once...
        let got = d.process(&reg, &occ(&reg, 6, "m"));
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].constituents.len(), 2);
        // ...and the overlapping window at t=9 ({6, 9}) stays latched.
        assert!(d.process(&reg, &occ(&reg, 9, "m")).is_empty());
        // A lull drops the count below threshold: unlatch...
        assert!(d.process(&reg, &occ(&reg, 15, "m")).is_empty());
        // ...so the next crossing fires again.
        assert_eq!(d.process(&reg, &occ(&reg, 16, "m")).len(), 1);
    }

    #[test]
    fn tumbling_edge_starts_the_new_epoch() {
        let reg = registry();
        let expr = leaf("m").aggregate(10, true, AggFn::Count, 2);
        let mut d = DetectorInstance::compile_default(&expr, &reg).unwrap();
        d.process(&reg, &occ(&reg, 8, "m"));
        assert_eq!(d.process(&reg, &occ(&reg, 9, "m")).len(), 1);
        // t=10 sits exactly on the edge: it belongs to the NEW epoch, so
        // the count restarts at 1.
        assert!(d.process(&reg, &occ(&reg, 10, "m")).is_empty());
        assert_eq!(d.process(&reg, &occ(&reg, 11, "m")).len(), 1);
    }

    #[test]
    fn empty_window_aggregation_is_silent() {
        let reg = registry();
        let expr = leaf("m").aggregate(10, true, AggFn::Count, 1);
        let mut d = DetectorInstance::compile_default(&expr, &reg).unwrap();
        d.process(&reg, &occ(&reg, 5, "m"));
        // An unrelated stimulus two epochs later rolls the window; the
        // empty window must not emit (count 0 never crosses).
        assert!(d.process(&reg, &occ(&reg, 25, "x")).is_empty());
        assert_eq!(d.buffered(), 0);
        assert_eq!(d.process(&reg, &occ(&reg, 26, "m")).len(), 1);
    }

    #[test]
    fn sum_aggregate_over_params() {
        let reg = registry();
        let expr = leaf("m").sum_within(10, 0, 100);
        let mut d = DetectorInstance::compile_default(&expr, &reg).unwrap();
        assert!(d.process(&reg, &occ_amt(&reg, 1, "m", 60)).is_empty());
        let got = d.process(&reg, &occ_amt(&reg, 3, "m", 50));
        assert_eq!(got.len(), 1, "60 + 50 crosses 100");
        // After the pair slides out, small amounts stay silent.
        assert!(d.process(&reg, &occ_amt(&reg, 30, "m", 50)).is_empty());
    }

    #[test]
    fn aggregate_abort_restores_window_state() {
        let reg = registry();
        let expr = leaf("m").count_within(10, 2);
        let mut d = DetectorInstance::compile_default(&expr, &reg).unwrap();
        d.process(&reg, &occ(&reg, 1, "m"));
        d.begin_txn();
        assert_eq!(d.process(&reg, &occ(&reg, 2, "m")).len(), 1);
        d.abort_txn();
        // The aborted arrival and the latch are both rolled back.
        assert_eq!(d.buffered(), 1);
        assert_eq!(d.process(&reg, &occ(&reg, 3, "m")).len(), 1);
    }

    #[test]
    fn detector_state_round_trips_mid_sequence() {
        let reg = registry();
        let expr = leaf("m").then(leaf("x"));
        let mut d = DetectorInstance::compile(
            &expr,
            &reg,
            ParamContext::Chronicle,
            DetectorCaps::default(),
        )
        .unwrap();
        d.process(&reg, &occ(&reg, 1, "m"));
        let st = d.export_state();
        assert!(!st.is_trivial());
        // Serde round trip, as the checkpoint snapshot does it.
        let bytes = serde_json::to_vec(&st).unwrap();
        let st: DetectorState = serde_json::from_slice(&bytes).unwrap();
        // A fresh instance (the recovered process) resumes mid-sequence.
        let mut d2 = DetectorInstance::compile(
            &expr,
            &reg,
            ParamContext::Chronicle,
            DetectorCaps::default(),
        )
        .unwrap();
        assert!(d2.import_state(&st));
        assert_eq!(d2.process(&reg, &occ(&reg, 2, "x")).len(), 1);
    }

    #[test]
    fn state_import_rejects_shape_mismatch() {
        let reg = registry();
        let mut seq = DetectorInstance::compile_default(&leaf("m").then(leaf("x")), &reg).unwrap();
        seq.process(&reg, &occ(&reg, 1, "m"));
        let st = seq.export_state();
        let mut and = DetectorInstance::compile_default(&leaf("m").and(leaf("x")), &reg).unwrap();
        assert!(!and.import_state(&st), "And expects two buffer sides");
        assert_eq!(and.buffered(), 0, "failed import leaves state untouched");
    }

    #[test]
    fn aggregate_state_round_trips_with_instants() {
        let reg = registry();
        let expr = leaf("m").count_within(10, 2);
        let mut d = DetectorInstance::compile_default(&expr, &reg).unwrap();
        d.process(&reg, &occ(&reg, 5, "m"));
        let st = d.export_state();
        let mut d2 = DetectorInstance::compile_default(&expr, &reg).unwrap();
        assert!(d2.import_state(&st));
        assert_eq!(d2.process(&reg, &occ(&reg, 6, "m")).len(), 1);
    }

    #[test]
    fn abort_restores_temporal_operators() {
        // The journal property extends to the new operators.
        let reg = registry();
        let pre: Vec<_> = (1..4).map(|t| occ(&reg, t, "m")).collect();
        let during: Vec<_> = vec![occ(&reg, 5, "x"), occ(&reg, 6, "m")];
        for expr in [
            leaf("m").then(leaf("x")).within(20),
            leaf("m").then(leaf("x")).sliding_window(20),
            leaf("m").count_within(20, 3),
            leaf("m").sum_within(20, 0, 10),
        ] {
            for ctx in ParamContext::ALL {
                let mut d =
                    DetectorInstance::compile(&expr, &reg, ctx, DetectorCaps::default()).unwrap();
                for o in &pre {
                    d.process(&reg, o);
                }
                let before = journaled_state(&d);
                d.begin_txn();
                for o in &during {
                    d.process(&reg, o);
                }
                d.abort_txn();
                assert_eq!(journaled_state(&d), before, "{expr} under {ctx:?}");
            }
        }
    }
}

#[cfg(test)]
mod restore_props {
    //! Exact-restore properties over random expression trees: an aborted
    //! transaction leaves the exported state *equal* to its pre-state,
    //! and a checkpoint export round-trips through JSON unchanged.

    use super::*;
    use crate::algebra::AggFn;
    use crate::spec::{EventModifier, PrimitiveEventSpec as P};
    use proptest::prelude::*;
    use proptest::TestRng;
    use sentinel_object::{ClassDecl, Oid, Value};

    const METHODS: [&str; 3] = ["a", "b", "c"];

    fn registry() -> ClassRegistry {
        let mut reg = ClassRegistry::new();
        reg.define(
            ClassDecl::reactive("C")
                .method("a", &[])
                .method("b", &[])
                .method("c", &[]),
        )
        .unwrap();
        reg
    }

    /// A random expression over `C::{a, b, c}` using every stateful
    /// operator; `depth` bounds the nesting.
    fn expr(rng: &mut TestRng, depth: u32) -> EventExpr {
        let leaf =
            |rng: &mut TestRng| EventExpr::primitive(P::end("C", METHODS[rng.below(3) as usize]));
        if depth == 0 || rng.below(4) == 0 {
            return leaf(rng);
        }
        let sub = |rng: &mut TestRng| expr(rng, depth - 1);
        match rng.below(11) {
            0 => sub(rng).and(sub(rng)),
            1 => sub(rng).or(sub(rng)),
            2 => sub(rng).then(sub(rng)),
            3 => {
                let n = 2 + rng.below(2) as usize;
                let children = (0..n).map(|_| sub(rng)).collect();
                EventExpr::any(1 + rng.below(n as u64) as usize, children)
            }
            4 => EventExpr::not_between(sub(rng), sub(rng), sub(rng)),
            5 => EventExpr::aperiodic(sub(rng), sub(rng), sub(rng)),
            6 => sub(rng).times(1 + rng.below(3) as usize),
            7 => sub(rng).plus(1 + rng.below(6)),
            8 => sub(rng).within(2 + rng.below(8)),
            9 => match rng.below(2) {
                0 => sub(rng).sliding_window(2 + rng.below(8)),
                _ => sub(rng).tumbling_window(2 + rng.below(8)),
            },
            _ => {
                let agg = match rng.below(2) {
                    0 => AggFn::Count,
                    _ => AggFn::Sum(0),
                };
                let threshold = 1 + rng.below(6) as i64;
                sub(rng).aggregate(2 + rng.below(8), rng.below(2) == 0, agg, threshold)
            }
        }
    }

    /// Feeds a random stream on two axes: seqs step by one, instants by
    /// 0..=2 (so several stimuli may share an instant).
    struct Feed {
        seq: u64,
        now: u64,
    }

    impl Feed {
        fn step(&mut self, rng: &mut TestRng, reg: &ClassRegistry, d: &mut DetectorInstance) {
            self.seq += 1;
            self.now += rng.below(3);
            let cid = reg.id_of("C").unwrap();
            let o = PrimitiveOccurrence {
                at: self.seq,
                oid: Oid(1 + rng.below(3)),
                class: cid,
                owner: cid,
                method: METHODS[rng.below(3) as usize].into(),
                modifier: EventModifier::End,
                params: Arc::from(vec![Value::Int(rng.below(4) as i64)]),
            };
            let sym = o.sym(reg);
            d.process_at(reg, &o, sym, self.now, &mut Vec::new());
        }
    }

    /// The export with `Window` watermark samples blanked: they are clock
    /// facts (the clock never rewinds), deliberately unjournaled.
    pub(super) fn journaled_state(d: &DetectorInstance) -> Vec<NodeState> {
        d.export_state()
            .nodes
            .into_iter()
            .map(|n| match n {
                NodeState::Marks(_) => NodeState::Marks(Vec::new()),
                n => n,
            })
            .collect()
    }

    fn assert_round_trips(d: &DetectorInstance) {
        let st = d.export_state();
        let json = serde_json::to_vec(&st).unwrap();
        let back: DetectorState = serde_json::from_slice(&json).unwrap();
        let mut fresh = d.clone();
        fresh.reset();
        assert!(fresh.import_state(&back), "own export re-imports");
        assert_eq!(
            fresh.export_state(),
            st,
            "export -> JSON -> import -> export"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(400))]

        #[test]
        fn abort_restores_the_exact_export(seed in any::<u64>()) {
            let mut rng = TestRng::seed_from_u64(seed);
            let reg = registry();
            let e = expr(&mut rng, 3);
            let ctx = ParamContext::ALL[rng.below(5) as usize];
            let caps = DetectorCaps {
                max_buffered_per_node: 2 + rng.below(6) as usize,
            };
            let mut d = DetectorInstance::compile(&e, &reg, ctx, caps).unwrap();
            let mut feed = Feed { seq: 0, now: 0 };
            for _ in 0..rng.below(30) {
                feed.step(&mut rng, &reg, &mut d);
            }
            assert_round_trips(&d);
            let pre = journaled_state(&d);
            d.begin_txn();
            for _ in 0..rng.below(30) {
                if rng.below(25) == 0 {
                    d.reset();
                } else {
                    feed.step(&mut rng, &reg, &mut d);
                }
            }
            assert_round_trips(&d);
            d.abort_txn();
            prop_assert_eq!(journaled_state(&d), pre, "expr {} under {:?}", e, ctx);
            assert_round_trips(&d);
        }
    }

    /// A checkpoint written before the detector kept its state in a slot
    /// arena: `A ; B` with one `A` (seq 7, oid 3, parameter 42)
    /// buffered. It imports unchanged and completes on `B`.
    #[test]
    fn golden_checkpoint_imports_and_completes() {
        const GOLDEN: &str = r#"{"nodes":[{"Bufs":[[{"constituents":[{"at":7,"oid":3,"class":0,"owner":0,"method":"A","modifier":"End","params":[{"Int":42}]}],"start":7,"end":7}]]},"Stateless","Stateless"]}"#;
        let mut reg = ClassRegistry::new();
        reg.define(ClassDecl::reactive("Src").method("A", &[]).method("B", &[]))
            .unwrap();
        let prim = |m: &str| EventExpr::primitive(P::end("Src", m));
        let mut d = DetectorInstance::compile_default(&prim("A").then(prim("B")), &reg).unwrap();
        let st: DetectorState = serde_json::from_str(GOLDEN).unwrap();
        assert!(d.import_state(&st));
        assert_eq!(d.buffered(), 1);
        assert_eq!(serde_json::to_string(&d.export_state()).unwrap(), GOLDEN);
        let cid = reg.id_of("Src").unwrap();
        let b = PrimitiveOccurrence {
            at: 8,
            oid: Oid(3),
            class: cid,
            owner: cid,
            method: "B".into(),
            modifier: EventModifier::End,
            params: Arc::from(vec![Value::Int(43)]),
        };
        let got = d.process(&reg, &b);
        assert_eq!(got.len(), 1);
        assert_eq!((got[0].start, got[0].end), (7, 8));
        assert_eq!(got[0].constituents[0].params[0], Value::Int(42));
    }
}
