#![warn(missing_docs)]
//! # sentinel-events — event specification and detection
//!
//! Implements the paper's event model (§3.3, §4.3, §4.6):
//!
//! * **Primitive events** are method invocations, of two shades:
//!   *begin-of-method* (bom) and *end-of-method* (eom). A primitive event
//!   specification names a class, a method, and the shade — written in
//!   the paper's signature syntax, e.g.
//!   `"end Employee::Set-Salary(float x)"` (parsed by [`parse`]).
//! * **Composite events** are built by applying operators to events:
//!   the paper's **conjunction**, **disjunction**, and **sequence**
//!   (Figure 5), plus the Snoop-lineage extensions `any`, `not`, and
//!   `aperiodic` that the project's DESIGN.md lists as future-work
//!   ablations.
//! * An **occurrence** carries the tuple the paper prescribes:
//!   `Oid + Class + Method + Actual parameters + Time stamp` (§3.1).
//! * A [`DetectorInstance`] incrementally detects a compiled
//!   [`EventExpr`] over a stream of primitive occurrences — the "local
//!   event detector" each rule owns in the paper's Figure 2.
//! * [`ParamContext`] selects the occurrence-buffering policy. The paper
//!   leaves this implicit (all combinations); the contexts named after
//!   the Snoop work (`Recent`, `Chronicle`, `Cumulative`) bound detector
//!   state and are compared in experiment E12.

pub mod algebra;
pub mod clock;
pub mod context;
pub mod detector;
pub mod occurrence;
pub mod parse;
pub mod spec;
pub mod timer;

pub use algebra::{AggFn, EventExpr};
pub use clock::{LogicalClock, TimeMode, TimeSource, Timestamp};
pub use context::ParamContext;
pub use detector::{DetectorCaps, DetectorInstance, DetectorState, DetectorStats};
pub use occurrence::{CompositeOccurrence, Constituents, MergeOperand, PrimitiveOccurrence};
pub use parse::parse_signature;
pub use spec::{sym_alphabet, EventModifier, PrimitiveEventSpec};
pub use timer::{TimerFire, TimerId, TimerRow, TimerWheel};

// Everything the concurrent session API moves across threads — event
// expressions inside rule definitions, occurrences inside firings, and
// detector state owned by the engine behind the core lock — must be
// `Send + Sync`. Assert it here so a non-thread-safe field added to any
// of these types fails to compile in this crate, not two layers up.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<EventExpr>();
    assert_send_sync::<PrimitiveOccurrence>();
    assert_send_sync::<CompositeOccurrence>();
    assert_send_sync::<DetectorInstance>();
    assert_send_sync::<LogicalClock>();
    assert_send_sync::<TimeSource>();
    assert_send_sync::<TimerWheel>()
};
