//! Proof of the zero-allocation steady-state write path (the PR 8
//! allocation budget; see DESIGN.md §17).
//!
//! A counting global allocator wraps the system allocator. After a
//! warm-up that grows every pooled buffer to capacity, a run of
//! `set_attr` calls on an in-memory database (telemetry counters,
//! firing history, and attribute indexes all off — the default
//! configuration) must perform **zero** heap allocations: slot
//! resolution is a map hit under one lock, the displaced old value
//! moves into the pooled undo vector, and without a WAL no log record
//! is ever built.
//!
//! The send path has the budget of DESIGN.md §12: a passive send
//! allocates nothing, and a reactive send allocates its parameter list
//! (if it has arguments) and nothing per notified rule that does not
//! complete, whatever the fan-out.

use sentinel_db::prelude::*;
use sentinel_db::Database;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts every allocation-path entry (alloc, alloc_zeroed, realloc);
/// frees are deliberately not counted — the budget is on acquiring
/// memory, not returning it. Counts are per thread, so tests running in
/// parallel do not see each other's allocations.
struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_alloc() {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

/// Allocations made by the calling thread so far.
fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_alloc();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const WARMUP_TXNS: i64 = 4;
const WARMUP_WRITES: i64 = 2_000;
const MEASURED_WRITES: i64 = 1_000;

#[test]
fn steady_state_set_attr_does_not_allocate() {
    let mut db = Database::new();
    db.define_class(ClassDecl::new("W").attr("v", TypeTag::Int))
        .unwrap();
    let w = db.create("W").unwrap();

    // Warm-up: grow the pooled undo vector past the measured write
    // count, fault in the store shard entry, and settle any lazy
    // one-time state. The warm-up transactions are strictly larger
    // than the measured one so no Vec regrowth can land inside the
    // measured window.
    for i in 0..WARMUP_TXNS {
        db.begin().unwrap();
        for j in 0..WARMUP_WRITES {
            db.set_attr(w, "v", Value::Int(i * WARMUP_WRITES + j))
                .unwrap();
        }
        db.commit().unwrap();
    }

    db.begin().unwrap();
    db.set_attr(w, "v", Value::Int(-1)).unwrap();
    let before = allocs();
    for j in 0..MEASURED_WRITES {
        db.set_attr(w, "v", Value::Int(j)).unwrap();
    }
    let allocated = allocs() - before;
    db.commit().unwrap();

    assert_eq!(
        allocated, 0,
        "steady-state set_attr allocated: {allocated} heap allocations \
         over {MEASURED_WRITES} writes"
    );
}

/// Heap allocations per `send(to, method, args)`, measured like the
/// `set_attr` test above: a larger warm-up transaction first, then the
/// measured sends inside one transaction.
fn allocs_per_send(db: &mut Database, to: Oid, method: &str, args: &[Value]) -> f64 {
    db.begin().unwrap();
    for _ in 0..WARMUP_WRITES {
        db.send(to, method, args).unwrap();
    }
    db.commit().unwrap();
    db.begin().unwrap();
    db.send(to, method, args).unwrap();
    let before = allocs();
    for _ in 0..MEASURED_WRITES {
        db.send(to, method, args).unwrap();
    }
    let allocated = allocs() - before;
    db.commit().unwrap();
    allocated as f64 / MEASURED_WRITES as f64
}

#[test]
fn steady_state_passive_send_does_not_allocate() {
    // A passive class raises no events: resolving the method borrows
    // its name, the (unused) parameter list is shared, and the setter
    // body takes the zero-allocation write path.
    let mut db = Database::new();
    db.define_class(
        ClassDecl::new("P")
            .attr("v", TypeTag::Int)
            .method("Set", &[("v", TypeTag::Int)]),
    )
    .unwrap();
    db.register_method("P", "Set", |w, this, args| {
        w.set_attr(this, "v", args[0].clone())?;
        Ok(Value::Null)
    })
    .unwrap();
    let p = db.create("P").unwrap();
    let per_send = allocs_per_send(&mut db, p, "Set", &[Value::Int(7)]);
    assert_eq!(
        per_send, 0.0,
        "steady-state passive send allocated {per_send} times per send"
    );
}

/// A reactive `Tick` source plus `rules` `Recent` conjunctions of its
/// `Tick` with a `Ping` that is never sent: every tick reaches every
/// rule and none completes. `Tick` declares one `Int` parameter per
/// argument in `args`. Returns allocations per send.
fn reactive_fanout_allocs(rules: usize, args: &[Value]) -> f64 {
    let params: Vec<(&str, TypeTag)> = args.iter().map(|_| ("v", TypeTag::Int)).collect();
    let mut db = Database::new();
    db.define_class(ClassDecl::reactive("S").event_method("Tick", &params, EventSpec::End))
        .unwrap();
    db.define_class(ClassDecl::reactive("Q").event_method("Ping", &[], EventSpec::End))
        .unwrap();
    db.register_method("S", "Tick", |_, _, _| Ok(Value::Null))
        .unwrap();
    let s = db.create("S").unwrap();
    for r in 0..rules {
        let name = format!("R{r}");
        let event = EventExpr::primitive(PrimitiveEventSpec::end("S", "Tick"))
            .and(EventExpr::primitive(PrimitiveEventSpec::end("Q", "Ping")));
        db.add_rule(RuleDef::new(&name, event, ACTION_NOOP).consume(ParamContext::Recent))
            .unwrap();
        db.subscribe(s, &name).unwrap();
    }
    allocs_per_send(&mut db, s, "Tick", args)
}

#[test]
fn reactive_fanout_allocates_only_the_kept_occurrences() {
    // A notified rule that does not complete allocates nothing: its leaf
    // match keeps the occurrence inline (one `params` refcount), the
    // retained `Tick` is replaced in place, and the capture list,
    // journals, operand buffers and firing buffer are pooled. So the
    // fan-out does not change the count; an argument-less send shares
    // the empty parameter list, and a send with an argument allocates
    // exactly its parameter list.
    for (args, expected) in [(&[][..], 0.0), (&[Value::Int(7)][..], 1.0)] {
        for rules in [1, 8, 256] {
            let per_send = reactive_fanout_allocs(rules, args);
            assert_eq!(
                per_send,
                expected,
                "{rules} subscribers, {} argument(s): {per_send} allocations per send",
                args.len()
            );
        }
    }
}
