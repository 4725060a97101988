//! Pluggable conflict-resolution strategies.
//!
//! When one event triggers several rules, *something* must pick an
//! execution order. The paper makes extensibility here a design goal:
//! "our design allows incorporation of new features (for example,
//! providing a new conflict resolution strategy) without modifications
//! to application code" (§3). The strategy is therefore a trait object
//! installed on the engine, replaceable at runtime.

use crate::engine::ReadyFiring;

/// Orders a batch of simultaneous firings.
pub trait ConflictResolver: Send + Sync {
    /// Strategy name (for experiment tables).
    fn name(&self) -> &'static str;

    /// Reorder `firings` in place into execution order.
    fn order(&self, firings: &mut [ReadyFiring]);
}

/// Fire higher-priority rules first; ties keep trigger order (stable).
#[derive(Debug, Default, Clone, Copy)]
pub struct PriorityResolver;

impl ConflictResolver for PriorityResolver {
    fn name(&self) -> &'static str {
        "priority"
    }
    fn order(&self, firings: &mut [ReadyFiring]) {
        firings.sort_by_key(|f| std::cmp::Reverse(f.priority));
    }
}

/// Fire in trigger order (the detection order) — the engine default.
#[derive(Debug, Default, Clone, Copy)]
pub struct FifoResolver;

impl ConflictResolver for FifoResolver {
    fn name(&self) -> &'static str {
        "fifo"
    }
    fn order(&self, _firings: &mut [ReadyFiring]) {}
}

/// Fire most recently triggered first.
#[derive(Debug, Default, Clone, Copy)]
pub struct LifoResolver;

impl ConflictResolver for LifoResolver {
    fn name(&self) -> &'static str {
        "lifo"
    }
    fn order(&self, firings: &mut [ReadyFiring]) {
        firings.reverse();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::body::{Firing, RuleBodyRegistry, ACTION_NOOP, COND_TRUE};
    use crate::rule::RuleId;
    use sentinel_events::CompositeOccurrence;

    fn firing(id: u64, priority: i32) -> ReadyFiring {
        let bodies = RuleBodyRegistry::new();
        ReadyFiring {
            priority,
            coupling: crate::coupling::CouplingMode::Immediate,
            condition: bodies.condition(COND_TRUE).unwrap(),
            action: bodies.action(ACTION_NOOP).unwrap(),
            firing: Firing {
                rule: RuleId(id),
                rule_name: format!("r{id}").into(),
                occurrence: CompositeOccurrence {
                    constituents: Default::default(),
                    start: id,
                    end: id,
                },
                lineage: Default::default(),
            },
            group: None,
        }
    }

    fn ids(fs: &[ReadyFiring]) -> Vec<u64> {
        fs.iter().map(|f| f.firing.rule.0).collect()
    }

    #[test]
    fn priority_orders_descending_and_is_stable() {
        let mut fs = vec![firing(1, 0), firing(2, 5), firing(3, 0), firing(4, 5)];
        PriorityResolver.order(&mut fs);
        assert_eq!(ids(&fs), [2, 4, 1, 3]);
    }

    #[test]
    fn fifo_keeps_trigger_order() {
        let mut fs = vec![firing(3, 9), firing(1, 0), firing(2, 5)];
        FifoResolver.order(&mut fs);
        assert_eq!(ids(&fs), [3, 1, 2]);
    }

    #[test]
    fn lifo_reverses() {
        let mut fs = vec![firing(1, 0), firing(2, 0), firing(3, 0)];
        LifoResolver.order(&mut fs);
        assert_eq!(ids(&fs), [3, 2, 1]);
    }

    #[test]
    fn priority_all_ties_is_identity() {
        // Equal priorities throughout: the stable sort must leave the
        // trigger order completely untouched.
        let mut fs = vec![firing(7, 3), firing(5, 3), firing(9, 3), firing(1, 3)];
        PriorityResolver.order(&mut fs);
        assert_eq!(ids(&fs), [7, 5, 9, 1]);
    }

    /// A custom resolver installed at runtime via `set_resolver` must
    /// actually be consulted by the engine — §3's "new conflict
    /// resolution strategy without modifications to application code".
    #[test]
    fn custom_resolver_installed_at_runtime_is_consulted() {
        use crate::engine::RuleEngine;
        use crate::rule::RuleDef;
        use sentinel_events::{EventExpr, EventModifier, PrimitiveEventSpec, PrimitiveOccurrence};
        use sentinel_object::{ClassDecl, ClassRegistry, Oid, Value};
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;

        /// Reverses the batch and counts invocations.
        struct CountingReverser(Arc<AtomicUsize>);
        impl ConflictResolver for CountingReverser {
            fn name(&self) -> &'static str {
                "counting-reverser"
            }
            fn order(&self, firings: &mut [ReadyFiring]) {
                self.0.fetch_add(1, Ordering::SeqCst);
                firings.reverse();
            }
        }

        let mut reg = ClassRegistry::new();
        reg.define(ClassDecl::reactive("Stock").method("SetPrice", &[]))
            .unwrap();
        let mut eng = RuleEngine::new();
        let calls = Arc::new(AtomicUsize::new(0));
        eng.set_resolver(Box::new(CountingReverser(calls.clone())));

        let mk = |name: &str| {
            RuleDef::new(
                name,
                EventExpr::primitive(PrimitiveEventSpec::end("Stock", "SetPrice")),
                ACTION_NOOP,
            )
        };
        let first = eng.add_rule(mk("first"), Oid::NIL, &reg).unwrap();
        let second = eng.add_rule(mk("second"), Oid::NIL, &reg).unwrap();
        eng.subscriptions.subscribe_object(Oid(1), first);
        eng.subscriptions.subscribe_object(Oid(1), second);

        let cid = reg.id_of("Stock").unwrap();
        let fired = eng
            .on_occurrence(
                &reg,
                &PrimitiveOccurrence {
                    at: 1,
                    oid: Oid(1),
                    class: cid,
                    owner: cid,
                    method: "SetPrice".into(),
                    modifier: EventModifier::End,
                    params: Arc::from(vec![Value::Int(1)]),
                },
            )
            .unwrap();
        assert_eq!(calls.load(Ordering::SeqCst), 1, "resolver not consulted");
        assert_eq!(fired.len(), 2);
        // Trigger order was (first, second); the reverser flipped it.
        assert_eq!(fired[0].firing.rule, second);
        assert_eq!(fired[1].firing.rule, first);
    }
}
