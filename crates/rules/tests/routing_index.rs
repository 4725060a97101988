//! Routing-index correctness under every invalidation source.
//!
//! The engine's `(target, symbol)` dispatch index is rebuilt lazily from
//! version stamps (schema size, subscription generation, engine epoch).
//! These tests drive events, mutate each stamp's source, and assert the
//! delivered notification counts — the observable the index changes.
//! The last group checks the per-occurrence dedup: a rule reachable
//! through several subscriptions is notified once per occurrence.

use sentinel_events::PrimitiveOccurrence;
use sentinel_events::{EventExpr, EventModifier, ParamContext, PrimitiveEventSpec};
use sentinel_object::{ClassDecl, ClassRegistry, Oid, Value};
use sentinel_rules::{RuleDef, RuleEngine, ACTION_NOOP};
use std::sync::Arc;

fn registry() -> ClassRegistry {
    let mut reg = ClassRegistry::new();
    reg.define(
        ClassDecl::reactive("Stock")
            .method("SetPrice", &[])
            .method("SetVolume", &[]),
    )
    .unwrap();
    reg
}

fn occ(reg: &ClassRegistry, at: u64, oid: u64, class: &str, method: &str) -> PrimitiveOccurrence {
    let cid = reg.id_of(class).unwrap();
    PrimitiveOccurrence {
        at,
        oid: Oid(oid),
        class: cid,
        owner: cid,
        method: method.into(),
        modifier: EventModifier::End,
        params: Arc::from(vec![Value::Int(at as i64)]),
    }
}

fn watcher(name: &str, class: &str, method: &str) -> RuleDef {
    RuleDef::new(
        name,
        EventExpr::primitive(PrimitiveEventSpec::end(class, method)),
        ACTION_NOOP,
    )
}

/// Routing notifies only the subscribers whose alphabet contains the
/// occurrence's symbol.
#[test]
fn routing_notifies_only_alphabet_matching_subscribers() {
    let reg = registry();
    let mut eng = RuleEngine::new();
    let price = eng
        .add_rule(watcher("price", "Stock", "SetPrice"), Oid::NIL, &reg)
        .unwrap();
    let volume = eng
        .add_rule(watcher("volume", "Stock", "SetVolume"), Oid::NIL, &reg)
        .unwrap();
    eng.subscriptions.subscribe_object(Oid(1), price);
    eng.subscriptions.subscribe_object(Oid(1), volume);

    eng.on_occurrence(&reg, &occ(&reg, 1, 1, "Stock", "SetPrice"))
        .unwrap();
    assert_eq!(eng.stats().notifications, 1);
    assert_eq!(eng.rule(price).unwrap().stats.notifications, 1);
    assert_eq!(eng.rule(volume).unwrap().stats.notifications, 0);

    let fired = eng
        .on_occurrence(&reg, &occ(&reg, 2, 1, "Stock", "SetVolume"))
        .unwrap();
    assert_eq!(fired.len(), 1);
    assert_eq!(fired[0].firing.rule, volume);
    assert_eq!(eng.stats().notifications, 2);
    assert_eq!(eng.rule(price).unwrap().stats.notifications, 1);
    assert_eq!(eng.rule(volume).unwrap().stats.notifications, 1);
}

/// Removing a rule after the index was built must stop its deliveries.
#[test]
fn remove_rule_invalidates_index() {
    let reg = registry();
    let mut eng = RuleEngine::new();
    let a = eng
        .add_rule(watcher("a", "Stock", "SetPrice"), Oid::NIL, &reg)
        .unwrap();
    let b = eng
        .add_rule(watcher("b", "Stock", "SetPrice"), Oid::NIL, &reg)
        .unwrap();
    eng.subscriptions.subscribe_object(Oid(1), a);
    eng.subscriptions.subscribe_object(Oid(1), b);

    let fired = eng
        .on_occurrence(&reg, &occ(&reg, 1, 1, "Stock", "SetPrice"))
        .unwrap();
    assert_eq!(fired.len(), 2);
    assert_eq!(eng.stats().notifications, 2);

    eng.remove_rule(a).unwrap();
    let fired = eng
        .on_occurrence(&reg, &occ(&reg, 2, 1, "Stock", "SetPrice"))
        .unwrap();
    assert_eq!(fired.len(), 1);
    assert_eq!(fired[0].firing.rule, b);
    assert_eq!(eng.stats().notifications, 3);
}

/// Disabled rules drop out of the index; re-enabling re-admits them.
#[test]
fn disable_enable_invalidates_index() {
    let reg = registry();
    let mut eng = RuleEngine::new();
    let r = eng
        .add_rule(watcher("r", "Stock", "SetPrice"), Oid::NIL, &reg)
        .unwrap();
    eng.subscriptions.subscribe_object(Oid(1), r);

    eng.on_occurrence(&reg, &occ(&reg, 1, 1, "Stock", "SetPrice"))
        .unwrap();
    assert_eq!(eng.stats().notifications, 1);

    eng.disable(r).unwrap();
    eng.on_occurrence(&reg, &occ(&reg, 2, 1, "Stock", "SetPrice"))
        .unwrap();
    assert_eq!(eng.stats().notifications, 1, "disabled: not notified");
    assert_eq!(eng.rule(r).unwrap().stats.notifications, 1);

    eng.enable(r).unwrap();
    let fired = eng
        .on_occurrence(&reg, &occ(&reg, 3, 1, "Stock", "SetPrice"))
        .unwrap();
    assert_eq!(fired.len(), 1);
    assert_eq!(eng.stats().notifications, 2);
}

/// Subscribing and unsubscribing after events already flowed (the index
/// is hot) must be reflected on the very next occurrence, including
/// mutations made through the public `subscriptions` field.
#[test]
fn subscribe_unsubscribe_after_events_flowed() {
    let reg = registry();
    let mut eng = RuleEngine::new();
    let r = eng
        .add_rule(watcher("r", "Stock", "SetPrice"), Oid::NIL, &reg)
        .unwrap();
    eng.subscriptions.subscribe_object(Oid(1), r);

    eng.on_occurrence(&reg, &occ(&reg, 1, 1, "Stock", "SetPrice"))
        .unwrap();
    assert_eq!(eng.stats().notifications, 1);

    // A second producer subscribed while the index is hot.
    eng.subscriptions.subscribe_object(Oid(2), r);
    eng.on_occurrence(&reg, &occ(&reg, 2, 2, "Stock", "SetPrice"))
        .unwrap();
    assert_eq!(eng.stats().notifications, 2);

    eng.subscriptions.unsubscribe_object(Oid(1), r);
    eng.on_occurrence(&reg, &occ(&reg, 3, 1, "Stock", "SetPrice"))
        .unwrap();
    assert_eq!(eng.stats().notifications, 2, "unsubscribed: silent");

    // Class subscription added late is honoured too.
    let stock = reg.id_of("Stock").unwrap();
    eng.subscriptions.subscribe_class(stock, r);
    eng.on_occurrence(&reg, &occ(&reg, 4, 7, "Stock", "SetPrice"))
        .unwrap();
    assert_eq!(eng.stats().notifications, 3);
    eng.subscriptions.unsubscribe_class(stock, r);
    eng.on_occurrence(&reg, &occ(&reg, 5, 7, "Stock", "SetPrice"))
        .unwrap();
    assert_eq!(eng.stats().notifications, 3);
}

/// A subclass defined *after* a rule (and its index entry) exists mints
/// fresh symbols for inherited methods; an instance of that subclass
/// raising the parent-spec method must still reach the rule.
#[test]
fn subclass_instance_raises_parent_spec_method() {
    let mut reg = registry();
    let mut eng = RuleEngine::new();
    let r = eng
        .add_rule(watcher("r", "Stock", "SetPrice"), Oid::NIL, &reg)
        .unwrap();
    let stock = reg.id_of("Stock").unwrap();
    eng.subscriptions.subscribe_class(stock, r);

    // Build the index against the current schema.
    eng.on_occurrence(&reg, &occ(&reg, 1, 1, "Stock", "SetPrice"))
        .unwrap();
    assert_eq!(eng.stats().notifications, 1);

    // New subclass: SetPrice on a TechStock is a *different* symbol.
    reg.define(ClassDecl::reactive("TechStock").parent("Stock"))
        .unwrap();
    let fired = eng
        .on_occurrence(&reg, &occ(&reg, 2, 9, "TechStock", "SetPrice"))
        .unwrap();
    assert_eq!(fired.len(), 1, "subclass event reaches the parent rule");
    assert_eq!(eng.stats().notifications, 2);

    // And the sibling method still routes away from the rule.
    eng.on_occurrence(&reg, &occ(&reg, 3, 9, "TechStock", "SetVolume"))
        .unwrap();
    assert_eq!(eng.stats().notifications, 2);
}

/// Expressions containing `Plus` have an unbounded alphabet (any
/// subsequent occurrence can signal the deadline), so such rules must
/// hear *every* event of their subscribed producers even under routing.
#[test]
fn plus_rules_are_routed_broadly() {
    let reg = registry();
    let mut eng = RuleEngine::new();
    let plus = EventExpr::primitive(PrimitiveEventSpec::end("Stock", "SetPrice")).plus(5);
    let r = eng
        .add_rule(
            RuleDef::new("deadline", plus, ACTION_NOOP).context(ParamContext::Chronicle),
            Oid::NIL,
            &reg,
        )
        .unwrap();
    eng.subscriptions.subscribe_object(Oid(1), r);

    // The anchor event, then an unrelated method past the deadline: the
    // rule must be notified of both for the deadline to be detected.
    eng.on_occurrence(&reg, &occ(&reg, 1, 1, "Stock", "SetPrice"))
        .unwrap();
    let fired = eng
        .on_occurrence(&reg, &occ(&reg, 10, 1, "Stock", "SetVolume"))
        .unwrap();
    assert_eq!(eng.stats().notifications, 2, "broad rule hears everything");
    assert_eq!(fired.len(), 1, "deadline detected via unrelated event");
}

/// Occurrences whose method is outside the declared schema carry no
/// symbol and can advance no leaf, so only broad (`Plus`) subscribers
/// hear them.
#[test]
fn symbol_less_occurrences_reach_only_broad_rules() {
    let reg = registry();
    let mut eng = RuleEngine::new();
    let narrow = eng
        .add_rule(watcher("narrow", "Stock", "SetPrice"), Oid::NIL, &reg)
        .unwrap();
    let broad = eng.add_rule(deadline("broad"), Oid::NIL, &reg).unwrap();
    let stock = reg.id_of("Stock").unwrap();
    eng.subscriptions.subscribe_object(Oid(1), narrow);
    eng.subscriptions.subscribe_class(stock, narrow);
    eng.subscriptions.subscribe_object(Oid(1), broad);
    // "Audit" is not in Stock's declared interface.
    eng.on_occurrence(&reg, &occ(&reg, 1, 1, "Stock", "Audit"))
        .unwrap();
    assert_eq!(eng.stats().notifications, 1);
    assert_eq!(eng.rule(narrow).unwrap().stats.notifications, 0);
    assert_eq!(eng.rule(broad).unwrap().stats.notifications, 1);

    // A class subscription routes a broad rule the same way.
    eng.subscriptions.unsubscribe_object(Oid(1), broad);
    eng.subscriptions.subscribe_class(stock, broad);
    eng.on_occurrence(&reg, &occ(&reg, 2, 5, "Stock", "Audit"))
        .unwrap();
    assert_eq!(eng.stats().notifications, 2);
    assert_eq!(eng.rule(narrow).unwrap().stats.notifications, 0);
}

/// A `SetPrice` deadline rule: its `Plus` makes the alphabet unbounded,
/// so the index files it in the broad tables.
fn deadline(name: &str) -> RuleDef {
    let plus = EventExpr::primitive(PrimitiveEventSpec::end("Stock", "SetPrice")).plus(5);
    RuleDef::new(name, plus, ACTION_NOOP).context(ParamContext::Chronicle)
}

/// A class subscription covers subclass instances, but a subclass
/// subscription does not cover instances of the parent class.
#[test]
fn class_subscriptions_cover_subclasses_only_downward() {
    let mut reg = registry();
    reg.define(ClassDecl::reactive("TechStock").parent("Stock"))
        .unwrap();
    let mut eng = RuleEngine::new();
    let parent = eng
        .add_rule(watcher("parent", "Stock", "SetPrice"), Oid::NIL, &reg)
        .unwrap();
    let child = eng
        .add_rule(watcher("child", "TechStock", "SetPrice"), Oid::NIL, &reg)
        .unwrap();
    eng.subscriptions
        .subscribe_class(reg.id_of("Stock").unwrap(), parent);
    eng.subscriptions
        .subscribe_class(reg.id_of("TechStock").unwrap(), child);

    eng.on_occurrence(&reg, &occ(&reg, 1, 1, "TechStock", "SetPrice"))
        .unwrap();
    assert_eq!(eng.rule(parent).unwrap().stats.notifications, 1);
    assert_eq!(eng.rule(child).unwrap().stats.notifications, 1);
    eng.on_occurrence(&reg, &occ(&reg, 2, 2, "Stock", "SetPrice"))
        .unwrap();
    assert_eq!(eng.rule(parent).unwrap().stats.notifications, 2);
    assert_eq!(eng.rule(child).unwrap().stats.notifications, 1);
}

/// A rule subscribed to an object *and* to its class is reached through
/// two index lists but notified once per occurrence — for a
/// symbol-bounded rule and for a broad (`Plus`) rule alike.
#[test]
fn object_and_class_subscriptions_notify_once() {
    let reg = registry();
    let mut eng = RuleEngine::new();
    let stock = reg.id_of("Stock").unwrap();
    let narrow = eng
        .add_rule(watcher("narrow", "Stock", "SetPrice"), Oid::NIL, &reg)
        .unwrap();
    let broad = eng.add_rule(deadline("broad"), Oid::NIL, &reg).unwrap();
    for r in [narrow, broad] {
        eng.subscriptions.subscribe_object(Oid(1), r);
        eng.subscriptions.subscribe_class(stock, r);
    }

    let fired = eng
        .on_occurrence(&reg, &occ(&reg, 1, 1, "Stock", "SetPrice"))
        .unwrap();
    assert_eq!(fired.len(), 1, "the watcher fires once");
    assert_eq!(eng.rule(narrow).unwrap().stats.notifications, 1);
    assert_eq!(eng.rule(broad).unwrap().stats.notifications, 1);
    assert_eq!(eng.stats().notifications, 2);

    // The next occurrence is a new delivery: both are notified again.
    eng.on_occurrence(&reg, &occ(&reg, 2, 1, "Stock", "SetPrice"))
        .unwrap();
    assert_eq!(eng.rule(narrow).unwrap().stats.notifications, 2);
    assert_eq!(eng.rule(broad).unwrap().stats.notifications, 2);
    assert_eq!(eng.stats().notifications, 4);
}

/// The paper's index scenario at scale: 256 rules subscribed to one
/// object give exactly 256 notifications per occurrence.
#[test]
fn many_subscribers_are_each_notified_once() {
    const RULES: u64 = 256;
    let reg = registry();
    let mut eng = RuleEngine::new();
    let stock = reg.id_of("Stock").unwrap();
    for i in 0..RULES {
        let r = eng
            .add_rule(
                watcher(&format!("w{i}"), "Stock", "SetPrice"),
                Oid::NIL,
                &reg,
            )
            .unwrap();
        eng.subscriptions.subscribe_object(Oid(1), r);
        if i % 2 == 0 {
            eng.subscriptions.subscribe_class(stock, r);
        }
    }
    for at in 1..=3 {
        let fired = eng
            .on_occurrence(&reg, &occ(&reg, at, 1, "Stock", "SetPrice"))
            .unwrap();
        assert_eq!(fired.len() as u64, RULES);
        assert_eq!(eng.stats().notifications, RULES * at);
    }
    assert!(eng.iter_rules().all(|r| r.stats.notifications == 3));
}

/// An immediate action that raises another event on the same object
/// re-enters delivery while the outer occurrence's firings are still
/// being run. The nested occurrence gets a fresh stamp, so it reaches
/// the rules the outer one already notified.
#[test]
fn reentrant_delivery_reaches_already_notified_rules() {
    let reg = registry();
    let mut eng = RuleEngine::new();
    let stock = reg.id_of("Stock").unwrap();
    let either = EventExpr::primitive(PrimitiveEventSpec::end("Stock", "SetPrice")).or(
        EventExpr::primitive(PrimitiveEventSpec::end("Stock", "SetVolume")),
    );
    let r = eng
        .add_rule(RuleDef::new("either", either, ACTION_NOOP), Oid::NIL, &reg)
        .unwrap();
    eng.subscriptions.subscribe_object(Oid(1), r);
    eng.subscriptions.subscribe_class(stock, r);

    let mut outer = Vec::new();
    eng.on_occurrence_into(&reg, &occ(&reg, 1, 1, "Stock", "SetPrice"), &mut outer)
        .unwrap();
    assert_eq!(outer.len(), 1);
    // "Run" the outer firing: its action sends SetVolume to the same
    // object, which delivers into a nested buffer.
    let mut nested = Vec::new();
    for _ in &outer {
        eng.on_occurrence_into(&reg, &occ(&reg, 2, 1, "Stock", "SetVolume"), &mut nested)
            .unwrap();
    }
    assert_eq!(
        nested.len(),
        1,
        "the nested occurrence fires the rule again"
    );
    assert_eq!(eng.rule(r).unwrap().stats.notifications, 2);
    assert_eq!(eng.stats().notifications, 2);
}
