//! The ADAM-style engine: rules as runtime objects, centrally
//! dispatched per class.
//!
//! Models the ADAM architecture as the paper characterises it (§1,
//! §5–6, Figures 12–13):
//!
//! * **Events are objects**: `db-event(active-method, when)` — a method
//!   name plus before/after. One event object can be shared by several
//!   rules (Figure 12 creates a single event for both salary rules).
//! * **Rules are objects** created, enabled, and disabled at runtime;
//!   each has exactly one `active-class`. A rule is checked for *every*
//!   instance of that class (and its subclasses), minus the oids listed
//!   in `disabled-for` — the paper's point that restricting a rule to a
//!   few instances is cumbersome.
//! * Dispatch is **centralized**: every message send consults the rule
//!   tables of every class in the receiver's linearization. There is no
//!   per-object consumer list, so the per-message cost grows with the
//!   number of rules attached to the class, not with the number of
//!   rules relevant to the receiving instance (experiment E3).
//! * No composite events: a rule triggered by updates to two classes
//!   needs two rule objects (Figure 13).

use crate::interface::{ActiveEngine, Capabilities, EngineCounters};
use crate::kernel::Kernel;
use sentinel_events::EventModifier;
use sentinel_object::{ClassDecl, ClassId, ClassRegistry, ObjectError, Oid, Result, Value, World};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// Identity of an ADAM `db-event` object.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AdamEventId(pub u32);

/// Condition body: receives the triggering object and message arguments
/// (`current-object` and `current-arguments` in ADAM's PROLOG).
pub type AdamCond = Arc<dyn Fn(&mut dyn World, Oid, &[Value]) -> Result<bool> + Send + Sync>;
/// Action body.
pub type AdamAction = Arc<dyn Fn(&mut dyn World, Oid, &[Value]) -> Result<()> + Send + Sync>;

struct AdamEventDef {
    method: String,
    when: EventModifier,
}

/// Creation-time description of an ADAM rule (Figure 13's attribute
/// list).
pub struct AdamRuleSpec {
    /// Rule name (unique per engine).
    pub name: String,
    /// The shared `db-event` object the rule listens to.
    pub event: AdamEventId,
    /// The single class the rule is attached to.
    pub active_class: String,
    /// Condition body.
    pub condition: AdamCond,
    /// Action body.
    pub action: AdamAction,
}

struct AdamRule {
    name: String,
    event: AdamEventId,
    enabled: bool,
    disabled_for: HashSet<Oid>,
    condition: AdamCond,
    action: AdamAction,
}

/// The ADAM-style engine.
pub struct AdamEngine {
    kernel: Kernel,
    events: Vec<AdamEventDef>,
    rules: Vec<Option<AdamRule>>,
    by_name: HashMap<String, usize>,
    /// Central dispatch table: rules attached to each active class.
    by_class: HashMap<ClassId, Vec<usize>>,
    counters: EngineCounters,
    depth: usize,
    max_depth: usize,
}

impl Default for AdamEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl AdamEngine {
    /// An empty engine.
    pub fn new() -> Self {
        AdamEngine {
            kernel: Kernel::new(),
            events: Vec::new(),
            rules: Vec::new(),
            by_name: HashMap::new(),
            by_class: HashMap::new(),
            counters: EngineCounters::default(),
            depth: 0,
            max_depth: 64,
        }
    }

    /// Define a class.
    pub fn define_class(&mut self, decl: ClassDecl) -> Result<ClassId> {
        self.kernel.define_class(decl)
    }

    /// Register a method body.
    pub fn register_method<F>(&mut self, class: &str, method: &str, body: F) -> Result<()>
    where
        F: Fn(&mut dyn World, Oid, &[Value]) -> Result<Value> + Send + Sync + 'static,
    {
        self.kernel.register_method(class, method, body)
    }

    /// Register a setter body.
    pub fn register_setter(&mut self, class: &str, method: &str, attr: &str) -> Result<()> {
        self.kernel.register_setter(class, method, attr)
    }

    /// Create a `db-event` object (Figure 12). Shared by any number of
    /// rules.
    pub fn define_event(&mut self, method: &str, when: EventModifier) -> AdamEventId {
        self.events.push(AdamEventDef {
            method: method.to_string(),
            when,
        });
        AdamEventId(self.events.len() as u32 - 1)
    }

    /// Create a rule object at runtime (Figure 13).
    pub fn add_rule(&mut self, spec: AdamRuleSpec) -> Result<()> {
        if self.by_name.contains_key(&spec.name) {
            return Err(ObjectError::DuplicateRule(spec.name));
        }
        if spec.event.0 as usize >= self.events.len() {
            return Err(ObjectError::UnknownEvent(format!(
                "no db-event #{}",
                spec.event.0
            )));
        }
        let class = self.kernel.registry.id_of(&spec.active_class)?;
        let idx = self.rules.len();
        self.rules.push(Some(AdamRule {
            name: spec.name.clone(),
            event: spec.event,
            enabled: true,
            disabled_for: HashSet::new(),
            condition: spec.condition,
            action: spec.action,
        }));
        self.by_name.insert(spec.name, idx);
        self.by_class.entry(class).or_default().push(idx);
        Ok(())
    }

    /// Delete a rule object at runtime.
    pub fn remove_rule(&mut self, name: &str) -> Result<()> {
        let idx = self.rule_idx(name)?;
        self.rules[idx] = None;
        self.by_name.remove(name);
        for v in self.by_class.values_mut() {
            v.retain(|&i| i != idx);
        }
        Ok(())
    }

    /// Enable/disable a rule for all instances.
    pub fn set_enabled(&mut self, name: &str, enabled: bool) -> Result<()> {
        let idx = self.rule_idx(name)?;
        self.rules[idx].as_mut().expect("live").enabled = enabled;
        Ok(())
    }

    /// ADAM's `disabled-for` list: exempt an instance from a class rule.
    /// Restricting a rule to ONE instance of a large class means calling
    /// this for every other instance — the cost E10 demonstrates.
    pub fn disable_for(&mut self, name: &str, oid: Oid) -> Result<()> {
        let idx = self.rule_idx(name)?;
        self.rules[idx]
            .as_mut()
            .expect("live")
            .disabled_for
            .insert(oid);
        Ok(())
    }

    fn rule_idx(&self, name: &str) -> Result<usize> {
        self.by_name
            .get(name)
            .copied()
            .ok_or_else(|| ObjectError::UnknownRule(name.to_string()))
    }

    /// Create an instance (auto-transaction).
    pub fn create(&mut self, class: &str) -> Result<Oid> {
        let id = self.kernel.registry.id_of(class)?;
        self.kernel.txn.begin()?;
        match self.kernel.create_in_txn(id) {
            Ok(o) => {
                self.kernel.txn.commit()?;
                Ok(o)
            }
            Err(e) => {
                self.kernel.rollback();
                Err(e)
            }
        }
    }

    /// Write an attribute directly (no rule checking).
    pub fn set_attr(&mut self, oid: Oid, attr: &str, value: Value) -> Result<()> {
        self.kernel.txn.begin()?;
        match self.kernel.set_attr_in_txn(oid, attr, value) {
            Ok(()) => {
                self.kernel.txn.commit()?;
                Ok(())
            }
            Err(e) => {
                self.kernel.rollback();
                Err(e)
            }
        }
    }

    /// Read an attribute.
    pub fn get_attr(&self, oid: Oid, attr: &str) -> Result<Value> {
        self.kernel.store.get_attr(&self.kernel.registry, oid, attr)
    }

    /// Public message send (auto-transaction).
    pub fn send(&mut self, receiver: Oid, method: &str, args: &[Value]) -> Result<Value> {
        self.kernel.txn.begin()?;
        match self.dispatch(receiver, method, args) {
            Ok(v) => {
                self.kernel.txn.commit()?;
                Ok(v)
            }
            Err(e) => {
                self.kernel.rollback();
                if e.is_abort() {
                    self.counters.aborts += 1;
                }
                Err(e)
            }
        }
    }

    fn dispatch(&mut self, receiver: Oid, method: &str, args: &[Value]) -> Result<Value> {
        if self.depth >= self.max_depth {
            return Err(ObjectError::CascadeDepthExceeded {
                limit: self.max_depth,
            });
        }
        self.depth += 1;
        let out = self.dispatch_inner(receiver, method, args);
        self.depth -= 1;
        out
    }

    fn dispatch_inner(&mut self, receiver: Oid, method: &str, args: &[Value]) -> Result<Value> {
        let class = self.kernel.store.class_of(receiver)?;
        let (_owner, _def, _name, body) =
            self.kernel
                .methods
                .resolve(&self.kernel.registry, class, method, args)?;
        self.kernel.tick();
        self.run_rules(receiver, class, method, EventModifier::Begin, args)?;
        let result = body(self, receiver, args)?;
        self.run_rules(receiver, class, method, EventModifier::End, args)?;
        Ok(result)
    }

    /// The centralized lookup: walk the receiver's class linearization
    /// and scan each class's attached rules.
    fn run_rules(
        &mut self,
        receiver: Oid,
        class: ClassId,
        method: &str,
        when: EventModifier,
        args: &[Value],
    ) -> Result<()> {
        let lin = self.kernel.registry.get(class).linearization.clone();
        for cid in lin {
            let Some(rule_idxs) = self.by_class.get(&cid) else {
                continue;
            };
            // Snapshot: actions may add/remove rules.
            let rule_idxs = rule_idxs.clone();
            for idx in rule_idxs {
                self.counters.rule_checks += 1;
                let Some(rule) = self.rules[idx].as_ref() else {
                    continue;
                };
                if !rule.enabled || rule.disabled_for.contains(&receiver) {
                    continue;
                }
                let ev = &self.events[rule.event.0 as usize];
                if ev.when != when || ev.method != method {
                    continue;
                }
                let cond = rule.condition.clone();
                let action = rule.action.clone();
                self.counters.condition_evals += 1;
                if cond(self, receiver, args)? {
                    self.counters.actions_run += 1;
                    action(self, receiver, args)?;
                }
            }
        }
        Ok(())
    }

    /// All instances of a class.
    pub fn extent(&self, class: &str) -> Result<Vec<Oid>> {
        let id = self.kernel.registry.id_of(class)?;
        Ok(self.kernel.store.extent(&self.kernel.registry, id))
    }

    /// Names of all live rules.
    pub fn rule_names(&self) -> Vec<String> {
        self.rules
            .iter()
            .flatten()
            .map(|r| r.name.clone())
            .collect()
    }
}

impl World for AdamEngine {
    fn registry(&self) -> &ClassRegistry {
        &self.kernel.registry
    }
    fn create(&mut self, class: &str) -> Result<Oid> {
        let id = self.kernel.registry.id_of(class)?;
        self.kernel.create_in_txn(id)
    }
    fn delete(&mut self, oid: Oid) -> Result<()> {
        self.kernel.delete_in_txn(oid)
    }
    fn get_attr(&self, oid: Oid, attr: &str) -> Result<Value> {
        self.kernel.store.get_attr(&self.kernel.registry, oid, attr)
    }
    fn set_attr(&mut self, oid: Oid, attr: &str, value: Value) -> Result<()> {
        self.kernel.set_attr_in_txn(oid, attr, value)
    }
    fn send(&mut self, receiver: Oid, method: &str, args: &[Value]) -> Result<Value> {
        self.dispatch(receiver, method, args)
    }
    fn class_of(&self, oid: Oid) -> Result<ClassId> {
        self.kernel.store.class_of(oid)
    }
    fn extent(&self, class: &str) -> Result<Vec<Oid>> {
        AdamEngine::extent(self, class)
    }
    fn now(&self) -> u64 {
        self.kernel.now()
    }
}

impl ActiveEngine for AdamEngine {
    fn engine_name(&self) -> &'static str {
        "adam"
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            runtime_rule_addition: true,
            direct_instance_level_rules: false, // only via disabled-for exhaustion
            inter_class_composite_events: false,
            events_first_class: true,
            rules_first_class: true,
            rule_sharing_across_classes: false, // one active-class per rule
            rules_on_rules: false,
            composite_operators: &[],
            coupling_modes: &["immediate"],
        }
    }

    fn counters(&self) -> EngineCounters {
        self.counters
    }

    fn reset_counters(&mut self) {
        self.counters = EngineCounters::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sentinel_object::TypeTag;

    /// Figures 12–13: one shared db-event, two rule objects (employee
    /// and manager variants of the salary check).
    fn salary_engine() -> AdamEngine {
        let mut adam = AdamEngine::new();
        adam.define_class(
            ClassDecl::new("Employee")
                .attr("sal", TypeTag::Float)
                .attr("mgr", TypeTag::Oid)
                .method("Set-Salary", &[("x", TypeTag::Float)]),
        )
        .unwrap();
        adam.define_class(ClassDecl::new("Manager").parent("Employee"))
            .unwrap();
        adam.register_setter("Employee", "Set-Salary", "sal")
            .unwrap();

        // Figure 12: a single event object shared by both rules.
        let ev = adam.define_event("Set-Salary", EventModifier::End);

        // Figure 13, first rule object: active-class employee.
        adam.add_rule(AdamRuleSpec {
            name: "emp-salary-check".into(),
            event: ev,
            active_class: "Employee".into(),
            condition: Arc::new(|w, this, _args| {
                let mgr = w.get_attr(this, "mgr")?.as_oid()?;
                if mgr.is_nil() {
                    return Ok(false);
                }
                Ok(w.get_attr(this, "sal")?.as_float()? >= w.get_attr(mgr, "sal")?.as_float()?)
            }),
            action: Arc::new(|_w, _this, _args| Err(ObjectError::abort("Invalid Salary"))),
        })
        .unwrap();
        // Figure 13, second rule object: active-class manager.
        adam.add_rule(AdamRuleSpec {
            name: "mgr-salary-check".into(),
            event: ev,
            active_class: "Manager".into(),
            condition: Arc::new(|w, this, _args| {
                let my = w.get_attr(this, "sal")?.as_float()?;
                for e in w.extent("Employee")? {
                    if e == this {
                        continue;
                    }
                    if w.get_attr(e, "mgr")?.as_oid()? == this
                        && w.get_attr(e, "sal")?.as_float()? >= my
                    {
                        return Ok(true);
                    }
                }
                Ok(false)
            }),
            action: Arc::new(|_w, _this, _args| Err(ObjectError::abort("Invalid Salary"))),
        })
        .unwrap();
        adam
    }

    #[test]
    fn figures_12_13_two_rule_objects_needed() {
        let mut adam = salary_engine();
        let mike = adam.create("Manager").unwrap();
        adam.set_attr(mike, "sal", Value::Float(100.0)).unwrap();
        let fred = adam.create("Employee").unwrap();
        adam.set_attr(fred, "mgr", Value::Oid(mike)).unwrap();

        adam.send(fred, "Set-Salary", &[Value::Float(80.0)])
            .unwrap();
        // Violation from the employee side.
        let err = adam
            .send(fred, "Set-Salary", &[Value::Float(150.0)])
            .err()
            .unwrap();
        assert!(err.is_abort());
        assert_eq!(adam.get_attr(fred, "sal").unwrap(), Value::Float(80.0));
        // Violation from the manager side (manager inherits the employee
        // rule too, but its mgr is nil so only the manager rule bites).
        let err = adam
            .send(mike, "Set-Salary", &[Value::Float(50.0)])
            .err()
            .unwrap();
        assert!(err.is_abort());
        assert_eq!(adam.get_attr(mike, "sal").unwrap(), Value::Float(100.0));
    }

    #[test]
    fn rules_inherited_by_subclass_instances() {
        let mut adam = salary_engine();
        // A manager *is an* employee: the employee rule applies to it.
        let boss = adam.create("Manager").unwrap();
        adam.set_attr(boss, "sal", Value::Float(500.0)).unwrap();
        let mike = adam.create("Manager").unwrap();
        adam.set_attr(mike, "mgr", Value::Oid(boss)).unwrap();
        let err = adam
            .send(mike, "Set-Salary", &[Value::Float(900.0)])
            .err()
            .unwrap();
        assert!(err.is_abort());
    }

    #[test]
    fn centralized_dispatch_checks_every_class_rule() {
        // 50 rules on Employee, each relevant to a different method that
        // never runs: every send still scans all of them.
        let mut adam = AdamEngine::new();
        adam.define_class(
            ClassDecl::new("Employee")
                .attr("sal", TypeTag::Float)
                .method("Set-Salary", &[("x", TypeTag::Float)]),
        )
        .unwrap();
        adam.register_setter("Employee", "Set-Salary", "sal")
            .unwrap();
        for i in 0..50 {
            let ev = adam.define_event(&format!("Method-{i}"), EventModifier::End);
            adam.add_rule(AdamRuleSpec {
                name: format!("r{i}"),
                event: ev,
                active_class: "Employee".into(),
                condition: Arc::new(|_, _, _| Ok(true)),
                action: Arc::new(|_, _, _| Ok(())),
            })
            .unwrap();
        }
        let fred = adam.create("Employee").unwrap();
        adam.reset_counters();
        adam.send(fred, "Set-Salary", &[Value::Float(1.0)]).unwrap();
        // Begin + End sweeps: 2 × 50 checks, 0 condition evals.
        assert_eq!(adam.counters().rule_checks, 100);
        assert_eq!(adam.counters().condition_evals, 0);
    }

    #[test]
    fn disabled_for_exempts_instances() {
        let mut adam = AdamEngine::new();
        adam.define_class(
            ClassDecl::new("Doc")
                .attr("saves", TypeTag::Int)
                .method("Save", &[]),
        )
        .unwrap();
        adam.register_method("Doc", "Save", |w, this, _| {
            let n = w.get_attr(this, "saves")?.as_int()?;
            w.set_attr(this, "saves", Value::Int(n + 1))?;
            Ok(Value::Null)
        })
        .unwrap();
        let ev = adam.define_event("Save", EventModifier::End);
        adam.add_rule(AdamRuleSpec {
            name: "cap-saves".into(),
            event: ev,
            active_class: "Doc".into(),
            condition: Arc::new(|w, this, _| Ok(w.get_attr(this, "saves")?.as_int()? > 1)),
            action: Arc::new(|_, _, _| Err(ObjectError::abort("save cap"))),
        })
        .unwrap();
        let a = adam.create("Doc").unwrap();
        let b = adam.create("Doc").unwrap();
        adam.disable_for("cap-saves", b).unwrap();
        adam.send(a, "Save", &[]).unwrap();
        assert!(adam.send(a, "Save", &[]).err().unwrap().is_abort());
        // b is exempt: saves freely.
        for _ in 0..5 {
            adam.send(b, "Save", &[]).unwrap();
        }
        assert_eq!(adam.get_attr(b, "saves").unwrap(), Value::Int(5));
    }

    #[test]
    fn runtime_rule_lifecycle() {
        let mut adam = AdamEngine::new();
        adam.define_class(ClassDecl::new("C").attr("x", TypeTag::Int).method("M", &[]))
            .unwrap();
        adam.register_method("C", "M", |_, _, _| Ok(Value::Null))
            .unwrap();
        let ev = adam.define_event("M", EventModifier::End);
        let count = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let c2 = count.clone();
        adam.add_rule(AdamRuleSpec {
            name: "r".into(),
            event: ev,
            active_class: "C".into(),
            condition: Arc::new(|_, _, _| Ok(true)),
            action: Arc::new(move |_, _, _| {
                c2.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                Ok(())
            }),
        })
        .unwrap();
        let o = adam.create("C").unwrap();
        adam.send(o, "M", &[]).unwrap();
        adam.set_enabled("r", false).unwrap();
        adam.send(o, "M", &[]).unwrap();
        adam.set_enabled("r", true).unwrap();
        adam.send(o, "M", &[]).unwrap();
        adam.remove_rule("r").unwrap();
        adam.send(o, "M", &[]).unwrap();
        assert_eq!(count.load(std::sync::atomic::Ordering::Relaxed), 2);
        assert!(adam.remove_rule("r").is_err());
    }

    #[test]
    fn capability_matrix_matches_the_model() {
        let adam = AdamEngine::new();
        let c = adam.capabilities();
        assert!(c.runtime_rule_addition);
        assert!(c.events_first_class);
        assert!(c.rules_first_class);
        assert!(!c.inter_class_composite_events);
        assert!(!c.rule_sharing_across_classes);
        assert!(!c.direct_instance_level_rules);
    }
}
