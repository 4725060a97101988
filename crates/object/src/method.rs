//! Native method implementations — the PMF analog.
//!
//! The schema declares method *signatures*; this table holds their
//! *bodies* as registered closures keyed by `(defining class, method
//! name)`. Dispatch resolves the receiver's dynamic class through the C3
//! linearization (in [`ClassRegistry::resolve_method`]) to find the
//! defining class, then looks the body up here.
//!
//! Bodies receive the [`World`] capability, the receiver oid, and the
//! actual arguments — mirroring the implicit `this` plus parameter list of
//! the paper's C++ member functions.

use crate::error::{ObjectError, Result};
use crate::hash::FastMap;
use crate::intern::MethodName;
use crate::schema::{ClassId, ClassRegistry, MethodDef};
use crate::value::Value;
use crate::world::World;
use crate::Oid;
use std::sync::Arc;

/// A native method body.
pub type NativeFn = Arc<dyn Fn(&mut dyn World, Oid, &[Value]) -> Result<Value> + Send + Sync>;

/// Registry of method bodies, keyed by defining class and method name.
/// Nested per class so a lookup borrows the method name (`&str`)
/// instead of building an owned key.
#[derive(Default, Clone)]
pub struct MethodTable {
    impls: FastMap<ClassId, FastMap<String, NativeFn>>,
}

impl std::fmt::Debug for MethodTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MethodTable")
            .field("implementations", &self.len())
            .finish()
    }
}

impl MethodTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register the body for `class::method`. Overwrites any previous
    /// body (tests use this to stub behaviours).
    pub fn register<F>(&mut self, class: ClassId, method: impl Into<String>, body: F)
    where
        F: Fn(&mut dyn World, Oid, &[Value]) -> Result<Value> + Send + Sync + 'static,
    {
        self.impls
            .entry(class)
            .or_default()
            .insert(method.into(), Arc::new(body));
    }

    /// Register a trivial setter body: `method(x)` stores `x` into `attr`.
    /// Covers the paper's ubiquitous `Set-Salary` / `SetPrice` pattern.
    pub fn register_setter(&mut self, class: ClassId, method: impl Into<String>, attr: &str) {
        let attr = attr.to_string();
        self.register(class, method, move |w, this, args| {
            let v = args
                .first()
                .cloned()
                .ok_or_else(|| ObjectError::App("setter expects one argument".into()))?;
            w.set_attr(this, &attr, v)?;
            Ok(Value::Null)
        });
    }

    /// Register a trivial getter body: `method()` returns `attr`.
    pub fn register_getter(&mut self, class: ClassId, method: impl Into<String>, attr: &str) {
        let attr = attr.to_string();
        self.register(class, method, move |w, this, _args| w.get_attr(this, &attr));
    }

    /// Look up the body for an already-resolved `(owner, method)` pair.
    pub fn body(&self, owner: ClassId, method: &str) -> Option<&NativeFn> {
        self.impls.get(&owner)?.get(method)
    }

    /// Resolve a message against the schema and fetch the body, checking
    /// arity. Returns the defining class, the method definition, the
    /// method's interned name, and the body. This is the common half of
    /// every engine's dispatch path, and allocates nothing on success.
    pub fn resolve<'r>(
        &self,
        registry: &'r ClassRegistry,
        class: ClassId,
        method: &str,
        args: &[Value],
    ) -> Result<(ClassId, &'r MethodDef, MethodName, NativeFn)> {
        let (owner, def, name) = registry.resolve_method_named(class, method)?;
        if def.params.len() != args.len() {
            return Err(ObjectError::ArityMismatch {
                method: method.to_string(),
                expected: def.params.len(),
                found: args.len(),
            });
        }
        for (p, a) in def.params.iter().zip(args) {
            if !a.conforms_to(p.ty) {
                return Err(ObjectError::TypeMismatch {
                    expected: p.ty,
                    found: a.type_tag(),
                });
            }
        }
        let body = self.body(owner, method).cloned().ok_or_else(|| {
            ObjectError::MissingImplementation {
                class: registry.get(owner).name.clone(),
                method: method.to_string(),
            }
        })?;
        Ok((owner, def, name, body))
    }

    /// Number of registered bodies.
    pub fn len(&self) -> usize {
        self.impls.values().map(FastMap::len).sum()
    }

    /// True when no bodies are registered.
    pub fn is_empty(&self) -> bool {
        self.impls.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{ClassDecl, EventSpec};
    use crate::store::ObjectStore;
    use crate::value::TypeTag;

    /// Minimal passive world over a bare store, used only by tests in
    /// this crate. The real engines live in `sentinel-db` and
    /// `sentinel-baselines`.
    struct TestWorld {
        registry: ClassRegistry,
        store: ObjectStore,
        methods: MethodTable,
        clock: u64,
    }

    impl World for TestWorld {
        fn registry(&self) -> &ClassRegistry {
            &self.registry
        }
        fn create(&mut self, class: &str) -> Result<Oid> {
            let id = self.registry.id_of(class)?;
            Ok(self.store.create(&self.registry, id))
        }
        fn delete(&mut self, oid: Oid) -> Result<()> {
            self.store.delete(oid).map(|_| ())
        }
        fn get_attr(&self, oid: Oid, attr: &str) -> Result<Value> {
            self.store.get_attr(&self.registry, oid, attr)
        }
        fn set_attr(&mut self, oid: Oid, attr: &str, value: Value) -> Result<()> {
            self.store
                .set_attr(&self.registry, oid, attr, value)
                .map(|_| ())
        }
        fn send(&mut self, receiver: Oid, method: &str, args: &[Value]) -> Result<Value> {
            let class = self.store.class_of(receiver)?;
            let (_, _, _, body) = self.methods.resolve(&self.registry, class, method, args)?;
            self.clock += 1;
            body(self, receiver, args)
        }
        fn class_of(&self, oid: Oid) -> Result<ClassId> {
            self.store.class_of(oid)
        }
        fn extent(&self, class: &str) -> Result<Vec<Oid>> {
            let id = self.registry.id_of(class)?;
            Ok(self.store.extent(&self.registry, id))
        }
        fn now(&self) -> u64 {
            self.clock
        }
    }

    fn world() -> (TestWorld, ClassId) {
        let mut registry = ClassRegistry::new();
        let emp = registry
            .define(
                ClassDecl::reactive("Employee")
                    .attr("salary", TypeTag::Float)
                    .event_method("Set-Salary", &[("x", TypeTag::Float)], EventSpec::End)
                    .method("Get-Salary", &[])
                    .method("Raise", &[("pct", TypeTag::Float)]),
            )
            .unwrap();
        let mut methods = MethodTable::new();
        methods.register_setter(emp, "Set-Salary", "salary");
        methods.register_getter(emp, "Get-Salary", "salary");
        methods.register(emp, "Raise", |w, this, args| {
            let pct = args[0].as_float()?;
            let cur = w.get_attr(this, "salary")?.as_float()?;
            // Nested send: re-enters dispatch.
            w.send(this, "Set-Salary", &[Value::Float(cur * (1.0 + pct))])
        });
        (
            TestWorld {
                registry,
                store: ObjectStore::new(),
                methods,
                clock: 0,
            },
            emp,
        )
    }

    #[test]
    fn dispatch_setter_getter_and_nested_send() {
        let (mut w, _) = world();
        let fred = w.create("Employee").unwrap();
        w.send(fred, "Set-Salary", &[Value::Float(100.0)]).unwrap();
        assert_eq!(
            w.send(fred, "Get-Salary", &[]).unwrap(),
            Value::Float(100.0)
        );
        w.send(fred, "Raise", &[Value::Float(0.5)]).unwrap();
        assert_eq!(
            w.send(fred, "Get-Salary", &[]).unwrap(),
            Value::Float(150.0)
        );
    }

    #[test]
    fn arity_and_type_checked_at_dispatch() {
        let (mut w, _) = world();
        let fred = w.create("Employee").unwrap();
        assert!(matches!(
            w.send(fred, "Set-Salary", &[]),
            Err(ObjectError::ArityMismatch { .. })
        ));
        assert!(matches!(
            w.send(fred, "Set-Salary", &[Value::Str("x".into())]),
            Err(ObjectError::TypeMismatch { .. })
        ));
    }

    #[test]
    fn missing_implementation_detected() {
        let (w, emp) = world();
        // Declare a method without registering a body.
        let mut reg2 = ClassRegistry::new();
        let c = reg2
            .define(ClassDecl::new("Ghost").method("Spook", &[]))
            .unwrap();
        let table = MethodTable::new();
        let err = table.resolve(&reg2, c, "Spook", &[]).err().unwrap();
        assert!(matches!(err, ObjectError::MissingImplementation { .. }));
        // And unknown methods are distinct errors.
        let err = w
            .methods
            .resolve(&w.registry, emp, "Nope", &[])
            .err()
            .unwrap();
        assert!(matches!(err, ObjectError::UnknownMethod { .. }));
    }

    #[test]
    fn inherited_body_dispatches_on_subclass_instance() {
        let (mut w, emp) = world();
        let mgr = w
            .registry
            .define(ClassDecl::reactive("Manager").parent("Employee"))
            .unwrap();
        let mike = w.store.create(&w.registry, mgr);
        w.send(mike, "Set-Salary", &[Value::Float(9.0)]).unwrap();
        assert_eq!(w.send(mike, "Get-Salary", &[]).unwrap(), Value::Float(9.0));
        // The resolved owner is Employee.
        let (owner, _, _, _) = w
            .methods
            .resolve(&w.registry, mgr, "Set-Salary", &[Value::Float(1.0)])
            .unwrap();
        assert_eq!(owner, emp);
    }
}
