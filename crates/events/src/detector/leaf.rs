//! Primitive-event leaves: a compiled spec and the interned-symbol
//! alphabet it matches by.

use crate::spec::{sym_alphabet, EventModifier, PrimitiveEventSpec};
use sentinel_object::{ClassId, ClassRegistry, EventSym, Result};

/// One primitive leaf of a detector's leaf table. The spec parts are
/// kept so the alphabet can be recomputed when the schema grows.
#[derive(Debug, Clone)]
pub(super) struct Leaf {
    class: ClassId,
    method: String,
    modifier: EventModifier,
    /// Sorted interned symbols this leaf consumes (the spec closed over
    /// subclasses).
    alphabet: Vec<EventSym>,
}

impl Leaf {
    /// Compile a primitive spec against the schema. Unknown classes are
    /// reported immediately rather than silently never matching.
    pub(super) fn compile(spec: &PrimitiveEventSpec, registry: &ClassRegistry) -> Result<Leaf> {
        let mut leaf = Leaf {
            class: registry.id_of(&spec.class)?,
            method: spec.method.clone(),
            modifier: spec.modifier,
            alphabet: Vec::new(),
        };
        leaf.refresh(registry);
        Ok(leaf)
    }

    /// Recompute the alphabet against a grown schema (classes defined
    /// after compile time may add subclass symbols).
    pub(super) fn refresh(&mut self, registry: &ClassRegistry) {
        self.alphabet = sym_alphabet(registry, self.class, &self.method, self.modifier);
    }

    /// Does the leaf consume an occurrence with interned symbol `sym`?
    /// Alphabet membership only: a symbol-less occurrence (a method
    /// outside the declared schema) matches no leaf.
    pub(super) fn matches(&self, sym: Option<EventSym>) -> bool {
        sym.is_some_and(|s| self.alphabet.binary_search(&s).is_ok())
    }
}
