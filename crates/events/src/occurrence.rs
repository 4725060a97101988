//! Event occurrences.
//!
//! A generated primitive event is the tuple the paper prescribes (§3.1):
//!
//! ```text
//! Generated primitive event = Oid + Class + Method + Actual parameters + Time stamp
//! ```
//!
//! Composite occurrences carry their constituent primitives so that rule
//! conditions can inspect the parameters computed when each constituent
//! was raised (the paper's `Record` method on Notifiable stores exactly
//! these).

use crate::spec::EventModifier;
use sentinel_object::{ClassId, ClassRegistry, EventSym, MethodName, Oid, Value};
use serde::{Content, Deserialize, Error, Serialize};
use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

/// One generated primitive event.
///
/// An occurrence is fanned out to every subscribed consumer (paper
/// Figure 2), so clones must be cheap: `method` is an interned `Copy`
/// handle and `params` is reference-counted, so a clone costs one
/// refcount.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PrimitiveOccurrence {
    /// Logical timestamp (strictly increasing database-wide).
    pub at: u64,
    /// The reactive object that generated the event.
    pub oid: Oid,
    /// Dynamic class of that object.
    pub class: ClassId,
    /// Class that *defines* the resolved method (differs from `class`
    /// when the method is inherited).
    pub owner: ClassId,
    /// Method name, interned when the class was defined.
    pub method: MethodName,
    /// begin-of-method or end-of-method.
    pub modifier: EventModifier,
    /// Actual arguments of the message.
    pub params: Arc<[Value]>,
}

impl PrimitiveOccurrence {
    /// Convenience accessor: the i-th actual parameter.
    pub fn param(&self, i: usize) -> Option<&Value> {
        self.params.get(i)
    }

    /// The occurrence's interned event symbol, or `None` when the method
    /// is not part of the dynamic class's declared interface (such an
    /// occurrence matches no detector leaf).
    pub fn sym(&self, registry: &ClassRegistry) -> Option<EventSym> {
        registry.event_sym(self.class, &self.method, self.modifier.is_end())
    }
}

impl fmt::Display for PrimitiveOccurrence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[t={} {} {} {}(",
            self.at, self.modifier, self.oid, self.method
        )?;
        for (i, v) in self.params.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{v}")?;
        }
        f.write_str(")]")
    }
}

/// The constituent primitive occurrences of a composite occurrence, in
/// detection order.
///
/// Most occurrences a detector keeps are leaf matches with exactly one
/// constituent, so a lone constituent is held inline and only two or
/// more take a `Vec`. Reads go through the slice (`Deref`); equality
/// compares slices, so the representation is never observable, and it
/// serializes as a plain array.
#[derive(Clone, Default)]
pub struct Constituents(Repr);

#[derive(Clone)]
enum Repr {
    One(PrimitiveOccurrence),
    Many(Vec<PrimitiveOccurrence>),
}

impl Default for Repr {
    fn default() -> Self {
        Repr::Many(Vec::new())
    }
}

impl Constituents {
    /// Room for `n` constituents: a `Vec` only when `n` is two or more.
    fn with_capacity(n: usize) -> Self {
        match n {
            0 | 1 => Self::default(),
            _ => Constituents(Repr::Many(Vec::with_capacity(n))),
        }
    }

    /// Append one constituent. An empty list without reserved room takes
    /// it inline.
    fn push(&mut self, p: PrimitiveOccurrence) {
        match &mut self.0 {
            Repr::Many(v) if v.is_empty() && v.capacity() == 0 => self.0 = Repr::One(p),
            Repr::Many(v) => v.push(p),
            Repr::One(_) => {
                let Repr::One(first) = std::mem::take(&mut self.0) else {
                    unreachable!("matched One above");
                };
                self.0 = Repr::Many(vec![first, p]);
            }
        }
    }
}

impl Deref for Constituents {
    type Target = [PrimitiveOccurrence];

    fn deref(&self) -> &[PrimitiveOccurrence] {
        match &self.0 {
            Repr::One(p) => std::slice::from_ref(p),
            Repr::Many(v) => v,
        }
    }
}

impl<'a> IntoIterator for &'a Constituents {
    type Item = &'a PrimitiveOccurrence;
    type IntoIter = std::slice::Iter<'a, PrimitiveOccurrence>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl From<Vec<PrimitiveOccurrence>> for Constituents {
    fn from(mut v: Vec<PrimitiveOccurrence>) -> Self {
        match v.len() {
            1 => Constituents(Repr::One(v.pop().expect("length checked"))),
            _ => Constituents(Repr::Many(v)),
        }
    }
}

impl From<PrimitiveOccurrence> for Constituents {
    fn from(p: PrimitiveOccurrence) -> Self {
        Constituents(Repr::One(p))
    }
}

impl PartialEq for Constituents {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl fmt::Debug for Constituents {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl Serialize for Constituents {
    fn to_content(&self) -> Content {
        Content::Array(self.iter().map(Serialize::to_content).collect())
    }
}

impl Deserialize for Constituents {
    fn from_content(v: &Content) -> Result<Self, Error> {
        Vec::<PrimitiveOccurrence>::from_content(v).map(Constituents::from)
    }
}

/// An occurrence of a (possibly composite) event: the constituent
/// primitive occurrences plus the occurrence interval.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CompositeOccurrence {
    /// Constituents in detection order.
    pub constituents: Constituents,
    /// Timestamp of the earliest constituent.
    pub start: u64,
    /// Timestamp of the latest constituent — the detection time.
    pub end: u64,
}

impl CompositeOccurrence {
    /// Wrap a single primitive occurrence.
    pub fn from_primitive(p: PrimitiveOccurrence) -> Self {
        let at = p.at;
        CompositeOccurrence {
            constituents: p.into(),
            start: at,
            end: at,
        }
    }

    /// Merge two occurrences into one (conjunction/sequence emission):
    /// `a`'s constituents, then `b`'s. A borrowed operand is cloned into
    /// the result and an owned one is moved, so a detector passes the
    /// occurrence that just arrived by value and the buffered one by
    /// reference.
    pub fn merge(a: impl MergeOperand, b: impl MergeOperand) -> Self {
        let (ea, eb) = (a.occurrence(), b.occurrence());
        let (start, end) = (ea.start.min(eb.start), ea.end.max(eb.end));
        let mut constituents =
            Constituents::with_capacity(ea.constituents.len() + eb.constituents.len());
        a.append_to(&mut constituents);
        b.append_to(&mut constituents);
        CompositeOccurrence {
            constituents,
            start,
            end,
        }
    }

    /// Merge many occurrences (cumulative context, `any` operator).
    pub fn merge_all<'a>(occs: impl IntoIterator<Item = &'a CompositeOccurrence>) -> Self {
        let mut out = CompositeOccurrence {
            constituents: Constituents::default(),
            start: u64::MAX,
            end: 0,
        };
        for o in occs {
            o.append_to(&mut out.constituents);
            out.start = out.start.min(o.start);
            out.end = out.end.max(o.end);
        }
        out
    }

    /// The constituent generated by a given object, if any — how a rule
    /// condition retrieves "the parameters of the IBM SetPrice event".
    pub fn constituent_of(&self, oid: Oid) -> Option<&PrimitiveOccurrence> {
        self.constituents.iter().find(|c| c.oid == oid)
    }

    /// The constituent for a given method name, if any.
    pub fn constituent_for_method(&self, method: &str) -> Option<&PrimitiveOccurrence> {
        self.constituents.iter().find(|c| &*c.method == method)
    }

    /// The most recent constituent (the one whose arrival completed the
    /// detection, under every context).
    pub fn last(&self) -> Option<&PrimitiveOccurrence> {
        self.constituents.iter().max_by_key(|c| c.at)
    }
}

/// An operand of [`CompositeOccurrence::merge`]: a borrowed occurrence
/// contributes clones of its constituents, an owned one moves them.
pub trait MergeOperand {
    /// The occurrence being merged.
    fn occurrence(&self) -> &CompositeOccurrence;

    /// Append this operand's constituents to `out`.
    fn append_to(self, out: &mut Constituents);
}

impl MergeOperand for &CompositeOccurrence {
    fn occurrence(&self) -> &CompositeOccurrence {
        self
    }

    fn append_to(self, out: &mut Constituents) {
        for p in &self.constituents {
            out.push(p.clone());
        }
    }
}

impl MergeOperand for CompositeOccurrence {
    fn occurrence(&self) -> &CompositeOccurrence {
        self
    }

    fn append_to(self, out: &mut Constituents) {
        match self.constituents.0 {
            Repr::One(p) => out.push(p),
            Repr::Many(v) => v.into_iter().for_each(|p| out.push(p)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn prim(at: u64, oid: u64, method: &str) -> PrimitiveOccurrence {
        PrimitiveOccurrence {
            at,
            oid: Oid(oid),
            class: ClassId(0),
            owner: ClassId(0),
            method: method.into(),
            modifier: EventModifier::End,
            params: Arc::from(vec![Value::Int(at as i64)]),
        }
    }

    #[test]
    fn merge_tracks_interval() {
        let a = CompositeOccurrence::from_primitive(prim(5, 1, "A"));
        let b = CompositeOccurrence::from_primitive(prim(3, 2, "B"));
        let m = CompositeOccurrence::merge(&a, &b);
        assert_eq!(m.start, 3);
        assert_eq!(m.end, 5);
        assert_eq!(m.constituents.len(), 2);
    }

    #[test]
    fn constituent_lookup() {
        let m = CompositeOccurrence::merge(
            CompositeOccurrence::from_primitive(prim(1, 10, "SetPrice")),
            CompositeOccurrence::from_primitive(prim(2, 20, "SetValue")),
        );
        assert_eq!(m.constituent_of(Oid(10)).unwrap().at, 1);
        assert_eq!(m.constituent_for_method("SetValue").unwrap().at, 2);
        assert!(m.constituent_of(Oid(99)).is_none());
        assert_eq!(m.last().unwrap().at, 2);
    }

    #[test]
    fn merge_all_spans_everything() {
        let occs = vec![
            CompositeOccurrence::from_primitive(prim(7, 1, "A")),
            CompositeOccurrence::from_primitive(prim(2, 2, "B")),
            CompositeOccurrence::from_primitive(prim(4, 3, "C")),
        ];
        let m = CompositeOccurrence::merge_all(&occs);
        assert_eq!((m.start, m.end), (2, 7));
        assert_eq!(m.constituents.len(), 3);
    }

    #[test]
    fn owned_and_borrowed_operands_merge_alike() {
        let (a, b) = (
            CompositeOccurrence::from_primitive(prim(1, 1, "A")),
            CompositeOccurrence::from_primitive(prim(2, 2, "B")),
        );
        let by_ref = CompositeOccurrence::merge(&a, &b);
        let ab = CompositeOccurrence::merge(a.clone(), &b);
        assert_eq!(ab, by_ref);
        assert_eq!(CompositeOccurrence::merge(&a, b.clone()), by_ref);
        // Composite operands keep detection order when moved.
        let c = CompositeOccurrence::from_primitive(prim(3, 3, "C"));
        let abc = CompositeOccurrence::merge(ab, c.clone());
        let ats: Vec<u64> = abc.constituents.iter().map(|p| p.at).collect();
        assert_eq!(ats, [1, 2, 3]);
        let cab = CompositeOccurrence::merge(c, by_ref);
        let ats: Vec<u64> = cab.constituents.iter().map(|p| p.at).collect();
        assert_eq!(ats, [3, 1, 2]);
    }

    #[test]
    fn representation_is_invisible_to_equality_and_serde() {
        let p = prim(4, 1, "A");
        let inline = Constituents::from(p.clone());
        let mut spilled = Constituents::with_capacity(2);
        spilled.push(p.clone());
        assert!(matches!(spilled.0, Repr::Many(_)));
        assert_eq!(inline, spilled);
        assert_eq!(Constituents::from(vec![p.clone()]), inline);
        assert!(matches!(Constituents::from(vec![p]).0, Repr::One(_)));

        let json = serde_json::to_string(&spilled).unwrap();
        assert_eq!(json, serde_json::to_string(&inline).unwrap());
        assert!(json.starts_with("[{") && json.ends_with("}]"));
        let back: Constituents = serde_json::from_str(&json).unwrap();
        assert!(matches!(back.0, Repr::One(_)));
        assert_eq!(back, inline);
        assert_eq!(
            serde_json::to_string(&Constituents::default()).unwrap(),
            "[]"
        );
    }
}
