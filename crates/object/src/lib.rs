#![warn(missing_docs)]
//! # sentinel-object — the object-model substrate
//!
//! The 1993 Sentinel paper builds its reactive capability on top of
//! Zeitgeist, a C++ OODBMS from Texas Instruments. This crate is the
//! from-scratch substitute for that substrate: a dynamic object model with
//!
//! * tagged [`Value`]s and [`Oid`]s (object identity),
//! * class schemas with single **and** multiple inheritance
//!   ([`ClassRegistry`], C3 linearization),
//! * per-method **event interface** declarations (`event begin`, `event
//!   end`, `event begin && end` — paper Figure 8),
//! * a slot-based [`ObjectStore`] holding instance state, and
//! * a [`MethodTable`] of native method implementations — the analog of the
//!   paper's C++ member functions reached through pointers-to-member
//!   (`PMF`). Rust has no reflection, so methods (and later, rule
//!   conditions and actions) are registered closures addressed by name; a
//!   message send resolves the receiver's class, walks the linearization,
//!   and invokes the registered body.
//!
//! The crate deliberately knows nothing about events, rules, or
//! persistence; those layers are built on top (see `sentinel-events`,
//! `sentinel-rules`, `sentinel-storage`, `sentinel-db`). Method bodies talk
//! to the rest of the system only through the [`World`] trait, which the
//! database facade implements; this is what lets the same method body run
//! under the Sentinel engine and under the Ode/ADAM baseline engines.

pub mod error;
pub mod hash;
pub mod intern;
pub mod method;
pub mod object;
pub mod oid;
pub mod schema;
pub mod store;
pub mod value;
pub mod world;

pub use error::{ObjectError, Result};
pub use hash::{FastMap, FastSet};
pub use intern::MethodName;
pub use method::{MethodTable, NativeFn};
pub use object::ObjectState;
pub use oid::{Oid, OidGenerator};
pub use schema::{
    AttributeDef, ClassDecl, ClassDef, ClassId, ClassRegistry, EventSpec, EventSym, EventSymInfo,
    MethodDef, ParamDef, Reactivity, Visibility,
};
pub use store::ObjectStore;
pub use value::{TypeTag, Value};
pub use world::World;
