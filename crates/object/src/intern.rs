//! Interned method names.
//!
//! Every primitive occurrence names the method that raised it, and an
//! occurrence is copied into every detector that keeps it. A
//! [`MethodName`] makes that copy free: it is a `Copy` pointer to a
//! string interned once, process-wide, when a class declaring the method
//! is defined (or when a name is first built from a string). Equal
//! strings intern to the same pointer, so equality is one pointer
//! compare in practice; the string compare behind it only keeps the
//! handle correct by construction.
//!
//! Interned strings are never freed. The table holds one entry per
//! distinct method name, which the schemas of a process bound.

use serde::{Content, Deserialize, Error, Serialize};
use std::collections::HashMap;
use std::fmt;
use std::ops::Deref;
use std::sync::{Mutex, OnceLock};

/// A method name interned for the life of the process.
///
/// Derefs to `str`, compares by pointer first, and serializes as the
/// plain string, so it reads and persists exactly like the name itself.
#[derive(Clone, Copy)]
pub struct MethodName(&'static String);

impl MethodName {
    /// Intern `name`, returning the process-wide handle for it.
    pub fn intern(name: &str) -> Self {
        static TABLE: OnceLock<Mutex<HashMap<&'static str, &'static String>>> = OnceLock::new();
        let mut table = TABLE
            .get_or_init(Default::default)
            .lock()
            // Each insert leaves the table valid, so a panic elsewhere
            // while it was held cannot have corrupted it.
            .unwrap_or_else(|e| e.into_inner());
        if let Some(&s) = table.get(name) {
            return MethodName(s);
        }
        // A leaked `String`, not a `str`, so the handle is one thin
        // pointer.
        let s: &'static String = Box::leak(Box::new(name.to_string()));
        table.insert(s, s);
        MethodName(s)
    }

    /// The name as a string slice.
    pub fn as_str(&self) -> &'static str {
        self.0
    }
}

impl Deref for MethodName {
    type Target = str;

    fn deref(&self) -> &str {
        self.0
    }
}

impl From<&str> for MethodName {
    fn from(name: &str) -> Self {
        MethodName::intern(name)
    }
}

impl PartialEq for MethodName {
    fn eq(&self, other: &Self) -> bool {
        std::ptr::eq(self.0, other.0) || self.0 == other.0
    }
}

impl Eq for MethodName {}

impl PartialOrd for MethodName {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for MethodName {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.as_str().cmp(other.as_str())
    }
}

impl fmt::Debug for MethodName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

impl fmt::Display for MethodName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self)
    }
}

impl Serialize for MethodName {
    fn to_content(&self) -> Content {
        Content::Str(self.as_str().to_string())
    }
}

impl Deserialize for MethodName {
    fn from_content(v: &Content) -> Result<Self, Error> {
        String::from_content(v).map(|s| MethodName::intern(&s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_names_share_one_pointer() {
        let a = MethodName::intern("SetPrice");
        let b = MethodName::from(String::from("SetPrice").as_str());
        assert!(std::ptr::eq(a.as_str(), b.as_str()));
        assert_eq!(a, b);
        assert_ne!(a, MethodName::intern("SetValue"));
        assert_eq!(&*a, "SetPrice");
    }

    #[test]
    fn serializes_as_the_plain_string() {
        let a = MethodName::intern("Withdraw");
        assert_eq!(serde_json::to_string(&a).unwrap(), r#""Withdraw""#);
        let back: MethodName = serde_json::from_str(r#""Withdraw""#).unwrap();
        assert_eq!(back, a);
        assert!(std::ptr::eq(back.as_str(), a.as_str()));
    }

    #[test]
    fn orders_and_formats_like_the_string() {
        let (a, b) = (MethodName::intern("Alpha"), MethodName::intern("Beta"));
        assert!(a < b);
        assert_eq!(format!("{a}/{b:?}"), r#"Alpha/"Beta""#);
    }
}
