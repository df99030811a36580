//! Shared names for the per-task hot path.
//!
//! Both engines record three display names per completed task — the
//! application, the DAG node, and the runfunc that executed. Cloning
//! `String`s for those on every completion made name bookkeeping the
//! dominant allocation source of the DES event loop (three mallocs plus
//! memcpy per task). A [`Name`] is an `Arc<str>` newtype: cloning one is
//! an atomic increment, and every consumer that compared against
//! `&str`/`String` keeps working.
//!
//! An [`ApplicationSpec`](crate::app::ApplicationSpec) builds its
//! application, node and runfunc names once, when it is loaded; every
//! name a run hands out is a clone of one of those.

use std::borrow::Borrow;
use std::sync::Arc;

/// A cheaply clonable, shared string (see module docs).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Name(Arc<str>);

impl Name {
    /// The name as a plain string slice.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl std::ops::Deref for Name {
    type Target = str;
    fn deref(&self) -> &str {
        &self.0
    }
}

impl std::fmt::Display for Name {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl Borrow<str> for Name {
    fn borrow(&self) -> &str {
        &self.0
    }
}

impl AsRef<str> for Name {
    fn as_ref(&self) -> &str {
        &self.0
    }
}

impl From<&str> for Name {
    fn from(s: &str) -> Self {
        Name(Arc::from(s))
    }
}

impl From<String> for Name {
    fn from(s: String) -> Self {
        Name(Arc::from(s))
    }
}

impl From<Name> for String {
    fn from(name: Name) -> Self {
        name.as_str().to_string()
    }
}

impl PartialEq<str> for Name {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == other
    }
}

impl PartialEq<&str> for Name {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

impl PartialEq<String> for Name {
    fn eq(&self, other: &String) -> bool {
        self.as_str() == other
    }
}

impl PartialEq<Name> for str {
    fn eq(&self, other: &Name) -> bool {
        self == other.as_str()
    }
}

impl PartialEq<Name> for &str {
    fn eq(&self, other: &Name) -> bool {
        *self == other.as_str()
    }
}

impl PartialEq<Name> for String {
    fn eq(&self, other: &Name) -> bool {
        self == other.as_str()
    }
}
