//! Object references.
//!
//! In ITDOS "the object reference contains the address of the replication
//! domain in which that service is located" (§3.3): a reference names a
//! *domain*, not a host, because every element of the domain hosts the
//! same objects (§3.4 process-granularity replication).

use std::fmt;

/// The address of a replication domain (what an IOR profile points at).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DomainAddr(pub u64);

impl fmt::Display for DomainAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "domain:{}", self.0)
    }
}

/// An opaque key naming one object within its server process.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ObjectKey(pub Vec<u8>);

impl ObjectKey {
    /// Builds a key from a printable name.
    pub fn from_name(name: &str) -> ObjectKey {
        ObjectKey(name.as_bytes().to_vec())
    }
}

/// An interoperable object reference (IOR-lite).
///
/// # Examples
///
/// ```
/// use itdos_orb::object::{DomainAddr, ObjectKey, ObjectRef};
///
/// let account = ObjectRef::new(
///     "Bank::Account",
///     ObjectKey::from_name("acct-1"),
///     DomainAddr(3),
/// );
/// assert_eq!(account.interface, "Bank::Account");
/// assert_eq!(account.domain, DomainAddr(3));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ObjectRef {
    /// Full interface name (the ITDOS GIOP extension carries this on every
    /// message).
    pub interface: String,
    /// Key of the object within its server.
    pub key: ObjectKey,
    /// The replication domain hosting the object.
    pub domain: DomainAddr,
}

impl ObjectRef {
    /// Creates a reference.
    pub fn new(interface: impl Into<String>, key: ObjectKey, domain: DomainAddr) -> ObjectRef {
        ObjectRef {
            interface: interface.into(),
            key,
            domain,
        }
    }
}

impl fmt::Display for ObjectRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "IOR:{}@{}/{}",
            self.interface,
            self.domain,
            String::from_utf8_lossy(&self.key.0)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let r = ObjectRef::new("I", ObjectKey::from_name("obj"), DomainAddr(7));
        assert_eq!(r.to_string(), "IOR:I@domain:7/obj");
    }

    #[test]
    fn keys_compare_by_content() {
        assert_eq!(ObjectKey::from_name("a"), ObjectKey(vec![b'a']));
        assert_ne!(ObjectKey::from_name("a"), ObjectKey::from_name("b"));
    }

    #[test]
    fn refs_are_hashable_map_keys() {
        // a hash map needs equal keys to hash equally
        use std::hash::{BuildHasher, BuildHasherDefault, DefaultHasher};
        let hash = |r: &ObjectRef| BuildHasherDefault::<DefaultHasher>::default().hash_one(r);
        let r = ObjectRef::new("I", ObjectKey::from_name("x"), DomainAddr(1));
        assert_eq!(hash(&r), hash(&r.clone()));
    }
}
