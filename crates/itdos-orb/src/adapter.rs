//! The object adapter: object key → servant.
//!
//! Replication granularity is the whole server process (§3.4): an adapter
//! holds *all* objects of the server, and every element of the replication
//! domain hosts an identical adapter, so an invocation that is local on
//! one element is local on all of them.

use std::collections::BTreeMap;

use crate::object::ObjectKey;
use crate::servant::Servant;

/// The object adapter (POA-lite).
#[derive(Default)]
pub struct ObjectAdapter {
    servants: BTreeMap<ObjectKey, Box<dyn Servant>>,
}

impl std::fmt::Debug for ObjectAdapter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ObjectAdapter")
            .field("objects", &self.servants.len())
            .finish()
    }
}

impl ObjectAdapter {
    /// Creates an empty adapter.
    pub fn new() -> ObjectAdapter {
        ObjectAdapter::default()
    }

    /// Activates a servant under `key`, replacing any previous activation.
    pub fn activate(&mut self, key: ObjectKey, servant: Box<dyn Servant>) {
        self.servants.insert(key, servant);
    }

    /// Looks up a servant.
    pub(crate) fn servant_mut(&mut self, key: &ObjectKey) -> Option<&mut (dyn Servant + '_)> {
        self.servants.get_mut(key).map(|s| s.as_mut() as _)
    }

    /// True if an object is active at `key`.
    pub fn is_active(&self, key: &ObjectKey) -> bool {
        self.servants.contains_key(key)
    }

    /// Number of active objects.
    pub fn len(&self) -> usize {
        self.servants.len()
    }

    /// True when no object is active.
    pub fn is_empty(&self) -> bool {
        self.servants.is_empty()
    }

    /// Active object keys, in order.
    pub fn keys(&self) -> impl Iterator<Item = &ObjectKey> {
        self.servants.keys()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::servant::{FnServant, Outcome};
    use itdos_giop::types::Value;

    fn echo() -> Box<dyn Servant> {
        Box::new(FnServant::new("Echo", |_, args| Ok(args[0].clone())))
    }

    #[test]
    fn activate_and_dispatch() {
        let mut a = ObjectAdapter::new();
        let key = ObjectKey::from_name("e1");
        a.activate(key.clone(), echo());
        assert!(a.is_active(&key));
        let s = a.servant_mut(&key).unwrap();
        match s.dispatch("echo", &[Value::Long(3)]) {
            Outcome::Complete(Ok(v)) => assert_eq!(v, Value::Long(3)),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn unknown_key_is_none() {
        let mut a = ObjectAdapter::new();
        assert!(a.servant_mut(&ObjectKey::from_name("nope")).is_none());
    }

    #[test]
    fn deactivate_removes() {
        let mut a = ObjectAdapter::new();
        let key = ObjectKey::from_name("e1");
        a.activate(key.clone(), echo());
        assert!(a.servants.remove(&key).is_some());
        assert!(!a.is_active(&key));
        assert!(a.is_empty());
    }

    #[test]
    fn activation_replaces() {
        let mut a = ObjectAdapter::new();
        let key = ObjectKey::from_name("e1");
        a.activate(key.clone(), echo());
        a.activate(
            key.clone(),
            Box::new(FnServant::new("Other", |_, _| Ok(Value::Void))),
        );
        assert_eq!(a.len(), 1);
        assert_eq!(a.servant_mut(&key).unwrap().interface(), "Other");
    }

    #[test]
    fn keys_iterate_in_order() {
        let mut a = ObjectAdapter::new();
        a.activate(ObjectKey::from_name("b"), echo());
        a.activate(ObjectKey::from_name("a"), echo());
        let keys: Vec<String> = a
            .keys()
            .map(|k| String::from_utf8_lossy(&k.0).into_owned())
            .collect();
        assert_eq!(keys, vec!["a", "b"]);
    }
}
