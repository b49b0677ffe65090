//! A bounded window of the newest entries by key.
//!
//! Two tables keep "the last `limit` keys, and a floor below which every
//! key is gone": a replica's per-client reply cache (by request timestamp)
//! and an ITDOS element's per-connection voter rounds (by request id).
//! Both are fed by the total order, so every correct replica evicts the
//! same keys. [`KeyWindow`] holds such a table in one buffer sorted by
//! key, sized to what it holds: it grows by doubling up to `limit + 1`
//! (an insert holds one entry past the limit until [`KeyWindow::evict`])
//! and keeps its buffer as entries come and go, so a steady stream of
//! keys allocates nothing.

use std::collections::VecDeque;

/// The entries with the highest keys, sorted by key, and the highest
/// evicted key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeyWindow<T> {
    entries: VecDeque<(u64, T)>,
    floor: u64,
}

impl<T> Default for KeyWindow<T> {
    fn default() -> Self {
        KeyWindow::with_floor(0)
    }
}

impl<T> KeyWindow<T> {
    /// An empty window whose keys at or below `floor` count as evicted.
    pub(crate) fn with_floor(floor: u64) -> KeyWindow<T> {
        KeyWindow {
            entries: VecDeque::new(),
            floor,
        }
    }

    /// The highest key evicted so far (or the floor it was made with).
    pub fn floor(&self) -> u64 {
        self.floor
    }

    /// Entries held.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no entry is held.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    fn position(&self, key: u64) -> Result<usize, usize> {
        self.entries.binary_search_by_key(&key, |(k, _)| *k)
    }

    /// The entry under `key`.
    pub fn get(&self, key: u64) -> Option<&T> {
        let i = self.position(key).ok()?;
        self.entries.get(i).map(|(_, value)| value)
    }

    /// Where `key` is held (`Ok`) or would be sorted in (`Err`, with room
    /// made for it); `None` at or below the floor.
    fn locate(&mut self, key: u64, limit: usize) -> Option<Result<usize, usize>> {
        if key <= self.floor {
            return None;
        }
        let at = self.position(key);
        let held = self.entries.len();
        if at.is_err() && held == self.entries.capacity() {
            // double, but never past the limit plus the one entry an
            // insert holds until the owner evicts
            let room = held
                .max(1)
                .min(limit.saturating_sub(held).saturating_add(1));
            self.entries.reserve_exact(room);
        }
        Some(at)
    }

    /// The entry under `key`, made by `make` and sorted in if absent.
    /// `None` for a key at or below the floor: it was evicted, or is
    /// older than anything that was. `limit` is the window the owner
    /// evicts to; the buffer never grows past it plus one.
    pub fn entry(&mut self, key: u64, limit: usize, make: impl FnOnce() -> T) -> Option<&mut T> {
        let i = match self.locate(key, limit)? {
            Ok(i) => i,
            Err(i) => {
                self.entries.insert(i, (key, make()));
                i
            }
        };
        self.entries.get_mut(i).map(|(_, value)| value)
    }

    /// Holds `value` under `key`, replacing what was there; refused (false)
    /// at or below the floor. `limit` as for [`KeyWindow::entry`].
    pub fn insert(&mut self, key: u64, value: T, limit: usize) -> bool {
        match self.locate(key, limit) {
            None => return false,
            Some(Ok(i)) => {
                if let Some(held) = self.entries.get_mut(i) {
                    held.1 = value;
                }
            }
            Some(Err(i)) => self.entries.insert(i, (key, value)),
        }
        true
    }

    /// Appends an entry whose key is above every key held. Returns false
    /// (and holds nothing new) for any other key.
    pub(crate) fn push_newest(&mut self, key: u64, value: T) -> bool {
        if self.entries.back().is_some_and(|(last, _)| *last >= key) {
            return false;
        }
        self.entries.push_back((key, value));
        true
    }

    /// Evicts the lowest keys until at most `limit` (at least one) remain,
    /// raising the floor to the highest key evicted.
    pub fn evict(&mut self, limit: usize) {
        while self.entries.len() > limit.max(1) {
            if let Some((evicted, _)) = self.entries.pop_front() {
                self.floor = self.floor.max(evicted);
            }
        }
    }

    /// The entries, lowest key first.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &T)> {
        self.entries.iter().map(|(key, value)| (*key, value))
    }

    /// The entries' values, lowest key first, mutably.
    pub fn values_mut(&mut self) -> impl Iterator<Item = &mut T> {
        self.entries.iter_mut().map(|(_, value)| value)
    }

    #[cfg(test)]
    fn capacity(&self) -> usize {
        self.entries.capacity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entries_stay_sorted_and_the_lowest_are_evicted_to_the_floor() {
        let mut w = KeyWindow::default();
        for key in [5u64, 2, 9, 7] {
            *w.entry(key, 3, || 0).expect("above the floor") += key;
        }
        assert_eq!(w.iter().map(|(k, _)| k).collect::<Vec<_>>(), [2, 5, 7, 9]);
        w.evict(3);
        assert_eq!(w.floor(), 2);
        assert_eq!(w.get(2), None);
        assert_eq!(w.get(9), Some(&9));
        // at or below the floor: refused, not re-created
        assert!(w.entry(2, 3, || 0).is_none());
        assert!(w.entry(1, 3, || 0).is_none());
        // an existing key is found, not made again
        *w.entry(5, 3, || 100).expect("held") += 1;
        assert_eq!(w.get(5), Some(&6));
        // insert replaces; a new key below every held one is the next evicted
        assert!(w.insert(9, 90, 3));
        assert_eq!(w.get(9), Some(&90));
        assert!(!w.insert(2, 0, 3), "at the floor");
        assert!(w.insert(3, 0, 3));
        w.evict(3);
        assert_eq!((w.floor(), w.len()), (3, 3));
        w.evict(0);
        assert_eq!((w.floor(), w.len()), (7, 1), "at least one entry stays");
    }

    #[test]
    fn the_buffer_grows_to_the_limit_plus_one_and_is_kept() {
        let mut w = KeyWindow::default();
        w.entry(1, 32, || ()).expect("fresh");
        assert_eq!(w.capacity(), 1, "one entry, one slot");
        for key in 2..=200 {
            w.entry(key, 32, || ()).expect("fresh");
            w.evict(32);
        }
        assert_eq!((w.len(), w.floor(), w.capacity()), (32, 168, 33));
    }

    #[test]
    fn push_newest_refuses_a_key_not_above_every_held_one() {
        let mut w = KeyWindow::with_floor(4);
        assert!(w.push_newest(6, 'a'));
        assert!(!w.push_newest(6, 'b'), "duplicate");
        assert!(!w.push_newest(5, 'b'), "descending");
        assert!(w.push_newest(8, 'c'));
        assert_eq!(w.iter().collect::<Vec<_>>(), [(6, &'a'), (8, &'c')]);
        assert_eq!(w.floor(), 4);
    }
}
