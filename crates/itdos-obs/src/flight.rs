//! Flight recorder: a bounded ring of the most recent protocol events.
//!
//! The recorder keeps the last `capacity` events; older ones are evicted
//! oldest-first. Because it is bounded, it can stay enabled through long
//! fault drills, and because every event carries a monotonically
//! increasing sequence number, a post-mortem dump is unambiguous even
//! after wraparound: `events()` always yields strictly increasing `seq`.

use std::collections::VecDeque;
use std::fmt;
use std::ops::Deref;

use crate::metrics::{Label, LabelValue};

/// Default ring capacity.
pub const DEFAULT_FLIGHT_CAPACITY: usize = 1024;

/// Labels an [`Event`] holds without a heap allocation: the widest
/// `Obs::event` call site in the workspace (`audit.finding` with an
/// element) passes five. A wider event spills its labels to the heap.
pub const INLINE_LABELS: usize = 5;

/// An event's label pairs in call-site order. Up to [`INLINE_LABELS`]
/// live inline, so recording, tapping and cloning an event copies them
/// without allocating; reads go through `Deref<Target = [Label]>`.
#[derive(Clone)]
pub struct Labels(Repr);

#[derive(Clone)]
enum Repr {
    Inline {
        len: u8,
        slots: [Label; INLINE_LABELS],
    },
    Spilled(Vec<Label>),
}

/// Filler for unused inline slots; never visible through `Deref`.
const VACANT: Label = ("", LabelValue::U64(0));

impl From<&[Label]> for Labels {
    fn from(labels: &[Label]) -> Labels {
        if labels.len() > INLINE_LABELS {
            return Labels(Repr::Spilled(labels.to_vec()));
        }
        let mut slots = [VACANT; INLINE_LABELS];
        for (slot, label) in slots.iter_mut().zip(labels) {
            *slot = *label;
        }
        Labels(Repr::Inline {
            len: labels.len() as u8,
            slots,
        })
    }
}

impl FromIterator<Label> for Labels {
    fn from_iter<I: IntoIterator<Item = Label>>(iter: I) -> Labels {
        Labels::from(iter.into_iter().collect::<Vec<Label>>().as_slice())
    }
}

impl Deref for Labels {
    type Target = [Label];

    fn deref(&self) -> &[Label] {
        match &self.0 {
            Repr::Inline { len, slots } => slots.get(..usize::from(*len)).unwrap_or(&[]),
            Repr::Spilled(labels) => labels,
        }
    }
}

impl PartialEq for Labels {
    fn eq(&self, other: &Labels) -> bool {
        **self == **other
    }
}

impl Eq for Labels {}

impl PartialEq<Vec<Label>> for Labels {
    fn eq(&self, other: &Vec<Label>) -> bool {
        **self == **other
    }
}

impl fmt::Debug for Labels {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// One recorded protocol event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Event {
    /// Global sequence number (0-based, never reused).
    pub seq: u64,
    /// Timestamp from the injected clock, in microseconds.
    pub at_micros: u64,
    /// Span scope of the recording [`crate::Obs`] handle — the emitting
    /// process's globally unique endpoint code in a wired system. Carried
    /// on every record so an offline consumer of one merged dump can
    /// attribute events to processes without an out-of-band process map.
    pub scope: u64,
    /// Static event kind (catalogued in DESIGN.md §9).
    pub kind: &'static str,
    /// Label pairs in call-site order.
    pub labels: Labels,
}

impl Event {
    /// Numeric label lookup (first pair named `key` holding a number).
    pub fn label_u64(&self, key: &str) -> Option<u64> {
        crate::metrics::label_u64(&self.labels, key)
    }
}

/// The bounded event ring.
#[derive(Clone, Debug)]
pub struct FlightRecorder {
    capacity: usize,
    next_seq: u64,
    ring: VecDeque<Event>,
    /// Sequence-number watermark below which every event has been read by
    /// every live subscriber (see [`crate::Obs::subscribe`]). Evicting an
    /// event at or above this watermark loses data nobody consumed.
    consumed: u64,
    /// How many events were evicted while still unconsumed. Mirrored into
    /// the registry as the `obs.flight_dropped` counter so truncated
    /// forensics are detectable instead of invisible.
    evicted_unconsumed: u64,
    /// Largest ring occupancy ever reached. Mirrored as the
    /// `obs.flight_hwm` gauge so `flight_capacity` tuning can compare the
    /// configured bound against the occupancy a run actually needed.
    high_water: usize,
}

impl Default for FlightRecorder {
    fn default() -> FlightRecorder {
        FlightRecorder::new(DEFAULT_FLIGHT_CAPACITY)
    }
}

impl FlightRecorder {
    /// A recorder keeping the last `capacity` events.
    pub fn new(capacity: usize) -> FlightRecorder {
        FlightRecorder {
            capacity,
            next_seq: 0,
            ring: VecDeque::new(),
            consumed: 0,
            evicted_unconsumed: 0,
            high_water: 0,
        }
    }

    /// Records one event and returns its sequence number. With capacity 0
    /// the event is counted (the sequence number advances) but nothing is
    /// retained — and it is immediately an unconsumed eviction.
    pub fn record(
        &mut self,
        at_micros: u64,
        scope: u64,
        kind: &'static str,
        labels: &[Label],
    ) -> u64 {
        let seq = self.next_seq;
        self.next_seq = self.next_seq.saturating_add(1);
        if self.capacity == 0 {
            if seq >= self.consumed {
                self.evicted_unconsumed = self.evicted_unconsumed.saturating_add(1);
            }
            return seq;
        }
        while self.ring.len() >= self.capacity {
            self.evict_front();
        }
        self.ring.push_back(Event {
            seq,
            at_micros,
            scope,
            kind,
            labels: Labels::from(labels),
        });
        self.high_water = self.high_water.max(self.ring.len());
        seq
    }

    fn evict_front(&mut self) {
        if let Some(evicted) = self.ring.pop_front() {
            if evicted.seq >= self.consumed {
                self.evicted_unconsumed = self.evicted_unconsumed.saturating_add(1);
            }
        }
    }

    /// Changes the bound, evicting oldest events if shrinking.
    pub(crate) fn set_capacity(&mut self, capacity: usize) {
        self.capacity = capacity;
        while self.ring.len() > capacity {
            self.evict_front();
        }
    }

    /// Raises the consumed watermark: every event with `seq < upto` has
    /// been delivered to all live subscribers. Monotone (never lowers).
    pub(crate) fn mark_consumed(&mut self, upto: u64) {
        self.consumed = self.consumed.max(upto);
    }

    /// How many events were evicted before any subscriber consumed them
    /// (with no subscribers every eviction counts — the retained ring is
    /// then the only copy forensics will ever see).
    pub(crate) fn evicted_unconsumed(&self) -> u64 {
        self.evicted_unconsumed
    }

    /// Current bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Events currently retained, oldest first (strictly increasing `seq`).
    pub fn events(&self) -> impl Iterator<Item = &Event> {
        self.ring.iter()
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// True when nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Total events ever recorded, including evicted ones.
    pub fn total_recorded(&self) -> u64 {
        self.next_seq
    }

    /// Largest ring occupancy ever reached. A high-water mark well below
    /// the capacity means the ring is oversized; one pinned at the
    /// capacity means history is being truncated.
    pub(crate) fn high_water_mark(&self) -> usize {
        self.high_water
    }

    /// Clears retained events without resetting the sequence counter.
    /// An explicit clear is a deliberate reset, not data loss: the drop
    /// counter restarts and the watermark jumps past everything recorded.
    pub fn clear(&mut self) {
        self.ring.clear();
        self.consumed = self.next_seq;
        self.evicted_unconsumed = 0;
        self.high_water = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wraparound_keeps_newest_in_seq_order() {
        let mut fr = FlightRecorder::new(4);
        for i in 0..10u64 {
            fr.record(i * 100, 7, "tick", &[]);
        }
        let seqs: Vec<u64> = fr.events().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![6, 7, 8, 9], "oldest evicted, order preserved");
        assert_eq!(fr.total_recorded(), 10);
        assert_eq!(fr.len(), 4);
        let times: Vec<u64> = fr.events().map(|e| e.at_micros).collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn shrinking_capacity_evicts_oldest() {
        let mut fr = FlightRecorder::new(8);
        for i in 0..6u64 {
            fr.record(i, 0, "e", &[]);
        }
        fr.set_capacity(2);
        let seqs: Vec<u64> = fr.events().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![4, 5]);
    }

    #[test]
    fn zero_capacity_counts_but_retains_nothing() {
        let mut fr = FlightRecorder::new(0);
        fr.record(1, 0, "e", &[]);
        assert!(fr.is_empty());
        assert_eq!(fr.total_recorded(), 1);
        assert_eq!(fr.evicted_unconsumed(), 1, "nothing retained = all lost");
    }

    #[test]
    fn consumed_watermark_gates_eviction_accounting() {
        let mut fr = FlightRecorder::new(2);
        for i in 0..4u64 {
            fr.record(i, 0, "e", &[]);
        }
        // seqs 0 and 1 evicted, nobody consumed them
        assert_eq!(fr.evicted_unconsumed(), 2);
        // a subscriber drained everything recorded so far
        fr.mark_consumed(fr.total_recorded());
        fr.record(4, 0, "e", &[]);
        fr.record(5, 0, "e", &[]);
        // seqs 2 and 3 were consumed before eviction: no new loss
        assert_eq!(fr.evicted_unconsumed(), 2);
        // the watermark never lowers
        fr.mark_consumed(0);
        assert_eq!(fr.consumed, 4);
        // shrinking evicts seq 4 (>= watermark): that is loss again
        fr.set_capacity(1);
        assert_eq!(fr.evicted_unconsumed(), 3);
        // clear() is a deliberate reset, not loss
        fr.clear();
        assert_eq!(fr.evicted_unconsumed(), 0);
        assert_eq!(fr.consumed, fr.total_recorded());
    }

    #[test]
    fn high_water_mark_tracks_peak_occupancy() {
        let mut fr = FlightRecorder::new(4);
        assert_eq!(fr.high_water_mark(), 0);
        fr.record(0, 0, "e", &[]);
        fr.record(1, 0, "e", &[]);
        assert_eq!(fr.high_water_mark(), 2);
        for i in 2..10u64 {
            fr.record(i, 0, "e", &[]);
        }
        // wraparound pins the mark at the capacity, never above
        assert_eq!(fr.high_water_mark(), 4);
        // shrinking evicts retained events but keeps the historical peak
        fr.set_capacity(2);
        assert_eq!(fr.high_water_mark(), 4);
        // clear() is a deliberate reset
        fr.clear();
        assert_eq!(fr.high_water_mark(), 0);
        fr.record(10, 0, "e", &[]);
        assert_eq!(fr.high_water_mark(), 1);
    }
}
