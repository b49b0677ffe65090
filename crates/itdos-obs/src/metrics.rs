//! Metric registry: counters, gauges, and log₂-bucketed histograms.
//!
//! Series are keyed by a `&'static str` metric name plus a small label
//! set. Everything is stored in `BTreeMap`s so iteration order — and
//! therefore every exported dump — is byte-stable across identical runs
//! (the determinism contract the replay tests assert). A series is looked
//! up by its borrowed `(name, &[Label])` pair, so updating or reading one
//! allocates nothing; only a series' first appearance copies its labels.

use std::borrow::Borrow;
use std::cmp::Ordering;
use std::collections::BTreeMap;

/// A label value: either a static string or an integer.
///
/// Only these two shapes exist so that building a label slice at an
/// instrumentation site never allocates — the slice lives on the stack and
/// is copied into the registry only when its series first appears.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum LabelValue {
    /// Static string value (e.g. an outcome kind).
    Str(&'static str),
    /// Integer value (e.g. a replica or connection id).
    U64(u64),
}

impl From<&'static str> for LabelValue {
    fn from(v: &'static str) -> LabelValue {
        LabelValue::Str(v)
    }
}

impl From<u64> for LabelValue {
    fn from(v: u64) -> LabelValue {
        LabelValue::U64(v)
    }
}

impl From<u32> for LabelValue {
    fn from(v: u32) -> LabelValue {
        LabelValue::U64(u64::from(v))
    }
}

impl From<usize> for LabelValue {
    fn from(v: usize) -> LabelValue {
        LabelValue::U64(v as u64)
    }
}

/// One `key=value` label pair.
pub type Label = (&'static str, LabelValue);

/// The number under the first label named `key` that holds one.
pub fn label_u64(labels: &[Label], key: &str) -> Option<u64> {
    labels.iter().find_map(|(k, v)| match v {
        LabelValue::U64(n) if *k == key => Some(*n),
        _ => None,
    })
}

/// Identity of one time series: metric name plus its label set.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub struct SeriesKey {
    /// Static metric name (catalogued in DESIGN.md §9).
    pub name: &'static str,
    /// Label pairs in call-site order.
    pub labels: Vec<Label>,
}

/// A series key inside one metric's map: the whole [`SeriesKey`] (so
/// iteration can hand it out), ordered by its labels alone — the only part
/// that differs within one metric — so the map can be searched by a
/// borrowed `&[Label]`.
#[derive(Clone, Debug)]
struct ByLabels(SeriesKey);

impl Borrow<[Label]> for ByLabels {
    fn borrow(&self) -> &[Label] {
        &self.0.labels
    }
}

impl PartialEq for ByLabels {
    fn eq(&self, other: &ByLabels) -> bool {
        self.0.labels == other.0.labels
    }
}

impl Eq for ByLabels {}

impl PartialOrd for ByLabels {
    fn partial_cmp(&self, other: &ByLabels) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for ByLabels {
    fn cmp(&self, other: &ByLabels) -> Ordering {
        self.0.labels.cmp(&other.0.labels)
    }
}

/// Every series of one kind: metric name → label set → value. Iterating
/// names, then label sets, visits series in `SeriesKey` order.
type SeriesMap<V> = BTreeMap<&'static str, BTreeMap<ByLabels, V>>;

/// Applies `update` to series `(name, labels)` of `map` in place. Only a
/// new series allocates: its labels are copied into a [`SeriesKey`] and
/// its value starts from the default.
fn update<V: Default>(
    map: &mut SeriesMap<V>,
    name: &'static str,
    labels: &[Label],
    update: impl FnOnce(&mut V),
) {
    let series = map.entry(name).or_default();
    match series.get_mut(labels) {
        Some(value) => update(value),
        None => {
            let mut value = V::default();
            update(&mut value);
            let key = SeriesKey {
                name,
                labels: labels.to_vec(),
            };
            series.insert(ByLabels(key), value);
        }
    }
}

/// Series `(name, labels)` of `map`, if present.
fn get<'m, V>(map: &'m SeriesMap<V>, name: &'static str, labels: &[Label]) -> Option<&'m V> {
    map.get(name)?.get(labels)
}

/// Every series of `map` in `SeriesKey` order.
fn iter<V>(map: &SeriesMap<V>) -> impl Iterator<Item = (&SeriesKey, &V)> {
    map.values().flatten().map(|(key, value)| (&key.0, value))
}

/// Number of histogram buckets: bucket 0 holds exact zeros, bucket `i`
/// (1 ≤ i ≤ 63) holds values in `[2^(i-1), 2^i - 1]`, bucket 64 holds
/// `[2^63, u64::MAX]`.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// Log₂-bucketed histogram with exact count/sum/min/max.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; HISTOGRAM_BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            buckets: [0; HISTOGRAM_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Bucket index for `value`: 0 for zero, `floor(log2(value)) + 1`
    /// otherwise (so each power of two opens a new bucket).
    fn bucket_index(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            64 - value.leading_zeros() as usize
        }
    }

    /// Inclusive upper bound of bucket `index`.
    fn bucket_upper_bound(index: usize) -> u64 {
        match index {
            0 => 0,
            i if i >= 64 => u64::MAX,
            i => (1u64 << i) - 1,
        }
    }

    /// Records one observation.
    pub fn observe(&mut self, value: u64) {
        let idx = Self::bucket_index(value).min(HISTOGRAM_BUCKETS - 1);
        if let Some(bucket) = self.buckets.get_mut(idx) {
            *bucket = bucket.saturating_add(1);
        }
        self.count = self.count.saturating_add(1);
        self.sum = self.sum.saturating_add(value);
        if value < self.min {
            self.min = value;
        }
        if value > self.max {
            self.max = value;
        }
    }

    /// Folds `other` into `self` exactly: bucket-by-bucket addition plus
    /// combined count/sum/min/max. Merging two histograms is equivalent to
    /// having recorded every observation into one (unlike re-observing
    /// bucket upper bounds, which loses the exact sum/min/max).
    pub fn merge(&mut self, other: &Histogram) {
        for (slot, &c) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *slot = slot.saturating_add(c);
        }
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.saturating_add(other.sum);
        if other.count > 0 {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Saturating sum of observations.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest observation (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest observation.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Raw bucket counts.
    pub fn buckets(&self) -> &[u64] {
        &self.buckets
    }

    /// Approximate p-th percentile (p in 0..=100): the upper bound of the
    /// first bucket whose cumulative count reaches rank `ceil(count*p/100)`,
    /// clamped into the exact observed `[min, max]` range. Deterministic
    /// integer math. Edges are exact rather than bucket estimates: an
    /// empty histogram reports 0 for every percentile, a single-sample
    /// histogram reports the sample itself, and p0 reports the minimum.
    pub fn percentile(&self, p: u8) -> u64 {
        if self.count == 0 {
            return 0;
        }
        if self.count == 1 {
            return self.max;
        }
        let p = u128::from(p.min(100));
        if p == 0 {
            return self.min;
        }
        let rank = (u128::from(self.count) * p).div_ceil(100);
        let mut cumulative: u128 = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            cumulative += u128::from(c);
            if cumulative >= rank {
                return Self::bucket_upper_bound(i).clamp(self.min, self.max);
            }
        }
        self.max
    }
}

/// The metric store. Deterministically ordered; cloneable for snapshots.
#[derive(Clone, Debug, Default)]
pub struct Registry {
    counters: SeriesMap<u64>,
    gauges: SeriesMap<i64>,
    histograms: SeriesMap<Histogram>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Adds `delta` to a counter (saturating).
    pub fn add(&mut self, name: &'static str, labels: &[Label], delta: u64) {
        update(&mut self.counters, name, labels, |v| {
            *v = v.saturating_add(delta);
        });
    }

    /// Overwrites a counter — used by bridges that mirror an external
    /// counter (e.g. `NetStats`) so repeated exports stay idempotent.
    pub fn counter_set(&mut self, name: &'static str, labels: &[Label], value: u64) {
        update(&mut self.counters, name, labels, |v| *v = value);
    }

    /// Sets a gauge to an absolute value.
    pub(crate) fn gauge_set(&mut self, name: &'static str, labels: &[Label], value: i64) {
        update(&mut self.gauges, name, labels, |v| *v = value);
    }

    /// Records one histogram observation.
    pub fn observe(&mut self, name: &'static str, labels: &[Label], value: u64) {
        update(&mut self.histograms, name, labels, |h: &mut Histogram| {
            h.observe(value);
        });
    }

    /// Current value of a counter (0 when absent).
    pub fn counter(&self, name: &'static str, labels: &[Label]) -> u64 {
        get(&self.counters, name, labels).copied().unwrap_or(0)
    }

    /// Current value of a gauge.
    pub fn gauge(&self, name: &'static str, labels: &[Label]) -> Option<i64> {
        get(&self.gauges, name, labels).copied()
    }

    /// A histogram series, if it exists.
    pub fn histogram(&self, name: &'static str, labels: &[Label]) -> Option<&Histogram> {
        get(&self.histograms, name, labels)
    }

    /// All counters in deterministic order.
    pub fn counters(&self) -> impl Iterator<Item = (&SeriesKey, u64)> {
        iter(&self.counters).map(|(k, &v)| (k, v))
    }

    /// All gauges in deterministic order.
    pub fn gauges(&self) -> impl Iterator<Item = (&SeriesKey, i64)> {
        iter(&self.gauges).map(|(k, &v)| (k, v))
    }

    /// All histograms in deterministic order.
    pub fn histograms(&self) -> impl Iterator<Item = (&SeriesKey, &Histogram)> {
        iter(&self.histograms)
    }

    /// Clears every series.
    pub fn clear(&mut self) {
        self.counters.clear();
        self.gauges.clear();
        self.histograms.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_at_powers_of_two() {
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 1);
        assert_eq!(Histogram::bucket_index(2), 2);
        assert_eq!(Histogram::bucket_index(3), 2);
        assert_eq!(Histogram::bucket_index(4), 3);
        assert_eq!(Histogram::bucket_index(7), 3);
        assert_eq!(Histogram::bucket_index(8), 4);
        for i in 1..=63u32 {
            let v = 1u64 << i;
            assert_eq!(Histogram::bucket_index(v), i as usize + 1, "2^{i}");
            assert_eq!(Histogram::bucket_index(v - 1), i as usize, "2^{i}-1");
        }
        assert_eq!(Histogram::bucket_index(u64::MAX), 64);
    }

    #[test]
    fn bucket_upper_bounds() {
        assert_eq!(Histogram::bucket_upper_bound(0), 0);
        assert_eq!(Histogram::bucket_upper_bound(1), 1);
        assert_eq!(Histogram::bucket_upper_bound(2), 3);
        assert_eq!(Histogram::bucket_upper_bound(10), 1023);
        assert_eq!(Histogram::bucket_upper_bound(64), u64::MAX);
    }

    #[test]
    fn histogram_extremes() {
        let mut h = Histogram::new();
        h.observe(0);
        h.observe(u64::MAX);
        assert_eq!(h.count(), 2);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), u64::MAX);
        assert_eq!(h.buckets()[0], 1);
        assert_eq!(h.buckets()[64], 1);
        // sum saturates rather than wrapping
        h.observe(u64::MAX);
        assert_eq!(h.sum(), u64::MAX);
    }

    #[test]
    fn percentiles_are_bucket_upper_bounds_clamped_to_observed_range() {
        let mut h = Histogram::new();
        for v in [10u64, 20, 30, 40, 1000] {
            h.observe(v);
        }
        // ranks: p50 -> 3rd of 5 -> value 30 -> bucket 5 (16..=31)
        assert_eq!(h.percentile(50), 31);
        // p99 -> rank 5 -> 1000 -> bucket 10 upper bound 1023, clamped to 1000
        assert_eq!(h.percentile(99), 1000);
        // p0 is the exact minimum, not a bucket bound below it
        assert_eq!(h.percentile(0), 10);
        // every estimate stays inside the observed range
        for p in 0..=100u8 {
            let v = h.percentile(p);
            assert!((10..=1000).contains(&v), "p{p}={v} escaped [min,max]");
        }
    }

    #[test]
    fn percentile_edges_empty_and_single_sample() {
        let empty = Histogram::new();
        for p in [0u8, 1, 50, 99, 100] {
            assert_eq!(empty.percentile(p), 0, "empty histogram reports 0");
        }
        // a single sample is exact at every percentile — previously p50/p99
        // reported the bucket upper bound via the min(max) clamp only when
        // the sample happened to be a bucket max
        for sample in [1u64, 300, 1023, 1024] {
            let mut h = Histogram::new();
            h.observe(sample);
            for p in [0u8, 1, 50, 99, 100] {
                assert_eq!(h.percentile(p), sample, "single-sample p{p}");
            }
        }
        // two samples: p0 pins to min, p100 to max, mid estimates bounded
        let mut h = Histogram::new();
        h.observe(100);
        h.observe(900);
        assert_eq!(h.percentile(0), 100);
        assert_eq!(h.percentile(100), 900);
        assert_eq!(h.percentile(50), 127, "rank 1 of 2 -> bucket of 100");
        assert_eq!(h.percentile(99), 900);
    }

    #[test]
    fn merge_equals_recording_into_one() {
        let xs = [0u64, 1, 3, 17, 900, 1023, 1024, u64::MAX];
        let (left, right) = xs.split_at(3);
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut whole = Histogram::new();
        for &v in left {
            a.observe(v);
            whole.observe(v);
        }
        for &v in right {
            b.observe(v);
            whole.observe(v);
        }
        a.merge(&b);
        assert_eq!(a, whole, "merge is exactly one combined recording");
        // merging an empty histogram is the identity (min stays untouched)
        let before = a.clone();
        a.merge(&Histogram::new());
        assert_eq!(a, before);
        // merging into an empty histogram copies the other side
        let mut empty = Histogram::new();
        empty.merge(&whole);
        assert_eq!(empty, whole);
    }

    #[test]
    fn registry_series_are_label_distinct_and_ordered() {
        let mut r = Registry::new();
        r.add("m", &[("replica", LabelValue::U64(1))], 2);
        r.add("m", &[("replica", LabelValue::U64(0))], 1);
        r.add("m", &[("replica", LabelValue::U64(1))], 3);
        assert_eq!(r.counter("m", &[("replica", LabelValue::U64(1))]), 5);
        assert_eq!(r.counter("m", &[("replica", LabelValue::U64(0))]), 1);
        let order: Vec<u64> = r
            .counters()
            .map(|(k, _)| match k.labels[0].1 {
                LabelValue::U64(v) => v,
                LabelValue::Str(_) => u64::MAX,
            })
            .collect();
        assert_eq!(order, vec![0, 1], "BTreeMap iteration is sorted");
        r.counter_set("m", &[("replica", LabelValue::U64(0))], 7);
        assert_eq!(r.counter("m", &[("replica", LabelValue::U64(0))]), 7);
    }

    /// The registry as it was before series were looked up by borrowed
    /// keys: every update and read builds an owned [`SeriesKey`]. The
    /// reference the borrowed-key registry must agree with byte for byte.
    #[derive(Default)]
    struct OwnedKeyRegistry {
        counters: BTreeMap<SeriesKey, u64>,
        gauges: BTreeMap<SeriesKey, i64>,
        histograms: BTreeMap<SeriesKey, Histogram>,
    }

    impl OwnedKeyRegistry {
        fn key(name: &'static str, labels: &[Label]) -> SeriesKey {
            SeriesKey {
                name,
                labels: labels.to_vec(),
            }
        }

        fn add(&mut self, name: &'static str, labels: &[Label], delta: u64) {
            let slot = self.counters.entry(Self::key(name, labels)).or_insert(0);
            *slot = slot.saturating_add(delta);
        }

        fn counter_set(&mut self, name: &'static str, labels: &[Label], value: u64) {
            self.counters.insert(Self::key(name, labels), value);
        }

        fn gauge_set(&mut self, name: &'static str, labels: &[Label], value: i64) {
            self.gauges.insert(Self::key(name, labels), value);
        }

        fn observe(&mut self, name: &'static str, labels: &[Label], value: u64) {
            self.histograms
                .entry(Self::key(name, labels))
                .or_default()
                .observe(value);
        }

        fn dump(&self) -> String {
            let mut out = String::new();
            crate::jsonl::dump_series(
                &mut out,
                self.counters.iter().map(|(k, &v)| (k, v)),
                self.gauges.iter().map(|(k, &v)| (k, v)),
                self.histograms.iter(),
            );
            out
        }
    }

    #[test]
    fn borrowed_key_registry_dumps_like_the_owned_key_reference() {
        // splitmix64: a seeded, dependency-free operation stream
        let mut state = 0x5eed_0000_0000_0031u64;
        let mut next = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        const NAMES: [&str; 4] = [
            "bft.wire_tx",
            "net.messages",
            "obs.tap_hwm",
            "replica.health",
        ];
        const KEYS: [&str; 6] = ["replica", "element", "kind", "seq", "auth", "domain"];
        const STRS: [&str; 3] = ["mac", "sig", ""];
        // a pool of label sets (0–6 labels each, duplicates and prefixes
        // of one another included) that the operations revisit in random
        // order, so series are created in random order and mostly updated
        let pool: Vec<Vec<Label>> = (0..48)
            .map(|_| {
                (0..next() % 7)
                    .map(|_| {
                        let key = KEYS[(next() % 6) as usize];
                        let value = if next() % 2 == 0 {
                            LabelValue::U64(next() % 3)
                        } else {
                            LabelValue::Str(STRS[(next() % 3) as usize])
                        };
                        (key, value)
                    })
                    .collect()
            })
            .collect();
        let mut registry = Registry::new();
        let mut reference = OwnedKeyRegistry::default();
        for _ in 0..20_000 {
            let name = NAMES[(next() % 4) as usize];
            let labels = &pool[(next() % pool.len() as u64) as usize];
            let value = next() % 5_000;
            match next() % 4 {
                0 => {
                    registry.add(name, labels, value);
                    reference.add(name, labels, value);
                }
                1 => {
                    registry.counter_set(name, labels, value);
                    reference.counter_set(name, labels, value);
                }
                2 => {
                    registry.gauge_set(name, labels, value as i64 - 2_500);
                    reference.gauge_set(name, labels, value as i64 - 2_500);
                }
                _ => {
                    registry.observe(name, labels, value);
                    reference.observe(name, labels, value);
                }
            }
        }
        for name in NAMES {
            for labels in &pool {
                let key = OwnedKeyRegistry::key(name, labels);
                assert_eq!(
                    registry.counter(name, labels),
                    reference.counters.get(&key).copied().unwrap_or(0)
                );
                assert_eq!(
                    registry.gauge(name, labels),
                    reference.gauges.get(&key).copied()
                );
                assert_eq!(
                    registry.histogram(name, labels),
                    reference.histograms.get(&key)
                );
            }
        }
        let series = reference.counters.len() + reference.gauges.len() + reference.histograms.len();
        assert_eq!(
            iter(&registry.counters).count()
                + iter(&registry.gauges).count()
                + iter(&registry.histograms).count(),
            series
        );
        assert!(series > 100, "the stream exercised many series");
        let mut got = String::new();
        crate::jsonl::dump_registry(&mut got, &registry);
        assert_eq!(got, reference.dump());
    }
}
