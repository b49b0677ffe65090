//! JSON-lines export, a validating parser, and dump read-back.
//!
//! The exporter writes one JSON object per line — counters, gauges,
//! histogram summaries, then flight-recorder events — iterating only
//! `BTreeMap`s and `VecDeque`s so the output is byte-identical across
//! identical runs. The parser is a bounded recursive-descent JSON reader
//! used three ways: [`validate`] asserts a dump parses (the
//! `dump_is_valid_json_lines` test), `parse_value`/[`parse_dump`] read a
//! dump back into typed records for offline tooling (`itdos-audit`), and
//! [`merge_events`] folds several per-process event streams into one
//! causally ordered timeline. Std-only because the workspace forbids
//! external dependencies.

use std::fmt::Write as _;

use crate::fact::Fact;
use crate::flight::Event;
use crate::metrics::{Histogram, Label, LabelValue, Registry, SeriesKey};

/// Maximum nesting depth the parser accepts. Dumps are flat (depth 2);
/// the bound exists so adversarial input like `[[[[…` cannot overflow
/// the parse stack.
pub const MAX_PARSE_DEPTH: usize = 64;

/// Appends `s` to `out` as a JSON string literal (with quotes).
pub(crate) fn escape_into(out: &mut String, s: &str) {
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn write_labels(out: &mut String, labels: &[Label]) {
    out.push_str(",\"labels\":{");
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        escape_into(out, k);
        out.push(':');
        match v {
            LabelValue::Str(s) => escape_into(out, s),
            LabelValue::U64(n) => {
                let _ = write!(out, "{n}");
            }
        }
    }
    out.push('}');
}

/// Serializes a registry as JSON lines into `out`.
pub fn dump_registry(out: &mut String, registry: &Registry) {
    dump_series(
        out,
        registry.counters(),
        registry.gauges(),
        registry.histograms(),
    );
}

/// Serializes counter, gauge and histogram series, each in the order
/// given, as JSON lines into `out`.
pub(crate) fn dump_series<'a>(
    out: &mut String,
    counters: impl Iterator<Item = (&'a SeriesKey, u64)>,
    gauges: impl Iterator<Item = (&'a SeriesKey, i64)>,
    histograms: impl Iterator<Item = (&'a SeriesKey, &'a Histogram)>,
) {
    for (key, value) in counters {
        out.push_str("{\"type\":\"counter\",\"name\":");
        escape_into(out, key.name);
        write_labels(out, &key.labels);
        let _ = writeln!(out, ",\"value\":{value}}}");
    }
    for (key, value) in gauges {
        out.push_str("{\"type\":\"gauge\",\"name\":");
        escape_into(out, key.name);
        write_labels(out, &key.labels);
        let _ = writeln!(out, ",\"value\":{value}}}");
    }
    for (key, h) in histograms {
        out.push_str("{\"type\":\"histogram\",\"name\":");
        escape_into(out, key.name);
        write_labels(out, &key.labels);
        let _ = writeln!(
            out,
            ",\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"p50\":{},\"p99\":{}}}",
            h.count(),
            h.sum(),
            h.min(),
            h.max(),
            h.percentile(50),
            h.percentile(99)
        );
    }
}

/// Serializes flight-recorder events as JSON lines into `out`. Every
/// record carries the emitting process's scope, so offline tools can
/// attribute events without an out-of-band process map.
pub(crate) fn dump_events<'a>(out: &mut String, events: impl Iterator<Item = &'a Event>) {
    for e in events {
        let _ = write!(
            out,
            "{{\"type\":\"event\",\"seq\":{},\"at_us\":{},\"scope\":{},\"kind\":",
            e.seq, e.at_micros, e.scope
        );
        escape_into(out, e.kind);
        write_labels(out, &e.labels);
        out.push_str("}\n");
    }
}

/// Validates that every non-empty line of `text` is a standalone JSON
/// object. Returns the number of lines validated.
pub fn validate(text: &str) -> Result<usize, String> {
    let mut lines = 0;
    for (idx, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        parse_object_line(line).map_err(|e| format!("line {}: {e}", idx + 1))?;
        lines += 1;
    }
    Ok(lines)
}

/// A JSON value read back from a dump. Numbers keep their source text
/// (see [`Number`]) — the dumps this crate writes contain only integers,
/// and avoiding a float representation keeps read-back exact.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JsonValue {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number, kept as source text.
    Num(Number),
    /// A string, with escapes decoded.
    Str(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object; insertion order preserved, duplicate keys kept as-is.
    Object(Vec<(String, JsonValue)>),
}

/// A JSON number as it appeared in the input.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Number {
    /// Verbatim source text (e.g. `"42"`, `"-3"`, `"2.5e3"`).
    pub raw: String,
}

impl Number {
    /// The value as `u64`, if it is a plain non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        self.raw.parse().ok()
    }

    /// The value as `i64`, if it is a plain integer.
    fn as_i64(&self) -> Option<i64> {
        self.raw.parse().ok()
    }
}

impl JsonValue {
    /// Looks up `key` in an object (first occurrence); `None` otherwise.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as `u64`, if it is a plain non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Num(n) => n.as_u64(),
            _ => None,
        }
    }

    /// The value as `i64`, if it is a plain integer.
    fn as_i64(&self) -> Option<i64> {
        match self {
            JsonValue::Num(n) => n.as_i64(),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// Parses one complete JSON value from `text` (surrounding whitespace
/// allowed, nothing else).
pub(crate) fn parse_value(text: &str) -> Result<JsonValue, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err("trailing bytes".into());
    }
    Ok(v)
}

fn parse_object_line(line: &str) -> Result<JsonValue, String> {
    let v = parse_value(line)?;
    if !matches!(v, JsonValue::Object(_)) {
        return Err("expected object".into());
    }
    Ok(v)
}

/// Parses every non-empty line of `text` as a standalone JSON object.
pub fn parse_lines(text: &str) -> Result<Vec<JsonValue>, String> {
    let mut out = Vec::new();
    for (idx, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        out.push(parse_object_line(line).map_err(|e| format!("line {}: {e}", idx + 1))?);
    }
    Ok(out)
}

/// An owned label value read back from a dump.
pub type LabelOwned = LabelValue<String>;

fn read_labels(v: &JsonValue) -> Result<Vec<(String, LabelOwned)>, String> {
    let Some(JsonValue::Object(fields)) = v.get("labels") else {
        return Err("missing labels".into());
    };
    let mut out = Vec::with_capacity(fields.len());
    for (k, lv) in fields {
        let lv = match lv {
            JsonValue::Str(s) => LabelOwned::Str(s.clone()),
            JsonValue::Num(n) => LabelOwned::U64(n.as_u64().ok_or("non-u64 label")?),
            _ => return Err("bad label value".into()),
        };
        out.push((k.clone(), lv));
    }
    Ok(out)
}

/// One counter line read back from a dump.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CounterRecord {
    /// Series name.
    pub name: String,
    /// Series labels.
    pub labels: Vec<(String, LabelOwned)>,
    /// Counter value.
    pub value: u64,
}

/// One gauge line read back from a dump.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GaugeRecord {
    /// Series name.
    pub name: String,
    /// Series labels.
    pub labels: Vec<(String, LabelOwned)>,
    /// Gauge value.
    pub value: i64,
}

/// One histogram summary line read back from a dump.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramRecord {
    /// Series name.
    pub name: String,
    /// Series labels.
    pub labels: Vec<(String, LabelOwned)>,
    /// Observation count.
    pub count: u64,
    /// Sum of observations.
    pub sum: u64,
    /// Minimum observation.
    pub min: u64,
    /// Maximum observation.
    pub max: u64,
    /// Median estimate.
    pub p50: u64,
    /// 99th-percentile estimate.
    pub p99: u64,
}

/// One flight-recorder event read back from a dump.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EventRecord {
    /// Global per-process sequence number.
    pub seq: u64,
    /// Timestamp (µs, injected clock).
    pub at_us: u64,
    /// Emitting process's scope (endpoint code in a wired system).
    pub scope: u64,
    /// Event kind.
    pub kind: String,
    /// Event labels in call-site order.
    pub labels: Vec<(String, LabelOwned)>,
}

impl EventRecord {
    /// The fact this record holds; `None` for a kind outside the
    /// [`crate::Fact`] table or labels that do not fit its row.
    pub fn fact(&self) -> Option<Fact<'_>> {
        Fact::read(&self.kind, |key| {
            let (_, value) = self.labels.iter().find(|(k, _)| k == key)?;
            Some(match value {
                LabelOwned::U64(n) => LabelValue::U64(*n),
                LabelOwned::Str(s) => LabelValue::Str(s.as_str()),
            })
        })
    }
}

/// Everything read back from one JSONL dump, by record type. Lines whose
/// `type` is not one this module writes (e.g. the topology records
/// `System::audit_jsonl` appends) are preserved in `extras`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Dump {
    /// Counter lines.
    pub counters: Vec<CounterRecord>,
    /// Gauge lines.
    pub gauges: Vec<GaugeRecord>,
    /// Histogram summary lines.
    pub histograms: Vec<HistogramRecord>,
    /// Flight-recorder event lines, in dump order.
    pub events: Vec<EventRecord>,
    /// Unrecognized object lines, verbatim.
    pub extras: Vec<JsonValue>,
}

impl Dump {
    /// Sum of a counter across all label combinations.
    pub fn counter_total(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .filter(|c| c.name == name)
            .map(|c| c.value)
            .sum()
    }
}

fn field_u64(v: &JsonValue, key: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(JsonValue::as_u64)
        .ok_or_else(|| format!("missing u64 field {key:?}"))
}

/// Parses a full JSONL dump into typed records. Strict about the shapes
/// this module writes; unknown record types are kept in [`Dump::extras`].
pub fn parse_dump(text: &str) -> Result<Dump, String> {
    let mut dump = Dump::default();
    for (idx, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let v = parse_object_line(line).map_err(|e| format!("line {}: {e}", idx + 1))?;
        let typed = (|| -> Result<(), String> {
            match v.get("type").and_then(JsonValue::as_str) {
                Some("counter") => dump.counters.push(CounterRecord {
                    name: v
                        .get("name")
                        .and_then(JsonValue::as_str)
                        .ok_or("missing name")?
                        .to_string(),
                    labels: read_labels(&v)?,
                    value: field_u64(&v, "value")?,
                }),
                Some("gauge") => dump.gauges.push(GaugeRecord {
                    name: v
                        .get("name")
                        .and_then(JsonValue::as_str)
                        .ok_or("missing name")?
                        .to_string(),
                    labels: read_labels(&v)?,
                    value: v
                        .get("value")
                        .and_then(JsonValue::as_i64)
                        .ok_or("missing i64 field \"value\"")?,
                }),
                Some("histogram") => dump.histograms.push(HistogramRecord {
                    name: v
                        .get("name")
                        .and_then(JsonValue::as_str)
                        .ok_or("missing name")?
                        .to_string(),
                    labels: read_labels(&v)?,
                    count: field_u64(&v, "count")?,
                    sum: field_u64(&v, "sum")?,
                    min: field_u64(&v, "min")?,
                    max: field_u64(&v, "max")?,
                    p50: field_u64(&v, "p50")?,
                    p99: field_u64(&v, "p99")?,
                }),
                Some("event") => dump.events.push(EventRecord {
                    seq: field_u64(&v, "seq")?,
                    at_us: field_u64(&v, "at_us")?,
                    scope: field_u64(&v, "scope")?,
                    kind: v
                        .get("kind")
                        .and_then(JsonValue::as_str)
                        .ok_or("missing kind")?
                        .to_string(),
                    labels: read_labels(&v)?,
                }),
                _ => {
                    dump.extras.push(v.clone());
                }
            }
            Ok(())
        })();
        typed.map_err(|e| format!("line {}: {e}", idx + 1))?;
    }
    Ok(dump)
}

/// Merges per-process event streams into one causally ordered timeline.
///
/// The key is `(at_us, seq, scope)`: simulated time first (the only
/// cross-process ordering that exists), then the global sequence number
/// (which orders events within the shared recorder of one system), then
/// scope as a deterministic tie-break for streams from distinct
/// recorders. The sort is stable, so equal keys keep input order.
pub fn merge_events(streams: Vec<Vec<EventRecord>>) -> Vec<EventRecord> {
    let mut all: Vec<EventRecord> = streams.into_iter().flatten().collect();
    all.sort_by_key(|e| (e.at_us, e.seq, e.scope));
    all
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek();
        if b.is_some() {
            self.pos += 1;
        }
        b
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.bump() == Some(b) {
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn value(&mut self, depth: usize) -> Result<JsonValue, String> {
        if depth > MAX_PARSE_DEPTH {
            return Err("nesting too deep".into());
        }
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => self.string().map(JsonValue::Str),
            Some(b't') => self.literal("true").map(|()| JsonValue::Bool(true)),
            Some(b'f') => self.literal("false").map(|()| JsonValue::Bool(false)),
            Some(b'n') => self.literal("null").map(|()| JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            other => Err(format!("unexpected {:?} at byte {}", other, self.pos)),
        }
    }

    fn object(&mut self, depth: usize) -> Result<JsonValue, String> {
        self.expect(b'{')?;
        self.skip_ws();
        let mut fields = Vec::new();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.value(depth + 1)?;
            fields.push((key, value));
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b'}') => return Ok(JsonValue::Object(fields)),
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<JsonValue, String> {
        self.expect(b'[')?;
        self.skip_ws();
        let mut items = Vec::new();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b']') => return Ok(JsonValue::Array(items)),
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn hex4(&mut self) -> Result<u16, String> {
        let mut v: u16 = 0;
        for _ in 0..4 {
            let d = match self.bump() {
                Some(b @ b'0'..=b'9') => b - b'0',
                Some(b @ b'a'..=b'f') => b - b'a' + 10,
                Some(b @ b'A'..=b'F') => b - b'A' + 10,
                _ => return Err("bad \\u escape".into()),
            };
            v = (v << 4) | u16::from(d);
        }
        Ok(v)
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bump() {
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.bump() {
                    Some(b'u') => {
                        let hi = self.hex4()?;
                        let cp = if (0xd800..0xdc00).contains(&hi) {
                            // surrogate pair: a low surrogate must follow
                            if self.bump() != Some(b'\\') || self.bump() != Some(b'u') {
                                return Err("lone surrogate".into());
                            }
                            let lo = self.hex4()?;
                            if !(0xdc00..0xe000).contains(&lo) {
                                return Err("bad low surrogate".into());
                            }
                            0x10000 + ((u32::from(hi) - 0xd800) << 10) + (u32::from(lo) - 0xdc00)
                        } else if (0xdc00..0xe000).contains(&hi) {
                            return Err("lone surrogate".into());
                        } else {
                            u32::from(hi)
                        };
                        out.push(char::from_u32(cp).ok_or("bad codepoint")?);
                    }
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    _ => return Err("bad escape".into()),
                },
                Some(b) if b < 0x80 => out.push(b as char),
                Some(b) => {
                    // multi-byte UTF-8: the input is a &str, so the
                    // remaining continuation bytes are valid — copy them
                    let start = self.pos - 1;
                    let width = match b {
                        0xc0..=0xdf => 2,
                        0xe0..=0xef => 3,
                        _ => 4,
                    };
                    for _ in 1..width {
                        self.bump();
                    }
                    let end = self.pos.min(self.bytes.len());
                    match self.bytes.get(start..end).map(std::str::from_utf8) {
                        Some(Ok(s)) => out.push_str(s),
                        _ => return Err("bad utf-8".into()),
                    }
                }
                None => return Err("unterminated string".into()),
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut digits = 0;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
            digits += 1;
        }
        if digits == 0 {
            return Err("bad number".into());
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let raw = self
            .bytes
            .get(start..self.pos)
            .and_then(|raw| std::str::from_utf8(raw).ok())
            .ok_or("bad number")?
            .to_string();
        Ok(JsonValue::Num(Number { raw }))
    }

    fn literal(&mut self, lit: &str) -> Result<(), String> {
        for &b in lit.as_bytes() {
            if self.bump() != Some(b) {
                return Err(format!("bad literal, expected {lit}"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flight::FlightRecorder;

    #[test]
    fn escaping_covers_quotes_and_controls() {
        let mut out = String::new();
        escape_into(&mut out, "a\"b\\c\n\u{1}");
        assert_eq!(out, "\"a\\\"b\\\\c\\n\\u0001\"");
    }

    #[test]
    fn validator_accepts_object_lines_and_rejects_junk() {
        let good =
            "{\"a\":1,\"b\":[true,null,-2.5e3],\"c\":{\"d\":\"x\"}}\n\n{\"e\":\"\\u00ff\"}\n";
        assert_eq!(validate(good), Ok(2));
        assert!(validate("[1,2]").is_err(), "top level must be an object");
        assert!(validate("{\"a\":}").is_err());
        assert!(validate("{\"a\":1} extra").is_err());
        assert!(validate("{\"a\":\"unterminated}").is_err());
    }

    #[test]
    fn parser_bounds_nesting_depth() {
        let mut deep = String::from("{\"a\":");
        for _ in 0..(MAX_PARSE_DEPTH + 8) {
            deep.push('[');
        }
        // never closes — either way, the depth check must fire before the
        // stack does
        assert!(parse_value(&deep).is_err());
    }

    #[test]
    fn parser_decodes_escapes_and_surrogates() {
        let v = parse_value("{\"k\":\"a\\u00e9\\ud83d\\ude00\\n\"}").unwrap();
        assert_eq!(v.get("k").and_then(JsonValue::as_str), Some("aé😀\n"));
        assert!(
            parse_value("{\"k\":\"\\ud800\"}").is_err(),
            "lone surrogate"
        );
        assert!(parse_value("{\"k\":\"\\udc00x\"}").is_err());
    }

    #[test]
    fn dump_round_trips_through_validator() {
        let mut r = Registry::new();
        r.add(
            "net.messages",
            &[("label", LabelValue::Str("bft-commit"))],
            9,
        );
        r.gauge_set("bft.backlog", &[("replica", LabelValue::U64(2))], -1);
        r.observe("bft.commit_us", &[("replica", LabelValue::U64(0))], 300);
        let mut out = String::new();
        dump_registry(&mut out, &r);
        assert_eq!(validate(&out), Ok(3));
        assert!(out.contains("\"p50\":300") || out.contains("\"p50\":511"));
    }

    #[test]
    fn dump_round_trips_through_typed_parser() {
        let mut r = Registry::new();
        r.add("element.replies", &[("element", LabelValue::U64(4))], 7);
        r.gauge_set("replica.health", &[("element", LabelValue::U64(4))], 60);
        r.observe("bft.order_us", &[], 300);
        let mut fr = FlightRecorder::new(8);
        let dissent = Fact::VoteDissent {
            request: 1,
            sender: 4,
        };
        fr.record(10, 1_000_004, dissent.kind(), &dissent.labels());
        let mut out = String::new();
        dump_registry(&mut out, &r);
        dump_events(&mut out, fr.events());
        out.push_str("{\"type\":\"topology\",\"kind\":\"gm\",\"domain\":0}\n");

        let dump = parse_dump(&out).expect("typed parse");
        assert_eq!(dump.counters.len(), 1);
        let element = crate::metrics::label_u64(&dump.counters[0].labels, "element");
        assert_eq!(element, Some(4));
        assert_eq!(dump.counter_total("element.replies"), 7);
        assert_eq!(dump.gauges[0].value, 60);
        assert_eq!(dump.histograms[0].count, 1);
        assert_eq!(dump.events.len(), 1);
        let e = &dump.events[0];
        assert_eq!((e.seq, e.at_us, e.scope), (0, 10, 1_000_004));
        assert_eq!(e.kind, "vote.dissent");
        assert_eq!(
            e.fact(),
            Some(Fact::VoteDissent {
                request: 1,
                sender: 4
            })
        );
        assert_eq!(dump.extras.len(), 1, "unknown record types preserved");
    }

    #[test]
    fn merge_orders_by_time_then_seq_then_scope() {
        let ev = |seq, at_us, scope| EventRecord {
            seq,
            at_us,
            scope,
            kind: "e".into(),
            labels: vec![],
        };
        let merged = merge_events(vec![
            vec![ev(0, 50, 2), ev(1, 90, 2)],
            vec![ev(0, 50, 1), ev(1, 40, 1)],
        ]);
        let keys: Vec<(u64, u64, u64)> = merged.iter().map(|e| (e.at_us, e.seq, e.scope)).collect();
        assert_eq!(keys, vec![(40, 1, 1), (50, 0, 1), (50, 0, 2), (90, 1, 2)]);
    }
}
