//! L6 wire symmetry: what the compiler cannot see about the wire formats.
//!
//! The ITDOS voter compares marshalled reply bytes across heterogeneous
//! replicas, so an encode/decode asymmetry silently breaks voting or opens
//! a parser differential a hostile element can exploit. Beneath GIOP that
//! symmetry holds by construction: every compact-wire type is declared
//! once (`xbytes::wire`) and both directions are generated from the one
//! declaration. This pass keeps the three properties a declaration cannot
//! enforce on its own:
//!
//! * no `Reader::new` / `Writer::new` outside a `wire.rs` in a wire-bearing
//!   crate — a decoder built by hand would escape the one place that ends
//!   every decode in `expect_end`;
//! * every type implementing `Wire` — declared or hand-written — is named
//!   in the law harness's type list ([`WIRE_LAWS`]), so the round-trip /
//!   prefix / trailing-byte / tag / bound laws and the decode fuzzers reach
//!   it;
//! * the GIOP/CDR pairs of [`WIRE_MANIFEST`] exist where registered and
//!   each names a live round-trip test. They stay hand-written by design:
//!   CDR is the paper's format and the heterogeneity profiles depend on its
//!   alignment and byte-order details.

use crate::findings::{Finding, Rule};
use crate::source::{has_word, SourceFile};
use crate::tokens::{self, Kind, Tok};
use std::collections::BTreeMap;

/// One registered hand-written encode/decode pair.
#[derive(Debug, Clone, Copy)]
pub struct WirePair {
    /// Wire type (or payload) name, for reports and round-trip matching.
    pub name: &'static str,
    /// Workspace-relative file holding both functions.
    pub file: &'static str,
    /// Encode function name.
    pub encode_fn: &'static str,
    /// Decode function name.
    pub decode_fn: &'static str,
    /// (file, test fn) of the round-trip test registering this type.
    pub roundtrip: (&'static str, &'static str),
}

/// The hand-written pairs: GIOP and CDR (crates/itdos-giop).
pub const WIRE_MANIFEST: &[WirePair] = &[
    WirePair {
        name: "Value (CDR)",
        file: "crates/itdos-giop/src/cdr.rs",
        encode_fn: "encode",
        decode_fn: "decode",
        roundtrip: ("tests/tests/properties.rs", "cdr_round_trips"),
    },
    WirePair {
        name: "Vec<Value>",
        file: "crates/itdos-giop/src/cdr.rs",
        encode_fn: "encode_values",
        decode_fn: "decode_values",
        roundtrip: ("crates/itdos-giop/src/cdr.rs", "value_lists_round_trip"),
    },
    WirePair {
        name: "GIOP header",
        file: "crates/itdos-giop/src/giop.rs",
        encode_fn: "encode_message",
        decode_fn: "decode_message",
        roundtrip: (
            "crates/itdos-giop/src/giop.rs",
            "bodyless_messages_round_trip",
        ),
    },
    WirePair {
        name: "GIOP Request",
        file: "crates/itdos-giop/src/giop.rs",
        encode_fn: "request_body",
        decode_fn: "decode_request",
        roundtrip: (
            "crates/itdos-giop/src/giop.rs",
            "request_trace_id_round_trips_both_endiannesses",
        ),
    },
    WirePair {
        name: "GIOP Reply",
        file: "crates/itdos-giop/src/giop.rs",
        encode_fn: "reply_body",
        decode_fn: "decode_reply",
        roundtrip: (
            "crates/itdos-giop/src/giop.rs",
            "reply_round_trips_all_statuses",
        ),
    },
];

/// Crates whose `src/` trees carry compact-wire types: a reader or writer
/// constructed there outside `wire.rs` is a finding.
pub const WIRE_CRATES: &[&str] = &[
    "itdos",
    "itdos-bft",
    "itdos-groupmgr",
    "itdos-vote",
    "itdos-crypto",
];

/// The law harness's type list: every `Wire` type must be named in it.
pub const WIRE_LAWS: &str = "tests/src/wire_samples.rs";

/// True when `file` defines `fn name` outside test code.
fn has_fn(file: &SourceFile, name: &str) -> bool {
    let needle = format!("fn {name}");
    (file.masked.iter().zip(&file.in_test))
        .any(|(line, in_test)| !in_test && has_word(line, &needle))
}

/// Names and lines of the types `file` gives a `Wire` impl outside test
/// code: `impl Wire for T`, `wire_struct!(T ..` and `wire_enum!(T ..`.
fn wire_types(file: &SourceFile, toks: &[Tok]) -> Vec<(String, usize)> {
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        let after = if t.is("Wire") && toks.get(i + 1).is_some_and(|n| n.is("for")) {
            i + 2
        } else if (t.is("wire_struct") || t.is("wire_enum"))
            && toks.get(i + 1).is_some_and(|n| n.is_p("!"))
        {
            i + 3
        } else {
            continue;
        };
        // `[u8; N]` names `u8`; a macro's own `$ty` names nothing
        let name = toks[after.min(toks.len())..]
            .iter()
            .take_while(|n| !n.is_p("$") && !n.is_p("{"))
            .find(|n| n.kind == Kind::Ident);
        if let (Some(name), false) = (name, file.in_test[t.line - 1]) {
            out.push((name.text.clone(), t.line));
        }
    }
    out
}

/// Runs the L6 pass with an explicit manifest and law list (tests inject
/// fixtures).
pub fn check_with_manifest(
    manifest: &[WirePair],
    laws: &str,
    files: &BTreeMap<String, (String, SourceFile)>,
) -> Vec<Finding> {
    let mut findings = Vec::new();
    let mut push = |path: &str, line: usize, file: Option<&SourceFile>, message: String| {
        findings.push(Finding {
            rule: Rule::WireSymmetry,
            path: path.to_string(),
            line,
            snippet: file
                .and_then(|f| f.lines.get(line.saturating_sub(1)))
                .map(|l| l.trim().to_string())
                .unwrap_or_default(),
            message,
            waiver: file
                .and_then(|f| f.waiver_for(Rule::WireSymmetry, line))
                .map(str::to_string),
        });
    };

    for pair in manifest {
        let Some((_, sf)) = files.get(pair.file) else {
            let message = format!(
                "wire pair `{}` registered but {} is missing",
                pair.name, pair.file
            );
            push(pair.file, 1, None, message);
            continue;
        };
        if !has_fn(sf, pair.encode_fn) || !has_fn(sf, pair.decode_fn) {
            let message = format!(
                "wire pair `{}`: registered fn `{}`/`{}` not found in {}",
                pair.name, pair.encode_fn, pair.decode_fn, pair.file
            );
            push(pair.file, 1, Some(sf), message);
            continue;
        }
        let (rt_file, rt_fn) = pair.roundtrip;
        let registered = files.get(rt_file).is_some_and(|(_, rt)| {
            let names = [pair.name, pair.encode_fn, pair.decode_fn];
            rt.masked.iter().any(|l| l.contains(&format!("fn {rt_fn}")))
                && rt.lines.iter().any(|l| names.iter().any(|n| l.contains(n)))
        });
        if !registered {
            let message = format!(
                "wire pair `{}` has no live round-trip test: expected `fn {rt_fn}` in {rt_file} \
                 to exercise it",
                pair.name
            );
            push(pair.file, 1, Some(sf), message);
        }
    }

    let law_list = files.get(laws).map(|(_, sf)| sf);
    for (path, (crate_name, sf)) in files {
        if crate_name.is_empty() {
            continue;
        }
        let toks = tokens::tokenize(sf);
        for (name, line) in wire_types(sf, &toks) {
            if !law_list.is_some_and(|l| l.lines.iter().any(|l| has_word(l, &name))) {
                let message = format!(
                    "unregistered wire type: `{name}` implements `Wire` but is not named in \
                     {laws} — add a sample so the laws and the fuzzers reach it"
                );
                push(path, line, Some(sf), message);
            }
        }
        if !WIRE_CRATES.contains(&crate_name.as_str()) || path.ends_with("/wire.rs") {
            continue;
        }
        for w in toks.windows(3) {
            let built = (w[0].is("Reader") || w[0].is("Writer")) && w[1].is_p("::");
            if built && w[2].is("new") && !sf.in_test[w[0].line - 1] {
                let message = format!(
                    "`{}::new` outside wire.rs: declare the type with `wire_struct!`/`wire_enum!` \
                     (or `impl Wire`) and call its `encode`/`decode`",
                    w[0].text
                );
                push(path, w[0].line, Some(sf), message);
            }
        }
    }

    findings
}

/// Runs the L6 pass with the live manifest.
pub fn check_wire_symmetry(files: &BTreeMap<String, (String, SourceFile)>) -> Vec<Finding> {
    check_with_manifest(WIRE_MANIFEST, WIRE_LAWS, files)
}

#[cfg(test)]
mod tests {
    use super::*;

    const CODEC: &str = "\
pub fn encode_frame(f: &Frame) -> Vec<u8> { f.0.to_vec() }
pub fn decode_frame(bytes: &[u8]) -> Frame { Frame(bytes.to_vec()) }
wire_enum!(Op { 0 => Deliver(payload) });
impl Wire for Peer { }
";
    const TESTS: &str =
        "fn frame_round_trips() { decode_frame(&encode_frame(&f)); case::<Op>(); case::<Peer>(); }";
    const PAIR: WirePair = WirePair {
        name: "Frame",
        file: "crates/x/src/wire.rs",
        encode_fn: "encode_frame",
        decode_fn: "decode_frame",
        roundtrip: ("tests/laws.rs", "frame_round_trips"),
    };

    fn check(codec: &str, tests: &str) -> Vec<Finding> {
        let mut files = BTreeMap::new();
        let bft = "itdos-bft".to_string();
        files.insert(PAIR.file.to_string(), (bft, SourceFile::scan(codec)));
        let tests = (String::new(), SourceFile::scan(tests));
        files.insert("tests/laws.rs".to_string(), tests);
        check_with_manifest(&[PAIR], "tests/laws.rs", &files)
    }

    #[test]
    fn symmetric_pair_is_clean() {
        let f = check(CODEC, TESTS);
        assert!(f.is_empty(), "{f:#?}");
    }

    #[test]
    fn missing_pair_fn_fires() {
        let f = check(&CODEC.replace("fn decode_frame", "fn parse_frame"), TESTS);
        assert!(f.iter().any(|f| f.message.contains("not found")), "{f:#?}");
    }

    #[test]
    fn missing_roundtrip_registration_fires() {
        let f = check(CODEC, "fn unrelated() { case::<Op>(); case::<Peer>(); }");
        assert!(f.iter().any(|f| f.message.contains("round-trip")), "{f:#?}");
    }

    #[test]
    fn unregistered_pair_is_discovered() {
        for (gone, name) in [("case::<Op>();", "`Op`"), ("case::<Peer>();", "`Peer`")] {
            let f = check(CODEC, &TESTS.replace(gone, ""));
            assert_eq!(f.len(), 1, "{f:#?}");
            assert!(f[0].message.contains("unregistered wire type"), "{f:#?}");
            assert!(f[0].message.contains(name), "{f:#?}");
        }
    }
}
