//! L6 wire symmetry: every wire type's `encode`/`decode` pair must stay
//! field-symmetric, reject unknown enum tags, and be registered in a
//! round-trip test.
//!
//! The ITDOS voter compares marshalled reply bytes across heterogeneous
//! replicas, so an encode/decode asymmetry (a field written but never read,
//! a tag accepted on decode that encode never emits) silently breaks
//! voting or opens a parser differential a hostile element can exploit.
//! This pass is manifest-driven: [`WIRE_MANIFEST`] names every wire pair in
//! the workspace, and the pass
//!
//! * checks both functions exist where registered;
//! * counts field writes vs field reads per primitive kind (`u8`, `u32`,
//!   `bytes`, ...) and per paired helper (`write_meta` ↔ `read_meta`,
//!   `encode_proof` ↔ `decode_proof`), collapsing per-variant enum tag
//!   writes against the decode side's tag `match`;
//! * checks the enum tag sets line up and every decode tag `match` carries
//!   a rejecting catch-all arm;
//! * checks the registered round-trip test exists and names the type;
//! * fails on any `encode_X`/`decode_X`, `write_X`/`read_X`, or
//!   `impl T { fn encode / fn decode }` pair in a wire-bearing crate that
//!   is **not** in the manifest — new wire types cannot ship unregistered.

use crate::findings::{Finding, Rule};
use crate::source::SourceFile;
use crate::tokens::{self, Kind, Tok};
use std::collections::{BTreeMap, BTreeSet};

/// One registered encode/decode pair.
#[derive(Debug, Clone, Copy)]
pub struct WirePair {
    /// Wire type (or payload) name, for reports and round-trip matching.
    pub name: &'static str,
    /// Workspace-relative file holding both functions.
    pub file: &'static str,
    /// Encode function name, and the `impl` type it lives in (None = free).
    pub encode_fn: &'static str,
    pub encode_impl: Option<&'static str>,
    /// Decode function name, and the `impl` type it lives in (None = free).
    pub decode_fn: &'static str,
    pub decode_impl: Option<&'static str>,
    /// Compare field-write/field-read counts (false for hand-rolled
    /// headers whose symmetry the round-trip test pins dynamically).
    pub counts: bool,
    /// (file, test fn) of the round-trip test registering this type.
    pub roundtrip: (&'static str, &'static str),
}

/// Every wire pair in the workspace. Adding an encode/decode pair to a
/// wire-bearing crate without registering it here is an L6 finding.
pub const WIRE_MANIFEST: &[WirePair] = &[
    // core compact wire format (crates/core/src/wire.rs)
    WirePair {
        name: "Option<DomainId>",
        file: "crates/core/src/wire.rs",
        encode_fn: "write_option_domain",
        encode_impl: None,
        decode_fn: "read_option_domain",
        decode_impl: None,
        counts: true,
        roundtrip: ("crates/core/src/wire.rs", "core_msgs_round_trip"),
    },
    WirePair {
        name: "ConnectionMeta",
        file: "crates/core/src/wire.rs",
        encode_fn: "write_meta",
        encode_impl: None,
        decode_fn: "read_meta",
        decode_impl: None,
        counts: true,
        roundtrip: ("crates/core/src/wire.rs", "core_msgs_round_trip"),
    },
    WirePair {
        name: "SignedReply",
        file: "crates/core/src/wire.rs",
        encode_fn: "write_signed_reply",
        encode_impl: None,
        decode_fn: "read_signed_reply",
        decode_impl: None,
        counts: true,
        roundtrip: ("crates/core/src/wire.rs", "gm_ops_round_trip"),
    },
    WirePair {
        name: "FaultProof",
        file: "crates/core/src/wire.rs",
        encode_fn: "encode_proof",
        encode_impl: None,
        decode_fn: "decode_proof",
        decode_impl: None,
        counts: true,
        roundtrip: ("crates/core/src/wire.rs", "gm_ops_round_trip"),
    },
    WirePair {
        name: "CoreMsg",
        file: "crates/core/src/wire.rs",
        encode_fn: "encode",
        encode_impl: Some("CoreMsg"),
        decode_fn: "decode",
        decode_impl: Some("CoreMsg"),
        counts: true,
        roundtrip: ("crates/core/src/wire.rs", "core_msgs_round_trip"),
    },
    WirePair {
        name: "SmiopFrame",
        file: "crates/core/src/wire.rs",
        encode_fn: "encode",
        encode_impl: Some("SmiopFrame"),
        decode_fn: "decode",
        decode_impl: Some("SmiopFrame"),
        counts: true,
        roundtrip: ("crates/core/src/wire.rs", "smiop_frame_round_trips"),
    },
    WirePair {
        name: "GmOp",
        file: "crates/core/src/wire.rs",
        encode_fn: "encode",
        encode_impl: Some("GmOp"),
        decode_fn: "decode",
        decode_impl: Some("GmOp"),
        counts: true,
        roundtrip: ("crates/core/src/wire.rs", "gm_ops_round_trip"),
    },
    WirePair {
        name: "Directive",
        file: "crates/core/src/wire.rs",
        encode_fn: "encode_directives",
        encode_impl: None,
        decode_fn: "decode_directives",
        decode_impl: None,
        counts: true,
        roundtrip: ("crates/core/src/wire.rs", "directives_round_trip"),
    },
    WirePair {
        name: "HealCmd",
        file: "crates/core/src/wire.rs",
        encode_fn: "encode",
        encode_impl: Some("HealCmd"),
        decode_fn: "decode",
        decode_impl: Some("HealCmd"),
        counts: true,
        roundtrip: (
            "crates/core/src/wire.rs",
            "heal_cmds_round_trip_and_reject_malformed",
        ),
    },
    // BFT protocol messages (crates/itdos-bft/src/message.rs)
    WirePair {
        name: "Digest",
        file: "crates/itdos-bft/src/message.rs",
        encode_fn: "write_digest",
        encode_impl: None,
        decode_fn: "read_digest",
        decode_impl: None,
        counts: true,
        roundtrip: (
            "crates/itdos-bft/src/message.rs",
            "every_message_round_trips",
        ),
    },
    WirePair {
        name: "ClientRequest",
        file: "crates/itdos-bft/src/message.rs",
        encode_fn: "write_request",
        encode_impl: None,
        decode_fn: "read_request",
        decode_impl: None,
        counts: true,
        // the dedicated trace test also covers the base round trip, so
        // it pins both the causal-trace field and the legacy layout
        roundtrip: (
            "crates/itdos-bft/src/message.rs",
            "client_request_trace_round_trips",
        ),
    },
    WirePair {
        name: "PrePrepare",
        file: "crates/itdos-bft/src/message.rs",
        encode_fn: "write_pre_prepare",
        encode_impl: None,
        decode_fn: "read_pre_prepare",
        decode_impl: None,
        counts: true,
        roundtrip: (
            "crates/itdos-bft/src/message.rs",
            "every_message_round_trips",
        ),
    },
    WirePair {
        name: "Prepare",
        file: "crates/itdos-bft/src/message.rs",
        encode_fn: "write_prepare",
        encode_impl: None,
        decode_fn: "read_prepare",
        decode_impl: None,
        counts: true,
        roundtrip: (
            "crates/itdos-bft/src/message.rs",
            "every_message_round_trips",
        ),
    },
    WirePair {
        name: "Commit",
        file: "crates/itdos-bft/src/message.rs",
        encode_fn: "write_commit",
        encode_impl: None,
        decode_fn: "read_commit",
        decode_impl: None,
        counts: true,
        roundtrip: (
            "crates/itdos-bft/src/message.rs",
            "every_message_round_trips",
        ),
    },
    WirePair {
        name: "Checkpoint",
        file: "crates/itdos-bft/src/message.rs",
        encode_fn: "write_checkpoint",
        encode_impl: None,
        decode_fn: "read_checkpoint",
        decode_impl: None,
        counts: true,
        roundtrip: (
            "crates/itdos-bft/src/message.rs",
            "every_message_round_trips",
        ),
    },
    WirePair {
        name: "ViewChange",
        file: "crates/itdos-bft/src/message.rs",
        encode_fn: "write_view_change",
        encode_impl: None,
        decode_fn: "read_view_change",
        decode_impl: None,
        counts: true,
        roundtrip: (
            "crates/itdos-bft/src/message.rs",
            "every_message_round_trips",
        ),
    },
    WirePair {
        name: "Message",
        file: "crates/itdos-bft/src/message.rs",
        encode_fn: "encode",
        encode_impl: Some("Message"),
        decode_fn: "decode",
        decode_impl: Some("Message"),
        counts: true,
        roundtrip: (
            "crates/itdos-bft/src/message.rs",
            "every_message_round_trips",
        ),
    },
    WirePair {
        name: "Envelope",
        file: "crates/itdos-bft/src/auth.rs",
        encode_fn: "encode",
        encode_impl: Some("Envelope"),
        decode_fn: "decode",
        decode_impl: Some("Envelope"),
        counts: true,
        roundtrip: ("crates/itdos-bft/src/auth.rs", "envelope_bytes_round_trip"),
    },
    WirePair {
        name: "QueueOp",
        file: "crates/itdos-bft/src/queue.rs",
        encode_fn: "encode",
        encode_impl: Some("QueueOp"),
        decode_fn: "decode",
        decode_impl: Some("QueueOp"),
        counts: true,
        roundtrip: ("crates/itdos-bft/src/queue.rs", "ops_round_trip_encoding"),
    },
    WirePair {
        name: "transfer payload",
        file: "crates/itdos-bft/src/replica.rs",
        encode_fn: "encode_transfer_payload",
        encode_impl: None,
        decode_fn: "decode_transfer_payload",
        decode_impl: None,
        counts: true,
        roundtrip: (
            "crates/itdos-bft/src/replica.rs",
            "transfer_payload_round_trips",
        ),
    },
    // GIOP / CDR (crates/itdos-giop)
    WirePair {
        name: "Value (CDR)",
        file: "crates/itdos-giop/src/cdr.rs",
        encode_fn: "encode",
        encode_impl: Some("Encoder"),
        decode_fn: "decode",
        decode_impl: Some("Decoder"),
        counts: false, // typed recursion; symmetry pinned by cdr_round_trips
        roundtrip: ("tests/tests/properties.rs", "cdr_round_trips"),
    },
    WirePair {
        name: "Vec<Value>",
        file: "crates/itdos-giop/src/cdr.rs",
        encode_fn: "encode_values",
        encode_impl: None,
        decode_fn: "decode_values",
        decode_impl: None,
        counts: false,
        roundtrip: ("crates/itdos-giop/src/cdr.rs", "value_lists_round_trip"),
    },
    WirePair {
        name: "GIOP header",
        file: "crates/itdos-giop/src/giop.rs",
        encode_fn: "encode_message",
        encode_impl: None,
        decode_fn: "decode_message",
        decode_impl: None,
        counts: false, // hand-rolled 12-byte header
        roundtrip: (
            "crates/itdos-giop/src/giop.rs",
            "bodyless_messages_round_trip",
        ),
    },
    WirePair {
        name: "GIOP Request",
        file: "crates/itdos-giop/src/giop.rs",
        encode_fn: "request_body",
        encode_impl: None,
        decode_fn: "decode_request",
        decode_impl: None,
        counts: false, // typed-value body; pinned by the round-trip test
        roundtrip: (
            "crates/itdos-giop/src/giop.rs",
            "request_trace_id_round_trips_both_endiannesses",
        ),
    },
    WirePair {
        name: "GIOP Reply",
        file: "crates/itdos-giop/src/giop.rs",
        encode_fn: "reply_body",
        encode_impl: None,
        decode_fn: "decode_reply",
        decode_impl: None,
        counts: false, // status arms encode via typed values
        roundtrip: (
            "crates/itdos-giop/src/giop.rs",
            "reply_round_trips_all_statuses",
        ),
    },
];

/// Crates whose `src/` trees carry wire formats: any unregistered
/// encode/decode pair here is a finding.
pub const WIRE_CRATES: &[&str] = &["itdos", "itdos-bft", "itdos-giop", "itdos-groupmgr"];

/// Primitive writer/reader method names, normalized to a canonical kind.
fn prim_kind(name: &str) -> Option<&'static str> {
    Some(match name {
        "u8" => "u8",
        "u16" | "put_u16" | "take_u16" => "u16",
        "u32" | "put_u32" | "take_u32" => "u32",
        "u64" | "put_u64" | "take_u64" => "u64",
        "bytes" => "bytes",
        "raw" => "raw",
        "put_string" | "take_string" => "string",
        _ => return None,
    })
}

/// Write/read and encode/decode helper prefixes, normalized to the suffix.
fn helper_suffix(name: &str, encode_side: bool) -> Option<String> {
    let prefixes: &[&str] = if encode_side {
        &["write_", "encode_"]
    } else {
        &["read_", "decode_"]
    };
    for p in prefixes {
        if let Some(suffix) = name.strip_prefix(p) {
            if !suffix.is_empty() {
                return Some(suffix.to_string());
            }
        }
    }
    None
}

/// Field-level profile of one function body.
#[derive(Debug, Default)]
struct Profile {
    /// Primitive calls per canonical kind.
    prims: BTreeMap<&'static str, usize>,
    /// Helper calls per suffix.
    helpers: BTreeMap<String, usize>,
    /// Single-literal/const tag writes per kind (encode side).
    tag_writes: BTreeMap<&'static str, usize>,
    /// Tag values observed (literals written, or match-arm values inside a
    /// write call's argument).
    tags: BTreeSet<String>,
    /// Scrutinee tag matches per kind (decode side), with per-match arm
    /// values and catch-all flag.
    scrutinees: BTreeMap<&'static str, usize>,
    tag_arms: BTreeSet<String>,
    catchall_ok: bool,
    catchall_missing_line: Option<usize>,
}

/// True for an all-caps const identifier (`TAG_REQUEST`).
fn is_const_ident(t: &Tok) -> bool {
    t.kind == Kind::Ident
        && t.text
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_uppercase())
        && t.text
            .chars()
            .all(|c| c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_')
}

/// Builds the profile of one body range.
fn profile(toks: &[Tok], body: (usize, usize), encode_side: bool, own_fns: &[&str]) -> Profile {
    let (start, end) = body;
    let mut p = Profile {
        catchall_ok: true,
        ..Profile::default()
    };

    for i in start..end {
        // primitive call `.kind(`
        if toks[i].is_p(".")
            && i + 2 < end
            && toks[i + 1].kind == Kind::Ident
            && toks[i + 2].is_p("(")
        {
            if let Some(kind) = prim_kind(&toks[i + 1].text) {
                *p.prims.entry(kind).or_default() += 1;
                // encode-side tag analysis over the argument tokens
                if encode_side {
                    if let Some(close) = tokens::matching(toks, i + 2, "(", ")") {
                        let args = &toks[i + 3..close];
                        if args.len() == 1
                            && (args[0].kind == Kind::Num || is_const_ident(&args[0]))
                        {
                            *p.tag_writes.entry(kind).or_default() += 1;
                            p.tags.insert(args[0].text.clone());
                        } else {
                            // `w.u8(match kind { A => 0, B => 1 })`
                            for w in args.windows(2) {
                                if w[0].is_p("=>")
                                    && (w[1].kind == Kind::Num || is_const_ident(&w[1]))
                                {
                                    p.tags.insert(w[1].text.clone());
                                }
                            }
                        }
                    }
                }
            }
        }
        // free helper call `write_x(` / `decode_x(`
        if toks[i].kind == Kind::Ident
            && i + 1 < end
            && toks[i + 1].is_p("(")
            && (i == 0 || !toks[i - 1].is_p("."))
            && !own_fns.contains(&toks[i].text.as_str())
        {
            if let Some(suffix) = helper_suffix(&toks[i].text, encode_side) {
                *p.helpers.entry(suffix).or_default() += 1;
            }
        }
        // decode-side scrutinee `match r.u8()? { ... }`
        if !encode_side && toks[i].is("match") {
            let mut j = i + 1;
            let mut depth = 0i32;
            let mut kind = None;
            while j < end && j < i + 40 {
                match toks[j].text.as_str() {
                    "(" | "[" => depth += 1,
                    ")" | "]" => depth -= 1,
                    "{" if depth == 0 => break,
                    _ => {}
                }
                if toks[j].is_p(".")
                    && j + 2 < end
                    && toks[j + 1].kind == Kind::Ident
                    && toks[j + 2].is_p("(")
                {
                    kind = kind.or_else(|| prim_kind(&toks[j + 1].text));
                }
                j += 1;
            }
            let (Some(kind), true) = (kind, j < end && toks[j].is_p("{")) else {
                continue;
            };
            *p.scrutinees.entry(kind).or_default() += 1;
            let Some(close) = tokens::matching(toks, j, "{", "}") else {
                continue;
            };
            let mut saw_catchall = false;
            let mut depth2 = 0i32;
            for k in j + 1..close {
                match toks[k].text.as_str() {
                    "(" | "[" | "{" => depth2 += 1,
                    ")" | "]" | "}" => depth2 -= 1,
                    "=>" if depth2 == 0 => {
                        // walk the pattern backwards
                        let mut b = k;
                        let mut arm_tokens = Vec::new();
                        while b > j + 1 {
                            let t = &toks[b - 1];
                            if t.is_p(",") || t.is_p("{") || t.is_p("}") || t.is_p(";") {
                                break;
                            }
                            arm_tokens.push(t);
                            b -= 1;
                        }
                        let mut named = false;
                        for t in &arm_tokens {
                            if t.kind == Kind::Num || is_const_ident(t) {
                                p.tag_arms.insert(t.text.clone());
                                named = true;
                            }
                        }
                        if !named {
                            // `_ =>` or a binding like `other =>`
                            saw_catchall = true;
                        }
                    }
                    _ => {}
                }
            }
            if !saw_catchall {
                p.catchall_ok = false;
                p.catchall_missing_line = Some(toks[j].line);
            }
        }
    }
    p
}

/// `impl` blocks in a token stream: (type name, body token range).
fn impl_blocks(toks: &[Tok]) -> Vec<(String, (usize, usize))> {
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        if !toks[i].is("impl") {
            i += 1;
            continue;
        }
        // type name: last plain ident before the `{` (after `for` if any)
        let mut name = None;
        let mut j = i + 1;
        while j < toks.len() && !toks[j].is_p("{") && !toks[j].is_p(";") {
            if toks[j].kind == Kind::Ident
                && !matches!(toks[j].text.as_str(), "for" | "where" | "dyn" | "mut")
            {
                name = Some(toks[j].text.clone());
            }
            j += 1;
        }
        if j < toks.len() && toks[j].is_p("{") {
            if let (Some(name), Some(close)) = (name, tokens::matching(toks, j, "{", "}")) {
                out.push((name, (j + 1, close)));
                i = j + 1;
                continue;
            }
        }
        i = j + 1;
    }
    out
}

/// Per-file token/function model, built once.
pub struct FileModel {
    pub toks: Vec<Tok>,
    pub fns: Vec<tokens::FnItem>,
    pub impls: Vec<(String, (usize, usize))>,
}

impl FileModel {
    pub fn build(file: &SourceFile) -> FileModel {
        let toks = tokens::tokenize(file);
        let fns = tokens::functions(file, &toks);
        let impls = impl_blocks(&toks);
        FileModel { toks, fns, impls }
    }

    /// Finds `fn name` (optionally inside `impl ty`), returning its item.
    fn find_fn(&self, name: &str, impl_ty: Option<&str>) -> Option<&tokens::FnItem> {
        self.fns.iter().find(|f| {
            if f.name != name {
                return false;
            }
            match impl_ty {
                None => true,
                Some(ty) => self
                    .impls
                    .iter()
                    .any(|(t, (s, e))| t == ty && f.body.0 >= *s && f.body.1 <= *e),
            }
        })
    }
}

/// Runs the L6 pass with an explicit manifest (tests inject fixtures).
pub fn check_with_manifest(
    manifest: &[WirePair],
    files: &BTreeMap<String, (String, SourceFile)>,
) -> Vec<Finding> {
    let mut findings = Vec::new();
    let models: BTreeMap<&String, FileModel> = files
        .iter()
        .map(|(path, (_, sf))| (path, FileModel::build(sf)))
        .collect();

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
            push(
                pair.file,
                1,
                None,
                format!(
                    "wire pair `{}` registered but {} is missing",
                    pair.name, pair.file
                ),
            );
            continue;
        };
        let model = &models[&pair.file.to_string()];
        let enc = model.find_fn(pair.encode_fn, pair.encode_impl);
        let dec = model.find_fn(pair.decode_fn, pair.decode_impl);
        let (Some(enc), Some(dec)) = (enc, dec) else {
            push(
                pair.file,
                1,
                Some(sf),
                format!(
                    "wire pair `{}`: registered fn `{}`/`{}` not found in {}",
                    pair.name, pair.encode_fn, pair.decode_fn, pair.file
                ),
            );
            continue;
        };

        // round-trip registration
        let rt_ok = files.get(pair.roundtrip.0).is_some_and(|(_, rt)| {
            let has_fn = rt
                .masked
                .iter()
                .any(|l| l.contains(&format!("fn {}", pair.roundtrip.1)));
            let names_it = rt.lines.iter().any(|l| {
                l.contains(pair.name) || l.contains(pair.encode_fn) || l.contains(pair.decode_fn)
            });
            has_fn && names_it
        });
        if !rt_ok {
            push(
                pair.file,
                dec.line,
                Some(sf),
                format!(
                    "wire pair `{}` has no live round-trip test: expected `fn {}` in {} to \
                     exercise it",
                    pair.name, pair.roundtrip.1, pair.roundtrip.0
                ),
            );
        }

        if !pair.counts {
            continue;
        }
        let own: Vec<&str> = vec![pair.encode_fn, pair.decode_fn];
        let ep = profile(&model.toks, enc.body, true, &own);
        let dp = profile(&model.toks, dec.body, false, &own);

        // field-count symmetry per primitive kind
        let kinds: BTreeSet<&&str> = ep.prims.keys().chain(dp.prims.keys()).collect();
        for &kind in kinds {
            let writes = ep.prims.get(kind).copied().unwrap_or(0);
            let reads = dp.prims.get(kind).copied().unwrap_or(0);
            let tag_writes = ep.tag_writes.get(kind).copied().unwrap_or(0);
            let scrutinees = dp.scrutinees.get(kind).copied().unwrap_or(0);
            let effective = if tag_writes > 0 && scrutinees > 0 {
                writes - tag_writes + scrutinees
            } else {
                writes
            };
            if effective != reads {
                push(
                    pair.file,
                    dec.line,
                    Some(sf),
                    format!(
                        "wire pair `{}`: `{}` field count mismatch — encode writes {} \
                         (effective {}), decode reads {}",
                        pair.name, kind, writes, effective, reads
                    ),
                );
            }
        }
        // helper symmetry
        let suffixes: BTreeSet<&String> = ep.helpers.keys().chain(dp.helpers.keys()).collect();
        for suffix in suffixes {
            let w = ep.helpers.get(suffix).copied().unwrap_or(0);
            let r = dp.helpers.get(suffix).copied().unwrap_or(0);
            if w != r {
                push(
                    pair.file,
                    dec.line,
                    Some(sf),
                    format!(
                        "wire pair `{}`: helper `{}` called {} time(s) on encode but {} on decode",
                        pair.name, suffix, w, r
                    ),
                );
            }
        }
        // enum tag symmetry + exhaustiveness
        if !ep.tags.is_empty() && !dp.scrutinees.is_empty() && ep.tags != dp.tag_arms {
            push(
                pair.file,
                dec.line,
                Some(sf),
                format!(
                    "wire pair `{}`: enum tag sets differ — encode emits {{{}}}, decode \
                     matches {{{}}}",
                    pair.name,
                    join(&ep.tags),
                    join(&dp.tag_arms)
                ),
            );
        }
        if !dp.catchall_ok {
            push(
                pair.file,
                dp.catchall_missing_line.unwrap_or(dec.line),
                Some(sf),
                format!(
                    "wire pair `{}`: decode tag match has no rejecting catch-all arm — \
                     unknown tags must surface a typed Err",
                    pair.name
                ),
            );
        }
    }

    // discovery: unregistered pairs in wire-bearing crates
    for (path, (crate_name, sf)) in files {
        if !WIRE_CRATES.contains(&crate_name.as_str()) {
            continue;
        }
        let model = &models[path];
        // free-fn pairs
        for f in &model.fns {
            let Some(suffix) = helper_suffix(&f.name, false) else {
                continue;
            };
            let has_encoder = model
                .fns
                .iter()
                .any(|g| helper_suffix(&g.name, true).is_some_and(|s| s == suffix));
            if !has_encoder {
                continue;
            }
            let registered = manifest
                .iter()
                .any(|p| p.file == *path && p.decode_fn == f.name);
            if !registered {
                push(
                    path,
                    f.line,
                    Some(sf),
                    format!(
                        "unregistered wire pair: `{}` has an encode counterpart but no \
                         WIRE_MANIFEST entry (register it with a round-trip test)",
                        f.name
                    ),
                );
            }
        }
        // impl pairs
        for (ty, range) in &model.impls {
            let in_range = |f: &&tokens::FnItem| f.body.0 >= range.0 && f.body.1 <= range.1;
            let enc = model
                .fns
                .iter()
                .filter(in_range)
                .find(|f| f.name == "encode");
            let dec = model
                .fns
                .iter()
                .filter(in_range)
                .find(|f| f.name == "decode");
            let (Some(_), Some(dec)) = (enc, dec) else {
                continue;
            };
            let registered = manifest
                .iter()
                .any(|p| p.file == *path && (p.decode_impl == Some(ty.as_str()) || p.name == ty));
            if !registered {
                push(
                    path,
                    dec.line,
                    Some(sf),
                    format!(
                        "unregistered wire pair: `impl {ty}` has encode/decode but no \
                         WIRE_MANIFEST entry (register it with a round-trip test)"
                    ),
                );
            }
        }
    }

    findings
}

/// Runs the L6 pass with the live manifest.
pub fn check_wire_symmetry(files: &BTreeMap<String, (String, SourceFile)>) -> Vec<Finding> {
    check_with_manifest(WIRE_MANIFEST, files)
}

fn join(set: &BTreeSet<String>) -> String {
    set.iter().cloned().collect::<Vec<_>>().join(", ")
}

#[cfg(test)]
mod tests {
    use super::*;

    const GOOD: &str = r#"
impl Frame {
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        match self {
            Frame::A(x) => { w.u8(1); w.u64(*x); }
            Frame::B(b) => { w.u8(2); w.bytes(b); }
        }
        w.finish()
    }
    pub fn decode(bytes: &[u8]) -> Result<Frame, WireError> {
        let mut r = Reader::new(bytes);
        Ok(match r.u8()? {
            1 => Frame::A(r.u64()?),
            2 => Frame::B(r.bytes()?.to_vec()),
            _ => return Err(WireError),
        })
    }
}
"#;

    fn fixture(src: &str, test_src: &str) -> BTreeMap<String, (String, SourceFile)> {
        let mut m = BTreeMap::new();
        m.insert(
            "crates/x/src/wire.rs".to_string(),
            ("itdos-bft".to_string(), SourceFile::scan(src)),
        );
        m.insert(
            "crates/x/src/tests.rs".to_string(),
            ("itdos-bft".to_string(), SourceFile::scan(test_src)),
        );
        m
    }

    const PAIR: WirePair = WirePair {
        name: "Frame",
        file: "crates/x/src/wire.rs",
        encode_fn: "encode",
        encode_impl: Some("Frame"),
        decode_fn: "decode",
        decode_impl: Some("Frame"),
        counts: true,
        roundtrip: ("crates/x/src/tests.rs", "frame_round_trips"),
    };

    const RT: &str = "fn frame_round_trips() { let f = Frame::A(1); assert_eq!(Frame::decode(&f.encode()).unwrap(), f); }";

    #[test]
    fn symmetric_pair_is_clean() {
        let files = fixture(GOOD, RT);
        let f = check_with_manifest(&[PAIR], &files);
        assert!(f.is_empty(), "{f:#?}");
    }

    #[test]
    fn missing_field_read_fires() {
        // decode drops the u64 of variant A
        let bad = GOOD.replace("1 => Frame::A(r.u64()?),", "1 => Frame::A(0),");
        let files = fixture(&bad, RT);
        let f = check_with_manifest(&[PAIR], &files);
        assert!(f.iter().any(|f| f.message.contains("u64")), "{f:#?}");
    }

    #[test]
    fn tag_set_mismatch_fires() {
        // decode accepts a tag encode never emits
        let bad = GOOD.replace("2 => Frame::B(", "3 => Frame::B(");
        let files = fixture(&bad, RT);
        let f = check_with_manifest(&[PAIR], &files);
        assert!(
            f.iter().any(|f| f.message.contains("tag sets differ")),
            "{f:#?}"
        );
    }

    #[test]
    fn missing_catchall_fires() {
        let bad = GOOD.replace("            _ => return Err(WireError),\n", "");
        let files = fixture(&bad, RT);
        let f = check_with_manifest(&[PAIR], &files);
        assert!(f.iter().any(|f| f.message.contains("catch-all")), "{f:#?}");
    }

    #[test]
    fn missing_roundtrip_registration_fires() {
        let files = fixture(GOOD, "fn unrelated() {}");
        let f = check_with_manifest(&[PAIR], &files);
        assert!(f.iter().any(|f| f.message.contains("round-trip")), "{f:#?}");
    }

    #[test]
    fn unregistered_pair_is_discovered() {
        let files = fixture(GOOD, RT);
        let f = check_with_manifest(&[], &files);
        assert!(
            f.iter()
                .any(|f| f.message.contains("unregistered wire pair")),
            "{f:#?}"
        );
    }

    #[test]
    fn helper_asymmetry_fires() {
        let src = r#"
fn write_item(w: &mut Writer, x: &Item) { w.u64(x.0); write_meta(w, &x.1); }
fn read_item(r: &mut Reader<'_>) -> Result<Item, WireError> {
    Ok(Item(r.u64()?, Meta::default()))
}
"#;
        let mut files = fixture(src, "fn item_round_trips() { read_item(x); }");
        let pair = WirePair {
            name: "Item",
            file: "crates/x/src/wire.rs",
            encode_fn: "write_item",
            encode_impl: None,
            decode_fn: "read_item",
            decode_impl: None,
            counts: true,
            roundtrip: ("crates/x/src/tests.rs", "item_round_trips"),
        };
        files.get_mut("crates/x/src/tests.rs").unwrap().1 =
            SourceFile::scan("fn item_round_trips() { read_item(x); }");
        let f = check_with_manifest(&[pair], &files);
        assert!(
            f.iter().any(|f| f.message.contains("helper `meta`")),
            "{f:#?}"
        );
    }
}
