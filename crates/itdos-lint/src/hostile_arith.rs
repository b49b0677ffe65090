//! L5 hostile-length arithmetic: decode paths must not index, cast, or do
//! unchecked arithmetic on attacker-influenced lengths.
//!
//! Chondros et al. ("On the Practicality of 'Practical' BFT") observe that
//! deployed BFT systems fail in exactly these implementation seams, not in
//! the protocol math: a length field read off the wire flows into
//! `pos + n > len` (wraps on 32-bit), `4 + n * 8` (wraps), `buf[len - 1]`
//! (underflows), or `x as u32` (silently truncates so decode ≠ encode).
//!
//! The pass runs a small intra-function taint analysis over the token
//! stream ([`crate::tokens`]):
//!
//! * **Seeds** — parameters of byte-slice (`&[u8]`) or reader
//!   (`Reader`/`Decoder`) type; integer parameters and `let`/`for` bindings
//!   with length-like names (`len`, `count`, `size`, `idx`, `offset`,
//!   `pos`, bare `n`, ...); bindings initialized from a reader method call
//!   (`r.u32()?`, `self.take(4)?`, ...).
//! * **Propagation** — a binding whose initializer mentions a tainted name
//!   is tainted (single forward pass; decode bodies are straight-line).
//! * **Sinks** — indexing `buf[i]`/`&buf[a..b]` where receiver or index is
//!   tainted; narrowing `as` casts (`u8`/`u16`/`u32`/`i8`/`i16`/`i32`) of a
//!   tainted expression; binary `+`/`*`/`<<` with a tainted operand.
//!
//! Sanctioned alternatives never fire: `get(..)`, `split_first`/`split_last`,
//! `checked_*`/`saturating_*`/`wrapping_*`, `try_into`/`try_from`, and
//! expressions bounded through `.min(..)`/`.clamp(..)`.

use crate::findings::{Finding, Rule};
use crate::source::SourceFile;
use crate::tokens::{self, Kind, Tok};
use std::collections::BTreeSet;

/// Crates whose decode paths parse attacker-controlled bytes end to end.
pub const HOSTILE_ARITH_CRATES: &[&str] = &["itdos-bft", "itdos-giop", "itdos-groupmgr"];

/// True when L5 applies to `rel_path` of `crate_name`. The core crate is
/// scoped to its wire/keying decode surfaces; ORB glue and element logic
/// there never touch raw attacker bytes directly. `xbytes` is in scope for
/// the compact-wire reader alone.
pub fn in_scope(crate_name: &str, rel_path: &str) -> bool {
    if HOSTILE_ARITH_CRATES.contains(&crate_name) {
        return true;
    }
    let wire = rel_path.ends_with("/wire.rs");
    (crate_name == "itdos" && (wire || rel_path.ends_with("/keying.rs")))
        || (crate_name == "xbytes" && wire)
}

/// Reader/decoder methods whose return value is attacker-controlled.
const READER_METHODS: &[&str] = &[
    "u8",
    "u16",
    "u32",
    "u64",
    "bytes",
    "raw",
    "take",
    "take_u8",
    "take_u16",
    "take_u32",
    "take_u64",
    "take_string",
];

/// Narrowing `as` targets (usize/u64 are widening from wire integers).
const NARROW: &[&str] = &["u8", "u16", "u32", "i8", "i16", "i32"];

/// True when the cast source expression visibly has the same width as the
/// signed target (`take_u16()? as i16`): a bijective reinterpretation, not
/// a truncation. Token-level only — an ident mentioning the unsigned twin
/// (`u16`, `take_u16`) marks the source width.
fn same_width_reinterpret(toks: &[Tok], s: usize, e: usize, target: &str) -> bool {
    let twin = match target {
        "i8" => "u8",
        "i16" => "u16",
        "i32" => "u32",
        _ => return false,
    };
    toks[s..e]
        .iter()
        .any(|t| t.kind == Kind::Ident && (t.text == twin || t.text.ends_with(&format!("_{twin}"))))
}

/// Idents that mark an expression as already bounds-disciplined.
const SANCTIONED: &[&str] = &["min", "clamp"];

/// True for identifiers that name a length/count/offset by convention.
fn length_like(name: &str) -> bool {
    if name == "n" {
        return true;
    }
    let lower = name.to_ascii_lowercase();
    lower.split('_').any(|seg| {
        matches!(
            seg,
            "len"
                | "length"
                | "count"
                | "size"
                | "sz"
                | "idx"
                | "index"
                | "offset"
                | "off"
                | "pos"
                | "position"
        )
    })
}

/// Rust keywords that can precede `*`/`[` without making them binary/index.
fn is_keyword(t: &Tok) -> bool {
    matches!(
        t.text.as_str(),
        "mut"
            | "return"
            | "as"
            | "in"
            | "if"
            | "else"
            | "match"
            | "move"
            | "let"
            | "ref"
            | "break"
            | "while"
            | "loop"
            | "fn"
            | "const"
            | "static"
            | "where"
            | "impl"
            | "dyn"
            | "for"
            | "unsafe"
            | "pub"
            | "use"
            | "struct"
            | "enum"
            | "type"
    )
}

/// Runs the L5 pass over one file.
pub fn check_hostile_arith(rel_path: &str, file: &SourceFile) -> Vec<Finding> {
    let toks = tokens::tokenize(file);
    let mut findings = Vec::new();
    for f in tokens::functions(file, &toks) {
        let taint = taint_set(&toks, &f);
        if taint.is_empty() {
            continue;
        }
        scan_sinks(rel_path, file, &toks, f.body, &taint, &mut findings);
    }
    findings.sort_by(|a, b| (a.line, a.message.clone()).cmp(&(b.line, b.message.clone())));
    findings.dedup_by(|a, b| a.line == b.line && a.message == b.message);
    findings
}

/// Builds the tainted-identifier set for one function.
fn taint_set(toks: &[Tok], f: &tokens::FnItem) -> BTreeSet<String> {
    let mut taint = BTreeSet::new();

    // seeds from the parameter list
    for (s, e) in tokens::split_commas(toks, f.params.0, f.params.1) {
        let Some(colon) = (s..e).find(|&i| toks[i].is_p(":")) else {
            continue; // `self` / `&mut self`
        };
        let Some(name) = toks[s..colon]
            .iter()
            .rev()
            .find(|t| t.kind == Kind::Ident && t.text != "mut")
        else {
            continue;
        };
        let ty = &toks[colon + 1..e];
        let byte_slice = ty
            .windows(3)
            .any(|w| w[0].is_p("[") && w[1].is("u8") && w[2].is_p("]"));
        let reader = ty.iter().any(|t| t.is("Reader") || t.is("Decoder"));
        let int_len = ty
            .iter()
            .any(|t| matches!(t.text.as_str(), "usize" | "u16" | "u32" | "u64"))
            && length_like(&name.text);
        if byte_slice || reader || int_len {
            taint.insert(name.text.clone());
        }
    }

    // one forward pass over `let` / `for` bindings
    let (start, end) = f.body;
    let mut i = start;
    while i < end {
        let (names, init) = if toks[i].is("let") {
            let Some((names, init_start)) = let_pattern(toks, i + 1, end) else {
                i += 1;
                continue;
            };
            let init_end = stmt_end(toks, init_start, end);
            i = init_end;
            (names, (init_start, init_end))
        } else if toks[i].is("for") {
            let Some(in_pos) = (i + 1..end).find(|&j| toks[j].is("in")) else {
                i += 1;
                continue;
            };
            let names = pattern_names(&toks[i + 1..in_pos]);
            let expr_end = block_open(toks, in_pos + 1, end);
            i = expr_end;
            (names, (in_pos + 1, expr_end))
        } else {
            i += 1;
            continue;
        };
        let tainted_init = range_tainted(toks, init.0, init.1, &taint);
        for name in names {
            if tainted_init || length_like(&name) {
                taint.insert(name);
            }
        }
    }
    taint
}

/// Parses a `let` pattern starting at `i`; returns (bound names, index of
/// the first initializer token) or None for a bodiless `let`.
fn let_pattern(toks: &[Tok], i: usize, end: usize) -> Option<(Vec<String>, usize)> {
    let mut depth = 0i32;
    let mut j = i;
    while j < end {
        match toks[j].text.as_str() {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => depth -= 1,
            "=" if depth == 0 => {
                return Some((pattern_names(&toks[i..j]), j + 1));
            }
            ":" if depth == 0 => {
                // type annotation: skip to the `=` at depth 0
                let names = pattern_names(&toks[i..j]);
                let mut d2 = 0i32;
                for k in j + 1..end {
                    match toks[k].text.as_str() {
                        "(" | "[" | "{" => d2 += 1,
                        ")" | "]" | "}" => d2 -= 1,
                        "=" if d2 == 0 => return Some((names, k + 1)),
                        ";" if d2 == 0 => return None,
                        _ => {}
                    }
                }
                return None;
            }
            ";" if depth == 0 => return None,
            _ => {}
        }
        j += 1;
    }
    None
}

/// Lowercase identifiers bound by a pattern (constructors and keywords
/// excluded; `_` excluded).
fn pattern_names(toks: &[Tok]) -> Vec<String> {
    toks.iter()
        .filter(|t| t.kind == Kind::Ident)
        .filter(|t| !matches!(t.text.as_str(), "mut" | "ref" | "_"))
        .filter(|t| {
            t.text
                .chars()
                .next()
                .is_some_and(|c| c.is_lowercase() || c == '_')
        })
        .map(|t| t.text.clone())
        .collect()
}

/// Index just past the `;` ending the statement starting at `i` (depth 0).
fn stmt_end(toks: &[Tok], i: usize, end: usize) -> usize {
    let mut depth = 0i32;
    for j in i..end {
        match toks[j].text.as_str() {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => depth -= 1,
            ";" if depth == 0 => return j + 1,
            _ => {}
        }
    }
    end
}

/// Index of the `{` opening the block after a `for ... in` expression.
fn block_open(toks: &[Tok], i: usize, end: usize) -> usize {
    let mut depth = 0i32;
    for j in i..end {
        match toks[j].text.as_str() {
            "(" | "[" => depth += 1,
            ")" | "]" => depth -= 1,
            "{" if depth == 0 => return j,
            _ => {}
        }
    }
    end
}

/// True when `toks[s..e]` mentions a tainted identifier or a reader call.
fn range_tainted(toks: &[Tok], s: usize, e: usize, taint: &BTreeSet<String>) -> bool {
    if toks[s..e]
        .iter()
        .any(|t| t.kind == Kind::Ident && taint.contains(&t.text))
    {
        return true;
    }
    has_reader_call(toks, s, e)
}

/// True when `toks[s..e]` contains `.<reader-method>(`.
fn has_reader_call(toks: &[Tok], s: usize, e: usize) -> bool {
    toks[s..e].windows(3).any(|w| {
        w[0].is_p(".")
            && w[1].kind == Kind::Ident
            && READER_METHODS.contains(&w[1].text.as_str())
            && w[2].is_p("(")
    })
}

/// True when `toks[s..e]` mentions a bounding combinator.
fn sanctioned(toks: &[Tok], s: usize, e: usize) -> bool {
    toks[s..e].iter().any(|t| {
        t.kind == Kind::Ident
            && (SANCTIONED.contains(&t.text.as_str())
                || t.text.starts_with("checked_")
                || t.text.starts_with("saturating_")
                || t.text.starts_with("wrapping_"))
    })
}

/// Start index of the primary expression ending at `i` (inclusive): walks
/// back over idents, field accesses, paths, calls, indexing, and `?`.
fn expr_start(toks: &[Tok], mut i: usize) -> usize {
    loop {
        let t = &toks[i];
        let prev = if i == 0 { None } else { Some(&toks[i - 1]) };
        match t.text.as_str() {
            ")" | "]" => {
                // walk back to the matching opener
                let (open, close) = if t.text == ")" {
                    ("(", ")")
                } else {
                    ("[", "]")
                };
                let mut depth = 0i32;
                let mut j = i;
                loop {
                    if toks[j].is_p(close) {
                        depth += 1;
                    } else if toks[j].is_p(open) {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    if j == 0 {
                        return 0;
                    }
                    j -= 1;
                }
                if j == 0 {
                    return 0;
                }
                i = j - 1;
                // a call/index has a callee/receiver before the opener
                if !(toks[i].kind == Kind::Ident && !is_keyword(&toks[i])) {
                    return j;
                }
            }
            "?" | "." | "::" => {
                if i == 0 {
                    return 0;
                }
                i -= 1;
            }
            // `x as u32` is one cast expression: keep walking to `x`
            "as" => {
                if i == 0 {
                    return 0;
                }
                i -= 1;
            }
            _ if t.kind == Kind::Ident || t.kind == Kind::Num => {
                let continues = prev.is_some_and(|p| p.is_p(".") || p.is_p("::") || p.is("as"));
                if !continues {
                    return i;
                }
                i -= 1;
            }
            _ => return i + 1,
        }
    }
}

/// End index (exclusive) of the primary expression starting at `i`: walks
/// forward over idents, calls, indexing, field accesses, and `?`.
fn expr_end(toks: &[Tok], mut i: usize, end: usize) -> usize {
    // unary prefix
    while i < end && (toks[i].is_p("&") || toks[i].is_p("-") || toks[i].is("mut")) {
        i += 1;
    }
    while i < end {
        let t = &toks[i];
        if t.kind == Kind::Ident && !is_keyword(t) || t.kind == Kind::Num {
            i += 1;
        } else if t.is_p("(") || t.is_p("[") {
            let (o, c) = if t.text == "(" {
                ("(", ")")
            } else {
                ("[", "]")
            };
            match tokens::matching(toks, i, o, c) {
                Some(close) if close < end => i = close + 1,
                _ => return end,
            }
        } else if t.is_p(".") || t.is_p("::") || t.is_p("?") {
            i += 1;
        } else {
            return i;
        }
    }
    end
}

/// Scans one function body for the three sink shapes.
fn scan_sinks(
    rel_path: &str,
    file: &SourceFile,
    toks: &[Tok],
    body: (usize, usize),
    taint: &BTreeSet<String>,
    findings: &mut Vec<Finding>,
) {
    let (start, end) = body;
    let mut push = |line: usize, message: String| {
        findings.push(Finding {
            rule: Rule::HostileArith,
            path: rel_path.to_string(),
            line,
            snippet: file.lines[line - 1].trim().to_string(),
            message,
            waiver: file
                .waiver_for(Rule::HostileArith, line)
                .map(str::to_string),
        });
    };

    for i in start..end {
        let t = &toks[i];
        let prev = &toks[i - 1];

        // sink: indexing `recv[ ... ]`
        if t.is_p("[")
            && (prev.kind == Kind::Ident && !is_keyword(prev) || prev.is_p("]") || prev.is_p(")"))
        {
            let Some(close) = tokens::matching(toks, i, "[", "]") else {
                continue;
            };
            if close >= end {
                continue;
            }
            let recv = expr_start(toks, i - 1);
            let recv_hot = range_tainted(toks, recv, i, taint) && !sanctioned(toks, recv, i);
            // `xs[i % xs.len()]` is bounded by the modulus — not a sink
            let idx_bounded = toks[i + 1..close].iter().any(|t| t.is_p("%"));
            let idx_hot = range_tainted(toks, i + 1, close, taint)
                && !sanctioned(toks, i + 1, close)
                && !idx_bounded;
            if recv_hot || idx_hot {
                push(
                    t.line,
                    "unchecked slice indexing on attacker-influenced data; a hostile length \
                     panics here — use get(..)/split_first/split_last and surface a typed Err"
                        .to_string(),
                );
            }
        }

        // sink: narrowing cast `expr as u32`
        if t.is("as") && i + 1 < end && NARROW.contains(&toks[i + 1].text.as_str()) && i > start {
            let s = expr_start(toks, i - 1);
            if range_tainted(toks, s, i, taint)
                && !sanctioned(toks, s, i)
                && !same_width_reinterpret(toks, s, i, &toks[i + 1].text)
            {
                push(
                    t.line,
                    format!(
                        "narrowing `as {}` on attacker-influenced value silently truncates, so \
                         decode(encode(x)) ≠ x for hostile inputs — use try_into/try_from and \
                         surface a typed Err",
                        toks[i + 1].text
                    ),
                );
            }
        }

        // sink: binary `+` / `*` / `<<` with a tainted operand
        if matches!(t.text.as_str(), "+" | "*" | "<<")
            && (prev.kind == Kind::Num
                || prev.is_p(")")
                || prev.is_p("]")
                || prev.is_p("?")
                || (prev.kind == Kind::Ident && !is_keyword(prev)))
        {
            let ls = expr_start(toks, i - 1);
            if ls > 0 && toks[ls].is_p("(") && toks[ls - 1].is_p("$") {
                continue; // `$( .. )*` / `$( .. )+`: a macro repetition, not arithmetic
            }
            let re = expr_end(toks, i + 1, end);
            let left_hot = range_tainted(toks, ls, i, taint) && !sanctioned(toks, ls, i);
            let right_hot = range_tainted(toks, i + 1, re, taint) && !sanctioned(toks, i + 1, re);
            if left_hot || right_hot {
                push(
                    t.line,
                    format!(
                        "unchecked `{}` on attacker-influenced length can wrap and bypass a \
                         bounds check — use checked_{}/saturating arithmetic",
                        t.text,
                        match t.text.as_str() {
                            "+" => "add",
                            "*" => "mul",
                            _ => "shl",
                        }
                    ),
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(src: &str) -> Vec<Finding> {
        check_hostile_arith("x.rs", &SourceFile::scan(src))
    }

    #[test]
    fn flags_unchecked_add_on_length_param() {
        let f =
            run("fn take(bytes: &[u8], pos: usize, n: usize) -> bool { pos + n > bytes.len() }");
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("checked_add"));
    }

    #[test]
    fn macro_repetition_is_not_multiplication() {
        let f = run("fn take(r: &mut Reader<'_>) -> T { match r.u8()? { $($tag => $v,)* } }");
        assert!(f.is_empty(), "{f:#?}");
    }

    #[test]
    fn checked_add_is_sanctioned() {
        let f = run(
            "fn take(bytes: &[u8], pos: usize, n: usize) -> Option<usize> { pos.checked_add(n) }",
        );
        assert!(f.is_empty());
    }

    #[test]
    fn flags_tainted_indexing_and_sanctions_get() {
        let hot = run("fn f(buf: &[u8]) -> u8 { let len = buf.len(); buf[len - 1] }");
        assert_eq!(hot.len(), 1);
        assert!(hot[0].message.contains("get(..)"));
        let cold = run("fn f(buf: &[u8]) -> Option<&u8> { let len = buf.len(); buf.get(len - 1) }");
        assert!(cold.iter().all(|f| !f.message.contains("indexing")));
    }

    #[test]
    fn flags_reader_fed_multiply() {
        let f = run(
            "fn dec(r: &mut Reader) -> Result<usize, E> { let n = r.u32()? as usize; Ok(4 + n * 8) }",
        );
        assert_eq!(f.len(), 2, "{f:#?}"); // the `+` and the `*`
    }

    #[test]
    fn flags_narrowing_cast_of_reader_value() {
        let f = run("fn dec(r: &mut Reader) -> u32 { r.u64().unwrap() as u32 }");
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("try_into"));
    }

    #[test]
    fn same_width_signed_reinterpret_is_fine() {
        let f = run("fn dec(r: &mut Reader) -> i16 { r.take_u16().unwrap() as i16 }");
        assert!(f.is_empty(), "{f:#?}");
        // but a genuinely narrowing signed cast still fires
        let f = run("fn dec(r: &mut Reader) -> i16 { r.take_u32().unwrap() as i16 }");
        assert_eq!(f.len(), 1);
    }

    #[test]
    fn modulo_bounded_index_is_fine() {
        let f = run("fn pick(idx: usize) -> u8 { TABLE[idx % TABLE.len()] }");
        assert!(f.is_empty(), "{f:#?}");
    }

    #[test]
    fn widening_cast_is_fine() {
        let f = run("fn dec(r: &mut Reader) -> usize { r.u32().unwrap() as usize }");
        assert!(f.is_empty());
    }

    #[test]
    fn untainted_arithmetic_is_fine() {
        let f = run("fn quorum(f_cnt: usize) -> usize { 2 * f_cnt + 1 }");
        assert!(f.is_empty());
    }

    #[test]
    fn taint_propagates_through_let() {
        let f = run(
            "fn dec(r: &mut Reader) -> usize { let raw = r.u32().unwrap(); let grown = raw; grown as usize * 8 }",
        );
        assert_eq!(f.len(), 1);
    }

    #[test]
    fn min_bound_is_sanctioned() {
        let f = run(
            "fn dec(r: &mut Reader) -> usize { let n = r.u32().unwrap() as usize; n.min(1024) * 8 }",
        );
        assert!(f.is_empty());
    }

    #[test]
    fn test_code_is_exempt_and_waivers_work() {
        let f = run("#[cfg(test)]\nmod t {\n    fn f(n: usize) -> usize { n + 1 }\n}");
        assert!(f.is_empty());
        let w = run(
            "fn f(n: usize) -> usize {\n    n + 1 // itdos-lint: allow(hostile-arith) -- n bounded by MAX_VEC at entry\n}",
        );
        assert_eq!(w.len(), 1);
        assert!(!w[0].is_active());
    }

    #[test]
    fn scope_covers_decode_crates_only() {
        assert!(in_scope("itdos-bft", "crates/itdos-bft/src/wire.rs"));
        assert!(in_scope("itdos", "crates/core/src/wire.rs"));
        assert!(in_scope("itdos", "crates/core/src/keying.rs"));
        assert!(!in_scope("itdos", "crates/core/src/element.rs"));
        assert!(!in_scope("itdos-crypto", "crates/itdos-crypto/src/mac.rs"));
    }
}
