//! L7 lock-order discipline: nested lock acquisitions must follow one
//! global order, and no lock may be held across a send/recv call.
//!
//! The three replica hosts send through one function,
//! `itdos_bft::node::send`, and that function and its `Route` are the seam
//! the parked threaded transport backend plugs into; once replica code runs
//! under real locks, an order inversion
//! (`a.lock()` then `b.lock()` in one path, `b` then `a` in another) is a
//! deadlock a Byzantine peer can trigger on demand by stalling one
//! connection, and a lock held across a blocking `send`/`recv` serializes
//! the whole replica behind the slowest (possibly hostile) peer. This pass
//! lands the discipline before the threaded backend does.
//!
//! Mechanics, over the token stream of every crate's `src/` tree:
//!
//! * each `let <pat> = <chain>.lock()...` opens a **guard** named by the
//!   receiver chain (`self.recorder`, `r`); the guard lives to the end of
//!   its enclosing brace block;
//! * a second `.lock()` inside a live guard's range records an edge
//!   `outer → inner` in the workspace-wide acquisition graph; a pair of
//!   edges `a → b` and `b → a` flags **both** sites;
//! * `.lock()` on the *same* name inside its own guard's range is an
//!   immediate self-deadlock finding;
//! * `.send(` / `.recv(` (and their `try_`/`_timeout`/`_to` variants)
//!   inside a live guard's range flags the call site.
//!
//! Inline uses (`r.lock().map(|g| ...)`) drop the guard at the end of the
//! statement and are tracked only within it.

use crate::findings::{Finding, Rule};
use crate::source::SourceFile;
use crate::tokens::{self, Kind, Tok};

/// Method names that block on the network or a channel.
const BLOCKING_CALLS: &[&str] = &[
    "send",
    "recv",
    "try_send",
    "try_recv",
    "send_to",
    "recv_from",
    "recv_timeout",
    "send_timeout",
];

/// One `.lock()` acquisition site.
#[derive(Debug)]
struct LockSite {
    /// Textual receiver chain (`self.recorder`, `r`).
    name: String,
    /// Token index of the `.lock(` dot.
    tok: usize,
    /// 1-based line.
    line: usize,
    /// Token range the guard stays live for (None for inline uses, which
    /// live to the end of their statement).
    live: (usize, usize),
}

/// An `outer → inner` acquisition edge with its inner site location.
#[derive(Debug)]
pub struct Edge {
    pub outer: String,
    pub inner: String,
    pub path: String,
    pub line: usize,
    pub snippet: String,
    pub waiver: Option<String>,
}

/// Scans one file, returning immediate findings (self-deadlock, blocking
/// call under lock) plus the acquisition edges for the global order check.
pub fn scan_file(rel_path: &str, file: &SourceFile) -> (Vec<Finding>, Vec<Edge>) {
    let toks = tokens::tokenize(file);
    let mut findings = Vec::new();
    let mut edges = Vec::new();

    for f in tokens::functions(file, &toks) {
        let sites = lock_sites(&toks, f.body);
        for s in &sites {
            // blocking calls inside the guard's live range
            for j in s.live.0..s.live.1.min(toks.len()) {
                if toks[j].is_p(".")
                    && toks.get(j + 1).is_some_and(|t| {
                        t.kind == Kind::Ident && BLOCKING_CALLS.contains(&t.text.as_str())
                    })
                    && toks.get(j + 2).is_some_and(|t| t.is_p("("))
                {
                    let line = toks[j].line;
                    findings.push(Finding {
                        rule: Rule::LockOrder,
                        path: rel_path.to_string(),
                        line,
                        snippet: file.lines[line - 1].trim().to_string(),
                        message: format!(
                            "`.{}()` while holding lock `{}` (acquired line {}); a stalled \
                             peer holds the lock hostage — drop the guard before blocking I/O",
                            toks[j + 1].text,
                            s.name,
                            s.line
                        ),
                        waiver: file.waiver_for(Rule::LockOrder, line).map(str::to_string),
                    });
                }
            }
            // nested acquisitions inside the live range
            for inner in &sites {
                if std::ptr::eq(s, inner) || inner.tok <= s.tok {
                    continue;
                }
                if inner.tok >= s.live.0 && inner.tok < s.live.1 {
                    if inner.name == s.name {
                        findings.push(Finding {
                            rule: Rule::LockOrder,
                            path: rel_path.to_string(),
                            line: inner.line,
                            snippet: file.lines[inner.line - 1].trim().to_string(),
                            message: format!(
                                "`{}` locked again while its own guard (line {}) is live — \
                                 self-deadlock on a non-reentrant mutex",
                                s.name, s.line
                            ),
                            waiver: file
                                .waiver_for(Rule::LockOrder, inner.line)
                                .map(str::to_string),
                        });
                    } else {
                        edges.push(Edge {
                            outer: s.name.clone(),
                            inner: inner.name.clone(),
                            path: rel_path.to_string(),
                            line: inner.line,
                            snippet: file.lines[inner.line - 1].trim().to_string(),
                            waiver: file
                                .waiver_for(Rule::LockOrder, inner.line)
                                .map(str::to_string),
                        });
                    }
                }
            }
        }
    }
    (findings, edges)
}

/// Turns the workspace-wide edge set into findings for inverted pairs.
pub fn order_findings(edges: &[Edge]) -> Vec<Finding> {
    let mut findings = Vec::new();
    for e in edges {
        let inverted = edges
            .iter()
            .find(|o| o.outer == e.inner && o.inner == e.outer);
        if let Some(o) = inverted {
            findings.push(Finding {
                rule: Rule::LockOrder,
                path: e.path.clone(),
                line: e.line,
                snippet: e.snippet.clone(),
                message: format!(
                    "lock order inversion: `{}` acquired under `{}` here, but the reverse \
                     order is taken at {}:{} — pick one global order",
                    e.inner, e.outer, o.path, o.line
                ),
                waiver: e.waiver.clone(),
            });
        }
    }
    findings
}

/// Collects every `.lock()` site in a body with its guard live range.
fn lock_sites(toks: &[Tok], body: (usize, usize)) -> Vec<LockSite> {
    let (start, end) = body;
    let mut sites = Vec::new();
    for i in start..end {
        if !(toks[i].is_p(".")
            && toks.get(i + 1).is_some_and(|t| t.is("lock"))
            && toks.get(i + 2).is_some_and(|t| t.is_p("(")))
        {
            continue;
        }
        let name = receiver_chain(toks, i);
        // guard-bound (a `let` earlier in the statement) or inline?
        let stmt_start = statement_start(toks, i, start);
        let is_let = toks[stmt_start..i].iter().any(|t| t.is("let"));
        let live = if is_let {
            (i + 3, enclosing_block_end(toks, i, start, end))
        } else {
            (i + 3, statement_end(toks, i, end))
        };
        sites.push(LockSite {
            name,
            tok: i,
            line: toks[i].line,
            live,
        });
    }
    sites
}

/// Textual receiver chain before the `.lock(` dot at `i`.
fn receiver_chain(toks: &[Tok], i: usize) -> String {
    let mut j = i;
    // walk back over `ident (.ident)*` — stop at anything else
    let mut parts: Vec<&str> = Vec::new();
    loop {
        if j == 0 {
            break;
        }
        let t = &toks[j - 1];
        if t.kind == Kind::Ident {
            parts.push(&t.text);
            j -= 1;
            if j > 0 && toks[j - 1].is_p(".") {
                j -= 1;
                continue;
            }
        }
        break;
    }
    parts.reverse();
    if parts.is_empty() {
        "<expr>".to_string()
    } else {
        parts.join(".")
    }
}

/// Walks back to the start of the statement containing token `i`.
fn statement_start(toks: &[Tok], i: usize, floor: usize) -> usize {
    let mut j = i;
    while j > floor {
        let t = &toks[j - 1];
        if t.is_p(";") || t.is_p("{") || t.is_p("}") {
            return j;
        }
        j -= 1;
    }
    floor
}

/// Index just past the `;` ending the statement containing token `i`.
fn statement_end(toks: &[Tok], i: usize, end: usize) -> usize {
    let mut depth = 0i32;
    for j in i..end {
        match toks[j].text.as_str() {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => {
                depth -= 1;
                if depth < 0 {
                    return j;
                }
            }
            ";" if depth == 0 => return j + 1,
            _ => {}
        }
    }
    end
}

/// Index of the `}` closing the brace block the statement at `i` sits in.
fn enclosing_block_end(toks: &[Tok], i: usize, start: usize, end: usize) -> usize {
    // depth of token i relative to body start
    let mut depth = 0i32;
    for t in &toks[start..i] {
        match t.text.as_str() {
            "{" => depth += 1,
            "}" => depth -= 1,
            _ => {}
        }
    }
    // walk forward until that depth closes
    let mut d = depth;
    for j in i..end {
        match toks[j].text.as_str() {
            "{" => d += 1,
            "}" => {
                d -= 1;
                if d < depth {
                    return j;
                }
            }
            _ => {}
        }
    }
    end
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(src: &str) -> (Vec<Finding>, Vec<Edge>) {
        scan_file("x.rs", &SourceFile::scan(src))
    }

    #[test]
    fn clean_single_lock_is_fine() {
        let (f, e) = run("fn f(&self) {\n    let g = self.state.lock().ok();\n    drop(g);\n}");
        assert!(f.is_empty());
        assert!(e.is_empty());
    }

    #[test]
    fn send_under_lock_fires() {
        let (f, _) =
            run("fn f(&self) {\n    let g = self.state.lock().ok();\n    self.sock.send(&[1]);\n}");
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("send"));
        assert!(f[0].message.contains("self.state"));
    }

    #[test]
    fn send_after_guard_scope_is_fine() {
        let (f, _) = run(
            "fn f(&self) {\n    {\n        let g = self.state.lock().ok();\n    }\n    self.sock.send(&[1]);\n}",
        );
        assert!(f.is_empty());
    }

    #[test]
    fn inline_lock_does_not_hold_past_statement() {
        let (f, _) = run(
            "fn f(&self) {\n    self.state.lock().map(|g| g.tick());\n    self.sock.send(&[1]);\n}",
        );
        assert!(f.is_empty());
    }

    #[test]
    fn nested_locks_record_an_edge() {
        let (f, e) = run(
            "fn f(&self) {\n    let a = self.a.lock().ok();\n    let b = self.b.lock().ok();\n}",
        );
        assert!(f.is_empty());
        assert_eq!(e.len(), 1);
        assert_eq!(
            (e[0].outer.as_str(), e[0].inner.as_str()),
            ("self.a", "self.b")
        );
    }

    #[test]
    fn inverted_order_flags_both_sites() {
        let (_, e1) = run(
            "fn f(&self) {\n    let a = self.a.lock().ok();\n    let b = self.b.lock().ok();\n}",
        );
        let (_, e2) = run(
            "fn g(&self) {\n    let b = self.b.lock().ok();\n    let a = self.a.lock().ok();\n}",
        );
        let all: Vec<Edge> = e1.into_iter().chain(e2).collect();
        let f = order_findings(&all);
        assert_eq!(f.len(), 2);
        assert!(f[0].message.contains("inversion"));
    }

    #[test]
    fn same_lock_twice_is_self_deadlock() {
        let (f, _) = run(
            "fn f(&self) {\n    let a = self.a.lock().ok();\n    let b = self.a.lock().ok();\n}",
        );
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("self-deadlock"));
    }

    #[test]
    fn let_else_guard_is_tracked() {
        let (f, _) = run(
            "fn f(&self) {\n    let Ok(mut rec) = r.lock() else { return };\n    rec.push(1);\n    self.ch.send(rec.seq);\n}",
        );
        assert_eq!(f.len(), 1);
    }

    #[test]
    fn waiver_is_honored() {
        let (f, _) = run(
            "fn f(&self) {\n    let g = self.state.lock().ok();\n    self.sock.send(&[1]); // itdos-lint: allow(lock-order) -- bounded in-memory channel, never blocks\n}",
        );
        assert_eq!(f.len(), 1);
        assert!(!f[0].is_active());
    }
}
