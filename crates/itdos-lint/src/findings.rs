//! Finding and rule vocabulary shared by every lint pass.

use std::fmt;

/// The seven ITDOS invariant classes (see DESIGN.md "Static analysis &
/// invariants").
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Rule {
    /// L1 — every dependency must resolve inside the workspace so
    /// `cargo build --offline` always works.
    Hermeticity,
    /// L2 — replica-deterministic crates must not read clocks, OS entropy,
    /// the environment, or iterate RandomState-ordered collections.
    Determinism,
    /// L3 — protocol message handlers must not contain panic paths
    /// reachable from Byzantine input.
    PanicFreedom,
    /// L4 — secret-bearing byte buffers must be compared in constant time.
    CtCrypto,
    /// L5 — decode paths that parse attacker-controlled lengths must not
    /// index, cast, or do arithmetic on them unchecked.
    HostileArith,
    /// L6 — every wire type must stay encode/decode symmetric: declared
    /// once beneath GIOP, registered in a round-trip test above it.
    WireSymmetry,
    /// L7 — nested lock acquisitions must follow one global order and no
    /// lock may be held across a send/recv call.
    LockOrder,
}

impl Rule {
    /// Stable machine key, used in waivers and JSON output.
    pub fn key(self) -> &'static str {
        match self {
            Rule::Hermeticity => "hermeticity",
            Rule::Determinism => "determinism",
            Rule::PanicFreedom => "panic-freedom",
            Rule::CtCrypto => "ct-crypto",
            Rule::HostileArith => "hostile-arith",
            Rule::WireSymmetry => "wire-symmetry",
            Rule::LockOrder => "lock-order",
        }
    }

    /// Short display label (the paper-facing rule id).
    pub fn label(self) -> &'static str {
        match self {
            Rule::Hermeticity => "L1",
            Rule::Determinism => "L2",
            Rule::PanicFreedom => "L3",
            Rule::CtCrypto => "L4",
            Rule::HostileArith => "L5",
            Rule::WireSymmetry => "L6",
            Rule::LockOrder => "L7",
        }
    }

    /// Parses a waiver key back into a rule.
    pub fn from_key(key: &str) -> Option<Rule> {
        match key {
            "hermeticity" => Some(Rule::Hermeticity),
            "determinism" => Some(Rule::Determinism),
            "panic-freedom" => Some(Rule::PanicFreedom),
            "ct-crypto" => Some(Rule::CtCrypto),
            "hostile-arith" => Some(Rule::HostileArith),
            "wire-symmetry" => Some(Rule::WireSymmetry),
            "lock-order" => Some(Rule::LockOrder),
            _ => None,
        }
    }

    /// All rules, in report order.
    pub const ALL: [Rule; 7] = [
        Rule::Hermeticity,
        Rule::Determinism,
        Rule::PanicFreedom,
        Rule::CtCrypto,
        Rule::HostileArith,
        Rule::WireSymmetry,
        Rule::LockOrder,
    ];
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}({})", self.label(), self.key())
    }
}

/// One rule violation at one location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Which invariant class fired.
    pub rule: Rule,
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// The offending source line, trimmed.
    pub snippet: String,
    /// Human explanation of what is wrong and how to fix it.
    pub message: String,
    /// Waiver justification when the site carries an
    /// `itdos-lint: allow(<rule>) -- <why>` comment.
    pub waiver: Option<String>,
}

impl Finding {
    /// True when the finding counts against the exit code.
    pub fn is_active(&self) -> bool {
        self.waiver.is_none()
    }

    /// Renders the finding as one JSON-lines record (hand-rolled: the
    /// linter is std-only by construction).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"rule\":\"{}\",\"label\":\"{}\",\"path\":{},\"line\":{},\"snippet\":{},\"message\":{},\"waived\":{},\"waiver\":{}}}",
            self.rule.key(),
            self.rule.label(),
            json_string(&self.path),
            self.line,
            json_string(&self.snippet),
            json_string(&self.message),
            !self.is_active(),
            match &self.waiver {
                Some(w) => json_string(w),
                None => "null".to_string(),
            }
        )
    }
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let status = if self.is_active() { "" } else { " [waived]" };
        write!(
            f,
            "{}: {}:{}: {}{}\n    | {}",
            self.rule, self.path, self.line, self.message, status, self.snippet
        )?;
        if let Some(w) = &self.waiver {
            write!(f, "\n    waiver: {w}")?;
        }
        Ok(())
    }
}

/// Minimal JSON string escaping.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rule_keys_round_trip() {
        for rule in Rule::ALL {
            assert_eq!(Rule::from_key(rule.key()), Some(rule));
        }
        assert_eq!(Rule::from_key("no-such-rule"), None);
    }

    #[test]
    fn json_lines_are_well_formed() {
        let f = Finding {
            rule: Rule::Determinism,
            path: "crates/x/src/lib.rs".into(),
            line: 7,
            snippet: "let t = SystemTime::now(); // \"quoted\"".into(),
            message: "wall-clock read".into(),
            waiver: None,
        };
        let json = f.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"rule\":\"determinism\""));
        assert!(json.contains("\\\"quoted\\\""));
        assert!(json.contains("\"waived\":false"));
    }

    #[test]
    fn waived_finding_is_inactive() {
        let f = Finding {
            rule: Rule::PanicFreedom,
            path: "p".into(),
            line: 1,
            snippet: "s".into(),
            message: "m".into(),
            waiver: Some("bounded by protocol quorum".into()),
        };
        assert!(!f.is_active());
        assert!(f.to_json().contains("\"waived\":true"));
    }
}
