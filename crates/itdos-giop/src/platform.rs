//! Platform heterogeneity profiles.
//!
//! The paper's central premise: replicas of one service run on *different*
//! platforms and language runtimes ("implementation diversity in both
//! language and platform", §2.2), so correct replicas produce replies that
//! are semantically equal but not byte-identical. Two concrete mechanisms
//! are modeled:
//!
//! 1. **Byte order** — each profile marshals CDR in its native endianness,
//!    so raw GIOP frames differ across correct replicas.
//! 2. **Floating-point divergence** — "the accuracy of floating point and
//!    other data types may vary from platform to platform" (§3.6): each
//!    profile perturbs computed floats by a deterministic, platform-specific
//!    relative error within `FLOAT_TOLERANCE`, emulating different math
//!    libraries / FPU modes.

use crate::cdr::Endianness;
use crate::types::Value;

/// Relative float divergence bound across platform profiles. Inexact
/// voting must tolerate differences up to roughly twice this bound.
pub const FLOAT_TOLERANCE: f64 = 1e-9;

/// A platform/language implementation profile for one replica.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PlatformProfile {
    /// Human-readable platform name (e.g. `"sparc-solaris-cxx"`).
    pub name: &'static str,
    /// Native byte order used when marshalling.
    pub endianness: Endianness,
    /// Per-platform float perturbation selector; 0 means exact. Distinct
    /// non-zero ids diverge from each other deterministically.
    pub float_lane: u8,
}

impl PlatformProfile {
    /// SPARC Solaris, C++ servant — big-endian, exact libm (the reference
    /// lane).
    pub const SPARC_SOLARIS: PlatformProfile = PlatformProfile {
        name: "sparc-solaris-cxx",
        endianness: Endianness::Big,
        float_lane: 0,
    };

    /// x86 Linux, C++ servant — little-endian, slightly divergent libm.
    pub const X86_LINUX: PlatformProfile = PlatformProfile {
        name: "x86-linux-cxx",
        endianness: Endianness::Little,
        float_lane: 1,
    };

    /// x86 Linux, Java servant — little-endian, strictfp-but-different
    /// rounding lane.
    pub const X86_LINUX_JAVA: PlatformProfile = PlatformProfile {
        name: "x86-linux-java",
        endianness: Endianness::Little,
        float_lane: 2,
    };

    /// PowerPC AIX, C servant — big-endian, fused-multiply-add lane.
    pub const PPC_AIX: PlatformProfile = PlatformProfile {
        name: "ppc-aix-c",
        endianness: Endianness::Big,
        float_lane: 3,
    };

    /// The four built-in profiles, enough for an f=1 heterogeneous domain
    /// with no two replicas alike.
    pub const ALL: [PlatformProfile; 4] = [
        PlatformProfile::SPARC_SOLARIS,
        PlatformProfile::X86_LINUX,
        PlatformProfile::X86_LINUX_JAVA,
        PlatformProfile::PPC_AIX,
    ];

    /// Picks a profile for replica `index`, cycling through [`Self::ALL`].
    pub fn for_replica(index: usize) -> PlatformProfile {
        match index % 4 {
            0 => PlatformProfile::SPARC_SOLARIS,
            1 => PlatformProfile::X86_LINUX,
            2 => PlatformProfile::X86_LINUX_JAVA,
            _ => PlatformProfile::PPC_AIX,
        }
    }

    /// Applies this platform's floating-point lane to a computed `f64`.
    ///
    /// Lane 0 returns the value unchanged; other lanes apply a relative
    /// perturbation of at most [`FLOAT_TOLERANCE`], deterministic in
    /// `(lane, value)` so a replica is self-consistent.
    pub fn perturb_f64(&self, value: f64) -> f64 {
        if self.float_lane == 0 || !value.is_finite() || value == 0.0 {
            return value;
        }
        // deterministic pseudo-noise in [-1, 1] from (lane, bits)
        let mut h = value.to_bits() ^ (self.float_lane as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        h ^= h >> 33;
        h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        h ^= h >> 33;
        let noise = (h as i64 as f64) / (i64::MAX as f64);
        value * (1.0 + noise * FLOAT_TOLERANCE)
    }

    /// Applies [`PlatformProfile::perturb_f64`] recursively to every float
    /// in a value tree (what a servant's computed result looks like on this
    /// platform).
    pub fn perturb_value(&self, value: &Value) -> Value {
        match value {
            Value::Float(v) => Value::Float(self.perturb_f64(*v as f64) as f32),
            Value::Double(v) => Value::Double(self.perturb_f64(*v)),
            // an octet sequence holds no float: one clone, no item walk
            Value::Sequence(items) if items.as_octets().is_none() => {
                Value::Sequence(items.iter().map(|i| self.perturb_value(i)).collect())
            }
            Value::Struct(items) => {
                Value::Struct(items.iter().map(|i| self.perturb_value(i)).collect())
            }
            other => other.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_profiles_are_distinct() {
        for (i, a) in PlatformProfile::ALL.iter().enumerate() {
            for b in &PlatformProfile::ALL[i + 1..] {
                assert_ne!(a, b);
                assert_ne!(a.name, b.name);
            }
        }
    }

    #[test]
    fn reference_lane_is_exact() {
        let p = PlatformProfile::SPARC_SOLARIS;
        assert_eq!(p.perturb_f64(1.234), 1.234);
    }

    #[test]
    fn other_lanes_diverge_within_tolerance() {
        let v = 123.456789;
        for p in &PlatformProfile::ALL[1..] {
            let perturbed = p.perturb_f64(v);
            let rel = ((perturbed - v) / v).abs();
            assert!(rel <= FLOAT_TOLERANCE * 1.0001, "{}: rel {rel}", p.name);
        }
        // at least one lane actually moves the value
        assert!(PlatformProfile::ALL[1..]
            .iter()
            .any(|p| p.perturb_f64(v) != v));
    }

    #[test]
    fn perturbation_is_deterministic_per_platform() {
        let p = PlatformProfile::X86_LINUX;
        assert_eq!(p.perturb_f64(7.5), p.perturb_f64(7.5));
    }

    #[test]
    fn lanes_diverge_from_each_other() {
        let v = 0.333_333_333_333;
        let a = PlatformProfile::X86_LINUX.perturb_f64(v);
        let b = PlatformProfile::X86_LINUX_JAVA.perturb_f64(v);
        assert_ne!(a, b);
    }

    #[test]
    fn zero_nan_inf_untouched() {
        let p = PlatformProfile::PPC_AIX;
        assert_eq!(p.perturb_f64(0.0), 0.0);
        assert!(p.perturb_f64(f64::NAN).is_nan());
        assert_eq!(p.perturb_f64(f64::INFINITY), f64::INFINITY);
    }

    #[test]
    fn perturb_value_recurses_and_preserves_non_floats() {
        let p = PlatformProfile::X86_LINUX;
        let v = Value::Struct(vec![
            Value::Long(5),
            Value::Double(1.5),
            Value::Sequence(vec![Value::Double(2.5)].into()),
            Value::String("s".into()),
        ]);
        let out = p.perturb_value(&v);
        match &out {
            Value::Struct(items) => {
                assert_eq!(items[0], Value::Long(5));
                assert_eq!(items[3], Value::String("s".into()));
                assert!(matches!(items[1], Value::Double(d) if d != 1.5));
            }
            other => panic!("expected struct, got {other:?}"),
        }
    }

    #[test]
    fn for_replica_cycles() {
        assert_eq!(PlatformProfile::for_replica(0), PlatformProfile::ALL[0]);
        assert_eq!(PlatformProfile::for_replica(5), PlatformProfile::ALL[1]);
    }

    #[test]
    fn profiles_mix_endiannesses() {
        let big = PlatformProfile::ALL
            .iter()
            .filter(|p| p.endianness == Endianness::Big)
            .count();
        assert!(big > 0 && big < PlatformProfile::ALL.len());
    }
}
