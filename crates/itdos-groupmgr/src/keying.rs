//! Communication-key generation: threshold DPRF vs the traditional
//! baseline.
//!
//! §3.5 contrasts two Group Manager designs. In the **traditional**
//! approach every GM element knows each whole communication key, so "the
//! compromise of a single Group Manager process would compromise all
//! communication keys known to the Group Manager … and all subsequent
//! communication keys generated until the compromise is detected." The
//! **threshold** approach gives each element only a DPRF share: an
//! attacker "must compromise multiple elements to generate a communication
//! key." Experiment E7 measures both cost and exposure.

use itdos_crypto::dprf::{self, Dprf, KeyShare, Shareholder, Verifier};
use itdos_crypto::keys::{CommunicationKey, SymmetricKey};
use xrand::Rng;

/// The threshold (DPRF) keying deployment for a Group Manager domain.
#[derive(Debug, Clone)]
pub struct ThresholdKeying {
    holders: Vec<Shareholder>,
    verifier: Verifier,
    f: usize,
}

impl ThresholdKeying {
    /// Deals shares for a GM domain with `n` elements tolerating `f`
    /// corruptions.
    pub fn deal<R: Rng + ?Sized>(f: usize, n: usize, rng: &mut R) -> ThresholdKeying {
        let dprf = Dprf::deal(f, n, rng);
        let (holders, verifier) = dprf.into_parts();
        ThresholdKeying {
            holders,
            verifier,
            f,
        }
    }

    /// `f` for this deployment.
    pub fn f(&self) -> usize {
        self.f
    }

    /// Number of GM elements.
    pub fn n(&self) -> usize {
        self.holders.len()
    }

    /// The public verifier endpoints use to check shares.
    pub fn verifier(&self) -> &Verifier {
        &self.verifier
    }

    /// Endpoint-side combination of verified shares into the key.
    ///
    /// # Errors
    ///
    /// Propagates [`dprf::CombineError`].
    pub fn combine(
        &self,
        input: &[u8],
        shares: &[KeyShare],
    ) -> Result<CommunicationKey, dprf::CombineError> {
        dprf::combine(&self.verifier, input, shares).map(CommunicationKey)
    }

    /// What an attacker holding the listed GM elements can compute for a
    /// given input: `Some(key)` iff they hold at least `f+1` shares.
    fn attacker_key(&self, compromised: &[usize], input: &[u8]) -> Option<CommunicationKey> {
        if compromised.len() <= self.f {
            return None;
        }
        let shares: Vec<KeyShare> = compromised
            .iter()
            .take(self.f.saturating_add(1))
            .filter_map(|&i| self.holders.get(i))
            .map(|holder| holder.evaluate(input))
            .collect();
        self.combine(input, &shares).ok()
    }
}

/// The traditional whole-key baseline: every GM element holds the master
/// secret and each communication key in full.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraditionalKeying {
    master: SymmetricKey,
    n: usize,
}

impl TraditionalKeying {
    /// Provisions a GM domain of `n` elements all holding `master`.
    pub fn new<R: Rng + ?Sized>(n: usize, rng: &mut R) -> TraditionalKeying {
        let mut seed = [0u8; 32];
        rng.fill(&mut seed);
        TraditionalKeying {
            master: SymmetricKey::from_bytes(seed),
            n,
        }
    }

    /// Number of GM elements.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The communication key for a connection input — identical at every
    /// element (each one "agrees on each communication key and distributes
    /// the entire key").
    fn key_for(&self, input: &[u8]) -> CommunicationKey {
        CommunicationKey(SymmetricKey::derive(self.master.as_bytes(), input))
    }

    /// What an attacker holding the listed GM elements can compute: with
    /// even **one** element, every key (past and future).
    fn attacker_key(&self, compromised: &[usize], input: &[u8]) -> Option<CommunicationKey> {
        if compromised.is_empty() {
            None
        } else {
            Some(self.key_for(input))
        }
    }
}

/// Exposure summary for experiment E7/E11: of `inputs`, how many keys the
/// attacker recovers under each keying scheme when holding `k` elements.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Exposure {
    /// GM elements the attacker controls.
    pub compromised_elements: usize,
    /// Keys recoverable under traditional keying.
    pub traditional_keys_exposed: usize,
    /// Keys recoverable under threshold keying.
    pub threshold_keys_exposed: usize,
}

/// Computes the exposure matrix row for `k` compromised GM elements over
/// the given connection inputs.
pub fn exposure(
    threshold: &ThresholdKeying,
    traditional: &TraditionalKeying,
    k: usize,
    inputs: &[Vec<u8>],
) -> Exposure {
    let compromised: Vec<usize> = (0..k).collect();
    let trad = inputs
        .iter()
        .filter(|x| traditional.attacker_key(&compromised, x).is_some())
        .count();
    let thresh = inputs
        .iter()
        .filter(|x| threshold.attacker_key(&compromised, x).is_some())
        .count();
    Exposure {
        compromised_elements: k,
        traditional_keys_exposed: trad,
        threshold_keys_exposed: thresh,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xrand::rngs::SmallRng;
    use xrand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(5)
    }

    #[test]
    fn threshold_endpoints_derive_same_key_from_any_f_plus_1() {
        let k = ThresholdKeying::deal(1, 4, &mut rng());
        let input = b"conn-1";
        let shares: Vec<KeyShare> = (0..4).map(|i| k.holders[i].evaluate(input)).collect();
        let a = k.combine(input, &shares[0..2]).unwrap();
        let b = k.combine(input, &shares[2..4]).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn threshold_resists_f_compromises() {
        let k = ThresholdKeying::deal(1, 4, &mut rng());
        assert!(
            k.attacker_key(&[0], b"x").is_none(),
            "f=1 element learns nothing"
        );
        assert!(
            k.attacker_key(&[0, 2], b"x").is_some(),
            "f+1 elements break it"
        );
        // and the broken key is the real one (soundness of the model)
        let shares: Vec<KeyShare> = (0..2).map(|i| k.holders[i].evaluate(b"x")).collect();
        assert_eq!(
            k.attacker_key(&[0, 1], b"x").unwrap(),
            k.combine(b"x", &shares).unwrap()
        );
    }

    #[test]
    fn traditional_collapses_on_single_compromise() {
        let t = TraditionalKeying::new(4, &mut rng());
        assert!(t.attacker_key(&[], b"x").is_none());
        assert_eq!(t.attacker_key(&[2], b"x"), Some(t.key_for(b"x")));
    }

    #[test]
    fn exposure_matrix_shape() {
        let mut r = rng();
        let threshold = ThresholdKeying::deal(1, 4, &mut r);
        let traditional = TraditionalKeying::new(4, &mut r);
        let inputs: Vec<Vec<u8>> = (0..10u8).map(|i| vec![i]).collect();
        let e0 = exposure(&threshold, &traditional, 0, &inputs);
        let e1 = exposure(&threshold, &traditional, 1, &inputs);
        let e2 = exposure(&threshold, &traditional, 2, &inputs);
        assert_eq!(
            (e0.traditional_keys_exposed, e0.threshold_keys_exposed),
            (0, 0)
        );
        assert_eq!(
            (e1.traditional_keys_exposed, e1.threshold_keys_exposed),
            (10, 0)
        );
        assert_eq!(
            (e2.traditional_keys_exposed, e2.threshold_keys_exposed),
            (10, 10)
        );
    }

    #[test]
    fn distinct_inputs_give_distinct_keys() {
        let mut r = rng();
        let t = TraditionalKeying::new(4, &mut r);
        assert_ne!(t.key_for(b"a"), t.key_for(b"b"));
        let k = ThresholdKeying::deal(1, 4, &mut r);
        let sa: Vec<KeyShare> = (0..2).map(|i| k.holders[i].evaluate(b"a")).collect();
        let sb: Vec<KeyShare> = (0..2).map(|i| k.holders[i].evaluate(b"b")).collect();
        assert_ne!(k.combine(b"a", &sa).unwrap(), k.combine(b"b", &sb).unwrap());
    }

    #[test]
    fn corrupt_share_detected_at_endpoint() {
        let k = ThresholdKeying::deal(1, 4, &mut rng());
        let input = b"conn";
        let mut shares: Vec<KeyShare> = (0..2).map(|i| k.holders[i].evaluate(input)).collect();
        shares[0] = k.holders[0].evaluate(b"other-input"); // corrupt element reuses an old share
        assert!(k.combine(input, &shares).is_err());
    }
}
