//! Golden vectors for the §3.5/§3.6 group crypto: DPRF key shares, their
//! DLEQ proofs, combined keys, hash-to-group points, and Schnorr keys and
//! signatures. Every value was captured at the parent of PR 26 (42a6815),
//! while `group::pow_mod` still did each product as a `u128 % u128`: a
//! faster kernel must reproduce every byte, or old and new endpoints would
//! derive different communication keys and refuse each other's proofs.

use itdos_crypto::dprf::{combine, Dprf};
use itdos_crypto::group::Element;
use itdos_crypto::sign::SigningKey;
use xrand::rngs::SmallRng;
use xrand::SeedableRng;

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

const INPUTS: [&[u8]; 2] = [b"golden-conn-a", b"golden-conn-b"];

/// Every crypto value under test, named, in a fixed order.
fn crypto_vectors() -> Vec<(String, String)> {
    let mut out = Vec::new();
    let dprf = Dprf::deal(1, 4, &mut SmallRng::seed_from_u64(7));
    for input in INPUTS {
        let label = String::from_utf8_lossy(input).into_owned();
        let shares: Vec<_> = dprf.holders().iter().map(|h| h.evaluate(input)).collect();
        for share in &shares {
            let name = format!("{label} share {}", share.index.value());
            out.push((name.clone(), hex(&share.to_bytes())));
            out.push((format!("{name} proof"), hex(&share.proof.to_bytes())));
        }
        for (a, b) in [(0, 1), (2, 3)] {
            let key = combine(dprf.verifier(), input, &[shares[a], shares[b]]).expect("combines");
            out.push((format!("{label} key {a}+{b}"), hex(key.as_bytes())));
        }
    }
    for input in [&b""[..], b"a", b"itdos", b"golden-h2g"] {
        let point = Element::hash_to_group(input);
        out.push((
            format!("h2g {}", String::from_utf8_lossy(input)),
            hex(&point.to_bytes()),
        ));
    }
    for seed in [&b"golden-signer"[..], b"replica-0", b"gm-element-3"] {
        let key = SigningKey::from_seed(seed);
        let label = String::from_utf8_lossy(seed).into_owned();
        out.push((
            format!("{label} verifying key"),
            hex(&key.verifying_key().to_bytes()),
        ));
        for message in [&b"m"[..], b"golden message for the signature vectors"] {
            out.push((
                format!("{label} sig {}", message.len()),
                hex(&key.sign(message).to_bytes()),
            ));
        }
    }
    out
}

/// Captured at the parent commit (42a6815).
#[rustfmt::skip]
const CRYPTO_GOLDEN: &[(&str, &str)] = &[
    ("golden-conn-a share 1", "010000005b45827b60a7dc05d4a9f858479087016a214838836da605"),
    ("golden-conn-a share 1 proof", "d4a9f858479087016a214838836da605"),
    ("golden-conn-a share 2", "020000008fea403ac09e0b0001e124bb46c89a00726ab6ba9a2c810f"),
    ("golden-conn-a share 2 proof", "01e124bb46c89a00726ab6ba9a2c810f"),
    ("golden-conn-a share 3", "03000000e069e44197bdd81485d0575644dba30e5601b5bf628b4f0a"),
    ("golden-conn-a share 3 proof", "85d0575644dba30e5601b5bf628b4f0a"),
    ("golden-conn-a share 4", "04000000153c74b72db91907d05dcf481c6dfa04a4e960267d215904"),
    ("golden-conn-a share 4 proof", "d05dcf481c6dfa04a4e960267d215904"),
    ("golden-conn-a key 0+1", "365993c94220fbcf0cf169d8a5755c483d2232f583df393dd643e9119087b17e"),
    ("golden-conn-a key 2+3", "365993c94220fbcf0cf169d8a5755c483d2232f583df393dd643e9119087b17e"),
    ("golden-conn-b share 1", "010000004da2f78af372e00745c24fae5c28b202f4d298cee703e808"),
    ("golden-conn-b share 1 proof", "45c24fae5c28b202f4d298cee703e808"),
    ("golden-conn-b share 2", "0200000060954dd095f81b0b124ed5ea8c3553013a36799d395ed403"),
    ("golden-conn-b share 2 proof", "124ed5ea8c3553013a36799d395ed403"),
    ("golden-conn-b share 3", "030000008ce12d71f03a40104d8754970f51be04d75439ce30fe6a0e"),
    ("golden-conn-b share 3 proof", "4d8754970f51be04d75439ce30fe6a0e"),
    ("golden-conn-b share 4", "040000008169b63228faa21ad811b902082329042a4bf0e4bb3f7b0e"),
    ("golden-conn-b share 4 proof", "d811b902082329042a4bf0e4bb3f7b0e"),
    ("golden-conn-b key 0+1", "2768ebddb13630b2258924e004f012ca58c78beb29b0d1cf34349045f3e916a7"),
    ("golden-conn-b key 2+3", "2768ebddb13630b2258924e004f012ca58c78beb29b0d1cf34349045f3e916a7"),
    ("h2g ", "ca8508a54f444f18"),
    ("h2g a", "7ec6cb439e7a7008"),
    ("h2g itdos", "6f8488c867782709"),
    ("h2g golden-h2g", "7a3f86aa87433f10"),
    ("golden-signer verifying key", "3b0dce0bfc461a1d"),
    ("golden-signer sig 1", "45d62f0fa220c809ed5d0f2f32d57b08"),
    ("golden-signer sig 40", "84a58394398f9d0f53db7cd14b6b2c0a"),
    ("replica-0 verifying key", "a7e6d4a00bed5003"),
    ("replica-0 sig 1", "3585cead17026e02f7c1da9dd25c5e0f"),
    ("replica-0 sig 40", "c87d1a07d22df30e832116868ad19b0f"),
    ("gm-element-3 verifying key", "d9da83349e561a00"),
    ("gm-element-3 sig 1", "e9f143d72957eb0e6c08983611e9fc0b"),
    ("gm-element-3 sig 40", "ab5d2e92ed85570db823aa921e65cc05"),
];

#[test]
fn crypto_vectors_match_parent_commit() {
    let vectors = crypto_vectors();
    assert_eq!(vectors.len(), CRYPTO_GOLDEN.len());
    for ((name, value), (golden_name, golden)) in vectors.iter().zip(CRYPTO_GOLDEN) {
        assert_eq!(name, golden_name);
        assert_eq!(value, golden, "{name}");
    }
}

/// The vectors are not vacuous: every share, and every signature, verifies.
#[test]
fn golden_shares_and_signatures_verify() {
    let dprf = Dprf::deal(1, 4, &mut SmallRng::seed_from_u64(7));
    for input in INPUTS {
        for holder in dprf.holders() {
            assert!(dprf.verifier().verify(input, &holder.evaluate(input)));
        }
    }
    let key = SigningKey::from_seed(b"golden-signer");
    assert!(key.verifying_key().verify(b"m", &key.sign(b"m")));
}
