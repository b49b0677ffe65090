//! The laws every compact-wire type obeys, checked in one place over one
//! type list (`itdos_tests::wire_samples::cases`): generated or
//! hand-written, a decoder accepts exactly the encodings of its type — on
//! both decode paths, from a slice and from a received (shared) `Bytes`.
//!
//! That a declaration cannot leave a field out is a compile error, shown by
//! the `compile_fail` doctest on `xbytes::wire_struct!`.

use itdos_bft::wire::{Wire, WireError};
use itdos_tests::wire_samples::{cases, Case};
use xbytes::Bytes;

/// Decodes `bytes` on both paths and re-encodes what each decoded.
fn recode_both(case: &Case, bytes: &[u8]) -> [Result<Vec<u8>, WireError>; 2] {
    let shared = Bytes::copy_from_slice(bytes);
    [(case.recode)(bytes), (case.recode_shared)(&shared)]
}

/// Runs `check` on every sample of every case.
fn for_each_sample(check: impl Fn(&Case, &[u8])) {
    for case in cases() {
        assert!(!case.samples.is_empty(), "{} has no sample", case.name);
        for sample in &case.samples {
            check(&case, sample);
        }
    }
}

#[test]
fn every_sample_round_trips() {
    for_each_sample(|case, sample| {
        for recoded in recode_both(case, sample) {
            assert_eq!(recoded.as_deref(), Ok(sample), "{}", case.name);
        }
    });
}

#[test]
fn every_proper_prefix_is_rejected() {
    for_each_sample(|case, sample| {
        for cut in 0..sample.len() {
            for recoded in recode_both(case, &sample[..cut]) {
                assert_eq!(
                    recoded,
                    Err(WireError),
                    "{} cut at {cut} of {}",
                    case.name,
                    sample.len()
                );
            }
        }
    });
}

#[test]
fn a_trailing_byte_is_rejected() {
    for_each_sample(|case, sample| {
        for extra in [0, 1, 0xFF] {
            let mut bytes = sample.to_vec();
            bytes.push(extra);
            for recoded in recode_both(case, &bytes) {
                assert_eq!(recoded, Err(WireError), "{}", case.name);
            }
        }
    });
}

#[test]
fn every_undeclared_tag_is_rejected() {
    for_each_sample(|case, sample| {
        if case.tags.is_empty() {
            return;
        }
        assert!(case.tags.contains(&sample[0]), "{}", case.name);
        for tag in (0..=u8::MAX).filter(|tag| !case.tags.contains(tag)) {
            let mut bytes = sample.to_vec();
            bytes[0] = tag;
            // the tag alone, and the tag in front of a valid body
            for bytes in [&[tag][..], &bytes] {
                for recoded in recode_both(case, bytes) {
                    assert_eq!(recoded, Err(WireError), "{} tag {tag}", case.name);
                }
            }
        }
    });
    let tagged = cases().iter().filter(|c| !c.tags.is_empty()).count();
    assert_eq!(
        tagged, 11,
        "every enum, `Option` and `Peer` declares its tags"
    );
}

/// A count one past its bound is refused whatever follows it, and so is
/// the largest count: nothing is allocated on a count's say-so.
#[test]
fn a_count_past_its_bound_is_rejected() {
    let mut sites = 0;
    for case in cases() {
        for &(offset, bound) in &case.counts {
            let sample = &case.samples[0];
            let at = offset..offset + 4;
            let count = u32::from_le_bytes(sample[at.clone()].try_into().expect("four bytes"));
            assert!(count <= 6, "{} holds no count at {offset}", case.name);
            for hostile in [bound + 1, u32::MAX] {
                let mut bytes = sample.clone();
                bytes[at.clone()].copy_from_slice(&hostile.to_le_bytes());
                for recoded in recode_both(&case, &bytes) {
                    assert_eq!(
                        recoded,
                        Err(WireError),
                        "{} count {hostile} at {offset}",
                        case.name
                    );
                }
            }
            sites += 1;
        }
    }
    assert_eq!(sites, 17, "every bounded count in the compact wire");
}

/// Decoded from a received frame, an envelope's payload and the operation
/// of the request inside it are slices of that frame, not copies; decoded
/// from a plain slice they are copies.
#[test]
fn shared_decode_points_into_the_received_buffer() {
    use itdos::wire::CoreMsg;
    use itdos_bft::auth::Envelope;
    use itdos_bft::message::Message;
    let request = itdos_tests::wire_samples::messages().remove(0);
    let keys = itdos_bft::auth::KeyProvisioner::new([7u8; 32]);
    let sender = itdos_bft::auth::AuthContext::for_client(keys, itdos_bft::config::ClientId(9), 4);
    let domain = itdos_groupmgr::membership::DomainId(3);
    let received = itdos::wire::bft_frame(&sender, domain, &request, None).bytes;
    let inside = |part: &[u8]| {
        let range = received.as_ptr_range();
        range.start <= part.as_ptr() && part.as_ptr_range().end <= range.end
    };
    let Ok(CoreMsg::Bft { envelope, .. }) = CoreMsg::decode_shared(&received) else {
        panic!("a BFT frame");
    };
    let envelope = Envelope::decode_shared(&envelope).expect("an envelope");
    assert!(inside(&envelope.payload), "payload is a slice of the frame");
    let Ok(Message::Request(decoded)) = Message::decode_shared(&envelope.payload) else {
        panic!("a request");
    };
    assert_eq!(Message::Request(decoded.clone()), request);
    assert!(!decoded.operation().is_empty());
    assert!(
        inside(decoded.operation()),
        "operation is a slice of the frame"
    );
    let copied = Envelope::decode(&envelope.encode()).expect("an envelope");
    assert_eq!(copied, envelope);
    assert!(!inside(&copied.payload), "a plain-slice decode copies");
}

/// The `.rs` files under `dir`, recursively.
fn rust_files(dir: &std::path::Path) -> Vec<std::path::PathBuf> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(dir).expect("readable source tree") {
        let path = entry.expect("a directory entry").path();
        if path.is_dir() {
            out.extend(rust_files(&path));
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    out
}

/// Every type the crates give a `Wire` layout (`impl Wire for T`,
/// `wire_struct!(T ..`, `wire_enum!(T ..`) is named in `cases()`, so the
/// laws above and the decode fuzzers reach it. This is the one wire
/// invariant no type or lint holds.
#[test]
fn every_wire_type_is_in_the_law_list() {
    let laws = include_str!("../src/wire_samples.rs");
    let listed = |name: &str| {
        laws.split(|c: char| !c.is_alphanumeric() && c != '_')
            .any(|w| w == name)
    };
    let crates = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../crates");
    let mut missing = Vec::new();
    for file in rust_files(&crates) {
        if file.components().any(|c| c.as_os_str() == "benchmark") {
            continue;
        }
        let source = std::fs::read_to_string(&file).expect("readable source");
        for line in source
            .lines()
            .map(str::trim)
            .filter(|l| !l.starts_with("//"))
        {
            let declared = ["Wire for ", "wire_struct!(", "wire_enum!("]
                .iter()
                .find_map(|marker| line.split_once(marker).map(|(_, rest)| rest));
            // `[u8; N]` names `u8`; a macro's own `$ty` names nothing
            let name: String = declared
                .unwrap_or_default()
                .trim_start_matches('[')
                .chars()
                .take_while(|c| c.is_alphanumeric() || *c == '_')
                .collect();
            if !name.is_empty() && !listed(&name) {
                missing.push(format!("{name} ({})", file.display()));
            }
        }
    }
    assert!(missing.is_empty(), "Wire types without a case: {missing:?}");
}
