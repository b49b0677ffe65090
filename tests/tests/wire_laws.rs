//! The laws every compact-wire type obeys, checked in one place over one
//! type list (`itdos_tests::wire_samples::cases`): generated or
//! hand-written, a decoder accepts exactly the encodings of its type.
//!
//! That a declaration cannot leave a field out is a compile error, shown by
//! the `compile_fail` doctest on `xbytes::wire_struct!`.

use itdos_bft::wire::WireError;
use itdos_tests::wire_samples::{cases, Case};

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
        assert_eq!(
            (case.recode)(sample).as_deref(),
            Ok(sample),
            "{}",
            case.name
        );
    });
}

#[test]
fn every_proper_prefix_is_rejected() {
    for_each_sample(|case, sample| {
        for cut in 0..sample.len() {
            assert_eq!(
                (case.recode)(&sample[..cut]),
                Err(WireError),
                "{} cut at {cut} of {}",
                case.name,
                sample.len()
            );
        }
    });
}

#[test]
fn a_trailing_byte_is_rejected() {
    for_each_sample(|case, sample| {
        for extra in [0, 1, 0xFF] {
            let mut bytes = sample.to_vec();
            bytes.push(extra);
            assert_eq!((case.recode)(&bytes), Err(WireError), "{}", case.name);
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
            assert_eq!(
                (case.recode)(&bytes),
                Err(WireError),
                "{} tag {tag}",
                case.name
            );
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
                assert_eq!(
                    (case.recode)(&bytes),
                    Err(WireError),
                    "{} count {hostile} at {offset}",
                    case.name
                );
            }
            sites += 1;
        }
    }
    assert_eq!(sites, 17, "every bounded count in the compact wire");
}
