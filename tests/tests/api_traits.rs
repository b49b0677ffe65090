//! API-guideline conformance pins: `Send`/`Sync` where promised, common
//! trait implementations, and error-type behaviour (C-SEND-SYNC,
//! C-COMMON-TRAITS, C-GOOD-ERR).

use std::error::Error;

fn assert_send<T: Send>() {}
fn assert_send_sync<T: Send + Sync>() {}

#[test]
fn data_types_are_send_sync() {
    assert_send_sync::<simnet::NodeId>();
    assert_send_sync::<simnet::SimTime>();
    assert_send_sync::<simnet::trace::NetStats>();
    assert_send_sync::<itdos_crypto::Digest>();
    assert_send_sync::<itdos_crypto::SymmetricKey>();
    assert_send_sync::<itdos_crypto::Signature>();
    assert_send_sync::<itdos_giop::Value>();
    assert_send_sync::<itdos_giop::TypeDesc>();
    assert_send_sync::<itdos_giop::InterfaceRepository>();
    assert_send_sync::<itdos_bft::Message>();
    assert_send_sync::<itdos_bft::GroupConfig>();
    assert_send_sync::<itdos_vote::Comparator>();
    assert_send_sync::<itdos_vote::Collator>();
    assert_send_sync::<itdos_vote::FaultProof>();
    assert_send_sync::<itdos_groupmgr::GroupManager>();
    assert_send_sync::<itdos::wire::CoreMsg>();
    assert_send_sync::<itdos::Completed>();
}

#[test]
fn protocol_state_machines_are_send() {
    assert_send::<itdos_bft::Replica<itdos_bft::state::CounterMachine>>();
    assert_send::<itdos_bft::client::Client>();
    assert_send::<itdos_bft::queue::QueueMachine>();
}

#[test]
fn error_types_are_well_behaved() {
    fn good_error<E: Error + Send + Sync + 'static>() {}
    good_error::<itdos_giop::cdr::CdrError>();
    good_error::<itdos_giop::giop::GiopError>();
    good_error::<itdos_bft::wire::WireError>();
    good_error::<itdos_crypto::dprf::CombineError>();
    good_error::<itdos_crypto::shamir::CombineError>();
    good_error::<itdos_crypto::symmetric::OpenError>();
    good_error::<itdos_vote::detector::ProofError>();
    good_error::<itdos_groupmgr::manager::OpenError>();
    good_error::<itdos_groupmgr::manager::ChangeError>();
}

#[test]
fn error_messages_are_lowercase_without_trailing_punctuation() {
    let messages = [
        itdos_giop::cdr::CdrError::BadString.to_string(),
        itdos_bft::wire::WireError.to_string(),
        itdos_crypto::symmetric::OpenError::BadTag.to_string(),
        itdos_groupmgr::manager::OpenError::BadClient.to_string(),
    ];
    for m in messages {
        assert!(
            m.chars().next().is_some_and(|c| c.is_lowercase()),
            "starts lowercase: {m:?}"
        );
        assert!(!m.ends_with('.'), "no trailing period: {m:?}");
    }
}

#[test]
fn core_value_types_are_cloneable_and_debuggable() {
    fn common<T: Clone + std::fmt::Debug + PartialEq>() {}
    common::<itdos_giop::Value>();
    common::<itdos_giop::TypeDesc>();
    common::<itdos_vote::Comparator>();
    common::<itdos_bft::Message>();
    common::<itdos::wire::SmiopFrame>();
    common::<itdos::Completed>();
}

#[test]
fn debug_representations_are_never_empty() {
    let samples: Vec<String> = vec![
        format!("{:?}", itdos_giop::Value::Void),
        format!("{:?}", simnet::NodeId::EXTERNAL),
        format!("{:?}", itdos_crypto::Digest::of(b"")),
        format!("{:?}", itdos_vote::Thresholds::new(1)),
    ];
    for s in samples {
        assert!(!s.is_empty());
    }
}
