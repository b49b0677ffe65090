//! API-guideline conformance pins: `Send`/`Sync` where promised, common
//! trait implementations, and error-type behaviour (C-SEND-SYNC,
//! C-COMMON-TRAITS, C-GOOD-ERR).

use std::error::Error;

use itdos_bft::config::{ClientId, GroupConfig, ReplicaId, View};
use itdos_bft::message::ClientRequest;
use itdos_bft::replica::{Fact, Output, Replica, To};
use itdos_bft::state::CounterMachine;
use itdos_bft::Message;
use itdos_tests::common;

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

/// A replica is a value: it holds no recorder, lock or channel, so it
/// clones, and its outputs depend on its inputs alone.
#[test]
fn replicas_are_values() {
    fn assert_clone<T: Clone>() {}
    assert_clone::<Replica<CounterMachine>>();
    assert_clone::<itdos_bft::Fact>();
}

/// A replica cloned in the middle of a view change, and its original,
/// fed the same inputs, emit the same outputs and land in the same view.
#[test]
fn a_replica_cloned_mid_view_change_behaves_as_its_original() {
    let config = GroupConfig::for_f(1);
    let mut replicas: Vec<_> = (0..4)
        .map(|i| Replica::new(config.clone(), ReplicaId(i), CounterMachine::new()))
        .collect();
    let request = ClientRequest::new(ClientId(9), 1, 0, CounterMachine::op(4));
    // primary 0 is silent: the backups accept the request, relay it into
    // the void and arm their view timers, which then fire
    let mut view_changes = Vec::new();
    for (i, backup) in replicas.iter_mut().enumerate().skip(1) {
        backup.on_request(request.clone());
        let epoch = common::outputs(backup)
            .into_iter()
            .find_map(|output| match output {
                Output::StartViewTimer { epoch, .. } => Some(epoch),
                _ => None,
            })
            .expect("a backup holding a request arms its view timer");
        backup.on_view_timeout(epoch);
        for output in common::outputs(backup) {
            if let Output::Send(To::All, Message::ViewChange(vc)) = output {
                view_changes.push((ReplicaId(i as u32), vc));
            }
        }
    }
    assert_eq!(view_changes.len(), 3, "one view change per backup");
    // the new primary, replica 1, collects a quorum and announces view 1
    for (from, vc) in &view_changes {
        if from.0 != 1 {
            replicas[1].on_message(*from, Message::ViewChange(vc.clone()));
        }
    }
    let new_view = common::outputs(&mut replicas[1])
        .into_iter()
        .find_map(|output| match output {
            Output::Send(To::All, message @ Message::NewView(_)) => Some(message),
            _ => None,
        })
        .expect("the new primary announces the view");
    // replica 2 is between its own view change and the new view
    let mut original = replicas.swap_remove(2);
    let mut twin = original.clone();
    let mut inputs: Vec<(ReplicaId, Message)> = view_changes
        .into_iter()
        .filter(|(from, _)| from.0 != 2)
        .map(|(from, vc)| (from, Message::ViewChange(vc)))
        .collect();
    inputs.push((ReplicaId(1), new_view));
    inputs.push((ReplicaId(1), Message::Request(request)));
    let mut emitted = Vec::new();
    for (from, message) in inputs {
        original.on_message(from, message.clone());
        twin.on_message(from, message);
        let outputs = common::outputs(&mut original);
        assert_eq!(outputs, common::outputs(&mut twin));
        emitted.extend(outputs);
    }
    assert!(emitted.contains(&Output::Fact(Fact::ViewEntered(View(1)))));
    assert_eq!((original.view(), twin.view()), (View(1), View(1)));
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
