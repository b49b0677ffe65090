//! Identity codes and timer multiplexing.
//!
//! Every communication endpoint (singleton client, server element, Group
//! Manager element) has a globally unique `u64` *endpoint code* used for:
//! BFT client identities, pairwise key derivation, and addressing in the
//! fabric. Timer kinds multiplex several logical timers onto simnet's one
//! `u64` timer discriminant.

use itdos_bft::config::ClientId;
pub use itdos_groupmgr::membership::{
    code_endpoint, element_code, endpoint_code, singleton_code, ELEMENT_CODE_BASE,
};
use itdos_vote::vote::SenderId;

/// The BFT client identity an endpoint uses toward any group.
pub(crate) fn bft_client_id(code: u64) -> ClientId {
    ClientId(code)
}

/// The vote-sender id used for an endpoint code. Singleton `n` and element
/// `n` share one, so a sender's side is judged by its code.
pub(crate) fn vote_sender(code: u64) -> SenderId {
    if code >= ELEMENT_CODE_BASE {
        SenderId((code - ELEMENT_CODE_BASE) as u32)
    } else {
        SenderId(code as u32)
    }
}

/// Timer tags (low 3 bits of the timer kind).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimerTag {
    /// PBFT view-change timer; param = epoch.
    View,
    /// Outbound BFT client retransmission; param = target domain id.
    Retransmit,
    /// Delayed (slow-fault) reply release; param = stash slot.
    DelayedSend,
    /// Singleton-client per-request keep-alive (sends nothing; see
    /// `client.rs`); param = request id.
    ClientRetry,
}

const TAG_VIEW: u64 = 1;
const TAG_RETRANSMIT: u64 = 2;
const TAG_DELAYED: u64 = 3;
const TAG_CLIENT: u64 = 5;

/// Packs a tag and parameter into a timer kind.
pub(crate) fn pack_timer(tag: TimerTag, param: u64) -> u64 {
    let t = match tag {
        TimerTag::View => TAG_VIEW,
        TimerTag::Retransmit => TAG_RETRANSMIT,
        TimerTag::DelayedSend => TAG_DELAYED,
        TimerTag::ClientRetry => TAG_CLIENT,
    };
    (param << 3) | t
}

/// Unpacks a timer kind. Returns `None` for unknown tags.
pub(crate) fn unpack_timer(kind: u64) -> Option<(TimerTag, u64)> {
    let tag = match kind & 7 {
        TAG_VIEW => TimerTag::View,
        TAG_RETRANSMIT => TimerTag::Retransmit,
        TAG_DELAYED => TimerTag::DelayedSend,
        TAG_CLIENT => TimerTag::ClientRetry,
        _ => return None,
    };
    Some((tag, kind >> 3))
}

#[cfg(test)]
mod tests {
    use super::*;
    use itdos_groupmgr::membership::Endpoint;

    #[test]
    fn endpoint_codes_round_trip() {
        assert_eq!(
            code_endpoint(singleton_code(42)),
            Some(Endpoint::Singleton(42))
        );
        assert_eq!(
            code_endpoint(element_code(SenderId(7))),
            Some(Endpoint::Element(SenderId(7)))
        );
        assert_eq!(code_endpoint(element_code(SenderId(u32::MAX)) + 1), None);
    }

    #[test]
    fn codes_are_disjoint() {
        assert_ne!(singleton_code(5), element_code(SenderId(5)));
    }

    #[test]
    fn timer_packing_round_trips() {
        for (tag, param) in [
            (TimerTag::View, 0u64),
            (TimerTag::Retransmit, 12345),
            (TimerTag::DelayedSend, u64::MAX >> 3),
            (TimerTag::ClientRetry, 9),
        ] {
            let kind = pack_timer(tag, param);
            assert_eq!(unpack_timer(kind), Some((tag, param)));
        }
    }

    #[test]
    fn unknown_tag_rejected() {
        assert_eq!(unpack_timer(0), None);
        assert_eq!(unpack_timer(4), None, "retired tag stays unassigned");
        assert_eq!(unpack_timer(6), None);
    }

    #[test]
    fn bft_client_ids_track_codes() {
        assert_eq!(bft_client_id(element_code(SenderId(3))).0, 1_000_003);
    }
}
