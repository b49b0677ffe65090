//! Endpoint-side key-share assembly.
//!
//! §3.5: "The clients and server replication domain elements each decrypt
//! the messages from the Group Manager replication domain, verify the
//! correctness of the key shares they receive, and combine the shares to
//! form the communication key." Shares are grouped by the common input
//! they claim (so up to f corrupt GM elements announcing a bogus input
//! cannot stall the honest majority's assembly), verified against the
//! public DPRF commitments, and combined once `f_gm + 1` verified shares
//! agree. Each share is verified once, when it arrives, and each
//! `(connection, epoch)` is combined once: the shares the other GM elements
//! send after that are still verified and counted, but reopen nothing.

// L5 hostile arithmetic: a decoded length never wraps, truncates or
// indexes out of bounds
#![cfg_attr(
    not(test),
    deny(
        clippy::arithmetic_side_effects,
        clippy::cast_possible_truncation,
        clippy::indexing_slicing
    )
)]

use std::collections::BTreeMap;

use itdos_crypto::dprf::{combine_checked, KeyShare, VerifiedShare};
use itdos_crypto::keys::CommunicationKey;
use itdos_crypto::symmetric::open;
use itdos_groupmgr::manager::ConnectionId;
use itdos_obs::{Fact, Obs};

use crate::fabric::Fabric;
use crate::wire::{ConnectionMeta, KeyShareMsg};

#[derive(Default)]
struct Assembly {
    by_input: BTreeMap<[u8; 32], BTreeMap<u64, VerifiedShare>>,
}

/// Span id for one `(connection, epoch)` assembly at one endpoint. The
/// endpoint's own code is mixed in (FNV-1a over the three words) because
/// the client and every server element assemble shares for the *same*
/// `(connection, epoch)` concurrently against one shared recorder — the
/// spans must not clobber each other.
fn assembly_span_id(my_code: u64, connection: ConnectionId, epoch: u32) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for word in [my_code, connection.0, u64::from(epoch)] {
        h = (h ^ word).wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Collects and combines key shares addressed to one endpoint.
#[derive(Default)]
pub struct ShareBank {
    assemblies: BTreeMap<(ConnectionId, u32), Assembly>,
    /// The latest epoch combined per connection.
    combined: BTreeMap<ConnectionId, u32>,
}

impl std::fmt::Debug for ShareBank {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShareBank")
            .field("pending", &self.assemblies.len())
            .finish()
    }
}

impl ShareBank {
    /// Offers one share message addressed to endpoint `me`, counting share
    /// verification, combination and assembly latency on `obs`. Returns the
    /// assembled communication key the first time `f_gm + 1` verified,
    /// input-consistent shares are present for this `(connection, epoch)`,
    /// and never again for it or an older epoch.
    pub fn offer(
        &mut self,
        fabric: &Fabric,
        me: u64,
        obs: &Obs,
        msg: &KeyShareMsg,
    ) -> Option<(ConnectionMeta, CommunicationKey)> {
        obs.incr("key.shares_received", &[]);
        let pairwise = fabric.pairwise(msg.gm_code, me);
        let plain = open(&pairwise, &msg.sealed).ok()?;
        // exactly a 32-byte input, then a 28-byte share
        let (&input, share) = plain.split_first_chunk::<32>()?;
        let share = KeyShare::from_bytes(share.try_into().ok()?)?;
        let Some(share) = fabric.dprf_verifier().check(&input, &share) else {
            // corrupt GM element's share: discarded (§3.5)
            obs.incr("key.shares_rejected", &[]);
            obs.fact(Fact::KeyShareRejected {
                gm_code: msg.gm_code,
                connection: msg.meta.connection.0,
            });
            return None;
        };
        obs.incr("key.shares_verified", &[]);
        let (connection, epoch) = (msg.meta.connection, msg.meta.epoch);
        if self
            .combined
            .get(&connection)
            .is_some_and(|&done| epoch <= done)
        {
            // a share arriving after its key was made: verified and
            // counted above, but it opens no second assembly
            return None;
        }
        let span_id = assembly_span_id(me, connection, epoch);
        let assembly = self
            .assemblies
            .entry((connection, epoch))
            .or_insert_with(|| {
                obs.span_begin("key.assemble_us", span_id);
                Assembly::default()
            });
        assembly
            .by_input
            .entry(input)
            .or_default()
            .insert(msg.gm_code, share);
        let needed = fabric.dprf_verifier().threshold();
        let group = assembly.by_input.get(&input)?;
        if group.len() < needed {
            return None;
        }
        let shares: Vec<VerifiedShare> = group.values().take(needed).copied().collect();
        let key = match combine_checked(fabric.dprf_verifier(), &input, &shares) {
            Ok(key) => key,
            Err(_) => {
                // verified shares that still fail to combine: abandon the
                // timing rather than leaving the span open forever
                obs.span_cancel("key.assemble_us", span_id);
                return None;
            }
        };
        self.assemblies.remove(&(connection, epoch));
        self.combined.insert(connection, epoch);
        obs.span_end("key.assemble_us", span_id, &[]);
        obs.incr("key.combined", &[]);
        obs.fact(Fact::KeyCombined {
            connection: connection.0,
            epoch: u64::from(epoch),
        });
        Some((msg.meta, CommunicationKey(key)))
    }
}
