//! simnet adapters: run replicas and clients as simulated processes.
//!
//! The replica group shares one multicast group (one "IP multicast
//! address" per replication domain, §3.4); clients are **not** members of
//! the ordering group (§3.2) and unicast their requests to each replica.

use simnet::{Context, GroupId, NodeId, Process, SimDuration, Timer};
use xbytes::Bytes;

use crate::auth::{AuthContext, Envelope};
use crate::client::Client;
use crate::config::{ClientId, GroupConfig, ReplicaId, SeqNo};
use crate::message::{ClientRequest, Message};
use crate::replica::{Output, Received, Replica};
use crate::state::StateMachine;

/// Maps protocol identities to simulated network addresses.
#[derive(Debug, Clone, Default)]
pub struct Directory {
    /// `replicas[i]` is the node hosting replica `i`.
    pub replicas: Vec<NodeId>,
    /// Client id → node.
    pub clients: std::collections::BTreeMap<ClientId, NodeId>,
}

impl Directory {
    /// The node hosting `replica`.
    pub fn replica_node(&self, replica: ReplicaId) -> NodeId {
        self.replicas[replica.0 as usize]
    }
}

/// A replica running as a simulated process.
pub struct ReplicaNode<S> {
    replica: Replica<S>,
    auth: AuthContext,
    group: GroupId,
    directory: Directory,
    /// Executions observed, newest last (test/bench observability; the
    /// ITDOS core uses its own process embedding `Replica` directly).
    pub executed: Vec<(SeqNo, ClientRequest, Vec<u8>)>,
}

impl<S: std::fmt::Debug> std::fmt::Debug for ReplicaNode<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReplicaNode")
            .field("replica", &self.replica)
            .finish()
    }
}

impl<S: StateMachine> ReplicaNode<S> {
    /// Creates a replica process.
    pub fn new(
        config: GroupConfig,
        id: ReplicaId,
        app: S,
        auth: AuthContext,
        group: GroupId,
        directory: Directory,
    ) -> ReplicaNode<S> {
        ReplicaNode {
            replica: Replica::new(config, id, app),
            auth,
            group,
            directory,
            executed: Vec::new(),
        }
    }

    /// The wrapped replica.
    pub fn replica(&self) -> &Replica<S> {
        &self.replica
    }

    /// Mutable access (fault injection in tests).
    pub fn replica_mut(&mut self) -> &mut Replica<S> {
        &mut self.replica
    }

    fn drain(&mut self, ctx: &mut Context<'_>) {
        for output in self.replica.take_outputs() {
            match output {
                Output::ToReplica(to, message) => {
                    let node = self.directory.replica_node(to);
                    let frame = self.auth.frame(&message, None);
                    ctx.send_labeled(node, frame, message.label());
                }
                Output::ToAllReplicas(message) => {
                    let frame = self.auth.frame(&message, None);
                    ctx.multicast_labeled(self.group, frame, message.label());
                }
                Output::ToClient(client, message) => {
                    if let Some(&node) = self.directory.clients.get(&client) {
                        let frame = self.auth.frame(&message, Some(client));
                        ctx.send_labeled(node, frame, message.label());
                    }
                }
                Output::Executed {
                    seq,
                    request,
                    result,
                } => {
                    self.executed.push((seq, request, result));
                }
                Output::StartViewTimer { epoch, timeout } => {
                    ctx.set_timer(timeout, epoch);
                }
                Output::EnteredView(_) | Output::StateTransferred(_) => {}
            }
        }
    }
}

impl<S: StateMachine + 'static> Process for ReplicaNode<S> {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        ctx.join(self.group);
    }

    fn on_message(&mut self, ctx: &mut Context<'_>, _from: NodeId, payload: Bytes) {
        if let Received::Delivered(_) = self.replica.receive(&self.auth, &payload) {
            self.drain(ctx);
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, timer: Timer) {
        self.replica.on_view_timeout(timer.kind);
        self.drain(ctx);
    }
}

/// A singleton BFT client running as a simulated process. Inject operation
/// bytes via [`simnet::Simulator::inject`]; accepted results accumulate in
/// [`ClientNode::results`].
pub struct ClientNode {
    client: Client,
    auth: AuthContext,
    directory: Directory,
    retransmit_every: SimDuration,
    /// Accepted results, in order.
    pub results: Vec<Vec<u8>>,
}

impl std::fmt::Debug for ClientNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClientNode")
            .field("client", &self.client.id())
            .field("results", &self.results.len())
            .finish()
    }
}

impl ClientNode {
    /// Creates a client process.
    pub fn new(
        id: ClientId,
        config: GroupConfig,
        auth: AuthContext,
        directory: Directory,
    ) -> ClientNode {
        let retransmit_every = config.view_timeout;
        ClientNode {
            client: Client::new(id, config),
            auth,
            directory,
            retransmit_every,
            results: Vec::new(),
        }
    }

    /// The wrapped protocol client.
    pub fn client(&self) -> &Client {
        &self.client
    }

    fn broadcast_request(&self, ctx: &mut Context<'_>, request: &ClientRequest) {
        let frame = self.auth.frame(&Message::Request(request.clone()), None);
        for &node in &self.directory.replicas {
            ctx.send_labeled(node, frame.clone(), "bft-request");
        }
    }
}

impl Process for ClientNode {
    fn on_message(&mut self, ctx: &mut Context<'_>, from: NodeId, payload: Bytes) {
        if from.is_external() {
            // harness command: start a request with these operation bytes
            let now = ctx.now().as_micros();
            if let Some(request) = self.client.start_request(payload.to_vec(), now) {
                self.broadcast_request(ctx, &request);
                let every = self.retransmit_every.as_micros();
                if let Some(delay) = self.client.arm_retransmit(now, every) {
                    ctx.set_timer(SimDuration::from_micros(delay), 0);
                }
            }
            return;
        }
        let Ok((envelope, message)) = Envelope::open(&payload) else {
            return;
        };
        if !self.auth.verify(&envelope, &message) {
            return;
        }
        let Message::Reply(reply) = message else {
            return;
        };
        if let Some((_ts, result)) = self.client.on_reply(reply) {
            self.results.push(result);
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, _timer: Timer) {
        let every = self.retransmit_every.as_micros();
        let (due, next) = self.client.due(ctx.now().as_micros(), every);
        for request in &due {
            self.broadcast_request(ctx, request);
        }
        if let Some(delay) = next {
            ctx.set_timer(SimDuration::from_micros(delay), 0);
        }
    }
}

/// Builds a complete BFT group plus one client on a simulator.
///
/// Returns `(replica nodes, client node, directory)`; replicas join
/// multicast group `group`.
pub fn build_group(
    sim: &mut simnet::Simulator,
    config: &GroupConfig,
    seed: [u8; 32],
    group: GroupId,
    client_id: ClientId,
) -> (Vec<NodeId>, NodeId, Directory) {
    use crate::auth::KeyProvisioner;
    use crate::state::CounterMachine;

    let provisioner = KeyProvisioner::new(seed);
    // allocate node ids first so the directory is complete before any
    // process is constructed
    let mut directory = Directory::default();
    let replica_nodes: Vec<NodeId> = (0..config.n)
        .map(|_| sim.add_process(Box::new(Idle)))
        .collect();
    let client_node = sim.add_process(Box::new(Idle));
    directory.replicas = replica_nodes.clone();
    directory.clients.insert(client_id, client_node);
    for (i, &node) in replica_nodes.iter().enumerate() {
        let auth = AuthContext::for_replica(provisioner.clone(), ReplicaId(i as u32), config.n);
        let replica = ReplicaNode::new(
            config.clone(),
            ReplicaId(i as u32),
            CounterMachine::new(),
            auth,
            group,
            directory.clone(),
        );
        sim.replace_process(node, Box::new(replica));
        sim.join_group(node, group);
    }
    let auth = AuthContext::for_client(provisioner, client_id, config.n);
    let client = ClientNode::new(client_id, config.clone(), auth, directory.clone());
    sim.replace_process(client_node, Box::new(client));
    (replica_nodes, client_node, directory)
}

/// Placeholder process used while wiring up mutual references.
#[derive(Debug)]
struct Idle;

impl Process for Idle {
    fn on_message(&mut self, _ctx: &mut Context<'_>, _from: NodeId, _payload: Bytes) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::CounterMachine;
    use simnet::adversary::Scripted;
    use simnet::Simulator;

    fn setup(seed: u64) -> (Simulator, Vec<NodeId>, NodeId) {
        let mut sim = Simulator::new(seed);
        let config = GroupConfig::for_f(1);
        let (replicas, client, _) = build_group(
            &mut sim,
            &config,
            [9u8; 32],
            GroupId::from_raw(0),
            ClientId(1),
        );
        (sim, replicas, client)
    }

    fn counter_total(sim: &Simulator, node: NodeId) -> i64 {
        sim.process_ref::<ReplicaNode<CounterMachine>>(node)
            .replica()
            .app()
            .total()
    }

    #[test]
    fn request_executes_across_group() {
        let (mut sim, replicas, client) = setup(1);
        sim.inject(client, Bytes::from(CounterMachine::op(5)));
        sim.run();
        for &r in &replicas {
            assert_eq!(counter_total(&sim, r), 5);
        }
        let c = sim.process_ref::<ClientNode>(client);
        assert_eq!(c.results, vec![5i64.to_le_bytes().to_vec()]);
    }

    #[test]
    fn sequential_requests_all_execute() {
        let (mut sim, replicas, client) = setup(2);
        for _ in 0..5 {
            sim.inject(client, Bytes::from(CounterMachine::op(2)));
            sim.run();
        }
        for &r in &replicas {
            assert_eq!(counter_total(&sim, r), 10);
        }
        assert_eq!(sim.process_ref::<ClientNode>(client).results.len(), 5);
    }

    #[test]
    fn back_to_back_requests_share_one_retransmit_timer() {
        let (mut sim, _, client) = setup(6);
        for done in 1..=50 {
            sim.inject(client, Bytes::from(CounterMachine::op(1)));
            // step only until the result lands: never quiesce
            while sim.process_ref::<ClientNode>(client).results.len() < done {
                assert!(sim.step(), "request {done} never completed");
                let timers = sim.pending_by_node().get(&client).map_or(0, |p| p.1);
                assert!(timers <= 1, "{timers} client timers pending");
            }
        }
        // the one timer fires, finds nothing undecided, and dies
        let requests_sent = sim.stats().label("bft-request").messages;
        sim.run();
        assert_eq!(sim.stats().label("bft-request").messages, requests_sent);
        assert!(sim.pending_by_node().is_empty());
    }

    #[test]
    fn crashed_primary_recovers_via_view_change() {
        let (mut sim, replicas, client) = setup(3);
        sim.config_mut().isolate(replicas[0]); // primary of view 0 crashed
        sim.inject(client, Bytes::from(CounterMachine::op(7)));
        sim.run();
        let c = sim.process_ref::<ClientNode>(client);
        assert_eq!(c.results, vec![7i64.to_le_bytes().to_vec()]);
        for &r in &replicas[1..] {
            assert_eq!(counter_total(&sim, r), 7);
            assert!(
                sim.process_ref::<ReplicaNode<CounterMachine>>(r)
                    .replica()
                    .view()
                    .0
                    >= 1
            );
        }
    }

    #[test]
    fn tampering_adversary_defeated_by_macs() {
        let (mut sim, replicas, client) = setup(4);
        // tamper everything replica 2 sends: MACs fail, so its traffic is
        // effectively dropped; the group still has 3 good replicas
        let mut adv = Scripted::new();
        adv.tamper_from(replicas[2]);
        sim.set_adversary(Box::new(adv));
        sim.inject(client, Bytes::from(CounterMachine::op(3)));
        sim.run();
        let c = sim.process_ref::<ClientNode>(client);
        assert_eq!(c.results, vec![3i64.to_le_bytes().to_vec()]);
    }

    #[test]
    fn lossy_network_still_makes_progress() {
        let (mut sim, _, client) = setup(5);
        sim.config_mut().loss_probability = 0.05;
        sim.inject(client, Bytes::from(CounterMachine::op(1)));
        sim.run();
        let c = sim.process_ref::<ClientNode>(client);
        assert_eq!(c.results, vec![1i64.to_le_bytes().to_vec()]);
    }

    #[test]
    fn message_counts_scale_with_group_size() {
        // E4 sanity: ordering one request in an f=2 group sends more
        // protocol messages than in an f=1 group
        let count_messages = |f: usize| {
            let mut sim = Simulator::new(10 + f as u64);
            let config = GroupConfig::for_f(f);
            let (_, client, _) = build_group(
                &mut sim,
                &config,
                [9u8; 32],
                GroupId::from_raw(0),
                ClientId(1),
            );
            sim.inject(client, Bytes::from(CounterMachine::op(1)));
            sim.run();
            sim.stats().total.messages
        };
        let small = count_messages(1);
        let large = count_messages(2);
        assert!(
            large > small,
            "f=2 ({large} msgs) must exceed f=1 ({small} msgs)"
        );
    }
}
