//! simnet adapters: run replicas and clients as simulated processes.
//!
//! The replica group shares one multicast group (one "IP multicast
//! address" per replication domain, §3.4); clients are **not** members of
//! the ordering group (§3.2) and unicast their requests to each replica.

use simnet::{Context, GroupId, NodeId, Process, SimDuration, Timer};
use xbytes::Bytes;

use crate::auth::{AuthContext, Envelope};
use crate::client::Client;
use crate::config::{ClientId, GroupConfig, ReplicaId};
use crate::message::{ClientRequest, Message};
use crate::replica::{Output, Received, Replica, To};
use crate::state::StateMachine;

/// How a replica host puts a protocol message on the network: its framing
/// and its address book. [`send`] is the one place a replica's
/// [`Output::Send`]s leave the process, whichever host runs the replica.
pub trait Route {
    /// Frames `message` under the host's authentication context; `client`
    /// addresses a reply's MACs to that client.
    fn frame(&self, message: &Message, client: Option<ClientId>) -> Bytes;
    /// The node hosting `replica`, if there is one.
    fn replica(&self, replica: ReplicaId) -> Option<NodeId>;
    /// The node hosting `client`, if it is known.
    fn client(&self, client: ClientId) -> Option<NodeId>;
    /// The group's multicast group.
    fn group(&self) -> GroupId;
}

/// Sends `message` to `to` through `route`. A send to an id the route does
/// not know is dropped: a replica takes ids from its peers' messages, and
/// no peer may crash its host with one.
pub fn send(route: &impl Route, ctx: &mut Context<'_>, to: To, message: &Message) {
    let label = message.label();
    match to {
        To::Replica(replica) => {
            if let Some(node) = route.replica(replica) {
                ctx.send_labeled(node, route.frame(message, None), label);
            }
        }
        To::All => ctx.multicast_labeled(route.group(), route.frame(message, None), label),
        To::Client(client) => {
            if let Some(node) = route.client(client) {
                ctx.send_labeled(node, route.frame(message, Some(client)), label);
            }
        }
    }
}

/// Maps protocol identities to simulated network addresses.
#[derive(Debug, Clone, Default)]
pub struct Directory {
    /// `replicas[i]` is the node hosting replica `i`.
    pub replicas: Vec<NodeId>,
    /// Client id → node.
    pub clients: std::collections::BTreeMap<ClientId, NodeId>,
}

/// A replica running as a simulated process.
pub struct ReplicaNode<S> {
    replica: Replica<S>,
    /// The output buffer the host drains ([`Replica::swap_outputs`]).
    drained: Vec<Output>,
    auth: AuthContext,
    group: GroupId,
    directory: Directory,
}

impl<S: std::fmt::Debug> std::fmt::Debug for ReplicaNode<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReplicaNode")
            .field("replica", &self.replica)
            .finish()
    }
}

impl<S> Route for ReplicaNode<S> {
    fn frame(&self, message: &Message, client: Option<ClientId>) -> Bytes {
        self.auth.frame(message, client)
    }

    fn replica(&self, replica: ReplicaId) -> Option<NodeId> {
        self.directory.replicas.get(replica.0 as usize).copied()
    }

    fn client(&self, client: ClientId) -> Option<NodeId> {
        self.directory.clients.get(&client).copied()
    }

    fn group(&self) -> GroupId {
        self.group
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
            drained: Vec::new(),
            auth,
            group,
            directory,
        }
    }

    /// The wrapped replica.
    pub fn replica(&self) -> &Replica<S> {
        &self.replica
    }

    fn drain(&mut self, ctx: &mut Context<'_>) {
        let mut outputs = std::mem::take(&mut self.drained);
        self.replica.swap_outputs(&mut outputs);
        for output in outputs.drain(..) {
            match output {
                Output::Send(to, message) => send(self, ctx, to, &message),
                Output::StartViewTimer { epoch, timeout } => {
                    ctx.set_timer(timeout, epoch);
                }
                Output::Executed { .. } | Output::EnteredView(_) | Output::StateTransferred(_) => {}
            }
        }
        self.drained = outputs;
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
            self.results.push(result.to_vec());
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
    for (id, &node) in (0..).map(ReplicaId).zip(&replica_nodes) {
        let auth = AuthContext::for_replica(provisioner.clone(), id, config.n);
        let replica = ReplicaNode::new(
            config.clone(),
            id,
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

/// A process that does nothing: the placeholder a node hosts while
/// processes that name each other are wired up in two phases, and what a
/// node taken off the network hosts.
#[derive(Debug)]
pub struct Idle;

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
