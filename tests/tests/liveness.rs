//! Liveness under sustained, never-quiesced load in a fault-free domain:
//! control traffic is sent once. A retransmit timer covers requests, not
//! a channel's history (one per channel, dead when nothing is undecided),
//! and queue acks are cumulative (one per element queued or in flight),
//! so per-op cost does not drift with history and a healthy domain never
//! fills its queue, accuses itself and stalls.

use itdos_tests::common;

use common::{bank_system, BANK, CLIENT};
use itdos::system::SystemBuilder;
use itdos_giop::types::Value;

/// Simulator steps one wave may take before the run counts as stalled.
const WAVE_STEP_BUDGET: u64 = 2_000_000;

/// A closed-loop load generator that never settles: each wave submits
/// `depth` deposits per client and steps only until all have completed.
struct Load {
    system: itdos::System,
    clients: u64,
    depth: usize,
    completed: usize,
}

impl Load {
    /// `clients` clients of pipeline `depth` on a `bank_system` builder.
    fn new(mut builder: SystemBuilder, clients: u64, depth: usize) -> Load {
        for client in CLIENT + 1..=clients {
            builder.add_client(client);
        }
        builder.client_pipeline(depth);
        Load {
            system: builder.build(),
            clients,
            depth,
            completed: 0,
        }
    }

    /// The benchmark's `pipelined_batch` shape: 8 clients × depth 8 with
    /// `batching(8, 16)`, over a `capacity`-byte queue if given.
    fn pipelined(seed: u64, capacity: Option<usize>) -> Load {
        let mut builder = bank_system(seed);
        builder.batching(8, 16);
        if let Some(capacity) = capacity {
            builder.queue_capacity(capacity);
        }
        Load::new(builder, 8, 8)
    }

    fn wave(&mut self) -> Result<(), String> {
        for client in CLIENT..=self.clients {
            for _ in 0..self.depth {
                self.system.invoke_async(
                    client,
                    itdos::Invocation::of(BANK)
                        .object(b"acct")
                        .interface("Bank::Account")
                        .operation("deposit")
                        .arg(Value::LongLong(1)),
                );
            }
        }
        self.completed += self.depth;
        let done = |load: &Load| {
            (CLIENT..=load.clients).all(|c| load.system.client(c).completed.len() >= load.completed)
        };
        let mut steps = 0;
        while !done(self) {
            if steps == WAVE_STEP_BUDGET || !self.system.sim.step() {
                return Err(format!(
                    "stalled after {steps} steps with {} of {} requests per client; pending:\n{}",
                    self.system.client(CLIENT).completed.len(),
                    self.completed,
                    self.system.sim.pending_summary()
                ));
            }
            steps += 1;
        }
        Ok(())
    }

    fn run(&mut self, waves: usize) {
        for wave in 0..waves {
            if let Err(stall) = self.wave() {
                panic!("wave {wave}: {stall}");
            }
        }
    }

    /// Every reply was a success and the replicated balance adds up.
    fn assert_all_correct(&self) {
        let total = self.clients as usize * self.completed;
        let mut highest = 0;
        for client in CLIENT..=self.clients {
            for done in &self.system.client(client).completed {
                match done.result {
                    Ok(Value::LongLong(balance)) => highest = highest.max(balance),
                    ref other => panic!("client {client}: unexpected reply {other:?}"),
                }
            }
        }
        assert_eq!(highest, total as i64, "every deposit applied exactly once");
    }

    /// All four domain elements are still members everywhere and the
    /// queue sits below the laggard threshold.
    fn assert_domain_intact(&self) {
        for gm_index in 0..4 {
            let gm = self.system.gm_element(gm_index).replica().app();
            let domain = gm.manager().membership().domain(BANK).expect("bank domain");
            assert_eq!(domain.active_count(), 4, "gm {gm_index} expelled someone");
        }
        for index in 0..4 {
            let queue = self.system.element(BANK, index).replica().app();
            assert_eq!(queue.members().count(), 4, "element {index} GC membership");
            assert!(
                queue.bytes_used() * 2 < queue.capacity(),
                "element {index}: queue at {} of {} bytes",
                queue.bytes_used(),
                queue.capacity()
            );
        }
    }
}

/// Cliff 2: 400 unquiesced ops cost what the first 100 did. Before the
/// per-request deadlines every op left a retransmit timer behind that,
/// 100 ms later, re-broadcast whatever was in flight *then* and re-armed:
/// 57.4 → 66.7 msgs/op and 5.96 → 11.3 submits/op over this run.
#[test]
fn unquiesced_ops_show_no_history_drift() {
    let mut load = Load::new(bank_system(1), 1, 1);
    let client_node = load.system.fabric.node_of(CLIENT).expect("client node");
    // (all messages, `smiop-submit` copies) sent so far
    let mark = |load: &Load| {
        let stats = load.system.sim.stats();
        (stats.total.messages, stats.label("smiop-submit").messages)
    };
    let mut marks = vec![mark(&load)];
    let mut started = Vec::new();
    for op in 1..=400 {
        started.push(load.system.sim.now());
        load.run(1);
        if op % 100 == 0 {
            marks.push(mark(&load));
        }
    }
    load.assert_all_correct();
    let per_op = |from: usize| {
        let (total, submits) = (
            marks[from + 1].0 - marks[from].0,
            marks[from + 1].1 - marks[from].1,
        );
        (total as f64 / 100.0, submits as f64 / 100.0)
    };
    let (first_total, first_submits) = per_op(0);
    let (last_total, last_submits) = per_op(3);
    assert!(
        (last_total - first_total).abs() <= first_total * 0.03,
        "messages per op drifted: {first_total} -> {last_total}"
    );
    assert!(
        (last_submits - first_submits).abs() <= first_submits * 0.03,
        "smiop-submit copies per op drifted: {first_submits} -> {last_submits}"
    );
    // the client holds one keep-alive per op still inside its 400 ms
    // `ClientRetry` window, plus the channel's one retransmit timer
    let now = load.system.sim.now();
    let window = simnet::SimDuration::from_millis(400);
    let in_window = started.iter().filter(|&&at| at + window > now).count();
    let timers = load.system.sim.pending_by_node()[&client_node].1;
    assert_eq!(timers, in_window + 1, "pending client timers");
}

/// Cliff 1 in small: the pipelined twin of
/// `expulsion.rs::healthy_domain_never_expels`. With acks queued one per
/// 8 deliveries behind a window-1 channel they were ordered stale, the
/// 64 KiB queue passed half capacity, every healthy member was named a
/// laggard and the domain stalled at wave 4.
#[test]
fn healthy_pipelined_domain_never_expels() {
    let mut load = Load::pipelined(2, Some(1 << 16));
    load.run(40);
    load.assert_all_correct();
    load.assert_domain_intact();
}

/// Cliff 1 at full size: 8 clients × 4 096 requests over the default
/// 1 MiB queue (stalled at wave 65–67 of 512). Release-only; `ci.sh`
/// runs it.
#[test]
#[ignore = "full-size repro: ci.sh runs it in release"]
fn healthy_pipelined_domain_completes_4096_requests_per_client() {
    for seed in 1..=4 {
        let mut load = Load::pipelined(seed, None);
        load.run(512);
        load.assert_all_correct();
        load.assert_domain_intact();
    }
}

/// Recorded, not fixed: once the queue passes half capacity under
/// pipelined load, `laggards` (window 32) measures every member against a
/// head that is a whole wave (64) ahead, so healthy members can be named
/// alongside a crashed one and the run stalls at wave 5.
#[test]
#[ignore = "ROADMAP item 1: laggard expulsion under pipelined load"]
fn crashed_element_under_pipelined_load_is_the_only_one_expelled() {
    let mut load = Load::pipelined(3, Some(1 << 16));
    load.run(2);
    let crashed_node = load.system.fabric.domain(BANK).nodes[3];
    let crashed = load.system.fabric.domain(BANK).elements[3];
    load.system.sim.config_mut().isolate(crashed_node);
    load.run(30);
    load.assert_all_correct();
    for gm_index in 0..4 {
        let gm = load.system.gm_element(gm_index).replica().app();
        let domain = gm.manager().membership().domain(BANK).expect("bank domain");
        assert!(
            !domain.is_active(crashed),
            "gm {gm_index}: crashed element expelled"
        );
        assert_eq!(
            domain.active_count(),
            3,
            "gm {gm_index}: nobody else expelled"
        );
    }
}
