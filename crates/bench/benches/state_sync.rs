//! E8: message-queue state synchronization versus whole-object state
//! transfer (§3.1: the queue approach "provides greater scalability for
//! large object servers" because sync cost tracks *recent traffic*, not
//! object size).

use itdos_bench::harness::{BenchmarkId, Criterion, Throughput};
use itdos_bench::{criterion_group, criterion_main};
use itdos_bft::queue::{ElementId, QueueMachine, QueueOp};
use itdos_bft::state::StateMachine;
use itdos_crypto::hash::Digest;

/// Baseline: a server whose replicated state is one large object (what
/// plain Castro–Liskov synchronizes).
struct BigObjectMachine {
    object: Vec<u8>,
}

impl BigObjectMachine {
    fn new(size: usize) -> BigObjectMachine {
        BigObjectMachine {
            object: vec![0xCD; size],
        }
    }
}

impl StateMachine for BigObjectMachine {
    fn execute(&mut self, operation: &[u8], _request_digest: Digest) -> Vec<u8> {
        // touch one byte so the object is genuinely mutable state
        if let Some(&index) = operation.first() {
            let len = self.object.len();
            self.object[index as usize % len] ^= 1;
        }
        vec![0]
    }
    fn digest(&self) -> Digest {
        Digest::of(&self.object)
    }
    fn snapshot(&self) -> Vec<u8> {
        self.object.clone()
    }
    fn restore(&mut self, snapshot: &[u8]) {
        self.object = snapshot.to_vec();
    }
}

/// A queue machine that has processed (and GC'd) recent traffic on top of
/// an arbitrarily large object server: its snapshot holds only retained
/// messages.
fn loaded_queue(retained_messages: usize) -> QueueMachine {
    let mut q = QueueMachine::new(1 << 22, (0..4).map(ElementId));
    for i in 0..retained_messages {
        // only the snapshot's size matters here, not what the chain links
        q.apply(&QueueOp::Deliver(vec![i as u8; 256]), Digest::default());
    }
    q
}

fn bench_sync(c: &mut Criterion) {
    let mut group = c.benchmark_group("state_synchronization");
    // object sizes from 64 KiB to 4 MiB: whole-object transfer scales
    // linearly with object size...
    for size in [64 * 1024usize, 1024 * 1024, 4 * 1024 * 1024] {
        let machine = BigObjectMachine::new(size);
        group.throughput(Throughput::Bytes(size as u64));
        group.bench_with_input(
            BenchmarkId::new("object_transfer", size),
            &machine,
            |b, machine| {
                b.iter(|| {
                    let snapshot = machine.snapshot();
                    let mut fresh = BigObjectMachine::new(1);
                    fresh.restore(&snapshot);
                    fresh.digest()
                });
            },
        );
    }
    // ...while the ITDOS queue snapshot is bounded by retained traffic,
    // independent of how big the object server's state is
    for retained in [8usize, 64] {
        let queue = loaded_queue(retained);
        let snapshot_len = queue.snapshot().len() as u64;
        group.throughput(Throughput::Bytes(snapshot_len));
        group.bench_with_input(
            BenchmarkId::new("queue_transfer", retained),
            &queue,
            |b, queue| {
                b.iter(|| {
                    let snapshot = queue.snapshot();
                    let mut fresh = QueueMachine::new(1, std::iter::empty());
                    fresh.restore(&snapshot);
                    fresh.digest()
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_sync);
criterion_main!(benches);
