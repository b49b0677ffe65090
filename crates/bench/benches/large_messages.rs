//! E12 (future work §4): "transferring large objects poses another
//! obstacle to efficient performance … signing and voting on individual
//! messages when they are of small size can be a reasonable performance
//! sacrifice; doing so on large image objects could pose a significant
//! problem." Cost of one invocation versus payload size.

use itdos_bench::harness::{BenchmarkId, Criterion, Throughput};
use itdos_bench::{criterion_group, criterion_main};
use itdos_bench::{deploy, DeployOptions, CLIENT, DOMAIN};
use itdos_giop::types::{Seq, Value};

fn bench_payloads(c: &mut Criterion) {
    let mut group = c.benchmark_group("invocation_by_payload");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    for size in [256usize, 4096, 65536] {
        group.throughput(Throughput::Bytes(size as u64));
        group.bench_with_input(BenchmarkId::from_parameter(size), &size, |b, &size| {
            let mut system = deploy(&DeployOptions {
                seed: 7000 + size as u64,
                ..DeployOptions::default()
            });
            let put = || {
                itdos::Invocation::of(DOMAIN)
                    .object(b"store")
                    .interface("Store")
                    .operation("put")
            };
            // warm the connection with a tiny blob
            system.invoke(
                CLIENT,
                put().arg(Value::Sequence(Seq::from_octets(vec![0]))),
            );
            b.iter(|| {
                let blob = Value::Sequence(Seq::from_octets(vec![0xAB; size]));
                let done = system.invoke(CLIENT, put().arg(blob));
                assert_eq!(done.result, Ok(Value::ULong(size as u32)));
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_payloads);
criterion_main!(benches);
