//! Supporting microbenchmarks: the cryptographic primitives every ITDOS
//! message crosses (hash, MAC, signature, authenticated encryption).

use itdos_bench::harness::{BenchmarkId, Criterion, Throughput};
use itdos_bench::{criterion_group, criterion_main};
use itdos_crypto::hash::Digest;
use itdos_crypto::hmac::{hmac, HmacKey};
use itdos_crypto::keys::SymmetricKey;
use itdos_crypto::sign::SigningKey;
use itdos_crypto::symmetric::{open, seal, SealKey};

fn bench_hash(c: &mut Criterion) {
    let mut group = c.benchmark_group("sha256");
    for size in [64usize, 1024, 16384] {
        let data = vec![0xA5u8; size];
        group.throughput(Throughput::Bytes(size as u64));
        group.bench_with_input(BenchmarkId::from_parameter(size), &data, |b, data| {
            b.iter(|| Digest::of(data));
        });
    }
    group.finish();
}

fn bench_hmac(c: &mut Criterion) {
    let mut group = c.benchmark_group("hmac_sha256");
    for size in [64usize, 1024] {
        let data = vec![0x5Au8; size];
        group.throughput(Throughput::Bytes(size as u64));
        group.bench_with_input(BenchmarkId::from_parameter(size), &data, |b, data| {
            b.iter(|| hmac(b"key", data));
        });
    }
    // the same tag from a key prepared once: what skipping the two pad
    // compressions buys on a short message
    let prepared = HmacKey::new(b"key");
    let data = vec![0x5Au8; 64];
    group.throughput(Throughput::Bytes(64));
    group.bench_with_input(BenchmarkId::new("prepared", 64), &data, |b, data| {
        b.iter(|| prepared.tag_parts(&[data]));
    });
    group.finish();
}

fn bench_signatures(c: &mut Criterion) {
    let sk = SigningKey::from_seed(b"bench");
    let pk = sk.verifying_key();
    let msg = vec![7u8; 256];
    let sig = sk.sign(&msg);
    c.bench_function("schnorr_sign_256B", |b| b.iter(|| sk.sign(&msg)));
    c.bench_function("schnorr_verify_256B", |b| {
        b.iter(|| assert!(pk.verify(&msg, &sig)))
    });
}

fn bench_sealing(c: &mut Criterion) {
    let key = SymmetricKey::derive(b"bench", b"seal");
    let prepared = SealKey::new(&key);
    let mut group = c.benchmark_group("authenticated_encryption");
    for size in [256usize, 4096] {
        let msg = vec![1u8; size];
        let sealed = seal(&key, [9u8; 16], &msg);
        group.throughput(Throughput::Bytes(size as u64));
        group.bench_with_input(BenchmarkId::new("seal", size), &msg, |b, msg| {
            b.iter(|| seal(&key, [9u8; 16], msg));
        });
        group.bench_with_input(BenchmarkId::new("open", size), &sealed, |b, sealed| {
            b.iter(|| open(&key, sealed).expect("valid"));
        });
        // the per-connection path: subkeys derived and padded once
        group.bench_with_input(BenchmarkId::new("prepared_seal", size), &msg, |b, msg| {
            b.iter(|| prepared.seal([9u8; 16], msg));
        });
        group.bench_with_input(
            BenchmarkId::new("prepared_open", size),
            &sealed,
            |b, sealed| {
                b.iter(|| prepared.open(sealed).expect("valid"));
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_hash,
    bench_hmac,
    bench_signatures,
    bench_sealing
);
criterion_main!(benches);
