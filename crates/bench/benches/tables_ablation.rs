//! Experiment E5: ablation of the paper's §IV-A3 memory-management
//! choices — Cantor-pairing hashing (with its adaptive re-arrangement)
//! against a conventional multiplicative hash, and computed-table size
//! sensitivity.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ddcore::cantor::CantorHasher;
use ddcore::fxhash::FxHasher;
use ddcore::table::{OpenTable, TableKey};
use ddcore::ComputedCache;
use std::hash::Hasher as _;

#[derive(Clone, Copy, PartialEq, Eq, Default)]
struct CantorKey(u32, u32, u32);
impl TableKey for CantorKey {
    fn table_hash(&self, h: &CantorHasher) -> u64 {
        h.hash3(self.0 as u64, self.1 as u64, self.2 as u64)
    }
}

/// The same key hashed with the Fx multiplicative hash instead of the
/// paper's nested Cantor pairing.
#[derive(Clone, Copy, PartialEq, Eq, Default)]
struct FxKey(u32, u32, u32);
impl TableKey for FxKey {
    fn table_hash(&self, _h: &CantorHasher) -> u64 {
        let mut hs = FxHasher::default();
        hs.write_u32(self.0);
        hs.write_u32(self.1);
        hs.write_u32(self.2);
        hs.finish()
    }
}

/// Node-tuple-like key distribution: children ids clustered (locality) with
/// occasional far references, complement bits in the low bit.
fn keys(n: usize) -> Vec<(u32, u32, u32)> {
    let mut state = 0x0123_4567_89AB_CDEFu64 | 1;
    (0..n)
        .map(|i| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let near = (i as u32).saturating_sub((state >> 40) as u32 % 64);
            let far = (state >> 20) as u32 % (i as u32 + 1);
            (
                near << 1 | (state >> 5 & 1) as u32,
                far << 1,
                (state >> 60) as u32 & 1,
            )
        })
        .collect()
}

fn bench_unique_table_hashing(c: &mut Criterion) {
    let mut group = c.benchmark_group("unique_table_hash");
    group.sample_size(20);
    let data = keys(100_000);
    group.bench_function("cantor_adaptive", |b| {
        b.iter(|| {
            let mut t: OpenTable<CantorKey> = OpenTable::new(64);
            for (i, &(x, y, z)) in data.iter().enumerate() {
                let k = CantorKey(x, y, z);
                if t.get(&k).is_none() {
                    t.insert(k, i as u32);
                }
            }
            t.len()
        });
    });
    group.bench_function("fx_multiplicative", |b| {
        b.iter(|| {
            let mut t: OpenTable<FxKey> = OpenTable::new(64);
            for (i, &(x, y, z)) in data.iter().enumerate() {
                let k = FxKey(x, y, z);
                if t.get(&k).is_none() {
                    t.insert(k, i as u32);
                }
            }
            t.len()
        });
    });
    group.finish();
}

fn bench_cache_size_sensitivity(c: &mut Criterion) {
    let mut group = c.benchmark_group("computed_table_size");
    group.sample_size(20);
    // A fixed apply-like access trace replayed against different cache caps.
    let trace = keys(200_000);
    for &cap in &[1usize << 10, 1 << 14, 1 << 18] {
        group.bench_with_input(BenchmarkId::from_parameter(cap), &cap, |b, &cap| {
            b.iter(|| {
                let mut cache = ComputedCache::with_max(cap, cap);
                let mut hits = 0u64;
                for &(x, y, z) in &trace {
                    if cache.get(x as u64, y as u64, z & 15).is_some() {
                        hits += 1;
                    } else {
                        cache.insert(x as u64, y as u64, z & 15, u64::from(x ^ y));
                    }
                }
                hits
            });
        });
    }
    group.finish();
}

/// End-to-end ablation: build a real workload with both hash styles by
/// re-running the same netlist build (the unique tables dominate).
fn bench_end_to_end_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_end_to_end_build");
    group.sample_size(10);
    let net = benchgen::mcnc::generate("C1908").unwrap();
    group.bench_function("bbdd_build_c1908", |b| {
        b.iter(|| {
            let mgr = bbdd::BbddManager::with_vars(net.num_inputs());
            logicnet::build::build_network(&mgr, &net)
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_unique_table_hashing,
    bench_cache_size_sensitivity,
    bench_end_to_end_build
);
criterion_main!(benches);
