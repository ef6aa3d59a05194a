//! Randomized model checks and adaptation tests for the storage layer:
//! the open-addressed unique table is driven against `std::HashMap` as a
//! reference model (including backward-shift deletion, the in-place GC
//! sweep at every kill density, and sift-shaped remove/re-insert churn on
//! a small table), tables are forced through resizes and hasher
//! rearrangements, the 2-way computed cache through evictions and epoch
//! invalidation, and the concurrent sharded table through racing
//! multi-threaded insert storms.

use ddcore::cantor::CantorHasher;
use ddcore::par::ShardedTable;
use ddcore::table::{OpenTable, TableKey};
use ddcore::ComputedCache;
use std::collections::HashMap;

#[derive(Clone, Copy, PartialEq, Eq, Default, Debug, Hash)]
struct K2(u32, u32);

impl TableKey for K2 {
    fn table_hash(&self, h: &CantorHasher) -> u64 {
        h.hash2(self.0 as u64, self.1 as u64)
    }
}

struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// The open table must agree with a reference map under a random workload
/// of combined lookups, inserts, removals and retain sweeps. After every
/// operation, every reference entry must still be reachable — this is the
/// test that catches broken backward-shift deletion and relocation bugs.
#[test]
fn open_table_matches_reference_model() {
    let mut rng = SplitMix(0xDEAD_BEEF);
    for round in 0..60 {
        let mut t: OpenTable<K2> = OpenTable::new(4);
        let mut m: HashMap<K2, u32> = HashMap::new();
        let mut next_val = 0u32;
        for step in 0..4000 {
            let r = rng.next();
            let k = K2((r % 97) as u32, ((r >> 8) % 61) as u32);
            match r % 5 {
                0 | 1 => {
                    let expect = m.get(&k).copied();
                    let v = t.get_or_insert_with(k, || next_val);
                    match expect {
                        Some(e) => assert_eq!(v, e, "round {round} step {step}: stale hit"),
                        None => {
                            assert_eq!(v, next_val, "round {round} step {step}: miss value");
                            m.insert(k, next_val);
                            next_val += 1;
                        }
                    }
                }
                2 => {
                    assert_eq!(t.get(&k), m.get(&k).copied(), "round {round} step {step}");
                }
                3 => {
                    assert_eq!(t.remove(&k), m.remove(&k), "round {round} step {step}");
                }
                _ => {
                    if r % 40 == 4 {
                        m.retain(|_, v| *v % 3 != 0);
                        t.retain(|_, v| v % 3 != 0);
                    } else if let std::collections::hash_map::Entry::Vacant(e) = m.entry(k) {
                        t.insert(k, next_val);
                        e.insert(next_val);
                        next_val += 1;
                    }
                }
            }
            assert_eq!(t.len(), m.len(), "round {round} step {step}: len drift");
        }
        // Full audit at the end of the round.
        for (k, v) in &m {
            assert_eq!(t.get(k), Some(*v), "round {round}: entry {k:?} lost");
        }
        let mut seen = 0;
        t.for_each(|k, v| {
            assert_eq!(m.get(k), Some(&v));
            seen += 1;
        });
        assert_eq!(seen, m.len());
    }
}

/// Growth must be observable through the stats and preserve every entry.
#[test]
fn open_table_resize_preserves_entries() {
    let mut t: OpenTable<K2> = OpenTable::new(4);
    for i in 0..50_000u32 {
        t.insert(K2(i, i.wrapping_mul(7)), i);
    }
    assert!(t.stats().resizes > 5, "growth must be tracked");
    for i in 0..50_000u32 {
        assert_eq!(
            t.get(&K2(i, i.wrapping_mul(7))),
            Some(i),
            "key {i} lost in resize"
        );
    }
}

/// Force a hasher rearrangement through the public adaptive path (a miss
/// storm inflates the probe window) and check every entry survives the
/// rotation to the next Cantor arrangement.
#[test]
fn open_table_rearrangement_preserves_entries() {
    let mut t: OpenTable<K2> = OpenTable::new(4);
    for i in 0..512u32 {
        t.insert(K2(i, 1), i);
    }
    let arrangement_before = t.hasher().arrangement();
    // Hammer lookups of colliding missing keys until a window closes with
    // a poor average, then insert to trigger the adaptation check.
    let mut attempts = 0;
    while t.stats().rearrangements == 0 && attempts < 64 {
        for i in 0..5000u32 {
            let _ = t.get(&K2(i.wrapping_mul(4096), 9));
        }
        let fresh = 1_000_000 + t.len() as u32;
        t.insert(K2(fresh, 3), 7);
        attempts += 1;
    }
    if t.stats().rearrangements > 0 {
        assert_ne!(
            t.hasher().arrangement(),
            arrangement_before,
            "rearrangement must rotate the hash arrangement"
        );
    }
    for i in 0..512u32 {
        assert_eq!(t.get(&K2(i, 1)), Some(i), "key {i} lost in rearrangement");
    }
}

/// Refill `t` and the model `m` with fresh keys until `keys` holds `pop`.
fn refill(
    t: &mut OpenTable<K2>,
    m: &mut HashMap<K2, u32>,
    keys: &mut Vec<K2>,
    next: &mut u32,
    pop: usize,
) {
    while keys.len() < pop {
        let k = K2(*next % 211, *next / 211);
        t.insert(k, *next);
        m.insert(k, *next);
        keys.push(k);
        *next += 1;
    }
}

/// Sift-shaped churn on a small table: a level swap removes each node it
/// rewrites and re-inserts it, and a collection now and then kills part of
/// the level. Over a stable live population, the table must agree with the
/// reference model after every step, and it must never grow past the
/// first capacity that fits the population (at most 4 096 slots) — no
/// deletion may leave anything behind that counts against the load cap.
#[test]
fn open_table_small_churn_matches_reference_model() {
    const POP: usize = 700;
    let mut rng = SplitMix(0xF1E2_D3C4);
    let mut t: OpenTable<K2> = OpenTable::new(64);
    let mut m: HashMap<K2, u32> = HashMap::new();
    let mut keys: Vec<K2> = Vec::new();
    let mut next = 0u32;
    refill(&mut t, &mut m, &mut keys, &mut next, POP);
    // `new(64)` starts at 128 slots; growth doubles until POP fits under
    // the 75% load cap.
    let mut slots = 128usize;
    let mut fit_resizes = 0;
    while POP * 4 > slots * 3 {
        slots *= 2;
        fit_resizes += 1;
    }
    assert!(slots <= 4096);
    assert_eq!(t.stats().resizes, fit_resizes);
    for step in 0..6000 {
        let r = rng.next();
        if r.is_multiple_of(64) {
            let kill = (r >> 8) % 5;
            m.retain(|_, v| u64::from(*v) % 5 != kill);
            t.retain(|_, v| u64::from(v) % 5 != kill);
            keys.retain(|k| m.contains_key(k));
            refill(&mut t, &mut m, &mut keys, &mut next, POP);
        } else {
            let slot = (r >> 8) as usize % keys.len();
            let k = keys[slot];
            let v = m.remove(&k).expect("live key");
            assert_eq!(t.remove(&k), Some(v), "step {step}");
            assert_eq!(t.get(&k), None, "step {step}: removed key still found");
            // Re-insert under the same key half the time (the node's tuple
            // survived the swap), under a fresh one otherwise.
            let k2 = if r & (1 << 40) == 0 {
                k
            } else {
                let fresh = K2(next % 211, next / 211);
                next += 1;
                fresh
            };
            assert_eq!(t.get_or_insert_with(k2, || v), v, "step {step}");
            m.insert(k2, v);
            keys[slot] = k2;
        }
        assert_eq!(t.len(), m.len(), "step {step}: len drift");
        for (k, v) in &m {
            assert_eq!(t.peek(k), Some(*v), "step {step}: entry {k:?} lost");
        }
        assert_eq!(
            t.stats().resizes,
            fit_resizes,
            "step {step}: churn over a stable population grew the table"
        );
    }
}

/// A GC sweep at every kill density — nothing, a few, an eighth, half,
/// most, everything — leaves exactly the survivors, each reachable, and
/// the table keeps working as a map afterwards (covers the shrink step and
/// the whole-table repair).
#[test]
fn open_table_retain_at_every_density_matches_model() {
    for (round, per_64) in [0u64, 1, 8, 32, 56, 64].into_iter().enumerate() {
        let mut rng = SplitMix(0xABCD + round as u64);
        let mut t: OpenTable<K2> = OpenTable::new(4);
        let mut m: HashMap<K2, u32> = HashMap::new();
        for v in 0..3000u32 {
            let r = rng.next();
            let k = K2((r % 1009) as u32, ((r >> 16) % 1013) as u32);
            if let std::collections::hash_map::Entry::Vacant(e) = m.entry(k) {
                t.insert(k, v);
                e.insert(v);
            }
        }
        let dies = |v: u32| u64::from(v.wrapping_mul(2_654_435_761) >> 26) < per_64;
        m.retain(|_, v| !dies(*v));
        t.retain(|_, v| !dies(v));
        assert_eq!(t.len(), m.len(), "density {per_64}/64");
        for (k, v) in &m {
            assert_eq!(t.get(k), Some(*v), "density {per_64}/64: {k:?} lost");
        }
        let mut seen = 0;
        t.for_each(|k, v| {
            assert_eq!(m.get(k), Some(&v), "density {per_64}/64: dead {k:?} kept");
            seen += 1;
        });
        assert_eq!(seen, m.len());
        // The swept table is an ordinary map again.
        for v in 5000..5500u32 {
            let k = K2(v, v);
            assert_eq!(t.get_or_insert_with(k, || v), v);
            m.insert(k, v);
        }
        let gone: Vec<K2> = m.keys().copied().step_by(3).collect();
        for k in gone {
            assert_eq!(t.remove(&k), m.remove(&k), "density {per_64}/64");
        }
        assert_eq!(t.len(), m.len());
        for (k, v) in &m {
            assert_eq!(t.get(k), Some(*v), "density {per_64}/64: {k:?} lost");
        }
    }
}

/// Concurrent-insert model check of the sharded table: racing threads
/// hammer overlapping key populations through `get_or_insert_with` (the
/// value is a pure function of the key, so the first-wins race is
/// observable), and the final contents must equal the single-threaded
/// reference model exactly.
#[test]
fn sharded_table_concurrent_inserts_match_reference_model() {
    for threads in [2usize, 4, 8] {
        let t: ShardedTable<K2> = ShardedTable::new(8, 16);
        std::thread::scope(|s| {
            for tid in 0..threads {
                let t = &t;
                s.spawn(move || {
                    let mut rng = SplitMix(0xACE0 + tid as u64);
                    for _ in 0..20_000 {
                        let r = rng.next();
                        let k = K2((r % 401) as u32, ((r >> 9) % 127) as u32);
                        let v = t.get_or_insert_with(k, || k.0.wrapping_mul(31) ^ k.1);
                        assert_eq!(
                            v,
                            k.0.wrapping_mul(31) ^ k.1,
                            "a racing insert must never surface a foreign value"
                        );
                    }
                });
            }
        });
        // Reference model: replay the same key universe single-threaded.
        let mut m: HashMap<K2, u32> = HashMap::new();
        for tid in 0..threads {
            let mut rng = SplitMix(0xACE0 + tid as u64);
            for _ in 0..20_000 {
                let r = rng.next();
                let k = K2((r % 401) as u32, ((r >> 9) % 127) as u32);
                m.entry(k).or_insert(k.0.wrapping_mul(31) ^ k.1);
            }
        }
        assert_eq!(t.len(), m.len(), "threads {threads}");
        let mut seen = 0usize;
        t.for_each(|k, v| {
            assert_eq!(m.get(k), Some(&v), "threads {threads}: foreign entry {k:?}");
            seen += 1;
        });
        assert_eq!(seen, m.len(), "threads {threads}");
        let occ: usize = t.shard_stats().iter().map(|s| s.len).sum();
        assert_eq!(occ, m.len(), "threads {threads}: shard occupancy drift");
    }
}

/// A full 2-way set must evict exactly one entry per conflicting insert
/// and count it; the aged (older) way is the victim.
#[test]
fn cache_eviction_is_counted_and_age_based() {
    let mut c = ComputedCache::with_max(16, 16);
    // Find three keys mapping to one set by brute force.
    let probe = ComputedCache::with_max(16, 16);
    let base = probe_set(&probe, 0);
    let mut same_set = vec![0u64];
    let mut k = 1u64;
    while same_set.len() < 3 {
        if probe_set(&probe, k) == base {
            same_set.push(k);
        }
        k += 1;
    }
    let (a, b, d) = (same_set[0], same_set[1], same_set[2]);
    c.insert(a, a, 1, 100); // way 0 (older after next insert)
    c.insert(b, b, 1, 200); // way 1
    assert_eq!(c.stats().evictions, 0);
    c.insert(d, d, 1, 300); // evicts a (the older way)
    assert_eq!(c.stats().evictions, 1);
    assert_eq!(c.get(a, a, 1), None, "oldest entry must be the victim");
    assert_eq!(c.get(b, b, 1), Some(200), "newer way must survive");
    assert_eq!(c.get(d, d, 1), Some(300));
}

/// Set index of key `(k, k, tag 1)` — mirrors the cache's internal
/// `set_base` (a fresh cache always starts from the default hasher).
fn probe_set(c: &ComputedCache, k: u64) -> usize {
    CantorHasher::new().hash3(k, k, 1) as usize & (c.capacity() / 2 - 1)
}

/// Epoch invalidation must kill every live entry at once, lazily, and be
/// counted — and the cache must keep working afterwards.
#[test]
fn cache_epoch_invalidation_drops_all_entries() {
    let mut c = ComputedCache::new(64);
    for i in 0..40u64 {
        c.insert(i, i * 3, 2, i + 7);
    }
    let live_before: usize = (0..40u64).filter(|&i| c.get(i, i * 3, 2).is_some()).count();
    assert!(live_before > 0);
    c.invalidate();
    assert_eq!(c.stats().invalidations, 1);
    for i in 0..40u64 {
        assert_eq!(
            c.get(i, i * 3, 2),
            None,
            "entry {i} survived the epoch bump"
        );
    }
    // Reinsertion under the new epoch works.
    c.insert(1, 2, 3, 4);
    assert_eq!(c.get(1, 2, 3), Some(4));
}

/// Stale-epoch slots must be reused silently (no eviction counted): after
/// an invalidation the cache is morally empty.
#[test]
fn stale_epoch_slots_are_not_evictions() {
    let mut c = ComputedCache::with_max(16, 16);
    for i in 0..100u64 {
        c.insert(i, i, 1, i);
    }
    let evictions_before = c.stats().evictions;
    c.invalidate();
    // One fresh key per set: every insert lands on a stale slot.
    let mut covered = std::collections::HashSet::new();
    let mut k = 200u64;
    while covered.len() < c.capacity() / 2 {
        if covered.insert(probe_set(&c, k)) {
            c.insert(k, k, 1, k);
        }
        k += 1;
    }
    // Overwriting stale entries is not an eviction of live data.
    assert_eq!(
        c.stats().evictions,
        evictions_before,
        "stale slots must be reused without counting evictions"
    );
}
