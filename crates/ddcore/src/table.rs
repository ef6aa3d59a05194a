//! The adaptive hash table backing the *unique tables* of both
//! decision-diagram packages (paper §IV-A1, §IV-A3).
//!
//! [`OpenTable`] is an open-addressed linear-probing table split
//! swiss-table-style into a dense control array of cached hashes and a
//! parallel inline key/value array, so a probe sequence is one compact
//! memory stream instead of a pointer chase. It follows the paper's
//! adaptive behaviour: it resizes on load (75%), and it rotates the
//! Cantor-pairing nesting order and reduction prime, then rehashes, when
//! the probe statistics stay poor. Deletion is tombstone-free at every
//! size: `remove` backward-shifts the displaced run after the hole, and
//! `retain` (the GC sweep) punches its holes and then repairs the whole
//! table in one anchored pass.

use crate::cantor::CantorHasher;
use crate::stats::TableStats;

/// Sentinel value held in the payload of empty slots.
pub const NIL: u32 = u32::MAX;

/// Keys stored in a unique table must expose Cantor-hashable content.
///
/// `Default` supplies the placeholder stored in empty open-addressed slots
/// (never read as a key); `Copy + Eq` are what probing needs.
pub trait TableKey: Copy + Eq + Default {
    /// Hash the key with the table's current hasher configuration.
    fn table_hash(&self, hasher: &CantorHasher) -> u64;
}

/// Marker bit keeping decorated hashes nonzero (`0` = empty slot in the
/// control array).
const HASH_TAG: u32 = 1 << 31;

/// An open-addressed linear-probing hash map `K -> u32` with Cantor-pairing
/// hashing and adaptive resize/rearrange behaviour.
///
/// Layout is split swiss-table-style into two parallel arrays:
///
/// * a dense **control array** of decorated 32-bit hashes (`0` = empty) —
///   the only memory a probe sequence touches until a hash matches, eight
///   or more slots per cache line;
/// * a **data array** of `(key, value)` pairs, read only to confirm a hash
///   match and written only on insert.
///
/// Misses therefore scan a compact stream, and the hot `get`-then-`insert`
/// pattern of `make_node` stays within one or two cache lines per table
/// touch. Every probe run is contiguous: no deletion leaves a tombstone.
///
/// ```
/// use ddcore::table::{OpenTable, TableKey};
/// use ddcore::cantor::CantorHasher;
///
/// #[derive(Clone, Copy, PartialEq, Eq, Default)]
/// struct Pair(u32, u32);
/// impl TableKey for Pair {
///     fn table_hash(&self, h: &CantorHasher) -> u64 {
///         h.hash2(self.0 as u64, self.1 as u64)
///     }
/// }
///
/// let mut t = OpenTable::new(4);
/// t.insert(Pair(1, 2), 42);
/// assert_eq!(t.get(&Pair(1, 2)), Some(42));
/// assert_eq!(t.get(&Pair(2, 1)), None);
/// ```
#[derive(Debug, Clone)]
pub struct OpenTable<K> {
    /// Decorated hash per slot; `0` marks the slot empty.
    ctrl: Vec<u32>,
    /// Key/value payload, parallel to `ctrl`; only meaningful where
    /// `ctrl != 0`.
    data: Vec<(K, u32)>,
    /// `ctrl.len() - 1`; capacity is always a power of two.
    mask: usize,
    len: usize,
    hasher: CantorHasher,
    stats: TableStats,
    probes_since_adapt: u64,
    lookups_since_adapt: u64,
    /// Reused survivor buffer for [`OpenTable::rebuild`], so repeated
    /// resizes and shrinking collections allocate nothing in steady state.
    scratch: Vec<(u32, K, u32)>,
}

impl<K: TableKey> Default for OpenTable<K> {
    fn default() -> Self {
        Self::new(64)
    }
}

impl<K: TableKey> OpenTable<K> {
    /// Probe length (per lookup) above which the table adapts. Probes scan
    /// only the dense control array, so the threshold tolerates the longer
    /// runs a 75% load implies and triggers only on genuine clustering.
    const ADAPT_PROBE_THRESHOLD: f64 = 6.0;
    /// Minimum lookups in a window before adaptation decisions are made.
    const ADAPT_WINDOW: u64 = 4096;

    /// Create a table with room for at least `initial_capacity` entries
    /// before the first resize.
    #[must_use]
    pub fn new(initial_capacity: usize) -> Self {
        let n = (initial_capacity.max(4) * 4 / 3).next_power_of_two().max(8);
        Self {
            ctrl: vec![0; n],
            data: vec![(K::default(), NIL); n],
            mask: n - 1,
            len: 0,
            hasher: CantorHasher::new(),
            stats: TableStats::default(),
            probes_since_adapt: 0,
            lookups_since_adapt: 0,
            scratch: Vec::new(),
        }
    }

    /// Number of key/value pairs stored.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the table holds no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Access the collision/access statistics.
    #[must_use]
    pub fn stats(&self) -> &TableStats {
        &self.stats
    }

    /// The hasher currently in use (exposed for diagnostics and benches).
    #[must_use]
    pub fn hasher(&self) -> &CantorHasher {
        &self.hasher
    }

    /// Decorate the (possibly 64-bit) Cantor hash into the nonzero 32-bit
    /// form cached in the control array. Cantor hashes are already
    /// `< m < 2^32`, so the fold is lossless for them.
    #[inline]
    fn fold(h: u64) -> u32 {
        ((h ^ (h >> 32)) as u32) | HASH_TAG
    }

    /// Home slot of a decorated hash: a Fibonacci multiply spreads the
    /// prime-bounded Cantor range over all power-of-two capacities (a bare
    /// modulo would leave slots beyond the prime permanently cold).
    #[inline]
    fn home(&self, h: u32) -> usize {
        (((h as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize) & self.mask
    }

    /// Look up `key`, returning the stored value if present.
    pub fn get(&mut self, key: &K) -> Option<u32> {
        let h = Self::fold(key.table_hash(&self.hasher));
        let mut i = self.home(h);
        let mut probes = 1u64;
        self.stats.lookups += 1;
        self.lookups_since_adapt += 1;
        loop {
            let c = self.ctrl[i];
            if c == 0 {
                break;
            }
            if c == h && self.data[i].0 == *key {
                self.stats.probes += probes;
                self.probes_since_adapt += probes;
                self.stats.hits += 1;
                return Some(self.data[i].1);
            }
            i = (i + 1) & self.mask;
            probes += 1;
        }
        self.stats.probes += probes;
        self.probes_since_adapt += probes;
        None
    }

    /// Read-only lookup: no statistics, no adaptation. This is the probe
    /// the parallel managers use against a *frozen* base table shared
    /// across worker threads (`&self` access is safe to run concurrently).
    #[must_use]
    pub fn peek(&self, key: &K) -> Option<u32> {
        let h = Self::fold(key.table_hash(&self.hasher));
        let mut i = self.home(h);
        loop {
            let c = self.ctrl[i];
            if c == 0 {
                return None;
            }
            if c == h && self.data[i].0 == *key {
                return Some(self.data[i].1);
            }
            i = (i + 1) & self.mask;
        }
    }

    /// Combined lookup-or-insert: probes once, calling `make` only on a
    /// miss and placing its value at the terminal empty slot. Equivalent to
    /// `get` followed by `insert`, but the key is hashed and the table
    /// probed a single time — the shape of `make_node`'s hot path.
    pub fn get_or_insert_with(&mut self, key: K, make: impl FnOnce() -> u32) -> u32 {
        // Growing up front keeps the terminal probe slot valid for the
        // insert; the wasted grow on a would-be hit is amortized away.
        self.maybe_grow();
        let h = Self::fold(key.table_hash(&self.hasher));
        let mut i = self.home(h);
        let mut probes = 1u64;
        self.stats.lookups += 1;
        self.lookups_since_adapt += 1;
        loop {
            let c = self.ctrl[i];
            if c == 0 {
                break;
            }
            if c == h && self.data[i].0 == key {
                self.stats.probes += probes;
                self.probes_since_adapt += probes;
                self.stats.hits += 1;
                return self.data[i].1;
            }
            i = (i + 1) & self.mask;
            probes += 1;
        }
        self.stats.probes += probes;
        self.probes_since_adapt += probes;
        let val = make();
        self.ctrl[i] = h;
        self.data[i] = (key, val);
        self.len += 1;
        self.maybe_adapt();
        val
    }

    /// Insert `key -> val`. The caller must ensure the key is not already
    /// present (unique-table discipline: always `get` first).
    pub fn insert(&mut self, key: K, val: u32) {
        self.maybe_grow();
        let h = Self::fold(key.table_hash(&self.hasher));
        self.insert_raw(h, key, val);
        self.len += 1;
        self.maybe_adapt();
    }

    /// First-come-first-served placement of a pre-hashed entry (no growth,
    /// no counting): the first empty slot on its probe path.
    #[inline]
    fn insert_raw(&mut self, h: u32, key: K, val: u32) {
        let mut i = self.home(h);
        while self.ctrl[i] != 0 {
            i = (i + 1) & self.mask;
        }
        self.ctrl[i] = h;
        self.data[i] = (key, val);
    }

    /// Remove `key`, returning its value if it was present. The displaced
    /// run following the hole is backward-shifted at once, so no tombstone
    /// is left behind.
    pub fn remove(&mut self, key: &K) -> Option<u32> {
        let h = Self::fold(key.table_hash(&self.hasher));
        let mut i = self.home(h);
        loop {
            let c = self.ctrl[i];
            if c == 0 {
                return None;
            }
            if c == h && self.data[i].0 == *key {
                break;
            }
            i = (i + 1) & self.mask;
        }
        let val = self.data[i].1;
        self.len -= 1;
        self.backward_shift(i);
        Some(val)
    }

    /// Growth gate for the insert paths: double the capacity before an
    /// insert would push the load factor past 75%.
    #[inline]
    fn maybe_grow(&mut self) {
        if (self.len + 1) * 4 > self.ctrl.len() * 3 {
            self.rebuild(self.ctrl.len() * 2, false);
            self.stats.resizes += 1;
        }
    }

    /// Close the hole at `i` by relocating every later entry of the
    /// contiguous run whose probe path crosses the hole (Knuth's
    /// tombstone-free deletion for linear probing). The scan must continue
    /// past entries that sit at their home: an entry further down the run
    /// may still hash before the hole.
    fn backward_shift(&mut self, mut i: usize) {
        let mut j = i;
        loop {
            j = (j + 1) & self.mask;
            let c = self.ctrl[j];
            if c == 0 {
                break;
            }
            // Move `j`'s entry into the hole iff its home is cyclically
            // outside (i, j] — i.e. its probe path reaches `j` only
            // through `i`.
            let hole_dist = j.wrapping_sub(i) & self.mask;
            let displacement = j.wrapping_sub(self.home(c)) & self.mask;
            if displacement >= hole_dist {
                self.ctrl[i] = c;
                self.data[i] = self.data[j];
                i = j;
            }
        }
        self.ctrl[i] = 0;
        self.data[i] = (K::default(), NIL);
    }

    /// Keep only the entries for which `keep(key, value)` holds
    /// (garbage-collection sweep), in place and judging each entry exactly
    /// once: pass 1 punches holes, pass 2 restores probe-path reachability
    /// by sliding displaced survivors back toward their homes — no
    /// copying, no rehashing, and a sweep that removes nothing writes
    /// nothing. Shrinks the table when occupancy has dropped far below
    /// capacity.
    pub fn retain(&mut self, mut keep: impl FnMut(&K, u32) -> bool) {
        // A collection visits every subtable; empty ones must cost
        // nothing rather than a full control-array scan.
        if self.len == 0 {
            return;
        }
        // The anchor must be a slot that is empty *before* any hole is
        // punched, so that no entry's original probe path wraps across it;
        // one always exists because load is capped at 75%.
        let anchor = self
            .ctrl
            .iter()
            .position(|&c| c == 0)
            .expect("open table is never full");
        // Pass 1: judge every entry exactly once, punching holes in place,
        // stopping as soon as all `len` live entries have been judged (the
        // control tail past the last entry is never touched). A sweep that
        // removes nothing ends here, having written nothing.
        let mut dead = 0usize;
        let mut judged = 0usize;
        let live = self.len;
        for (c, kv) in self.ctrl.iter_mut().zip(&self.data) {
            if *c != 0 {
                if !keep(&kv.0, kv.1) {
                    *c = 0;
                    dead += 1;
                }
                judged += 1;
                if judged == live {
                    break;
                }
            }
        }
        if dead == 0 {
            return;
        }
        self.len -= dead;
        let mut target = self.ctrl.len();
        while target > 16 && self.len * 8 < target {
            target /= 2;
        }
        if target < self.ctrl.len() {
            // Occupancy collapsed: shrink (entries are already judged —
            // this just compacts).
            self.rebuild(target, false);
            return;
        }
        // Pass 2: repair reachability in place. Visiting slots in anchored
        // cyclic order, move each survivor back to the first empty slot on
        // its probe path (its FCFS position under current occupancy).
        // Because original probe paths never cross the anchor, any slot a
        // move vacates lies strictly after every already-repaired entry's
        // path, so repaired entries stay reachable.
        for k in 1..=self.ctrl.len() {
            let i = (anchor + k) & self.mask;
            let c = self.ctrl[i];
            if c == 0 {
                continue;
            }
            let mut j = self.home(c);
            while j != i && self.ctrl[j] != 0 {
                j = (j + 1) & self.mask;
            }
            if j != i {
                self.ctrl[j] = c;
                self.data[j] = self.data[i];
                self.ctrl[i] = 0;
            }
        }
    }

    /// Iterate over all `(key, value)` pairs (order unspecified).
    pub fn for_each(&self, mut f: impl FnMut(&K, u32)) {
        let mut seen = 0usize;
        for (c, kv) in self.ctrl.iter().zip(&self.data) {
            if *c != 0 {
                f(&kv.0, kv.1);
                seen += 1;
                if seen == self.len {
                    break;
                }
            }
        }
    }

    /// Collect all stored values.
    #[must_use]
    pub fn values(&self) -> Vec<u32> {
        let mut out = Vec::with_capacity(self.len);
        self.for_each(|_, v| out.push(v));
        out
    }

    /// Drop all entries, keeping allocation and hasher configuration.
    pub fn clear(&mut self) {
        self.ctrl.fill(0);
        self.len = 0;
    }

    /// The adaptive step: if the average probe length in the current
    /// window exceeds the threshold, rotate the hash arrangement / prime
    /// and rehash every key (paper §IV-A3: "the hash-function is
    /// automatically modified to re-arrange the elements in the table").
    fn maybe_adapt(&mut self) {
        if self.lookups_since_adapt < Self::ADAPT_WINDOW {
            return;
        }
        let avg = self.probes_since_adapt as f64 / self.lookups_since_adapt as f64;
        self.probes_since_adapt = 0;
        self.lookups_since_adapt = 0;
        if avg > Self::ADAPT_PROBE_THRESHOLD {
            self.hasher.rearrange();
            self.rebuild(self.ctrl.len(), true);
            self.stats.rearrangements += 1;
        }
    }

    /// Re-place every live entry into `capacity` empty slots (grow, shrink
    /// or rearrange), through the reused scratch buffer. With `rehash` the
    /// decorated hashes are recomputed under the current hasher; otherwise
    /// the cached ones are kept.
    fn rebuild(&mut self, capacity: usize, rehash: bool) {
        let mut live = std::mem::take(&mut self.scratch);
        live.clear();
        live.extend(
            self.ctrl
                .iter()
                .zip(&self.data)
                .filter(|(&c, _)| c != 0)
                .map(|(&c, &(k, v))| (c, k, v)),
        );
        debug_assert_eq!(live.len(), self.len);
        if rehash {
            for e in &mut live {
                e.0 = Self::fold(e.1.table_hash(&self.hasher));
            }
        }
        let capacity = capacity.max(8).next_power_of_two();
        self.ctrl.clear();
        self.ctrl.resize(capacity, 0);
        // The control array gates every read of `data`, so stale payloads
        // are harmless: only the newly appended region needs initializing,
        // which keeps a growth step from memsetting the whole payload
        // array inside someone's timed hot path.
        self.data.resize(capacity, (K::default(), NIL));
        self.mask = capacity - 1;
        for (h, k, v) in live.drain(..) {
            self.insert_raw(h, k, v);
        }
        self.scratch = live;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
    struct K3(u32, u32, u32);
    impl TableKey for K3 {
        fn table_hash(&self, h: &CantorHasher) -> u64 {
            h.hash3(self.0 as u64, self.1 as u64, self.2 as u64)
        }
    }

    /// The linear-probing invariant every lookup relies on: no empty slot
    /// lies between a live entry's home and the slot it occupies, and the
    /// control array holds exactly `len` live entries.
    fn assert_runs_contiguous<K: TableKey>(t: &OpenTable<K>) {
        let mut live = 0;
        for (i, &c) in t.ctrl.iter().enumerate() {
            if c == 0 {
                continue;
            }
            live += 1;
            let mut j = t.home(c);
            while j != i {
                assert_ne!(t.ctrl[j], 0, "slot {i}: empty slot {j} on its probe path");
                j = (j + 1) & t.mask;
            }
        }
        assert_eq!(live, t.len(), "control array disagrees with len");
    }

    #[test]
    fn open_retain_sparse_deaths_keeps_survivors_reachable() {
        // Repeated sweeps each killing a small pseudo-random subset — a
        // collection that frees a few nodes — go through the whole-table
        // repair and must leave every survivor reachable, including
        // entries whose probe runs contained several holes.
        let mut t: OpenTable<K3> = OpenTable::new(256);
        let mut live: std::collections::HashSet<u32> = (0..500u32).collect();
        for i in 0..500u32 {
            t.insert(K3(i, i.wrapping_mul(2654435761), i ^ 0xABCD), i);
        }
        let mut state = 0x5EEDu64;
        for round in 0..200 {
            // Kill ~1% per sweep.
            let mut killed: Vec<u32> = Vec::new();
            t.retain(|_, v| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(round as u64);
                if state >> 57 == 0 && killed.len() < 8 {
                    killed.push(v);
                    false
                } else {
                    true
                }
            });
            for v in killed {
                live.remove(&v);
            }
            assert_eq!(t.len(), live.len(), "round {round}");
            assert_runs_contiguous(&t);
            for &i in &live {
                assert_eq!(
                    t.get(&K3(i, i.wrapping_mul(2654435761), i ^ 0xABCD)),
                    Some(i),
                    "round {round}: survivor {i} lost"
                );
            }
        }
        assert!(
            !live.is_empty(),
            "the sweeps must not have killed everything"
        );
        assert!(live.len() < 500, "the sweeps must have killed something");
    }

    #[test]
    fn remove_and_reinsert_churn_keeps_runs_contiguous() {
        // Sift-shaped churn: remove a live key and insert a fresh one (the
        // node's tuple changed), now and then kill a few in a sweep and
        // refill. Every step must keep the probe invariant; backward shift
        // may not strand any entry.
        let mut t: OpenTable<K3> = OpenTable::new(64);
        let mut live: Vec<u32> = (0..90u32).collect();
        for &i in &live {
            t.insert(K3(i, i * 3, i ^ 1), i);
        }
        let mut next = 90u32;
        let mut state = 0xC0FFEEu64;
        for round in 0..2000u32 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let slot = (state >> 33) as usize % live.len();
            let i = live[slot];
            assert_eq!(t.remove(&K3(i, i * 3, i ^ 1)), Some(i), "round {round}");
            assert_runs_contiguous(&t);
            assert_eq!(
                t.get_or_insert_with(K3(next, next * 3, next ^ 1), || next),
                next
            );
            live[slot] = next;
            next += 1;
            if round % 97 == 0 {
                t.retain(|_, v| v % 11 != round % 11);
                live.retain(|v| v % 11 != round % 11);
                while live.len() < 90 {
                    t.insert(K3(next, next * 3, next ^ 1), next);
                    live.push(next);
                    next += 1;
                }
            }
            assert_eq!(t.len(), live.len(), "round {round}");
            assert_runs_contiguous(&t);
        }
        for &i in &live {
            assert_eq!(t.get(&K3(i, i * 3, i ^ 1)), Some(i));
        }
    }

    #[test]
    fn retain_shrinks_when_occupancy_collapses() {
        let mut t: OpenTable<K3> = OpenTable::new(4);
        for i in 0..4000u32 {
            t.insert(K3(i, 2, i), i);
        }
        let before = t.ctrl.len();
        t.retain(|_, v| v % 100 == 0);
        assert_eq!(t.len(), 40);
        assert!(t.ctrl.len() < before / 8, "{} slots left", t.ctrl.len());
        assert_runs_contiguous(&t);
        for i in 0..4000u32 {
            let want = (i % 100 == 0).then_some(i);
            assert_eq!(t.get(&K3(i, 2, i)), want, "key {i}");
        }
    }

    #[test]
    fn retain_that_kills_nothing_writes_nothing() {
        let mut t: OpenTable<K3> = OpenTable::new(64);
        for i in 0..40u32 {
            t.insert(K3(i, 0, 7), i);
        }
        let ctrl = t.ctrl.clone();
        let mut judged = 0;
        t.retain(|_, _| {
            judged += 1;
            true
        });
        assert_eq!(judged, 40, "each entry is judged exactly once");
        assert_eq!(t.ctrl, ctrl);
        assert_eq!(t.len(), 40);
    }

    #[test]
    fn get_or_insert_with_calls_make_only_on_miss() {
        let mut t: OpenTable<K3> = OpenTable::new(4);
        let mut made = 0;
        for round in 0..3 {
            for i in 0..300u32 {
                let v = t.get_or_insert_with(K3(i, 1, 1), || {
                    made += 1;
                    i + 5
                });
                assert_eq!(v, i + 5, "round {round} key {i}");
            }
        }
        assert_eq!(made, 300);
        assert_eq!(t.len(), 300);
        assert_eq!(t.stats().hits, 600);
    }

    #[test]
    fn peek_matches_get() {
        let mut t: OpenTable<K3> = OpenTable::new(32);
        for i in 0..200u32 {
            t.insert(K3(i, 5, i), i + 7);
        }
        t.remove(&K3(3, 5, 3));
        for i in 0..210u32 {
            let want = (i < 200 && i != 3).then_some(i + 7);
            assert_eq!(t.peek(&K3(i, 5, i)), want, "key {i}");
        }
        let lookups_before = t.stats().lookups;
        let _ = t.peek(&K3(0, 5, 0));
        assert_eq!(t.stats().lookups, lookups_before, "peek counts nothing");
    }

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut t: OpenTable<K3> = OpenTable::new(4);
        for i in 0..1000u32 {
            t.insert(K3(i, i * 7, i ^ 3), i);
        }
        assert_eq!(t.len(), 1000);
        for i in 0..1000u32 {
            assert_eq!(t.get(&K3(i, i * 7, i ^ 3)), Some(i));
        }
        assert_eq!(t.get(&K3(5, 5, 5)), None);
        for i in (0..1000u32).step_by(2) {
            assert_eq!(t.remove(&K3(i, i * 7, i ^ 3)), Some(i));
        }
        assert_eq!(t.len(), 500);
        for i in 0..1000u32 {
            let expect = if i % 2 == 0 { None } else { Some(i) };
            assert_eq!(t.get(&K3(i, i * 7, i ^ 3)), expect);
        }
    }

    #[test]
    fn retain_sweeps_like_gc() {
        let mut t: OpenTable<K3> = OpenTable::new(4);
        for i in 0..256u32 {
            t.insert(K3(i, 0, 0), i);
        }
        t.retain(|_, v| v % 3 == 0);
        assert_eq!(t.len(), (0..256).filter(|v| v % 3 == 0).count());
        assert_eq!(t.get(&K3(3, 0, 0)), Some(3));
        assert_eq!(t.get(&K3(4, 0, 0)), None);
        // freed slots must be reusable
        for i in 1000..1100u32 {
            t.insert(K3(i, 1, 1), i);
        }
        assert_eq!(t.get(&K3(1050, 1, 1)), Some(1050));
    }

    #[test]
    fn grows_under_load() {
        let mut t: OpenTable<K3> = OpenTable::new(4);
        for i in 0..10_000u32 {
            t.insert(K3(i, i, i), i);
        }
        assert!(t.stats().resizes > 5);
        for i in 0..10_000u32 {
            assert_eq!(t.get(&K3(i, i, i)), Some(i));
        }
    }

    #[test]
    fn rearrangement_preserves_contents() {
        let mut t: OpenTable<K3> = OpenTable::new(4);
        for i in 0..512u32 {
            t.insert(K3(i, 1, 2), i);
        }
        // Force a rearrangement manually through the public path: hammer
        // lookups of missing keys to inflate the probe window, then insert.
        for _ in 0..2 {
            for i in 0..5000u32 {
                let _ = t.get(&K3(i + 100_000, 9, 9));
            }
            t.insert(K3(1_000_000 + t.len() as u32, 3, 4), 7);
        }
        for i in 0..512u32 {
            assert_eq!(t.get(&K3(i, 1, 2)), Some(i), "key {i} lost");
        }
    }

    #[test]
    fn clear_empties_table() {
        let mut t: OpenTable<K3> = OpenTable::new(4);
        for i in 0..100u32 {
            t.insert(K3(i, 2, 3), i);
        }
        t.clear();
        assert!(t.is_empty());
        assert_eq!(t.get(&K3(1, 2, 3)), None);
        t.insert(K3(1, 2, 3), 9);
        assert_eq!(t.get(&K3(1, 2, 3)), Some(9));
    }

    #[test]
    fn values_and_for_each_enumerate_all() {
        let mut t: OpenTable<K3> = OpenTable::new(4);
        for i in 0..50u32 {
            t.insert(K3(i, 0, 1), i + 100);
        }
        let mut vals = t.values();
        vals.sort_unstable();
        assert_eq!(vals, (100..150).collect::<Vec<_>>());
    }
}
