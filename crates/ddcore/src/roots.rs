//! The external-root registry behind the managers' owned function handles.
//!
//! A decision-diagram package whose GC and reordering entry points take a
//! caller-maintained `roots: &[Edge]` list invites exactly one bug, over
//! and over: a caller forgets one live function, a collection runs, and a
//! perfectly good node is reclaimed out from under an edge somebody still
//! holds. Production packages (CUDD, HermesBDD) solve this structurally:
//! functions are handed out as *reference-counted handles*, and the
//! collector discovers its own roots from the handle registry.
//!
//! [`RootSet`] is that registry: a slab of refcounted slots, each holding
//! the packed bits of one externally-held edge. The managers own one
//! `RootSet` each and clone it into every handle they hand out
//! (`bbdd::BbddFn` / `robdd::RobddFn`); handle `Clone` bumps the slot's
//! refcount, handle `Drop` releases it. `gc()`/`sift()` trace from a
//! [`RootSet::snapshot`] instead of a caller-supplied list.
//!
//! ## Locking & reentrancy rule
//!
//! The slab sits behind one `Mutex` shared by the manager and all handles.
//! The lock is held only for O(1) slot updates and for the O(live-slots)
//! snapshot copy — **never across a mark/sweep**. A handle dropped while a
//! GC is tracing therefore cannot deadlock; at worst its nodes survive
//! until the next collection (the snapshot is a conservative
//! over-approximation of liveness, which is always safe). All registry
//! operations recover from mutex poisoning (`Drop` must never panic), and
//! every slot update is trivially panic-free, so a poisoned registry lock
//! cannot leave the slab inconsistent.

use std::sync::{Arc, Mutex, PoisonError};

/// The automatic-GC latch shared by both managers: growth points *arm* a
/// pending flag when the live count crosses the trigger; the collection
/// itself runs at a handle boundary (never mid-operation, where raw edges
/// the registry knows nothing about are in flight). After a collection
/// the trigger re-arms at twice the surviving size, never below the
/// configured threshold, so steady-state traffic is not GC-bound.
#[derive(Debug, Default)]
pub struct GcLatch {
    /// Live-node threshold arming the latch (0 = disabled).
    threshold: usize,
    /// Next live-node count at which the latch arms.
    arm: usize,
    /// Latched "collect at the next handle boundary" flag.
    pending: bool,
    /// Collections run through any path, monotonic — lets wrappers with
    /// their own id-keyed caches (the Par front-ends) detect that node
    /// ids may have been recycled since they last looked.
    generation: u64,
    /// Latch firings handed out by [`GcLatch::take_pending`], monotonic.
    fired: u64,
}

impl GcLatch {
    /// Set the arming threshold (`0` disables and clears any pending
    /// latch).
    pub fn set_threshold(&mut self, threshold: usize) {
        self.threshold = threshold;
        self.arm = threshold;
        if threshold == 0 {
            self.pending = false;
        }
    }

    /// The configured threshold (`0` = disabled).
    #[must_use]
    pub fn threshold(&self) -> usize {
        self.threshold
    }

    /// Called at node-creation growth points with the current live count.
    #[inline]
    pub fn note_growth(&mut self, live: usize) {
        if self.threshold > 0 && live >= self.arm {
            self.pending = true;
        }
    }

    /// Take the pending flag; the caller must collect iff `true`, then
    /// call [`GcLatch::rearm`] with the post-collection live count.
    #[must_use]
    pub fn take_pending(&mut self) -> bool {
        let fired = std::mem::take(&mut self.pending);
        if fired {
            self.fired = self.fired.wrapping_add(1);
        }
        fired
    }

    /// Re-arm after a collection at `max(threshold, 2 × live)`.
    pub fn rearm(&mut self, live: usize) {
        self.arm = (live * 2).max(self.threshold);
    }

    /// Record that a collection ran (any path — latched or explicit).
    pub fn note_collection(&mut self) {
        self.generation = self.generation.wrapping_add(1);
    }

    /// Monotonic count of collections; node ids may be recycled whenever
    /// this changes.
    #[must_use]
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Monotonic count of latch firings — how many times
    /// [`GcLatch::take_pending`] handed a pending trigger to the caller
    /// (the `gc.latch_firings` metric).
    #[must_use]
    pub fn firings(&self) -> u64 {
        self.fired
    }
}

/// Exact per-node reference counts, kept only while a reorder runs.
///
/// Both packages store nodes in an arena of `u32` ids with the sink at id
/// 0. A node's count is the number of stored child edges pointing at it
/// plus the registry roots on it; the sink is never counted. With the
/// counts up, a level swap frees each node the moment its count reaches
/// zero, so the stored forest *is* the live forest after every move and
/// the sifting engine reads an exact size without collecting. Outside a
/// reorder the counts are dropped (empty), and node creation on the apply
/// path never touches them.
///
/// ```
/// use ddcore::roots::RefCounts;
/// let mut rc = RefCounts::default();
/// assert!(!rc.is_active());
/// rc.start(3, [1]); // node 1 is a root
/// rc.inc(2); // node 1 → node 2
/// assert!(rc.is_active());
/// assert!(rc.dec(2), "node 2 is dead once its only parent lets go");
/// assert!(!rc.dec(0), "the sink is never counted");
/// rc.stop();
/// assert!(!rc.is_active());
/// ```
#[derive(Debug, Clone, Default)]
pub struct RefCounts {
    /// Count per node id; empty while no reorder runs.
    counts: Vec<u32>,
    /// The root ids counted at bring-up (what the exactness check traces
    /// from).
    roots: Vec<u32>,
}

impl RefCounts {
    /// Are the counts up?
    #[inline]
    #[must_use]
    pub fn is_active(&self) -> bool {
        !self.counts.is_empty()
    }

    /// Bring the counts up over an arena of `slots` ids, counting one
    /// reference per entry of `roots`. The caller then counts every stored
    /// child edge with [`RefCounts::inc`].
    pub fn start(&mut self, slots: usize, roots: impl IntoIterator<Item = u32>) {
        self.counts.clear();
        self.counts.resize(slots.max(1), 0);
        self.roots.clear();
        self.roots.extend(roots);
        for i in 0..self.roots.len() {
            let r = self.roots[i];
            self.inc(r);
        }
    }

    /// Drop the counts.
    pub fn stop(&mut self) {
        self.counts = Vec::new();
        self.roots = Vec::new();
    }

    /// One more reference to `id` (a node created after bring-up starts
    /// at zero).
    #[inline]
    pub fn inc(&mut self, id: u32) {
        if id == 0 {
            return;
        }
        let i = id as usize;
        if i >= self.counts.len() {
            self.counts.resize(i + 1, 0);
        }
        self.counts[i] += 1;
    }

    /// One reference to `id` fewer; `true` when that was the last one.
    #[inline]
    pub fn dec(&mut self, id: u32) -> bool {
        if id == 0 {
            return false;
        }
        let c = &mut self.counts[id as usize];
        debug_assert!(*c > 0, "reference count of node {id} underflows");
        *c -= 1;
        *c == 0
    }

    /// The current count of `id`.
    #[inline]
    #[must_use]
    pub fn get(&self, id: u32) -> u32 {
        self.counts.get(id as usize).copied().unwrap_or(0)
    }

    /// The exactness oracle: recount every reference from scratch over the
    /// `stored` nodes (`children` gives a node's two child ids, 0 for a
    /// constant) and the bring-up roots, compare with the maintained
    /// counts, and mark from the roots — every stored node must be
    /// reached, so the stored count is the exact live count. Linear in the
    /// forest; the managers run it under `debug_assert!` on every
    /// live-count read of a reorder. `Ok` while the counts are down.
    ///
    /// # Errors
    /// A description of the first mismatch.
    pub fn check_exact(
        &self,
        stored: &[u32],
        children: impl Fn(u32) -> [u32; 2],
    ) -> Result<(), String> {
        if !self.is_active() {
            return Ok(());
        }
        let slots = stored
            .iter()
            .chain(&self.roots)
            .map(|&id| id as usize + 1)
            .max()
            .unwrap_or(1);
        let mut fresh = vec![0u32; slots];
        let mut is_stored = vec![false; slots];
        for &id in stored {
            is_stored[id as usize] = true;
            for c in children(id) {
                if c != 0 {
                    fresh[c as usize] += 1;
                }
            }
        }
        for &r in &self.roots {
            if r != 0 {
                fresh[r as usize] += 1;
            }
        }
        for &id in stored {
            let (want, have) = (fresh[id as usize], self.get(id));
            if want != have {
                return Err(format!("node {id} has {want} references but counts {have}"));
            }
        }
        let mut reached = vec![false; slots];
        let mut stack: Vec<u32> = self.roots.iter().copied().filter(|&r| r != 0).collect();
        let mut live = 0usize;
        while let Some(id) = stack.pop() {
            if std::mem::replace(&mut reached[id as usize], true) {
                continue;
            }
            if !is_stored[id as usize] {
                return Err(format!("reachable node {id} is not stored"));
            }
            live += 1;
            stack.extend(children(id).into_iter().filter(|&c| c != 0));
        }
        if live != stored.len() {
            return Err(format!(
                "{} nodes stored but {live} reachable from the roots",
                stored.len()
            ));
        }
        Ok(())
    }
}

/// The slab: parallel refcount/bits arrays plus a free list.
#[derive(Debug, Default)]
struct Slab {
    /// Reference count per slot; 0 marks a free slot.
    refs: Vec<u32>,
    /// Packed edge bits per slot (meaningful only while `refs > 0`).
    bits: Vec<u64>,
    /// Indices of free slots, reused LIFO.
    free: Vec<u32>,
    /// Cumulative registry traffic (the `roots.*` metrics): slots
    /// registered, refcount bumps, and reference drops.
    registered: u64,
    retained: u64,
    released: u64,
}

/// A shared registry of externally-held roots (see the module docs).
///
/// Cloning a `RootSet` clones the *handle to the registry*, not the
/// registry: all clones address the same slab.
///
/// ```
/// use ddcore::roots::RootSet;
/// let roots = RootSet::new();
/// let slot = roots.register(42);
/// roots.retain(slot);
/// assert_eq!(roots.snapshot(), vec![42]);
/// assert_eq!(roots.len(), 1);
/// roots.release(slot);
/// roots.release(slot); // refcount reaches 0: the slot is freed
/// assert!(roots.is_empty());
/// ```
#[derive(Debug, Clone, Default)]
pub struct RootSet {
    slab: Arc<Mutex<Slab>>,
}

impl RootSet {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        RootSet::default()
    }

    #[inline]
    fn lock(&self) -> std::sync::MutexGuard<'_, Slab> {
        // Slot updates cannot panic midway, so a poisoned slab is still
        // consistent; recover rather than cascade (Drop must not panic).
        self.slab.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Register `bits` as a live root with refcount 1; returns the slot.
    #[must_use]
    pub fn register(&self, bits: u64) -> u32 {
        let mut s = self.lock();
        s.registered += 1;
        if let Some(slot) = s.free.pop() {
            s.refs[slot as usize] = 1;
            s.bits[slot as usize] = bits;
            slot
        } else {
            s.refs.push(1);
            s.bits.push(bits);
            u32::try_from(s.refs.len() - 1).expect("root slab exceeds u32 slots")
        }
    }

    /// Bump the refcount of a live slot (handle `Clone`).
    ///
    /// # Panics
    /// Panics if the slot is free (a refcounting bug in the caller).
    pub fn retain(&self, slot: u32) {
        let mut s = self.lock();
        assert!(s.refs[slot as usize] > 0, "retain of a free root slot");
        s.refs[slot as usize] += 1;
        s.retained += 1;
    }

    /// Drop one reference to a slot, freeing it when the count reaches 0
    /// (handle `Drop`). Never panics on a poisoned lock.
    pub fn release(&self, slot: u32) {
        let mut s = self.lock();
        let r = &mut s.refs[slot as usize];
        debug_assert!(*r > 0, "release of a free root slot");
        *r -= 1;
        if *r == 0 {
            s.free.push(slot);
        }
        s.released += 1;
    }

    /// Number of live (registered, not yet fully released) slots.
    #[must_use]
    pub fn len(&self) -> usize {
        let s = self.lock();
        s.refs.len() - s.free.len()
    }

    /// `true` when no external root is registered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Append the bits of every live slot to `out` (the GC root snapshot).
    /// Duplicates are *not* removed — the mark phase handles them.
    pub fn snapshot_into(&self, out: &mut Vec<u64>) {
        let s = self.lock();
        for (i, &r) in s.refs.iter().enumerate() {
            if r > 0 {
                out.push(s.bits[i]);
            }
        }
    }

    /// The bits of every live slot (see [`RootSet::snapshot_into`]).
    #[must_use]
    pub fn snapshot(&self) -> Vec<u64> {
        let mut out = Vec::with_capacity(self.len());
        self.snapshot_into(&mut out);
        out
    }

    /// Cumulative registry traffic as `(registered, retained, released)`
    /// — slot creations, refcount bumps, and reference drops since the
    /// registry was created (the `roots.*` metrics section).
    #[must_use]
    pub fn traffic(&self) -> (u64, u64, u64) {
        let s = self.lock();
        (s.registered, s.retained, s.released)
    }

    /// Register `bits` and return an RAII guard releasing the slot on
    /// drop — the low-level pin behind the managers' `pin(edge)` methods
    /// (the owned-handle layer in `ddcore::api` adds manager access and
    /// refcounted cloning on top of the same slot mechanism).
    #[must_use]
    pub fn guard(&self, bits: u64) -> RootGuard {
        RootGuard {
            slot: self.register(bits),
            roots: self.clone(),
        }
    }

    /// Pin a whole edge set at once (a published function library entering
    /// a session overlay); one guard per edge, released independently.
    #[must_use]
    pub fn guard_many(&self, bits: impl IntoIterator<Item = u64>) -> Vec<RootGuard> {
        bits.into_iter().map(|b| self.guard(b)).collect()
    }
}

/// An RAII pin of one registered root slot (see [`RootSet::guard`]).
#[derive(Debug)]
pub struct RootGuard {
    slot: u32,
    roots: RootSet,
}

impl Drop for RootGuard {
    fn drop(&mut self) {
        self.roots.release(self.slot);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ref_count_oracle_flags_wrong_counts_and_dead_nodes() {
        // Root 1 → {2, 3}, 2 → {3, sink}; node 4 has no parent.
        let kids = |id: u32| match id {
            1 => [2, 3],
            2 => [3, 0],
            _ => [0, 0],
        };
        let mut rc = RefCounts::default();
        rc.start(5, [1]);
        for id in [1, 2, 3] {
            for c in kids(id) {
                rc.inc(c);
            }
        }
        assert_eq!(rc.get(3), 2);
        assert_eq!(rc.check_exact(&[1, 2, 3], kids), Ok(()));
        let dead = rc.check_exact(&[1, 2, 3, 4], kids).unwrap_err();
        assert!(dead.contains("4 nodes stored but 3 reachable"), "{dead}");
        rc.inc(3);
        let wrong = rc.check_exact(&[1, 2, 3], kids).unwrap_err();
        assert!(wrong.contains("node 3"), "{wrong}");
    }

    #[test]
    fn register_retain_release_lifecycle() {
        let r = RootSet::new();
        let a = r.register(10);
        let b = r.register(20);
        assert_eq!(r.len(), 2);
        r.retain(a);
        r.release(a);
        assert_eq!(r.len(), 2, "refcount 1 remains");
        let mut snap = r.snapshot();
        snap.sort_unstable();
        assert_eq!(snap, vec![10, 20]);
        r.release(a);
        assert_eq!(r.len(), 1);
        r.release(b);
        assert!(r.is_empty());
        assert!(r.snapshot().is_empty());
    }

    #[test]
    fn slots_are_reused_after_release() {
        let r = RootSet::new();
        let a = r.register(1);
        r.release(a);
        let b = r.register(2);
        assert_eq!(a, b, "freed slots are recycled");
        assert_eq!(r.snapshot(), vec![2]);
        r.release(b);
    }

    #[test]
    fn clones_share_the_slab() {
        let r = RootSet::new();
        let r2 = r.clone();
        let a = r.register(7);
        assert_eq!(r2.snapshot(), vec![7]);
        r2.release(a);
        assert!(r.is_empty());
    }

    #[test]
    fn concurrent_register_release_is_consistent() {
        let r = RootSet::new();
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let r = r.clone();
                s.spawn(move || {
                    for i in 0..1000 {
                        let slot = r.register(t * 10_000 + i);
                        r.retain(slot);
                        r.release(slot);
                        r.release(slot);
                    }
                });
            }
        });
        assert!(r.is_empty(), "every slot fully released");
    }
}
