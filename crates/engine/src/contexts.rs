//! A pool of warm scope contexts, shared across engines.
//!
//! Building a [`ScopeContext`] asserts and saturates a scope's background
//! axioms — by far the most expensive fixed cost of an obligation. Within
//! one `Checker::check_all` run that cost is amortized by each worker
//! reusing its context; this pool amortizes it across *runs*: a resident
//! process (`oolong serve`) keeps contexts warm between requests, so a
//! re-verification of an edited implementation pays only for its own
//! trail frame, not for background saturation.
//!
//! Keys are stable 128-bit hashes over everything a context's behaviour
//! depends on: the background formula list (in order), the activation
//! phases, the prover budget, and the search strategy. Entries are `Arc<Mutex<…>>` slots, so
//! a context is only ever driven by one thread at a time while the pool
//! itself stays contention-free; eviction (LRU, bounded capacity) merely
//! drops the pool's reference — a checked-out context survives until its
//! borrower finishes.

use oolong_logic::{Formula, Phase, StableHasher};
use oolong_prover::{Budget, ScopeContext, SearchStrategy};
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Default number of warm contexts a pool retains.
pub const DEFAULT_CONTEXT_CAPACITY: usize = 64;

/// The stable identity of a scope context: background + activation
/// phases + budget + strategy. Two obligations with equal keys can share a
/// context. The phase list is part of the identity because it determines
/// what the context pre-saturated: the same formulas under different
/// phases hold different E-graphs.
pub fn context_key(
    background: &[Formula],
    phases: &[Phase],
    budget: &Budget,
    strategy: SearchStrategy,
) -> u128 {
    let mut hasher = StableHasher::new();
    background.hash(&mut hasher);
    // Byte-stable phase mask (see `fingerprint_vc`): one bool per axiom.
    let mask: Vec<bool> = phases.iter().map(|&p| p == Phase::GoalDirected).collect();
    mask.hash(&mut hasher);
    budget.hash(&mut hasher);
    strategy.hash(&mut hasher);
    hasher.finish128()
}

/// A slot holding one (lazily built) scope context.
pub type ContextSlot = Arc<Mutex<Option<ScopeContext>>>;

/// Usage counters for a [`ContextPool`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ContextPoolMetrics {
    /// Checkouts that found a warm slot.
    pub hits: u64,
    /// Checkouts that created a fresh slot.
    pub misses: u64,
    /// Slots dropped to respect the capacity bound.
    pub evictions: u64,
    /// Slots currently retained.
    pub size: usize,
}

#[derive(Debug, Default)]
struct PoolInner {
    /// Key → slot. Recency is tracked by `order` (least recent first).
    slots: HashMap<u128, ContextSlot>,
    order: Vec<u128>,
}

/// A bounded, thread-safe LRU pool of scope contexts.
#[derive(Debug)]
pub struct ContextPool {
    capacity: usize,
    inner: Mutex<PoolInner>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl ContextPool {
    /// A pool retaining at most `capacity` contexts (at least one).
    pub fn with_capacity(capacity: usize) -> ContextPool {
        ContextPool {
            capacity: capacity.max(1),
            inner: Mutex::new(PoolInner::default()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Checks out the slot for `key`, creating an empty one on a miss.
    /// The caller locks the slot and builds the context into it if it is
    /// still `None` — the build happens outside the pool lock, so a slow
    /// saturation never blocks unrelated checkouts, while concurrent
    /// requests for the *same* key queue on the slot and build it once.
    pub fn checkout(&self, key: u128) -> ContextSlot {
        let mut inner = self.inner.lock().expect("context pool lock poisoned");
        if let Some(slot) = inner.slots.get(&key) {
            let slot = Arc::clone(slot);
            // Refresh recency.
            inner.order.retain(|&k| k != key);
            inner.order.push(key);
            self.hits.fetch_add(1, Ordering::Relaxed);
            return slot;
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let slot: ContextSlot = Arc::new(Mutex::new(None));
        inner.slots.insert(key, Arc::clone(&slot));
        inner.order.push(key);
        while inner.order.len() > self.capacity {
            let victim = inner.order.remove(0);
            inner.slots.remove(&victim);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        slot
    }

    /// Current usage counters.
    pub fn metrics(&self) -> ContextPoolMetrics {
        ContextPoolMetrics {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            size: self
                .inner
                .lock()
                .expect("context pool lock poisoned")
                .slots
                .len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oolong_logic::Term;

    fn backgrounds() -> (Vec<Formula>, Vec<Formula>) {
        let a = vec![Formula::eq(Term::var("a"), Term::var("b"))];
        let b = vec![Formula::eq(Term::var("a"), Term::var("c"))];
        (a, b)
    }

    #[test]
    fn key_separates_background_phases_budget_and_strategy() {
        let (a, b) = backgrounds();
        let eager = vec![Phase::Eager; a.len()];
        let gated = vec![Phase::GoalDirected; a.len()];
        let base = context_key(&a, &eager, &Budget::default(), SearchStrategy::Trail);
        assert_eq!(
            base,
            context_key(&a, &eager, &Budget::default(), SearchStrategy::Trail)
        );
        assert_ne!(
            base,
            context_key(&b, &eager, &Budget::default(), SearchStrategy::Trail)
        );
        assert_ne!(
            base,
            context_key(&a, &gated, &Budget::default(), SearchStrategy::Trail)
        );
        assert_ne!(
            base,
            context_key(&a, &eager, &Budget::tiny(), SearchStrategy::Trail)
        );
        assert_ne!(
            base,
            context_key(&a, &eager, &Budget::default(), SearchStrategy::CloneSearch)
        );
    }

    #[test]
    fn checkout_hits_after_miss_and_shares_the_slot() {
        let pool = ContextPool::with_capacity(4);
        let slot1 = pool.checkout(1);
        let slot2 = pool.checkout(1);
        assert!(Arc::ptr_eq(&slot1, &slot2));
        let m = pool.metrics();
        assert_eq!((m.hits, m.misses, m.size), (1, 1, 1));
    }

    #[test]
    fn capacity_evicts_least_recently_used() {
        let pool = ContextPool::with_capacity(2);
        let first = pool.checkout(1);
        pool.checkout(2);
        pool.checkout(1); // refresh 1: 2 is now least recent
        pool.checkout(3); // evicts 2
        let m = pool.metrics();
        assert_eq!((m.evictions, m.size), (1, 2));
        // Key 2 is gone (fresh slot), key 1 survived.
        assert!(Arc::ptr_eq(&first, &pool.checkout(1)));
        let again = pool.checkout(2);
        assert!(again.lock().unwrap().is_none());
        assert_eq!(pool.metrics().misses, 4); // keys 1, 2, 3, and 2 again
    }

    #[test]
    fn built_context_stays_warm() {
        let (a, _) = backgrounds();
        let pool = ContextPool::with_capacity(4);
        let key = context_key(
            &a,
            &vec![Phase::Eager; a.len()],
            &Budget::default(),
            SearchStrategy::Trail,
        );
        {
            let slot = pool.checkout(key);
            let mut guard = slot.lock().unwrap();
            guard.get_or_insert_with(|| {
                ScopeContext::new(&a, &Budget::default(), SearchStrategy::Trail)
            });
        }
        let slot = pool.checkout(key);
        assert!(slot.lock().unwrap().is_some());
    }
}
