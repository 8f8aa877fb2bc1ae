//! Compile-once caches for scripts and expressions.
//!
//! The interpreter historically re-parsed `while`/`for`/`foreach`/`if`
//! bodies, `expr` arguments, and `proc` bodies from source on every
//! evaluation — the classic pre-Tcl-8.0 performance trap. These caches key
//! compiled artifacts by their source string so each distinct source parses
//! exactly once per interpreter, no matter how many times the per-message
//! eval loop re-enters it.
//!
//! Invariants:
//!
//! * Entries are immutable once inserted (`Arc<Script>` / `Arc<ExprAst>`);
//!   a hit and a fresh parse of the same source are observationally
//!   identical, so caching can never change evaluation results.
//! * The cache is bounded: when `capacity` entries are exceeded, the oldest
//!   insertion is evicted (FIFO). Filters loop over a small, fixed set of
//!   bodies, so recency tracking buys nothing over insertion order here.
//! * A capacity of 0 disables caching entirely (every lookup is a miss);
//!   this is the "cold path" used to cross-check determinism.
//! * Hit/miss counters are monotonic and observable via [`CacheStats`] so
//!   embedders can assert that warm paths never re-parse.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

/// A snapshot of one cache's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Compiles: lookups that had to parse (includes lookups with caching
    /// disabled) and first-use bindings of braced words, which are
    /// remembered in the script and never looked up again.
    pub misses: u64,
    /// Entries evicted to stay within the capacity bound.
    pub evictions: u64,
    /// Entries currently resident.
    pub len: usize,
    /// Maximum resident entries (0 = caching disabled).
    pub capacity: usize,
}

impl CacheStats {
    /// Fraction of lookups served from cache, in `[0, 1]`.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A bounded, source-keyed, FIFO-evicting cache of compiled artifacts.
#[derive(Debug)]
pub(crate) struct SourceCache<V> {
    map: HashMap<Arc<str>, Arc<V>>,
    /// Insertion order; front = oldest = next eviction victim.
    order: VecDeque<Arc<str>>,
    capacity: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
}

/// Manual impl: cloning shares the `Arc`-held artifacts (they are immutable
/// once inserted), so no `V: Clone` bound is needed — which is what lets an
/// interpreter holding caches of non-`Clone` ASTs be cloned for snapshots.
impl<V> Clone for SourceCache<V> {
    fn clone(&self) -> Self {
        SourceCache {
            map: self.map.clone(),
            order: self.order.clone(),
            capacity: self.capacity,
            hits: self.hits,
            misses: self.misses,
            evictions: self.evictions,
        }
    }
}

impl<V> SourceCache<V> {
    pub(crate) fn new(capacity: usize) -> Self {
        SourceCache {
            map: HashMap::new(),
            order: VecDeque::new(),
            capacity,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Looks up `src`, compiling with `compile` on a miss. The compiled
    /// artifact is shared (`Arc`), so callers keep it alive across evictions.
    pub(crate) fn get_or_insert<E>(
        &mut self,
        src: &str,
        compile: impl FnOnce(&str) -> Result<V, E>,
    ) -> Result<Arc<V>, E> {
        if let Some(v) = self.map.get(src) {
            self.hits += 1;
            return Ok(Arc::clone(v));
        }
        self.misses += 1;
        let v = Arc::new(compile(src)?);
        if self.capacity == 0 {
            return Ok(v);
        }
        if self.map.len() >= self.capacity {
            if let Some(oldest) = self.order.pop_front() {
                self.map.remove(&oldest);
                self.evictions += 1;
            }
        }
        let key: Arc<str> = Arc::from(src);
        self.order.push_back(Arc::clone(&key));
        self.map.insert(key, Arc::clone(&v));
        Ok(v)
    }

    /// Counts a compile made outside the cache on its owner's behalf: the
    /// first-use binding of a braced word, which is remembered in the
    /// script and never looked up here.
    pub(crate) fn note_miss(&mut self) {
        self.misses += 1;
    }

    pub(crate) fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            evictions: self.evictions,
            len: self.map.len(),
            capacity: self.capacity,
        }
    }

    /// Drops all entries; counters survive so regressions stay visible.
    pub(crate) fn clear(&mut self) {
        self.map.clear();
        self.order.clear();
    }

    /// Changes the bound, evicting oldest entries if the new bound is
    /// tighter. A capacity of 0 disables caching.
    pub(crate) fn set_capacity(&mut self, capacity: usize) {
        self.capacity = capacity;
        while self.map.len() > capacity {
            if let Some(oldest) = self.order.pop_front() {
                self.map.remove(&oldest);
                self.evictions += 1;
            } else {
                break;
            }
        }
        if capacity == 0 {
            self.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ok_compile(s: &str) -> Result<String, ()> {
        Ok(s.to_uppercase())
    }

    #[test]
    fn hit_and_miss_counters() {
        let mut c: SourceCache<String> = SourceCache::new(8);
        assert_eq!(
            c.stats(),
            CacheStats {
                capacity: 8,
                ..Default::default()
            }
        );
        c.get_or_insert("a", ok_compile).unwrap();
        c.get_or_insert("a", ok_compile).unwrap();
        c.get_or_insert("b", ok_compile).unwrap();
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.len), (1, 2, 2));
        assert!((s.hit_rate() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn same_source_compiles_once() {
        let mut c: SourceCache<String> = SourceCache::new(4);
        let mut compiles = 0;
        for _ in 0..10 {
            c.get_or_insert("src", |s| -> Result<String, ()> {
                compiles += 1;
                Ok(s.to_string())
            })
            .unwrap();
        }
        assert_eq!(compiles, 1);
        assert_eq!(c.stats().hits, 9);
    }

    #[test]
    fn fifo_eviction_at_bound() {
        let mut c: SourceCache<String> = SourceCache::new(2);
        c.get_or_insert("a", ok_compile).unwrap();
        c.get_or_insert("b", ok_compile).unwrap();
        c.get_or_insert("c", ok_compile).unwrap(); // evicts "a"
        let s = c.stats();
        assert_eq!((s.len, s.evictions), (2, 1));
        c.get_or_insert("a", ok_compile).unwrap(); // re-miss: was evicted
        assert_eq!(c.stats().misses, 4);
        c.get_or_insert("c", ok_compile).unwrap(); // still resident
        assert_eq!(c.stats().hits, 1);
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut c: SourceCache<String> = SourceCache::new(0);
        c.get_or_insert("a", ok_compile).unwrap();
        c.get_or_insert("a", ok_compile).unwrap();
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.len), (0, 2, 0));
    }

    #[test]
    fn compile_errors_are_not_cached() {
        let mut c: SourceCache<String> = SourceCache::new(4);
        assert!(c.get_or_insert("bad", |_| Err::<String, ()>(())).is_err());
        assert_eq!(c.stats().len, 0);
        // A later good compile of the same source is a miss, not a hit.
        c.get_or_insert("bad", ok_compile).unwrap();
        assert_eq!(
            c.stats(),
            CacheStats {
                hits: 0,
                misses: 2,
                evictions: 0,
                len: 1,
                capacity: 4
            }
        );
    }

    #[test]
    fn shrinking_capacity_evicts_oldest() {
        let mut c: SourceCache<String> = SourceCache::new(4);
        for k in ["a", "b", "c", "d"] {
            c.get_or_insert(k, ok_compile).unwrap();
        }
        c.set_capacity(2);
        let s = c.stats();
        assert_eq!((s.len, s.evictions, s.capacity), (2, 2, 2));
        c.get_or_insert("d", ok_compile).unwrap();
        assert_eq!(c.stats().hits, 1, "newest entries survive the shrink");
    }

    #[test]
    fn rc_survives_eviction() {
        let mut c: SourceCache<String> = SourceCache::new(1);
        let a = c.get_or_insert("a", ok_compile).unwrap();
        c.get_or_insert("b", ok_compile).unwrap(); // evicts "a"
        assert_eq!(*a, "A", "caller's Arc outlives the cache entry");
    }
}
