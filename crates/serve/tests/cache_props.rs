//! Property tests for the tiered result cache: the memory tier must
//! behave exactly like a reference LRU model under any access sequence,
//! the byte bound must hold at every step, and the disk tier must
//! round-trip arbitrary payloads byte-identically across instances.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use proptest::prelude::*;

use copack_serve::{CacheConfig, JobOutput, Lookup, ResultCache};

/// An output whose memory-tier accounting is exactly `bytes`.
fn sized_output(bytes: usize) -> Arc<JobOutput> {
    Arc::new(JobOutput {
        name: String::new(),
        report: "r".repeat(bytes),
        assignment: String::new(),
    })
}

/// Reference LRU over (key, bytes): least recently used at the front,
/// same strict-bound semantics the cache documents (an entry larger
/// than the whole bound is not retained).
#[derive(Default)]
struct ModelLru {
    entries: VecDeque<(u64, usize)>,
    total: usize,
}

impl ModelLru {
    fn touch(&mut self, key: u64) -> bool {
        let Some(at) = self.entries.iter().position(|&(k, _)| k == key) else {
            return false;
        };
        let entry = self.entries.remove(at).expect("position exists");
        self.entries.push_back(entry);
        true
    }

    fn insert(&mut self, key: u64, bytes: usize, limit: usize) {
        self.entries.push_back((key, bytes));
        self.total += bytes;
        if limit > 0 {
            while self.total > limit {
                let (_, evicted) = self
                    .entries
                    .pop_front()
                    .expect("over-limit model is nonempty");
                self.total -= evicted;
            }
        }
    }

    fn keys(&self) -> Vec<u64> {
        self.entries.iter().map(|&(k, _)| k).collect()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// After every operation the cache's resident set, recency order,
    /// and byte accounting match the reference model, and the byte
    /// bound is never exceeded.
    #[test]
    fn the_memory_tier_is_exactly_an_lru_over_payload_bytes(
        limit in 8usize..64,
        ops in prop::collection::vec((0u64..12, 1usize..24), 1..200),
    ) {
        let cache = ResultCache::with_config(&CacheConfig {
            mem_limit_bytes: limit,
            disk_dir: None,
        }).expect("memory-only cache opens");
        let mut model = ModelLru::default();

        for (key, bytes) in ops {
            match cache.lookup(key) {
                Lookup::Hit(output) => {
                    prop_assert!(model.touch(key), "cache hit on key {key} absent from model");
                    // A hit serves the bytes it was inserted with, not
                    // the current op's.
                    prop_assert_eq!(
                        output.report.len(),
                        model.entries.back().expect("just touched").1
                    );
                }
                Lookup::Miss => {
                    prop_assert!(!model.touch(key), "cache miss on key {key} present in model");
                    cache.fulfil(key, Ok(sized_output(bytes)));
                    model.insert(key, bytes, limit);
                }
                other => prop_assert!(false, "serial access never sees {other:?}"),
            }
            prop_assert_eq!(cache.resident_mem_keys_lru(), model.keys());
            let stats = cache.stats();
            prop_assert_eq!(stats.mem_bytes as usize, model.total);
            prop_assert!(
                stats.mem_bytes as usize <= limit,
                "resident bytes {} exceed the bound {limit}",
                stats.mem_bytes
            );
        }
    }

    /// Whatever bytes go in come out: store on one instance, read on a
    /// fresh instance over the same directory (the restart path), and
    /// the payload is byte-identical — including exotic unicode and
    /// embedded newlines, which stress the length-prefixed format.
    #[test]
    fn the_disk_tier_round_trips_arbitrary_payloads_across_instances(
        key in any::<u64>(),
        // `[ -~]` is the full printable-ASCII range; a raw newline and a
        // non-ASCII scalar stress the length-prefixed on-disk format.
        name in "[ -~\u{1F980}]{0,40}",
        report in "[ -~\n\u{1F980}]{0,200}",
        assignment in "[ -~\n\u{1F980}]{0,200}",
    ) {
        static CASE: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "copack-cache-props-{}-{}",
            std::process::id(),
            CASE.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let config = CacheConfig {
            mem_limit_bytes: 0,
            disk_dir: Some(dir.clone()),
        };

        let output = Arc::new(JobOutput { name, report, assignment });
        let writer = ResultCache::with_config(&config).expect("writer opens");
        prop_assert!(matches!(writer.lookup(key), Lookup::Miss));
        writer.fulfil(key, Ok(Arc::clone(&output)));

        let reader = ResultCache::with_config(&config).expect("reader opens");
        prop_assert_eq!(reader.stats().disk_entries, 1);
        match reader.lookup(key) {
            Lookup::DiskHit(loaded) => prop_assert_eq!(&*loaded, &*output),
            other => prop_assert!(false, "expected a disk hit, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
