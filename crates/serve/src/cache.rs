//! The result cache.
//!
//! Keys are canonicalized request strings (endpoint + sorted-key compact
//! JSON, see [`crate::api`]); values are complete response bodies, so a
//! hit is served byte-identically to the original miss without touching
//! the analysis engine. Sharding by key hash keeps lock contention to
//! `1/shards` of a single-mutex design under concurrent load; sharding,
//! LRU eviction and the hit/miss/eviction counts are [`Bounded`]'s.

use std::sync::Arc;

use scpg_trace::Bounded;

/// The cache: canonical request key → shared response body.
pub type ShardedCache = Bounded<Arc<Vec<u8>>>;

/// A result cache of `shards` shards holding `capacity_per_shard`
/// bodies each, reporting as `result_cache`. Its byte estimate counts
/// keys plus the bodies held (bodies are shared `Arc`s, so this is an
/// upper bound while responses are in flight).
pub fn result_cache(shards: usize, capacity_per_shard: usize) -> ShardedCache {
    ShardedCache::new(shards, capacity_per_shard)
        .named("result_cache", |key, body| key.len() + body.len())
}
