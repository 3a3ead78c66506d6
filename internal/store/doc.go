// Package store is the serving tier above the GeoBlock library: a
// registry of named datasets, each spatially sharded into multiple
// GeoBlocks by top-level cell prefix, with a router that answers polygon
// and rectangle aggregate queries, and multi-polygon joins (join.go),
// across the shards.
//
// # Sharding
//
// A dataset is partitioned at a configurable shard level: every cell at
// that level of the spatial decomposition (internal/cellid) that contains
// data becomes one shard, holding a GeoBlock built from exactly the rows
// whose leaf key falls inside the shard cell's range. All shards share the
// dataset's domain, so cell ids — and therefore coverings — are directly
// comparable across shards, and a shard is one contiguous cell-id range
// (the prefix property of Hilbert-ordered quadtree ids). Shard level 0
// yields a single unsharded block.
//
// # Planning, routing and merging
//
// A query first resolves its grid level: with Options.PyramidLevels > 0
// every shard carries a pyramid of coarser blocks
// (geoblocks.BuildPyramid, each level with its own query cache), and the
// router plans once per query — the coarsest level whose cell diagonal
// satisfies the QueryOptions.MaxError bound (geoblocks.LevelFor). It then
// computes one covering (internal/cover) at that level, splits it
// across shards with geoblocks.SplitCovering — a pair of binary searches
// per shard, returning sub-slices of the one covering — fans the
// sub-coverings out to the shard blocks at the planned level
// (geoblocks.AtLevel, QueryCoveringPartialOpts), and merges the
// per-shard partial accumulators (geoblocks.Accumulator.MergeFrom)
// before finalising; results report the achieved level and guaranteed
// error bound. A
// covering cell coarser than the shard level is routed to every shard it
// overlaps; because the shards partition the underlying cell aggregates,
// those per-shard contributions are disjoint and the merge is exact.
// COUNT, MIN and MAX merge associatively and are bit-identical to an
// unsharded block; SUM and the AVG numerator re-associate additions at the
// merge points with the floating-point bound documented in DESIGN.md
// Sec. 6 (exact for integer-valued columns below 2^53). Shard partials
// always merge in ascending shard order, so results are deterministic for
// a fixed (covering, sharding).
//
// # Concurrency
//
// A built Dataset is immutable apart from its per-shard query caches,
// which are concurrent serving structures (DESIGN.md Sec. 6); any number
// of goroutines may query one dataset. The Store registry serialises
// Add/Drop behind a mutex while lookups are lock-light; a dataset dropped
// mid-flight keeps serving queries already holding it.
//
// # Durability
//
// Dataset.Snapshot persists a dataset as a versioned, checksummed
// snapshot directory (internal/snapshot; docs/FORMAT.md specifies the
// bytes): one framed GeoBlock payload per shard plus a manifest, written
// atomically and safe to take while queries are flowing. Store.Restore
// (and Open, for restore-under-another-name) load one back with full
// validation — a corrupt or version-mismatched snapshot registers
// nothing. Cache and pyramid configuration survive the round trip;
// cache contents restart empty and pyramid levels are re-derived from
// the base payloads (they are never persisted — the on-disk format is
// identical with and without a pyramid).
//
// cmd/geoblocksd exposes this package over HTTP; docs/ARCHITECTURE.md
// documents the full layer stack and the sharding/merge contract.
package store
