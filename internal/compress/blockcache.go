package compress

// BlockCache: a byte-bounded LRU of decoded blocks, shared across all of
// an archive's streams (checkpoint images, commands, screenshots,
// timeline). PR 8's lazy open made cold archives cheap to open but
// re-decoded a block on every demand load; the cache makes repeated
// time-machine seeks decode each block at most once while within budget
// (ROADMAP item (c), DejaView §4.4's LRU screenshot caching generalized
// to the storage layer).
//
// Each FrameFile gets a process-unique id at open, so one cache serves
// many frames without key collisions. Cached slices are shared: the only
// readers are FrameFile.ReadAt and FrameFile.ReadRange (which copy out
// into the caller's buffer) and FrameFile.Block (which returns a
// defensive copy), so a mutating caller can never corrupt a resident
// block.

import (
	"sync/atomic"

	"dejaview/internal/lru"
)

// DefaultBlockCacheBytes is the decoded-block budget used when a caller
// opens an archive without choosing one: 128 default-sized blocks.
const DefaultBlockCacheBytes = int64(128) * DefaultBlockSize

// frameFileIDs hands each opened FrameFile a unique cache-key namespace.
var frameFileIDs atomic.Uint64

// blockKey identifies one decoded block of one open frame.
type blockKey struct {
	file uint64
	idx  int
}

// BlockCache is a byte-bounded LRU of decoded blocks, safe for
// concurrent use. Install hooks with SetHooks before sharing it across
// goroutines.
type BlockCache struct {
	c *lru.Cache[blockKey, []byte]

	// Hit/miss hooks observe cache outcomes from FrameFile.block so the
	// owning layer (core) can expose its own instruments; the obs-name
	// rule pins core.* counters to package core, so compress only offers
	// the hook points.
	onHit, onMiss func(blocks int)
}

// NewBlockCache creates a cache holding at most budget decoded bytes;
// budget <= 0 disables caching (every lookup misses and nothing is
// retained).
func NewBlockCache(budget int64) *BlockCache {
	return &BlockCache{c: lru.NewBytes[blockKey, []byte](budget)}
}

// SetHooks installs observers for hits, misses, and evictions (evicted
// decoded bytes). Any hook may be nil. Call before the cache is shared
// across goroutines.
func (bc *BlockCache) SetHooks(onHit, onMiss func(blocks int), onEvict func(bytes int64)) {
	bc.onHit, bc.onMiss = onHit, onMiss
	if onEvict == nil {
		bc.c.OnEvict(nil)
	} else {
		bc.c.OnEvict(func(_ blockKey, _ []byte, cost int64) { onEvict(cost) })
	}
}

// Stats reports cache accounting: outcome counts, eviction totals, and
// residency against the budget.
func (bc *BlockCache) Stats() BlockCacheStats {
	hits, misses := bc.c.Stats()
	evictions, evictedBytes := bc.c.EvictStats()
	return BlockCacheStats{
		Hits:         hits,
		Misses:       misses,
		Evictions:    evictions,
		EvictedBytes: evictedBytes,
		UsedBytes:    bc.c.Used(),
		BudgetBytes:  bc.c.Budget(),
		Blocks:       bc.c.Len(),
	}
}

// BlockCacheStats is a point-in-time snapshot of a BlockCache.
type BlockCacheStats struct {
	Hits, Misses            uint64
	Evictions, EvictedBytes uint64
	UsedBytes, BudgetBytes  int64
	Blocks                  int
}

// get returns the resident decoded block, bumping the hit hook.
func (bc *BlockCache) get(file uint64, idx int) ([]byte, bool) {
	blk, ok := bc.c.Get(blockKey{file, idx})
	if ok && bc.onHit != nil {
		bc.onHit(1)
	}
	return blk, ok
}

// peek returns the resident decoded block without counting a hit or
// refreshing its recency: whole-stream reads copy resident blocks but
// leave the cache exactly as they found it.
func (bc *BlockCache) peek(file uint64, idx int) ([]byte, bool) {
	return bc.c.Peek(blockKey{file, idx})
}

// put inserts a freshly decoded block at its byte cost, bumping the miss
// hook. Blocks larger than the whole budget are simply not retained.
func (bc *BlockCache) put(file uint64, idx int, blk []byte) {
	if bc.onMiss != nil {
		bc.onMiss(1)
	}
	bc.c.PutCost(blockKey{file, idx}, blk, int64(len(blk)))
}
