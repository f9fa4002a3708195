package sunder

import (
	"crypto/sha256"
	"encoding/binary"
	"sync/atomic"
	"time"

	"sunder/internal/sched"
)

// DefaultCompileCacheCapacity is the compiled-machine cache's default size
// in rule sets.
const DefaultCompileCacheCapacity = 64

var compileCache = sched.NewLRU[*compiledArtifact](DefaultCompileCacheCapacity)

// compileHitNS / compileMissNS accumulate the wall-clock cost of
// CompileCached lookups, split by outcome, so the serve path can report
// hit vs. miss latency (a hit is a clone, a miss the whole pipeline).
var (
	compileHitNS  atomic.Int64
	compileMissNS atomic.Int64
)

// CompileCached is Compile behind a process-wide LRU cache keyed by a
// content hash of the compiled configuration (every Options field and
// every pattern's expression and code). Repeated compiles of the same rule
// set skip the whole compile/mapping pipeline: a hit clones a pristine
// machine from the cached artifact, which is orders of magnitude cheaper.
// The returned engine is indistinguishable from a freshly compiled one.
// Compilation errors are not cached.
func CompileCached(patterns []Pattern, opts Options) (*Engine, error) {
	eng, _, err := CompileCachedTraced(patterns, opts)
	return eng, err
}

// CompileCachedTraced is CompileCached, additionally reporting whether the
// engine came from a cache hit. The serve path uses it to label compile
// spans and attribute lookup latency to the hit or miss population.
func CompileCachedTraced(patterns []Pattern, opts Options) (*Engine, bool, error) {
	start := time.Now()
	key := compileKey(patterns, opts)
	if art, ok := compileCache.Get(key); ok {
		eng := newEngine(art)
		compileHitNS.Add(time.Since(start).Nanoseconds())
		return eng, true, nil
	}
	eng, err := Compile(patterns, opts)
	if err != nil {
		return nil, false, err
	}
	compileCache.Put(key, eng.compiledArtifact)
	compileMissNS.Add(time.Since(start).Nanoseconds())
	return eng, false, nil
}

// compileKey hashes the full compiled configuration. Fields are length-
// prefixed so distinct pattern lists cannot collide by concatenation, and
// the Rate default is normalized so Options{} and Options{Rate: 4} share
// an entry.
func compileKey(patterns []Pattern, opts Options) string {
	h := sha256.New()
	var buf [8]byte
	writeInt := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	writeBool := func(b bool) {
		if b {
			writeInt(1)
		} else {
			writeInt(0)
		}
	}
	rate := opts.Rate
	if rate == 0 {
		rate = 4
	}
	writeInt(int64(rate))
	writeInt(int64(opts.ReportColumns))
	writeInt(int64(opts.MetadataBits))
	writeBool(opts.FIFO)
	writeBool(opts.SummarizeOnFull)
	// TestCompileKeyCoversOptions enumerates Options by reflection so a
	// future compile-affecting field cannot be forgotten here silently.
	// Minimize rewrites the compiled automaton (merged/pruned states change
	// the placement): minimized and unminimized compiles must not share an
	// entry.
	writeBool(opts.Minimize)
	// Prefilter changes the cached artifact (the literal plan rides in it).
	writeInt(int64(opts.Prefilter))
	// Backend changes the resolved dispatch that rides in the artifact (and
	// a forced "dfa" can fail where "auto" compiles): distinct backends must
	// not share an entry.
	writeInt(int64(len(opts.Backend)))
	h.Write([]byte(opts.Backend))
	writeInt(int64(len(patterns)))
	for _, p := range patterns {
		writeInt(int64(len(p.Expr)))
		h.Write([]byte(p.Expr))
		writeInt(int64(p.Code))
	}
	return string(h.Sum(nil))
}

// CompileCacheStats snapshots the compiled-machine cache.
type CompileCacheStats struct {
	// Hits and Misses count CompileCached lookups since process start.
	Hits   int64
	Misses int64
	// Entries is the number of rule sets currently cached, bounded by
	// Capacity.
	Entries  int
	Capacity int
	// HitNS and MissNS are the total wall-clock nanoseconds spent in
	// CompileCached lookups that hit (machine clone) and missed (full
	// compile pipeline), since process start. HitNS/Hits vs MissNS/Misses
	// is the measured per-lookup cost of each outcome.
	HitNS  int64
	MissNS int64
}

// CompileCacheInfo returns the cache's current occupancy, hit/miss
// counts, and cumulative hit/miss lookup latency.
func CompileCacheInfo() CompileCacheStats {
	hits, misses := compileCache.Stats()
	return CompileCacheStats{
		Hits:     hits,
		Misses:   misses,
		Entries:  compileCache.Len(),
		Capacity: compileCache.Capacity(),
		HitNS:    compileHitNS.Load(),
		MissNS:   compileMissNS.Load(),
	}
}

// SetCompileCacheCapacity resizes the compiled-machine cache, evicting
// least-recently-used entries as needed; n <= 0 clears and disables it.
func SetCompileCacheCapacity(n int) { compileCache.SetCapacity(n) }

// ResetCompileCache drops every cached compilation (hit/miss counts are
// kept). Mostly useful in tests and benchmarks.
func ResetCompileCache() { compileCache.Purge() }
