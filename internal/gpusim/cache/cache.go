// Package cache models the GPU cache hierarchy the RCoal paper's
// methodology disables: set-associative L1 (per SM) and L2 (per memory
// partition) caches with LRU replacement.
//
// Two roles in this repository:
//
//   - ablation: the paper disables L1/L2 and MSHR merging to isolate
//     the coalescing channel (§VII); enabling the caches here lets the
//     experiments quantify how much of the timing channel survives a
//     realistic hierarchy, and
//   - future work #2: the paper proposes "randomization at all levels
//     of the memory hierarchy" — the cache supports a per-launch
//     randomized set-index hash (RandomizeIndex), the cache-level
//     analogue of RTS.
package cache

import "fmt"

// Config describes one cache.
type Config struct {
	// SizeBytes is the total capacity.
	SizeBytes int
	// LineBytes is the line size; the coalescing block (64 B) in this
	// repository.
	LineBytes int
	// Ways is the set associativity.
	Ways int
	// HitLatency is the access latency in core cycles.
	HitLatency int
	// RandomizeIndex enables the per-launch randomized set-index hash
	// (the future-work defense): the mapping from block to set is
	// keyed by a launch-specific random value, so an attacker cannot
	// predict set contention across launches.
	RandomizeIndex bool
}

// Validate checks structural sanity.
func (c Config) Validate() error {
	switch {
	case c.SizeBytes <= 0:
		return fmt.Errorf("cache: size %d must be positive", c.SizeBytes)
	case c.LineBytes <= 0 || c.SizeBytes%c.LineBytes != 0:
		return fmt.Errorf("cache: line size %d must divide size %d", c.LineBytes, c.SizeBytes)
	case c.Ways <= 0 || (c.SizeBytes/c.LineBytes)%c.Ways != 0:
		return fmt.Errorf("cache: %d ways must divide %d lines", c.Ways, c.SizeBytes/c.LineBytes)
	case c.HitLatency < 1:
		return fmt.Errorf("cache: hit latency %d must be >= 1", c.HitLatency)
	}
	return nil
}

// Sets returns the number of sets.
func (c Config) Sets() int { return c.SizeBytes / c.LineBytes / c.Ways }

type line struct {
	block uint64
	valid bool
	// lastUse orders LRU within the set.
	lastUse uint64
}

// Stats counts cache events.
type Stats struct {
	Hits, Misses, Evictions uint64
}

// Cache is one set-associative LRU cache instance.
type Cache struct {
	cfg   Config
	sets  [][]line
	clock uint64
	key   uint64 // set-index hash key (0 when not randomized)

	Stats Stats
}

// New builds a cache. hashKey seeds the randomized index; it is
// ignored unless cfg.RandomizeIndex is set.
func New(cfg Config, hashKey uint64) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sets := make([][]line, cfg.Sets())
	for i := range sets {
		sets[i] = make([]line, cfg.Ways)
	}
	c := &Cache{cfg: cfg, sets: sets}
	if cfg.RandomizeIndex {
		// Never zero, so randomized mode always differs from identity.
		c.key = hashKey | 1
	}
	return c, nil
}

// setOf maps a block to its set, optionally through the keyed hash.
func (c *Cache) setOf(block uint64) int {
	if c.key != 0 {
		// A fast invertible mix (splitmix-style) keyed per launch: the
		// set index becomes unpredictable without the key.
		x := block ^ c.key
		x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
		x ^= x >> 27
		block = x
	}
	return int(block % uint64(len(c.sets)))
}

// Access looks up a block, filling it on miss. It reports whether the
// access hit and, if a valid victim was evicted, its block key.
func (c *Cache) Access(block uint64) (hit bool, victim uint64, evicted bool) {
	c.clock++
	set := c.sets[c.setOf(block)]
	lru := 0
	for i := range set {
		if set[i].valid && set[i].block == block {
			set[i].lastUse = c.clock
			c.Stats.Hits++
			return true, 0, false
		}
		if !set[i].valid {
			lru = i // prefer an invalid slot
		} else if set[lru].valid && set[i].lastUse < set[lru].lastUse {
			lru = i
		}
	}
	c.Stats.Misses++
	if set[lru].valid {
		victim, evicted = set[lru].block, true
		c.Stats.Evictions++
	}
	set[lru] = line{block: block, valid: true, lastUse: c.clock}
	return false, victim, evicted
}

// Reset invalidates every line and clears the LRU clock and
// statistics, re-keying the randomized index with hashKey (ignored
// unless the cache was configured with RandomizeIndex). It keeps the
// set storage, so one cache can serve many launches without
// reallocating.
func (c *Cache) Reset(hashKey uint64) {
	for _, set := range c.sets {
		for i := range set {
			set[i] = line{}
		}
	}
	c.clock = 0
	c.Stats = Stats{}
	if c.cfg.RandomizeIndex {
		c.key = hashKey | 1
	}
}

// Contains reports whether the block is resident, without touching
// LRU state or statistics.
func (c *Cache) Contains(block uint64) bool {
	set := c.sets[c.setOf(block)]
	for i := range set {
		if set[i].valid && set[i].block == block {
			return true
		}
	}
	return false
}

// HitLatency returns the configured hit latency.
func (c *Cache) HitLatency() int { return c.cfg.HitLatency }
