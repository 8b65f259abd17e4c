package cache

import (
	"testing"
	"testing/quick"

	"rcoal/internal/rng"
)

func testConfig() Config {
	return Config{SizeBytes: 4096, LineBytes: 64, Ways: 4, HitLatency: 4}
}

func TestConfigValidate(t *testing.T) {
	if err := testConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{SizeBytes: 0, LineBytes: 64, Ways: 4, HitLatency: 1},
		{SizeBytes: 4096, LineBytes: 100, Ways: 4, HitLatency: 1},
		{SizeBytes: 4096, LineBytes: 64, Ways: 7, HitLatency: 1},
		{SizeBytes: 4096, LineBytes: 64, Ways: 4, HitLatency: 0},
	}
	for i, c := range bad {
		if c.Validate() == nil {
			t.Errorf("bad config %d validated", i)
		}
	}
	if got := testConfig().Sets(); got != 16 {
		t.Errorf("Sets = %d, want 16", got)
	}
}

func TestHitAfterFill(t *testing.T) {
	c, err := New(testConfig(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if hit, _, _ := c.Access(42); hit {
		t.Error("cold access hit")
	}
	if hit, _, _ := c.Access(42); !hit {
		t.Error("second access missed")
	}
	if !c.Contains(42) || c.Contains(43) {
		t.Error("Contains wrong")
	}
	if c.Stats.Hits != 1 || c.Stats.Misses != 1 {
		t.Errorf("stats %+v", c.Stats)
	}
}

func TestLRUEviction(t *testing.T) {
	// 4-way set: fill 4 conflicting lines, touch the first, insert a
	// fifth — the least recently used (second) must be evicted.
	c, _ := New(testConfig(), 0)
	sets := uint64(testConfig().Sets())
	blocks := []uint64{0, sets, 2 * sets, 3 * sets} // same set 0
	for _, b := range blocks {
		c.Access(b)
	}
	c.Access(blocks[0]) // refresh
	hit, victim, evicted := c.Access(4 * sets)
	if hit || !evicted {
		t.Fatalf("expected evicting miss, hit=%v evicted=%v", hit, evicted)
	}
	if victim != blocks[1] {
		t.Errorf("evicted %d, want %d (LRU)", victim, blocks[1])
	}
	if !c.Contains(blocks[0]) {
		t.Error("refreshed line evicted")
	}
}

func TestWorkingSetFits(t *testing.T) {
	// A working set within capacity eventually hits 100%.
	c, _ := New(testConfig(), 0)
	for round := 0; round < 3; round++ {
		for b := uint64(0); b < 64; b++ { // 64 lines = capacity
			c.Access(b)
		}
	}
	if c.Stats.Evictions != 0 {
		t.Errorf("evictions %d in a fitting working set", c.Stats.Evictions)
	}
	if got := hitRate(c.Stats); got < 0.6 {
		t.Errorf("hit rate %v, want >= 2/3", got)
	}
}

func TestHitRateEmpty(t *testing.T) {
	if hitRate(Stats{}) != 0 {
		t.Error("empty stats hit rate not 0")
	}
}

func TestRandomizedIndexDiffersAcrossKeys(t *testing.T) {
	cfg := testConfig()
	cfg.RandomizeIndex = true
	a, _ := New(cfg, 111)
	b, _ := New(cfg, 222)
	differ := false
	for blk := uint64(0); blk < 256; blk++ {
		if a.setOf(blk) != b.setOf(blk) {
			differ = true
			break
		}
	}
	if !differ {
		t.Error("different keys produced identical index mappings")
	}
	// Identity mapping differs from randomized.
	id, _ := New(testConfig(), 0)
	differ = false
	for blk := uint64(0); blk < 256; blk++ {
		if a.setOf(blk) != id.setOf(blk) {
			differ = true
			break
		}
	}
	if !differ {
		t.Error("randomized mapping equals identity")
	}
}

func TestRandomizedIndexStillCaches(t *testing.T) {
	cfg := testConfig()
	cfg.RandomizeIndex = true
	c, _ := New(cfg, 99)
	c.Access(7)
	if hit, _, _ := c.Access(7); !hit {
		t.Error("randomized cache lost its own line")
	}
}

func TestRandomizedIndexSpreadsSets(t *testing.T) {
	// The keyed hash must not collapse blocks into few sets.
	cfg := testConfig()
	cfg.RandomizeIndex = true
	c, _ := New(cfg, 12345)
	used := map[int]bool{}
	for blk := uint64(0); blk < 512; blk++ {
		used[c.setOf(blk)] = true
	}
	if len(used) < cfg.Sets() {
		t.Errorf("hash uses only %d/%d sets", len(used), cfg.Sets())
	}
}

func TestAccessInvariants(t *testing.T) {
	c, _ := New(testConfig(), 0)
	src := rng.New(5)
	f := func(n uint16) bool {
		blk := uint64(src.Intn(256))
		hitBefore := c.Contains(blk)
		hit, _, _ := c.Access(blk)
		// Contains must predict Access, and the block must be resident
		// afterwards.
		return hit == hitBefore && c.Contains(blk)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// hitRate returns hits / (hits + misses), or 0 if never accessed.
func hitRate(s Stats) float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}
