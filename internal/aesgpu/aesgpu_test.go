package aesgpu

import (
	"reflect"
	"sync"
	"testing"

	"rcoal/internal/gpusim"
	"rcoal/internal/kernels"
	"rcoal/internal/mechanism"
	"rcoal/internal/rng"
	"rcoal/internal/stats"
)

var testKey = []byte("very secret key!")

func newTestServer(t *testing.T, cfg gpusim.Config) *Server {
	t.Helper()
	s, err := NewServer(cfg, testKey)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewServerRejectsBadInput(t *testing.T) {
	if _, err := NewServer(gpusim.DefaultConfig(), []byte("short")); err == nil {
		t.Error("bad key accepted")
	}
	bad := gpusim.DefaultConfig()
	bad.NumSMs = 0
	if _, err := NewServer(bad, testKey); err == nil {
		t.Error("bad config accepted")
	}
}

func TestEncryptReturnsCorrectCiphertext(t *testing.T) {
	s := newTestServer(t, gpusim.DefaultConfig())
	lines := kernels.RandomPlaintext(rng.New(1), 32)
	sample, err := s.Encrypt(lines, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(sample.Ciphertexts) != 32 {
		t.Fatalf("%d ciphertexts", len(sample.Ciphertexts))
	}
	if sample.TotalCycles <= 0 || sample.LastRoundCycles <= 0 {
		t.Errorf("timing: total %d, last round %d", sample.TotalCycles, sample.LastRoundCycles)
	}
	if sample.LastRoundCycles >= sample.TotalCycles {
		t.Errorf("last round (%d) not inside total (%d)", sample.LastRoundCycles, sample.TotalCycles)
	}
	if sample.LastRoundTx == 0 || sample.TotalTx <= sample.LastRoundTx {
		t.Errorf("tx accounting: last %d, total %d", sample.LastRoundTx, sample.TotalTx)
	}
}

func TestCollectShapes(t *testing.T) {
	s := newTestServer(t, gpusim.DefaultConfig())
	ds, err := s.Collect(5, 32, 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Samples) != 5 || len(ds.Plaintexts) != 5 {
		t.Fatalf("dataset shape: %d samples, %d plaintexts", len(ds.Samples), len(ds.Plaintexts))
	}
	if len(ds.LastRoundTimes()) != 5 || len(ds.TotalTimes()) != 5 || len(ds.ObservedLastRoundTx()) != 5 {
		t.Fatal("vector lengths wrong")
	}
	if _, err := s.Collect(0, 32, 1); err == nil {
		t.Error("zero samples accepted")
	}
}

func TestFigure5TimingProportionality(t *testing.T) {
	// Figure 5: last-round time and total time both correlate strongly
	// with last-round coalesced accesses. This is the keystone of the
	// whole attack.
	s := newTestServer(t, gpusim.DefaultConfig())
	ds, err := s.Collect(40, 32, 99)
	if err != nil {
		t.Fatal(err)
	}
	tx := ds.ObservedLastRoundTx()
	if v := stats.Variance(tx); v == 0 {
		t.Fatal("no variance in last-round accesses; cannot test correlation")
	}
	rLast := stats.MustPearson(tx, ds.LastRoundTimes())
	if rLast < 0.8 {
		t.Errorf("last-round time vs accesses: rho = %v, want > 0.8", rLast)
	}
	// Total time also correlates, but weakly: the other nine rounds
	// contribute independent access-count noise (ideal dilution is
	// ~1/sqrt(10) ≈ 0.32). This is exactly why the paper grants the
	// attacker last-round timing for the strong attack.
	rTotal := stats.MustPearson(tx, ds.TotalTimes())
	if rTotal < 0.1 {
		t.Errorf("total time vs last-round accesses: rho = %v, want > 0.1", rTotal)
	}
	if rTotal >= rLast {
		t.Errorf("total-time rho %v should be below last-round rho %v", rTotal, rLast)
	}
}

func TestLastRoundKeyMatchesAES(t *testing.T) {
	s := newTestServer(t, gpusim.DefaultConfig())
	lrk := s.LastRoundKey()
	if s.LastRound() != 10 {
		t.Errorf("LastRound = %d, want 10", s.LastRound())
	}
	zero := [16]byte{}
	if lrk == zero {
		t.Error("last round key is zero")
	}
}

func TestDefendedServerStillCorrect(t *testing.T) {
	// Functional correctness is defense-independent: RSS+RTS changes
	// timing, never ciphertexts.
	cfg := gpusim.DefaultConfig()
	cfg.Defense = mechanism.RSSRTS(8)
	def := newTestServer(t, cfg)
	base := newTestServer(t, gpusim.DefaultConfig())
	lines := kernels.RandomPlaintext(rng.New(3), 32)
	a, err := def.Encrypt(lines, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := base.Encrypt(lines, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Ciphertexts {
		if a.Ciphertexts[i] != b.Ciphertexts[i] {
			t.Fatal("defense changed ciphertext")
		}
	}
	if a.TotalTx <= b.TotalTx {
		t.Errorf("RSS+RTS(8) tx %d not above baseline %d", a.TotalTx, b.TotalTx)
	}
}

func TestSeedVariesDefendedTiming(t *testing.T) {
	cfg := gpusim.DefaultConfig()
	cfg.Defense = mechanism.RSSRTS(4)
	s := newTestServer(t, cfg)
	lines := kernels.RandomPlaintext(rng.New(5), 32)
	seen := map[uint64]bool{}
	for seed := uint64(1); seed <= 8; seed++ {
		smp, err := s.Encrypt(lines, seed)
		if err != nil {
			t.Fatal(err)
		}
		seen[smp.LastRoundTx] = true
	}
	if len(seen) < 2 {
		t.Error("RSS+RTS produced identical access counts across seeds")
	}
}

func TestAES256ServerFourteenRounds(t *testing.T) {
	// The kernel builder and timing statistics generalize to AES-256's
	// 14 rounds; the last-round channel exists there too.
	key := make([]byte, 32)
	for i := range key {
		key[i] = byte(i * 11)
	}
	s, err := NewServer(gpusim.DefaultConfig(), key)
	if err != nil {
		t.Fatal(err)
	}
	if s.LastRound() != 14 {
		t.Fatalf("LastRound = %d, want 14", s.LastRound())
	}
	smp, err := s.Encrypt(kernels.RandomPlaintext(rng.New(61), 32), 1)
	if err != nil {
		t.Fatal(err)
	}
	if smp.LastRoundTx == 0 || smp.LastRoundCycles <= 0 {
		t.Errorf("AES-256 last-round stats empty: %+v", smp)
	}
	// 14 rounds of 16 lookups cost ~40% more than AES-128.
	s128, _ := NewServer(gpusim.DefaultConfig(), key[:16])
	smp128, err := s128.Encrypt(kernels.RandomPlaintext(rng.New(61), 32), 1)
	if err != nil {
		t.Fatal(err)
	}
	if smp.TotalTx <= smp128.TotalTx {
		t.Errorf("AES-256 tx %d not above AES-128 %d", smp.TotalTx, smp128.TotalTx)
	}
}

// TestCollectAfterOtherSizeMatchesFreshBuilds: the pooled builder
// carries one collect's storage into the next, so a Collect after one
// of a different size (larger, then a partial warp) must return the
// dataset a fresh builder returns.
func TestCollectAfterOtherSizeMatchesFreshBuilds(t *testing.T) {
	cfg := gpusim.DefaultConfig()
	cfg.Defense = mechanism.RSSRTS(8)
	reused := newTestServer(t, cfg)
	if _, err := reused.Collect(2, 96, 5); err != nil {
		t.Fatal(err)
	}
	got, err := reused.Collect(3, 40, 9)
	if err != nil {
		t.Fatal(err)
	}
	want, err := newTestServer(t, cfg).collect(new(kernels.Builder), 3, 40, 9)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("Collect after a collect of another size differs from fresh builds")
	}
}

// TestConcurrentCollectsShareBuilderPool runs collects of different
// sizes from several goroutines at once, as a grid's workers do: each
// holds its own pooled builder, so every dataset equals a serial one.
func TestConcurrentCollectsShareBuilderPool(t *testing.T) {
	cfg := gpusim.DefaultConfig()
	sizes := []int{40, 96, 33, 64}
	want := make([]*Dataset, len(sizes))
	for i, lines := range sizes {
		var err error
		if want[i], err = newTestServer(t, cfg).Collect(2, lines, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	got := make([]*Dataset, len(sizes))
	errs := make([]error, len(sizes))
	var wg sync.WaitGroup
	for i, lines := range sizes {
		srv := newTestServer(t, cfg)
		wg.Add(1)
		go func(i, lines int) {
			defer wg.Done()
			got[i], errs[i] = srv.Collect(2, lines, uint64(i))
		}(i, lines)
	}
	wg.Wait()
	for i := range sizes {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("concurrent Collect of %d lines differs from a serial one", sizes[i])
		}
	}
}
