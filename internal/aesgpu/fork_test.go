package aesgpu

import (
	"reflect"
	"testing"

	"rcoal/internal/gpusim"
	"rcoal/internal/mechanism"
)

// TestForkedCollectMatchesVanillaCollect is the server-level
// differential: ForkedCollect across a policy set must be
// byte-identical to running a fresh per-policy Server.Collect — the
// exact comparison the experiments layer relies on when swapping in
// the forked path.
func TestForkedCollectMatchesVanillaCollect(t *testing.T) {
	key := []byte("fork-test-key-16")
	cfg := gpusim.DefaultConfig()
	cfg.VulnerableRounds = []int{10}
	policies := []mechanism.Mechanism{
		mechanism.Baseline(),
		mechanism.FSS(4),
		mechanism.FSSRTS(8),
		mechanism.RSS(2),
		mechanism.RSSRTS(8),
		mechanism.RSSNormal(4, 1.5),
	}
	const nSamples, linesPer = 3, 32
	const seed = 1234

	want := make([]*Dataset, len(policies))
	for i, p := range policies {
		vcfg := cfg
		vcfg.Defense = p
		srv, err := NewServer(vcfg, key)
		if err != nil {
			t.Fatal(err)
		}
		if want[i], err = srv.Collect(nSamples, linesPer, seed); err != nil {
			t.Fatal(err)
		}
	}

	got, err := ForkedCollect(cfg, key, policies, nSamples, linesPer, seed)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d datasets, want %d", len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("dataset %d (%s) differs from vanilla Collect", i, policies[i].Name())
		}
	}
}
