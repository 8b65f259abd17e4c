// Package equiv is the differential-equivalence harness for the
// simulation's one accelerator, copy-on-write prefix forking
// (aesgpu.ForkedCollect). It must be invisible: forked collection
// across a policy set equals a fresh per-policy vanilla collection,
// bit for bit.
//
// ForkExact returns nil on agreement and a first-mismatch error
// otherwise; equiv_test.go wires it into the regular test suite
// (reduced grid under -short, full grid otherwise), which is what CI's
// `make equiv` runs.
package equiv

import (
	"fmt"
	"reflect"

	"rcoal/internal/aesgpu"
	"rcoal/internal/gpusim"
	"rcoal/internal/mechanism"
)

// Grid parameterizes the exact-equivalence sweeps: every mechanism is
// exercised at every seed.
type Grid struct {
	Policies []mechanism.Mechanism
	Seeds    []uint64
	Samples  int
	Lines    int
	// VulnerableRounds is the selective-RCoal round set shared by all
	// policies; prefix forking requires it to be non-empty.
	VulnerableRounds []int
}

// equivSeeds are the three seeds every exact sweep runs at.
var equivSeeds = []uint64{1, 42, 0xdecaf}

// policies returns the mechanism grid: whole-warp baseline plus the
// six mechanism families (FSS, FSS+RTS, RSS skewed, RSS normal,
// RSS+RTS, and FSS at M=1 — the degenerate single-subwarp point) at
// each subwarp count in ms.
func policies(ms []int) []mechanism.Mechanism {
	ps := []mechanism.Mechanism{mechanism.Baseline(), mechanism.FSS(1)}
	for _, m := range ms {
		ps = append(ps,
			mechanism.FSS(m),
			mechanism.FSSRTS(m),
			mechanism.RSS(m),
			mechanism.RSSNormal(m, 1.5),
			mechanism.RSSRTS(m),
		)
	}
	return ps
}

// DefaultGrid is the full differential grid: 6 mechanism families ×
// subwarp counts {2, 4, 8} × 3 seeds.
func DefaultGrid() Grid {
	return Grid{
		Policies:         policies([]int{2, 4, 8}),
		Seeds:            equivSeeds,
		Samples:          3,
		Lines:            32,
		VulnerableRounds: []int{10},
	}
}

// ShortGrid is the PR-sized grid: same mechanism families, one subwarp
// count, same three seeds.
func ShortGrid() Grid {
	g := DefaultGrid()
	g.Policies = policies([]int{4})
	return g
}

func (g Grid) config() gpusim.Config {
	cfg := gpusim.DefaultConfig()
	cfg.VulnerableRounds = append([]int(nil), g.VulnerableRounds...)
	return cfg
}

// ForkExact checks that for every seed, one ForkedCollect across the
// full policy set equals a fresh vanilla Collect per policy.
func ForkExact(g Grid, key []byte) error {
	cfg := g.config()
	for _, seed := range g.Seeds {
		want := make([]*aesgpu.Dataset, len(g.Policies))
		for i, p := range g.Policies {
			vcfg := cfg
			vcfg.Defense = p
			srv, err := aesgpu.NewServer(vcfg, key)
			if err != nil {
				return err
			}
			if want[i], err = srv.Collect(g.Samples, g.Lines, seed); err != nil {
				return err
			}
		}
		got, err := aesgpu.ForkedCollect(cfg, key, g.Policies, g.Samples, g.Lines, seed)
		if err != nil {
			return err
		}
		for i := range want {
			if !reflect.DeepEqual(got[i], want[i]) {
				return fmt.Errorf("equiv: forked dataset diverged (policy %s, seed %#x)",
					g.Policies[i].Name(), seed)
			}
		}
	}
	return nil
}
