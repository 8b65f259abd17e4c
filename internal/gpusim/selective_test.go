package gpusim

import (
	"fmt"
	"testing"

	"rcoal/internal/mechanism"
)

// This file pins the selective-RCoal path the ext-selective-sweep
// experiment measures: with VulnerableRounds set, every mechanism runs
// the Baseline's coalescing until the first warp enters a vulnerable
// round, and forks from it there.

// selectiveDigestFile pins one line per subtest and seed of
// TestForkByteIdenticalResults, "<subtest> <seed> <Result digest>".
// Regenerate with
// go test ./internal/gpusim -run 'TestForkByteIdenticalResults$' -update
// only for a deliberate model change; like digestFile, it is rewritten
// from the lines the run computes.
const selectiveDigestFile = "testdata/selective_digests.txt"

// forkMechanisms spans six mechanism families × three subwarp counts.
func forkMechanisms() []mechanism.Mechanism {
	var out []mechanism.Mechanism
	out = append(out, mechanism.Baseline())
	for _, m := range []int{2, 4, 8} {
		out = append(out,
			mechanism.FSS(m),
			mechanism.FSSRTS(m),
			mechanism.RSS(m),
			mechanism.RSSRTS(m),
			mechanism.RSSNormal(m, 1.5),
		)
	}
	return out
}

// forkConfig returns a selective config with the given mechanism and
// vulnerable rounds.
func forkConfig(mech mechanism.Mechanism, vulnerable []int, mut func(*Config)) Config {
	cfg := DefaultConfig()
	cfg.Defense = mech
	cfg.VulnerableRounds = vulnerable
	if mut != nil {
		mut(&cfg)
	}
	return cfg
}

// TestForkByteIdenticalResults runs one kernel under selective RCoal
// (the last of its four rounds vulnerable) across every mechanism,
// subwarp count and seed. Each run must fork from the Baseline's: every
// warp round that closed before the first warp entered round 4 has the
// Baseline run's window and transaction count, and rounds 1-3 issue
// the Baseline's transactions in all. The whole Result must also match
// its pinned digest, so a change to the path the selective sweep
// measures shows even where the Baseline changes alike.
func TestForkByteIdenticalResults(t *testing.T) {
	pinned := map[string]string{}
	if *updateDigests {
		defer func() { writeDigests(t, selectiveDigestFile, pinned) }()
	} else {
		pinned = loadDigests(t, selectiveDigestFile)
	}
	kern := randomKernel(11, 4, 4)
	const vulnerable = 4
	seeds := []uint64{1, 42, 0xdecaf}

	variants := []struct {
		name string
		mut  func(*Config)
	}{
		{"plain", nil},
		{"mshr", func(c *Config) { c.MSHREnabled = true }},
		{"ff-off", func(c *Config) { c.FastForwardDisabled = true }},
	}

	for _, variant := range variants {
		t.Run(variant.name, func(t *testing.T) {
			base := mustGPU(t, forkConfig(mechanism.Baseline(), []int{vulnerable}, variant.mut))
			for _, seed := range seeds {
				prefix, err := base.Run(kern, seed)
				if err != nil {
					t.Fatalf("seed %d: Baseline: %v", seed, err)
				}
				forkAt := prefix.Cycles
				for _, w := range prefix.Warps {
					if s := w.RoundStart[vulnerable]; s >= 0 && s < forkAt {
						forkAt = s
					}
				}
				for _, mech := range forkMechanisms() {
					name := fmt.Sprintf("%s/seed%d", mech.Name(), seed)
					t.Run(name, func(t *testing.T) {
						got, err := mustGPU(t, forkConfig(mech, []int{vulnerable}, variant.mut)).Run(kern, seed)
						if err != nil {
							t.Fatal(err)
						}
						closed := 0
						for i, w := range got.Warps {
							pw := prefix.Warps[i]
							for r := 1; r < vulnerable; r++ {
								if pw.RoundEnd[r] < 0 || pw.RoundEnd[r] >= forkAt {
									continue
								}
								closed++
								if w.RoundStart[r] != pw.RoundStart[r] || w.RoundEnd[r] != pw.RoundEnd[r] || w.RoundTx[r] != pw.RoundTx[r] {
									t.Fatalf("warp %d round %d closed at %d, before the fork at %d, but differs from the Baseline: [%d,%d] %d tx, Baseline [%d,%d] %d tx",
										i, r, pw.RoundEnd[r], forkAt, w.RoundStart[r], w.RoundEnd[r], w.RoundTx[r],
										pw.RoundStart[r], pw.RoundEnd[r], pw.RoundTx[r])
								}
							}
						}
						if closed == 0 {
							t.Fatalf("no round closed before the fork at cycle %d", forkAt)
						}
						for r := 1; r < vulnerable; r++ {
							if got.RoundTx[r] != prefix.RoundTx[r] {
								t.Fatalf("round %d issued %d transactions, the Baseline %d", r, got.RoundTx[r], prefix.RoundTx[r])
							}
						}
						pin(t, pinned, selectiveDigestFile, fmt.Sprintf("%s/%s %d", variant.name, mech.Name(), seed), digest(t, got))
					})
				}
			}
		})
	}
}
