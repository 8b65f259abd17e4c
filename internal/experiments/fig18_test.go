package experiments

import (
	"math"
	"testing"
)

func TestFig18CaseStudy(t *testing.T) {
	if testing.Short() {
		t.Skip("1024-line case study is slow; run without -short")
	}
	o := testOptions()
	o.Samples = 6
	r, err := Fig18(o)
	if err != nil {
		t.Fatal(err)
	}
	if r.Lines != 1024 {
		t.Fatalf("lines = %d", r.Lines)
	}
	if len(r.Cells) != len(Families)*len(Fig18Subwarps) {
		t.Fatalf("%d cells", len(r.Cells))
	}
	for _, mech := range Families {
		// Execution time grows with num-subwarp (18b).
		prev := 0.0
		for _, m := range Fig18Subwarps {
			c := r.Cell(mech, m)
			if c.NormCycles <= prev {
				t.Errorf("%s M=%d: time %v not increasing", mech, m, c.NormCycles)
			}
			prev = c.NormCycles
		}
		// The FSS attack reconstructs FSS access counts exactly; the
		// randomized mechanisms cannot be reconstructed exactly.
		for _, m := range Fig18Subwarps {
			c := r.Cell(mech, m)
			if mech == "fss" || m == 1 {
				if math.Abs(c.FullKeyCorr-1) > 1e-9 {
					t.Errorf("%s M=%d: full-key corr %v, want exactly 1", mech, m, c.FullKeyCorr)
				}
			} else if c.FullKeyCorr > 0.9 {
				t.Errorf("%s M=%d: full-key corr %v too high for a randomized mechanism", mech, m, c.FullKeyCorr)
			}
		}
	}
	// Paper's headline range: RSS+RTS costs 29-76% at M = 2..8 for 1024
	// lines; shape check — overhead within a sane band.
	for _, m := range []int{2, 4, 8} {
		c := r.Cell("rss+rts", m)
		if c.NormCycles < 1.05 || c.NormCycles > 3 {
			t.Errorf("RSS+RTS M=%d: overhead %vx outside plausible band", m, c.NormCycles)
		}
	}
}
