package experiments

import (
	"strings"
	"testing"
)

func TestExtSelectiveRecoversPerformance(t *testing.T) {
	o := testOptions()
	r, err := ExtSelective(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 4 {
		t.Fatalf("%d rows", len(r.Rows))
	}
	base, full, sel := r.Rows[0], r.Rows[1], r.Rows[2]
	// Full RCoal costs real time; selective recovers most of it.
	if full.NormCycles < 1.2 {
		t.Errorf("full RCoal overhead %v too small", full.NormCycles)
	}
	if sel.NormCycles >= full.NormCycles {
		t.Errorf("selective (%v) not cheaper than full (%v)", sel.NormCycles, full.NormCycles)
	}
	if sel.NormCycles > 1.15 {
		t.Errorf("selective overhead %v should be near baseline", sel.NormCycles)
	}
	// Last-round protection identical: same plan governs round 10.
	if sel.LastRoundCorr != full.LastRoundCorr {
		t.Errorf("selective last-round corr %v != full %v", sel.LastRoundCorr, full.LastRoundCorr)
	}
	// Undefended baseline has a fully open channel.
	if base.LastRoundCorr < 0.999 {
		t.Errorf("baseline channel corr %v, want 1", base.LastRoundCorr)
	}
}

func TestExtHierarchyShape(t *testing.T) {
	o := testOptions()
	r, err := ExtHierarchy(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 5 {
		t.Fatalf("%d rows", len(r.Rows))
	}
	noCache, l2 := r.Rows[0], r.Rows[2]
	// The paper-baseline channel is wide open.
	if noCache.ChannelCorr < 0.9 {
		t.Errorf("no-cache channel corr %v", noCache.ChannelCorr)
	}
	// Caches absorb DRAM traffic dramatically (the AES tables fit).
	if l2.DRAMAccesses >= noCache.DRAMAccesses/2 {
		t.Errorf("L2 DRAM accesses %v not well below %v", l2.DRAMAccesses, noCache.DRAMAccesses)
	}
	if !strings.Contains(r.Render(), "hierarchy") {
		t.Error("render missing title")
	}
}

func TestExtInferMPerfect(t *testing.T) {
	o := testOptions()
	r, err := ExtInferM(o)
	if err != nil {
		t.Fatal(err)
	}
	if r.Accuracy() < 1 {
		t.Errorf("inference accuracy %v, want 1.0 (paper: timing separates all M)", r.Accuracy())
	}
}

func TestExtRSSDistPaperClaim(t *testing.T) {
	o := testOptions()
	r, err := ExtRSSDist(o)
	if err != nil {
		t.Fatal(err)
	}
	fss, normal, skewed := r.Rows[0], r.Rows[1], r.Rows[2]
	// §IV-B: normal-sized RSS behaves like FSS; skewed improves both.
	if fss.FullKeyCorr < 0.999 {
		t.Errorf("FSS channel corr %v, want 1", fss.FullKeyCorr)
	}
	if normal.FullKeyCorr <= skewed.FullKeyCorr {
		t.Errorf("normal sizing corr %v should exceed skewed %v", normal.FullKeyCorr, skewed.FullKeyCorr)
	}
	if skewed.MeanTx >= fss.MeanTx {
		t.Errorf("skewed tx %v not below FSS %v", skewed.MeanTx, fss.MeanTx)
	}
}

func TestExtModesAttackTransfers(t *testing.T) {
	o := testOptions()
	o.Samples = 60
	r, err := ExtModes(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 4 {
		t.Fatalf("%d rows", len(r.Rows))
	}
	for _, row := range r.Rows {
		switch row.Defense {
		case "Baseline":
			// The channel is open: correct-byte correlation well above
			// the noise floor and at least some bytes recovered.
			if row.AvgCorr < 0.15 {
				t.Errorf("%s undefended: avg corr %v too low", row.Service, row.AvgCorr)
			}
			if row.Recovered == 0 {
				t.Errorf("%s undefended: no bytes recovered", row.Service)
			}
		default:
			// RCoal closes it.
			if row.AvgCorr > 0.15 {
				t.Errorf("%s defended: avg corr %v still high", row.Service, row.AvgCorr)
			}
			if row.Recovered > 2 {
				t.Errorf("%s defended: %d bytes recovered", row.Service, row.Recovered)
			}
		}
	}
}

func TestExtEq4TransitionShape(t *testing.T) {
	o := testOptions()
	o.Samples = 100 // 10 trials per point
	r, err := ExtEq4(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 4 {
		t.Fatalf("%d rows", len(r.Rows))
	}
	for _, row := range r.Rows {
		// Success increases with samples and is high at 4x the
		// prediction.
		if row.SuccessRate[2] < row.SuccessRate[0] {
			t.Errorf("%s: success not increasing: %v", row.Mechanism, row.SuccessRate)
		}
		if row.SuccessRate[2] < 0.8 {
			t.Errorf("%s: success at 4S = %v, want >= 0.8", row.Mechanism, row.SuccessRate[2])
		}
		if row.SuccessRate[0] > 0.7 {
			t.Errorf("%s: success at S/4 = %v suspiciously high", row.Mechanism, row.SuccessRate[0])
		}
	}
}

func TestExtRealisticOrdering(t *testing.T) {
	o := testOptions()
	o.Samples = 80
	r, err := ExtRealistic(o)
	if err != nil {
		t.Fatal(err)
	}
	bound, strong, realistic := r.Rows[0], r.Rows[1], r.Rows[2]
	// The attacker hierarchy: bound >= strong >> realistic.
	if strong.AvgCorr > bound.AvgCorr+0.05 {
		t.Errorf("strong corr %v above noise-free bound %v", strong.AvgCorr, bound.AvgCorr)
	}
	if realistic.AvgCorr >= strong.AvgCorr {
		t.Errorf("realistic corr %v not below strong %v", realistic.AvgCorr, strong.AvgCorr)
	}
	if realistic.Recovered > strong.Recovered {
		t.Errorf("realistic recovered %d > strong %d", realistic.Recovered, strong.Recovered)
	}
}

func TestExtSensitivityDirections(t *testing.T) {
	r, err := ExtSensitivity(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Paper config must match Table II.
	base := r.Row(32, 16, 2)
	if base == nil || base.RhoRSSRTS < 0.19 || base.RhoRSSRTS > 0.21 {
		t.Fatalf("base row wrong: %+v", base)
	}
	// Coarser lines (R=8) strengthen RSS+RTS; finer (R=32) weaken it.
	if r.Row(32, 8, 2).RhoRSSRTS >= base.RhoRSSRTS {
		t.Error("R=8 did not strengthen RSS+RTS")
	}
	if r.Row(32, 32, 2).RhoRSSRTS <= base.RhoRSSRTS {
		t.Error("R=32 did not weaken RSS+RTS")
	}
	// Wider warps strengthen both mechanisms.
	if r.Row(64, 16, 2).RhoRSSRTS >= base.RhoRSSRTS {
		t.Error("N=64 did not strengthen RSS+RTS")
	}
	if r.Row(64, 16, 2).RhoFSSRTS >= r.Row(32, 16, 2).RhoFSSRTS {
		t.Error("N=64 did not strengthen FSS+RTS")
	}
}

func TestExtEnergyTracksDataMovement(t *testing.T) {
	o := testOptions()
	r, err := ExtEnergy(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 5 {
		t.Fatalf("%d rows", len(r.Rows))
	}
	base, fss8, nocoal := r.Rows[0], r.Rows[1], r.Rows[4]
	if base.NormEnergy != 1 {
		t.Errorf("baseline not normalized: %v", base.NormEnergy)
	}
	if fss8.NormEnergy <= 1.3 {
		t.Errorf("FSS(8) energy %v, want clearly above baseline", fss8.NormEnergy)
	}
	if nocoal.NormEnergy < fss8.NormEnergy {
		t.Errorf("disabled coalescing (%v) cheaper than FSS(8) (%v)", nocoal.NormEnergy, fss8.NormEnergy)
	}
	for _, row := range r.Rows {
		if row.DRAMShare < 0.5 || row.DRAMShare > 0.95 {
			t.Errorf("%s: DRAM share %v outside plausible band", row.Label, row.DRAMShare)
		}
	}
}

func TestExtNoiseDegradesChannel(t *testing.T) {
	o := testOptions()
	o.Samples = 25
	r, err := ExtNoise(o)
	if err != nil {
		t.Fatal(err)
	}
	clean := r.Rows[0]
	if clean.ChannelCorr < 0.9 {
		t.Errorf("clean channel corr %v", clean.ChannelCorr)
	}
	heavy := r.Rows[len(r.Rows)-1]
	if heavy.ChannelCorr > clean.ChannelCorr/2 {
		t.Errorf("heavy load channel corr %v did not collapse from %v", heavy.ChannelCorr, clean.ChannelCorr)
	}
}
