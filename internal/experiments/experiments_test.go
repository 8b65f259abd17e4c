package experiments

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// testOptions keeps experiment tests fast; shape assertions hold at
// reduced scale.
func testOptions() Options {
	o := DefaultOptions()
	o.Samples = 30
	return o
}

func TestOptionsValidation(t *testing.T) {
	bad := DefaultOptions()
	bad.Samples = 1
	if bad.validate() == nil {
		t.Error("1 sample accepted")
	}
	bad = DefaultOptions()
	bad.Lines = 0
	if bad.validate() == nil {
		t.Error("0 lines accepted")
	}
	bad = DefaultOptions()
	bad.Key = []byte("short")
	if bad.validate() == nil {
		t.Error("bad key accepted")
	}
}

// TestMechanismNaming: the families' labels are the paper's names,
// and each family keyword parses to the policy of that name.
func TestMechanismNaming(t *testing.T) {
	var labels []string
	for _, fam := range Families {
		label := strings.ToUpper(fam)
		labels = append(labels, label)
		p, err := familyPolicy(fam, 4)
		if err != nil {
			t.Fatalf("%s: %v", fam, err)
		}
		if want := label + "(4)"; p.Name() != want {
			t.Errorf("%s:4 is %s, want %s", fam, p.Name(), want)
		}
	}
	if want := []string{"FSS", "FSS+RTS", "RSS", "RSS+RTS"}; !reflect.DeepEqual(labels, want) {
		t.Errorf("family labels %q, want %q", labels, want)
	}
}

func TestRegistryComplete(t *testing.T) {
	want := []string{"fig5", "fig6", "fig7", "fig8", "fig9", "fig10",
		"fig12", "fig13", "fig14", "fig15", "fig16", "fig17", "fig18",
		"nocoal", "table1", "table2",
		"ext-selective", "ext-hierarchy", "ext-inferm", "ext-scheduler",
		"ext-planperwarp", "ext-rssdist", "ext-modes", "ext-workloads",
		"ext-eq4", "ext-realistic", "ext-sensitivity", "ext-energy", "ext-noise",
		"ext-sharedmem", "ext-selective-sweep", "ext-defense-frontier"}
	for _, id := range want {
		if _, ok := Registry[id]; !ok {
			t.Errorf("experiment %q not registered", id)
		}
	}
	if len(IDs()) != len(want) {
		t.Errorf("registry has %d entries, want %d: %v", len(IDs()), len(want), IDs())
	}
	if _, err := Run("nope", testOptions()); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestFig5Shape(t *testing.T) {
	r, err := Fig5(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if r.RhoTxLastTime < 0.9 {
		t.Errorf("last-round channel rho = %v, want > 0.9", r.RhoTxLastTime)
	}
	if r.RhoTxTotalTime >= r.RhoTxLastTime {
		t.Error("total-time channel should be noisier than last-round channel")
	}
	if len(r.Pairs) != 30 {
		t.Errorf("%d pairs", len(r.Pairs))
	}
	if !strings.Contains(r.Render(), "Figure 5") {
		t.Error("render missing title")
	}
}

func TestFig6Shape(t *testing.T) {
	o := testOptions()
	o.Samples = 60 // byte-0 recovery needs a bit more signal
	r, err := Fig6(o)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Enabled.Byte0Recovered {
		t.Errorf("coalescing enabled: k0 not recovered (rank %d)", r.Enabled.Rank)
	}
	if r.Enabled.KeyBytesRecovered <= r.Disabled.KeyBytesRecovered {
		t.Error("enabled should recover more bytes than disabled")
	}
	// Disabled coalescing: correct-byte correlation collapses.
	if c := r.Disabled.Byte0.Correlations[r.Disabled.TrueByte]; c > 0.3 {
		t.Errorf("disabled: correct correlation %v still high", c)
	}
	if !strings.Contains(r.Render(), "DISABLED") {
		t.Error("render missing disabled section")
	}
}

func TestFig7Shape(t *testing.T) {
	r, err := Fig7(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != len(Fig7Subwarps) {
		t.Fatalf("%d rows", len(r.Rows))
	}
	// 7a: time and accesses strictly increase with num-subwarp.
	for i := 1; i < len(r.Rows); i++ {
		if r.Rows[i].MeanCycles <= r.Rows[i-1].MeanCycles {
			t.Errorf("M=%d: cycles %v not above M=%d's %v",
				r.Rows[i].M, r.Rows[i].MeanCycles, r.Rows[i-1].M, r.Rows[i-1].MeanCycles)
		}
		if r.Rows[i].MeanAccesses <= r.Rows[i-1].MeanAccesses {
			t.Errorf("M=%d: accesses not increasing", r.Rows[i].M)
		}
	}
	// 7b: baseline-attack correlation decays: M=1 clearly above M=32.
	first, last := r.Rows[0].BaselineAttackCorr, r.Rows[len(r.Rows)-1].BaselineAttackCorr
	if first < 0.15 {
		t.Errorf("M=1 baseline-attack corr %v too low", first)
	}
	if last > first/2 {
		t.Errorf("M=32 corr %v did not decay from %v", last, first)
	}
}

func TestFig8FSSAttackBeatsFSS(t *testing.T) {
	o := testOptions()
	o.Samples = 60
	r, err := ScatterExperiment(o, "fss", "fig8")
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Panels) != len(ScatterSubwarps) {
		t.Fatalf("%d panels", len(r.Panels))
	}
	// The FSS attack tracks FSS exactly; the correct byte should rank
	// at or near the top in every panel.
	for _, p := range r.Panels {
		if p.Rank > 8 {
			t.Errorf("M=%d: correct byte rank %d, FSS attack should nearly win", p.M, p.Rank)
		}
	}
	if r.RecoveredCount() < len(r.Panels)/2 {
		t.Errorf("FSS attack recovered only %d/%d panels", r.RecoveredCount(), len(r.Panels))
	}
}

// TestScatterRejectsTooFewSamples: the scatter figures need more than
// three samples for their noise floor, so 2 and 3 (which
// Options.validate allows) are an error, not a panic after every cell
// has run.
func TestScatterRejectsTooFewSamples(t *testing.T) {
	for _, id := range []string{"fig8", "fig12", "fig13", "fig14"} {
		for _, n := range []int{2, 3} {
			t.Run(fmt.Sprintf("%s/%d", id, n), func(t *testing.T) {
				defer func() {
					if p := recover(); p != nil {
						t.Fatalf("panicked: %v", p)
					}
				}()
				o := testOptions()
				o.Samples = n
				if _, err := Run(id, o); err == nil || !strings.Contains(err.Error(), "samples") {
					t.Errorf("error = %v, want one about samples", err)
				}
			})
		}
	}
}

func TestFig12RandomizationResists(t *testing.T) {
	o := testOptions()
	o.Samples = 60
	for _, mech := range []string{"fss+rts", "rss+rts"} {
		r, err := ScatterExperiment(o, mech, "figX")
		if err != nil {
			t.Fatal(err)
		}
		// Paper: recovery difficult for num-subwarp > 2. Check the
		// M >= 4 panels collectively: at most one lucky recovery.
		lucky := 0
		for _, p := range r.Panels[1:] {
			if p.Recovered {
				lucky++
			}
		}
		if lucky > 1 {
			t.Errorf("%s: %d/3 high-M panels recovered; randomization failed", mech, lucky)
		}
	}
}

func TestFig9Shape(t *testing.T) {
	r, err := Fig9(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if got := Mode(r.Normal); got < 7 || got > 9 {
		t.Errorf("normal mode at %d, want ≈8", got)
	}
	if got := Mode(r.Skewed); got != 1 {
		t.Errorf("skewed mode at %d, want 1", got)
	}
	// Both histograms hold Draws × M sizes.
	sum := 0
	for _, c := range r.Skewed {
		sum += c
	}
	if sum != Fig9Draws*r.M {
		t.Errorf("skewed histogram holds %d sizes, want %d", sum, Fig9Draws*r.M)
	}
}

func TestFig10MatchesPaper(t *testing.T) {
	r, err := Fig10(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range r.Rows {
		if row.Accesses != row.Expected {
			t.Errorf("%s: %d accesses, paper says %d", row.Label, row.Accesses, row.Expected)
		}
	}
}

func TestSweepShape(t *testing.T) {
	o := testOptions()
	o.Samples = 20
	s, err := Sweep(o, []int{1, 4, 16})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Cells) != len(Families)*3 {
		t.Fatalf("%d cells", len(s.Cells))
	}
	for _, mech := range Families {
		// Normalized metrics increase with M for every mechanism.
		prev := 0.0
		for _, m := range []int{1, 4, 16} {
			c := s.Cell(mech, m)
			if c == nil {
				t.Fatalf("missing cell %s M=%d", mech, m)
			}
			if c.NormCycles <= prev {
				t.Errorf("%s M=%d: normalized cycles %v not increasing", mech, m, c.NormCycles)
			}
			prev = c.NormCycles
		}
		// num-subwarp = 1 sits at the baseline.
		if c := s.Cell(mech, 1); c.NormCycles < 0.95 || c.NormCycles > 1.05 {
			t.Errorf("%s M=1 normalized cycles %v, want ≈1", mech, c.NormCycles)
		}
	}
	if s.Cell("FSS", 99) != nil {
		t.Error("phantom cell returned")
	}
}

func TestFig16RSSCheaperThanFSS(t *testing.T) {
	o := testOptions()
	o.Samples = 20
	r, err := Fig16(o)
	if err != nil {
		t.Fatal(err)
	}
	// Paper: skewed sizing recovers coalescing opportunities — RSS
	// moves less data than FSS at intermediate num-subwarp.
	for _, m := range []int{4, 8, 16} {
		if rss, fss := r.Sweep.Cell("RSS", m).MeanTx, r.Sweep.Cell("FSS", m).MeanTx; rss >= fss {
			t.Errorf("M=%d: RSS tx %v not below FSS tx %v", m, rss, fss)
		}
	}
	// M=32: all mechanisms degenerate to one thread per subwarp.
	if a, b := r.Sweep.Cell("FSS", 32).MeanTx, r.Sweep.Cell("RSS+RTS", 32).MeanTx; a != b {
		t.Errorf("M=32 tx differ: FSS %v vs RSS+RTS %v", a, b)
	}
}

func TestFig17ScoresFavorRandomization(t *testing.T) {
	o := testOptions()
	o.Samples = 30
	r, err := Fig17(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != len(Fig15Subwarps) {
		t.Fatalf("%d rows", len(r.Rows))
	}
	// At num-subwarp >= 8, a randomized mechanism must outscore FSS in
	// the security-oriented design (FSS's correlation stays high).
	for _, row := range r.Rows {
		if row.M < 8 {
			continue
		}
		fss := row.SecurityScore["FSS"]
		best := row.SecurityScore["FSS+RTS"]
		if row.SecurityScore["RSS+RTS"] > best {
			best = row.SecurityScore["RSS+RTS"]
		}
		if best <= fss {
			t.Errorf("M=%d: randomized best score %v not above FSS %v", row.M, best, fss)
		}
	}
}

func TestNoCoalShape(t *testing.T) {
	o := testOptions()
	o.Samples = 5
	r, err := NoCoal(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 2 {
		t.Fatalf("%d rows", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.SlowdownPct <= 0 {
			t.Errorf("%d lines: slowdown %v%%, want positive", row.Lines, row.SlowdownPct)
		}
		if row.TxRatio < 1.5 {
			t.Errorf("%d lines: tx ratio %v, want > 1.5", row.Lines, row.TxRatio)
		}
	}
	// The 1024-line slowdown exceeds the 32-line one (paper: 178%).
	if r.Rows[1].SlowdownPct <= r.Rows[0].SlowdownPct {
		t.Error("1024-line slowdown should exceed 32-line slowdown")
	}
}

func TestTable2Experiment(t *testing.T) {
	r, err := Table2(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 6 {
		t.Fatalf("%d rows", len(r.Rows))
	}
	out := r.Render()
	for _, want := range []string{"961", "349", "115", "inf"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
}

func TestTable1Experiment(t *testing.T) {
	r, err := Table1(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	out := r.Render()
	for _, want := range []string{"15 SMs", "GDDR5", "FR-FCFS"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
}

func TestAllRendersNonEmpty(t *testing.T) {
	// Cheap experiments only; the expensive ones have dedicated tests.
	o := testOptions()
	o.Samples = 5
	for _, id := range []string{"fig5", "fig9", "fig10", "table1", "table2"} {
		res, err := Run(id, o)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(res.Render()) < 40 {
			t.Errorf("%s render suspiciously short", id)
		}
	}
}

func TestCSVExports(t *testing.T) {
	o := testOptions()
	o.Samples = 5

	var res Result
	var err error
	if res, err = Fig5(o); err != nil {
		t.Fatal(err)
	}
	out := res.(CSVer).CSV()
	if !strings.HasPrefix(out, "last_round_tx,") || strings.Count(out, "\n") != 6 {
		t.Errorf("fig5 csv:\n%s", out)
	}

	if res, err = Table2(o); err != nil {
		t.Fatal(err)
	}
	out = res.(CSVer).CSV()
	if !strings.Contains(out, "961") {
		t.Errorf("table2 csv missing data:\n%s", out)
	}

	if res, err = Fig9(o); err != nil {
		t.Fatal(err)
	}
	out = res.(CSVer).CSV()
	if !strings.HasPrefix(out, "size,normal_count,skewed_count\n") {
		t.Errorf("fig9 csv header wrong")
	}

}

func TestEveryExperimentRunsAndRenders(t *testing.T) {
	if testing.Short() {
		t.Skip("full registry smoke is slow; run without -short")
	}
	heavy := map[string]bool{"fig18": true, "nocoal": true} // covered by dedicated tests
	o := testOptions()
	o.Samples = 8
	for _, id := range IDs() {
		if heavy[id] {
			continue
		}
		id := id
		t.Run(id, func(t *testing.T) {
			res, err := Run(id, o)
			if err != nil {
				t.Fatalf("%s: %v", id, err)
			}
			out := res.Render()
			if len(out) < 60 {
				t.Errorf("%s: render suspiciously short:\n%s", id, out)
			}
			if c, ok := res.(CSVer); ok {
				csv := c.CSV()
				if !strings.Contains(csv, ",") || !strings.Contains(csv, "\n") {
					t.Errorf("%s: malformed csv", id)
				}
			}
		})
	}
}
