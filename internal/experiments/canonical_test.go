package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"rcoal/internal/mechanism"
)

// TestCanonicalBaselineEquivalence is the property mechanism.Canonical
// rests on: every family at M = 1 collects a dataset deeply equal to
// the undefended baseline's, at 32 and 1024 lines and three seeds, and
// measures bit-equal to it in the cells of Sweep (32 lines) and Fig18
// (1024 lines) — so those rows may take the baseline's cell.
func TestCanonicalBaselineEquivalence(t *testing.T) {
	for _, lines := range []int{32, 1024} {
		if lines > 32 && testing.Short() {
			t.Log("skipping 1024 lines in -short mode")
			continue
		}
		for _, seed := range []uint64{1, 2, 0x8C0A1} {
			t.Run(fmt.Sprintf("lines=%d/seed=%#x", lines, seed), func(t *testing.T) {
				o := DefaultOptions()
				o.Samples = 4
				o.Lines = lines
				o.Seed = seed
				o.Workers = 1
				measure := func(p mechanism.Mechanism) []byte {
					t.Helper()
					var mm any
					var err error
					if lines == 1024 {
						mm, err = measureFig18(o, p)
					} else {
						mm, err = measureSweep(o, p)
					}
					if err != nil {
						t.Fatal(err)
					}
					raw, err := json.Marshal(mm)
					if err != nil {
						t.Fatal(err)
					}
					return raw
				}
				_, want, err := collect(o, mechanism.Baseline())
				if err != nil {
					t.Fatal(err)
				}
				wantCell := measure(mechanism.Baseline())
				for _, fam := range Families {
					p, err := familyPolicy(fam, 1)
					if err != nil {
						t.Fatal(err)
					}
					if got := mechanism.Canonical(p); got != "baseline" {
						t.Errorf("%s:1 canonicalizes to %q", fam, got)
					}
					_, got, err := collect(o, p)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Errorf("%s:1 dataset differs from the baseline's", fam)
					}
					if cell := measure(p); !bytes.Equal(cell, wantCell) {
						t.Errorf("%s:1 measures %s, baseline %s", fam, cell, wantCell)
					}
				}
			})
		}
	}
}
