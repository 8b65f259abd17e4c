package equiv

import "testing"

// The CI `make equiv` target runs exactly this file: with -short (the
// PR gate) the reduced grid, without (main) the full 6-mechanism ×
// 3-subwarp-count × 3-seed matrix.

func testGrid() Grid {
	if testing.Short() {
		return ShortGrid()
	}
	return DefaultGrid()
}

var equivKey = []byte("equiv-harness-ky")

func TestForkExact(t *testing.T) {
	if err := ForkExact(testGrid(), equivKey); err != nil {
		t.Fatal(err)
	}
}
