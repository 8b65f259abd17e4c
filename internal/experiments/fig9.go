package experiments

import (
	"strings"

	"rcoal/internal/core"
	"rcoal/internal/mechanism"
	"rcoal/internal/report"
	"rcoal/internal/rng"
)

func init() { Registry["fig9"] = func(o Options) (Result, error) { return Fig9(o) } }

// Fig9Result reproduces Figure 9: the subwarp-size distribution of RSS
// under normal and skewed sizing, for num-subwarp = 4 over many
// launches.
type Fig9Result struct {
	M      int
	Draws  int
	Normal []int // Normal[s] = how often a subwarp of size s occurred
	Skewed []int
}

// Fig9Draws matches the paper's 1000 plaintexts.
const Fig9Draws = 1000

// fig9Width is the render width of the histogram bars.
const fig9Width = 40

// Fig9 samples both RSS sizing distributions.
func Fig9(o Options) (*Fig9Result, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	const m = 4
	res := &Fig9Result{M: m, Draws: Fig9Draws,
		Normal: make([]int, 33), Skewed: make([]int, 33)}
	rNorm := rng.New(o.Seed).Split(901)
	rSkew := rng.New(o.Seed).Split(902)
	normal := mechanism.RSSNormal(m, 1.5)
	skewed := mechanism.RSS(m)
	for d := 0; d < Fig9Draws; d++ {
		nl, err := normal.NewLaunch(core.DefaultWarpSize, rNorm)
		if err != nil {
			return nil, err
		}
		for _, s := range nl.Plan.Sizes {
			res.Normal[s]++
		}
		sl, err := skewed.NewLaunch(core.DefaultWarpSize, rSkew)
		if err != nil {
			return nil, err
		}
		for _, s := range sl.Plan.Sizes {
			res.Skewed[s]++
		}
	}
	return res, nil
}

// Mode returns the most frequent subwarp size of a histogram.
func Mode(hist []int) int {
	best := 0
	for s, c := range hist {
		if c > hist[best] {
			best = s
		}
	}
	return best
}

// Render implements Result.
func (r *Fig9Result) Render() string {
	var b strings.Builder
	b.WriteString("Figure 9: RSS subwarp size distribution, num-subwarp = 4, 1000 plaintexts\n\n")
	b.WriteString(report.Histogram("Normal sizing (mode should sit at 32/M = 8):", r.Normal, fig9Width))
	b.WriteString("\n")
	b.WriteString(report.Histogram("Skewed sizing (uniform over compositions; small sizes dominate):", r.Skewed, fig9Width))
	b.WriteString("\nPaper: the skewed distribution is the RSS default — it spreads sizes\n" +
		"widely, improving both security and coalescing opportunities.\n")
	return b.String()
}
