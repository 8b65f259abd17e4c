package experiments

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"strings"

	"rcoal/internal/gpusim"
	"rcoal/internal/kernels"
	"rcoal/internal/mechanism"
	"rcoal/internal/report"
	"rcoal/internal/rng"
)

func init() {
	Registry["ext-workloads"] = func(o Options) (Result, error) { return ExtWorkloads(o) }
}

// ExtWorkloadsCell is one (pattern, mechanism) performance point.
type ExtWorkloadsCell struct {
	Pattern   string
	Mechanism string
	// NormCycles is the slowdown relative to the same pattern under
	// baseline coalescing.
	NormCycles float64
	// NormTx is the data-movement multiplier.
	NormTx float64
}

// ExtWorkloadsResult characterizes the mechanisms' overhead across
// memory-access patterns beyond AES: RCoal's cost is workload-
// dependent — highly coalescable (sequential/hotspot) patterns pay the
// most, already-divergent (strided) patterns pay nothing.
type ExtWorkloadsResult struct {
	Cells []ExtWorkloadsCell
}

// ExtWorkloads measures each mechanism on each synthetic pattern. The
// (pattern, mechanism) cells fan out over Options.Workers; each cell
// owns its simulator, and per-rep seeds derive via workloadSeed so the
// kernel stream is shared by every mechanism within a pattern (the
// normalization compares like against like) while the hardware stream
// stays distinct from it.
func ExtWorkloads(o Options) (*ExtWorkloadsResult, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	const warps, loads = 4, 64
	policies := []mechanism.Mechanism{mechanism.Baseline(), mechanism.FSS(8), mechanism.RSS(8), mechanism.RSSRTS(8), mechanism.FSS(32)}
	reps := o.Samples / 10
	if reps < 3 {
		reps = 3
	}

	type job struct {
		pattern kernels.Pattern
		policy  mechanism.Mechanism
	}
	jobs := make([]job, 0, len(kernels.AllPatterns)*len(policies))
	for _, p := range kernels.AllPatterns {
		for _, policy := range policies {
			jobs = append(jobs, job{pattern: p, policy: policy})
		}
	}
	// Exported fields: cells round-trip through the checkpoint journal
	// as JSON when Options.Journal is attached.
	type raw struct{ Cycles, Tx float64 }
	raws, err := runCells(o, "ext-workloads", jobs,
		func(jb job) string { return jb.pattern.String() + "/" + jb.policy.Name() },
		func(jb job) (raw, error) {
			cfg := o.gpuConfig()
			cfg.Defense = jb.policy
			g, err := gpusim.New(cfg)
			if err != nil {
				return raw{}, err
			}
			var r raw
			for rep := 0; rep < reps; rep++ {
				kern, err := kernels.BuildSynthetic(jb.pattern, warps, loads,
					workloadSeed(o.Seed, rep, "ext-workloads/kernel", jb.pattern.String()))
				if err != nil {
					return raw{}, err
				}
				rr, err := g.Run(kern,
					workloadSeed(o.Seed, rep, "ext-workloads/hw", jb.pattern.String(), jb.policy.Name()))
				if err != nil {
					return raw{}, err
				}
				r.Cycles += float64(rr.Cycles)
				r.Tx += float64(rr.TotalTx)
			}
			r.Cycles /= float64(reps)
			r.Tx /= float64(reps)
			return r, nil
		})
	if err != nil {
		return nil, err
	}

	res := &ExtWorkloadsResult{}
	var baseCycles, baseTx float64
	for i, jb := range jobs {
		if jb.policy.Spec() == "baseline" {
			baseCycles, baseTx = raws[i].Cycles, raws[i].Tx
		}
		res.Cells = append(res.Cells, ExtWorkloadsCell{
			Pattern:    jb.pattern.String(),
			Mechanism:  jb.policy.Name(),
			NormCycles: raws[i].Cycles / baseCycles,
			NormTx:     raws[i].Tx / baseTx,
		})
	}
	return res, nil
}

// Cell returns the cell for (pattern, mechanism), or nil.
func (r *ExtWorkloadsResult) Cell(pattern, mech string) *ExtWorkloadsCell {
	for i := range r.Cells {
		if r.Cells[i].Pattern == pattern && r.Cells[i].Mechanism == mech {
			return &r.Cells[i]
		}
	}
	return nil
}

// workloadSeed derives one rep's seed from the master seed and the
// tuple (labels..., rep): the tuple is hashed, each element tagged and
// length-delimited so ("ab") and ("a", "b") differ, and split off the
// master stream. The encoding fixes data/ext-workloads.csv; changing it
// changes the committed numbers.
func workloadSeed(master uint64, rep int, labels ...string) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	word := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	word(uint64(len(labels) + 1))
	for _, l := range labels {
		h.Write([]byte{'s'})
		word(uint64(len(l)))
		h.Write([]byte(l))
	}
	h.Write([]byte{'i'})
	word(uint64(rep))
	return rng.New(master).Split(h.Sum64()).Uint64()
}

// Render implements Result.
func (r *ExtWorkloadsResult) Render() string {
	var b strings.Builder
	b.WriteString("Extension: mechanism overhead across memory-access patterns\n" +
		"(cycles and transactions normalized to baseline coalescing per pattern)\n\n")
	t := &report.Table{Headers: []string{"pattern", "mechanism", "time (x)", "tx (x)"}}
	for _, c := range r.Cells {
		t.AddRow(c.Pattern, c.Mechanism, fmt.Sprintf("%.2f", c.NormCycles), fmt.Sprintf("%.2f", c.NormTx))
	}
	b.WriteString(t.String())
	b.WriteString("\nRCoal's cost depends on how coalescable the workload was: sequential\n" +
		"patterns pay the most (subwarping shatters perfect coalescing), strided\n" +
		"(already divergent) patterns pay nothing.\n")
	return b.String()
}

// CSV implements CSVer.
func (r *ExtWorkloadsResult) CSV() string {
	var b strings.Builder
	b.WriteString("pattern,mechanism,norm_cycles,norm_tx\n")
	for _, c := range r.Cells {
		b.WriteString(csvJoin(c.Pattern, c.Mechanism, c.NormCycles, c.NormTx))
		b.WriteByte('\n')
	}
	return b.String()
}
