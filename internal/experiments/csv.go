package experiments

import (
	"fmt"
	"strings"
)

// CSVer is implemented by experiment results that can export their
// data points in machine-readable form, for plotting the figures with
// external tools. Results without a natural tabular form (worked
// examples, configuration dumps) simply don't implement it.
type CSVer interface {
	CSV() string
}

func csvJoin(cells ...any) string {
	parts := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			parts[i] = fmt.Sprintf("%.6g", v)
		default:
			parts[i] = fmt.Sprintf("%v", v)
		}
	}
	return strings.Join(parts, ",")
}

// CSV implements CSVer: one row per sample with the raw scatter data.
func (r *Fig5Result) CSV() string {
	var b strings.Builder
	b.WriteString("last_round_tx,last_round_cycles,total_cycles\n")
	for _, p := range r.Pairs {
		b.WriteString(csvJoin(p[0], p[1], p[2]))
		b.WriteByte('\n')
	}
	return b.String()
}

// CSV implements CSVer: per num-subwarp FSS performance and security.
func (r *Fig7Result) CSV() string {
	var b strings.Builder
	b.WriteString("num_subwarp,exec_cycles,mem_accesses,baseline_attack_corr\n")
	for _, row := range r.Rows {
		b.WriteString(csvJoin(row.M, row.MeanCycles, row.MeanAccesses, row.BaselineAttackCorr))
		b.WriteByte('\n')
	}
	return b.String()
}

// CSV implements CSVer: the 256 key-byte-0 guess correlations of both
// Figure 6 panels.
func (r *Fig6Result) CSV() string {
	var b strings.Builder
	b.WriteString("coalescing_enabled,guess,correlation,is_correct\n")
	for _, c := range []*Fig6Case{&r.Enabled, &r.Disabled} {
		for m := 0; m < 256; m++ {
			b.WriteString(csvJoin(c.CoalescingEnabled, m, c.Byte0.Correlations[m], byte(m) == c.TrueByte))
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// CSV implements CSVer: all 256 guess correlations per panel (the raw
// scatter of Figures 8 and 12-14).
func (r *ScatterResult) CSV() string {
	var b strings.Builder
	b.WriteString("num_subwarp,guess,correlation,is_correct\n")
	for _, p := range r.Panels {
		for m := 0; m < 256; m++ {
			b.WriteString(csvJoin(p.M, m, p.Byte0.Correlations[m], byte(m) == p.TrueByte))
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// CSV implements CSVer: the full mechanism × num-subwarp grid.
func (s *SweepResult) CSV() string {
	var b strings.Builder
	b.WriteString("mechanism,num_subwarp,mean_cycles,mean_tx,norm_cycles,norm_tx,avg_correct_corr\n")
	for _, c := range s.Cells {
		b.WriteString(csvJoin(c.Mechanism, c.M, c.MeanCycles, c.MeanTx, c.NormCycles, c.NormTx, c.AvgCorrectCorr))
		b.WriteByte('\n')
	}
	return b.String()
}

// CSV implements CSVer: the selective-RCoal grid.
func (s *SelectiveSweepResult) CSV() string {
	var b strings.Builder
	b.WriteString("mechanism,num_subwarp,mean_cycles,norm_cycles,mean_last_round_tx,channel_corr\n")
	for _, c := range s.Cells {
		b.WriteString(csvJoin(c.Mechanism, c.M, c.MeanCycles, c.NormCycles, c.MeanLastRoundTx, c.ChannelCorr))
		b.WriteByte('\n')
	}
	return b.String()
}

// CSV implements CSVer via the underlying sweep.
func (r *Fig15Result) CSV() string { return r.Sweep.CSV() }

// CSV implements CSVer via the underlying sweep.
func (r *Fig16Result) CSV() string { return r.Sweep.CSV() }

// CSV implements CSVer: both score variants per cell.
func (r *Fig17Result) CSV() string {
	var b strings.Builder
	b.WriteString("num_subwarp,mechanism,security_score,performance_score\n")
	for _, row := range r.Rows {
		for _, fam := range Families {
			label := strings.ToUpper(fam)
			b.WriteString(csvJoin(row.M, label, row.SecurityScore[label], row.PerformanceScore[label]))
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// CSV implements CSVer: the 1024-line case study grid.
func (r *Fig18Result) CSV() string {
	var b strings.Builder
	b.WriteString("mechanism,num_subwarp,avg_correct_corr,full_key_corr,norm_cycles\n")
	for _, c := range r.Cells {
		b.WriteString(csvJoin(c.Mechanism, c.M, c.AvgCorrectCorr, c.FullKeyCorr, c.NormCycles))
		b.WriteByte('\n')
	}
	return b.String()
}

// CSV implements CSVer: the analytical model's rows.
func (r *Table2Result) CSV() string {
	var b strings.Builder
	b.WriteString("m,rho_fss,rho_fss_rts,rho_rss_rts,s_fss,s_fss_rts,s_rss_rts\n")
	for _, row := range r.Rows {
		b.WriteString(csvJoin(row.M, row.RhoFSS, row.RhoFSSRTS, row.RhoRSSRTS,
			row.SFSS, row.SFSSRTS, row.SRSSRTS))
		b.WriteByte('\n')
	}
	return b.String()
}

// CSV implements CSVer: the size histograms side by side.
func (r *Fig9Result) CSV() string {
	var b strings.Builder
	b.WriteString("size,normal_count,skewed_count\n")
	for s := 1; s < len(r.Normal); s++ {
		if r.Normal[s] == 0 && r.Skewed[s] == 0 {
			continue
		}
		b.WriteString(csvJoin(s, r.Normal[s], r.Skewed[s]))
		b.WriteByte('\n')
	}
	return b.String()
}
