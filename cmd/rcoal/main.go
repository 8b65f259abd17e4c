// Command rcoal is the interactive front door to the RCoal
// reproduction: encrypt on the simulated GPU under any defense
// mechanism, mount the correlation timing attack against it, and
// inspect the security/performance trade-off.
//
// Usage:
//
//	rcoal encrypt -mechanism rss+rts:8 -lines 32
//	rcoal attack  -mechanism fss:4 -samples 200 -service ctr
//	rcoal sweep   -m 1,2,4,8,16
//	rcoal theory  -n 32 -r 16 -absolute
//	rcoal list
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"

	"rcoal"
	"rcoal/internal/experiments"
	"rcoal/internal/gpusim"
	"rcoal/internal/gpusim/tracevis"
	"rcoal/internal/report"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "encrypt":
		err = cmdEncrypt(os.Args[2:])
	case "attack":
		err = cmdAttack(os.Args[2:])
	case "sweep":
		err = cmdSweep(os.Args[2:])
	case "theory":
		err = cmdTheory(os.Args[2:])
	case "list":
		for _, id := range rcoal.ExperimentIDs() {
			fmt.Println(id)
		}
	case "list-mechanisms":
		err = cmdListMechanisms()
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "rcoal: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "rcoal:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `rcoal — randomized GPU memory coalescing (HPCA'18 reproduction)

commands:
  encrypt          run one AES encryption on the simulated GPU and report timing
  attack           mount the correlation timing attack against a defended server
  sweep            security/performance grid over all mechanisms and subwarp counts
  theory           evaluate the Section V security model (Table II) at any N, R, M
  list             list reproducible paper experiments (see rcoal-experiments)
  list-mechanisms  list the registered defense mechanisms and their spec grammar

run "rcoal <command> -h" for flags.
`)
}

func cmdEncrypt(args []string) error {
	fs := flag.NewFlagSet("encrypt", flag.ExitOnError)
	mech := fs.String("mechanism", "baseline", "defense mechanism, e.g. fss:4, rss+rts:8")
	lines := fs.Int("lines", 32, "plaintext lines (one per thread)")
	key := fs.String("key", "RCoal eval key 1", "AES key (16/24/32 bytes)")
	seed := fs.Uint64("seed", 1, "seed for plaintext and hardware randomness")
	nocoal := fs.Bool("disable-coalescing", false, "disable coalescing entirely (Section III strawman)")
	traceOut := fs.String("trace-out", "", "write a Chrome/Perfetto trace of the launch to this file")
	metricsOut := fs.String("metrics-out", "", "write the launch's metrics snapshot (coalescing histograms, DRAM row stats, stalls) as JSON to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}

	policy, err := rcoal.ParseMechanism(*mech)
	if err != nil {
		return err
	}
	if *nocoal {
		policy = rcoal.NoCoal()
	}
	cfg := rcoal.DefaultGPUConfig()
	cfg.Defense = policy
	var exporter *tracevis.Exporter
	if *traceOut != "" {
		exporter = tracevis.New()
		cfg.Trace = exporter
	}
	if *metricsOut != "" {
		cfg.Metrics = gpusim.NewMetrics()
	}
	srv, err := rcoal.NewServer(cfg, []byte(*key))
	if err != nil {
		return err
	}
	sample, err := srv.Encrypt(rcoal.RandomPlaintext(*seed, *lines), *seed)
	if err != nil {
		return err
	}

	t := &report.Table{Title: fmt.Sprintf("AES-%d on simulated GPU, %s, %d lines",
		128, policy.Name(), *lines), Headers: []string{"metric", "value"}}
	t.AddRow("total cycles", fmt.Sprintf("%d", sample.TotalCycles))
	t.AddRow("last-round cycles", fmt.Sprintf("%d", sample.LastRoundCycles))
	t.AddRow("total memory transactions", fmt.Sprintf("%d", sample.TotalTx))
	t.AddRow("last-round transactions", fmt.Sprintf("%d", sample.LastRoundTx))
	t.AddRow("subwarp sizes", fmt.Sprintf("%v", sample.Plan.Sizes))
	t.AddRow("first ciphertext line", fmt.Sprintf("%x", sample.Ciphertexts[0]))
	fmt.Print(t.String())
	if exporter != nil {
		if err := exporter.WriteFile(*traceOut); err != nil {
			return fmt.Errorf("writing trace: %w", err)
		}
		fmt.Printf("trace: %d events written to %s (load at ui.perfetto.dev)\n", exporter.Len(), *traceOut)
	}
	if *metricsOut != "" {
		raw, err := json.MarshalIndent(sample.Metrics, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*metricsOut, append(raw, '\n'), 0o644); err != nil {
			return fmt.Errorf("writing metrics: %w", err)
		}
		if h, ok := sample.Metrics.Histograms[gpusim.MetricTxPerInstr]; ok {
			fmt.Println()
			fmt.Print(report.MetricsHistogram("coalesced transactions per load instruction", h, 40))
		}
		fmt.Printf("metrics: snapshot written to %s\n", *metricsOut)
	}
	return nil
}

func cmdAttack(args []string) error {
	fs := flag.NewFlagSet("attack", flag.ExitOnError)
	mech := fs.String("mechanism", "baseline", "defense the server runs AND the attack assumes")
	samples := fs.Int("samples", 200, "timing samples to collect")
	lines := fs.Int("lines", 32, "plaintext lines per sample")
	key := fs.String("key", "RCoal eval key 1", "AES key under attack")
	seed := fs.Uint64("seed", 0x8C0A1, "master seed")
	service := fs.String("service", "encrypt", "victim service: encrypt, decrypt, or ctr")
	if err := fs.Parse(args); err != nil {
		return err
	}
	// Bad options fail here, before the collecting line and any launch.
	switch {
	case *samples < 2:
		return fmt.Errorf("-samples %d: the attack correlates, so it needs >= 2", *samples)
	case *lines < 1:
		return fmt.Errorf("-lines %d: need >= 1", *lines)
	case !slices.Contains([]string{"encrypt", "decrypt", "ctr"}, *service):
		return fmt.Errorf("-service %q: unknown (want encrypt, decrypt, or ctr)", *service)
	}

	policy, err := rcoal.ParseMechanism(*mech)
	if err != nil {
		return err
	}
	cfg := rcoal.DefaultGPUConfig()
	cfg.Defense = policy
	srv, err := rcoal.NewServer(cfg, []byte(*key))
	if err != nil {
		return err
	}
	fmt.Printf("collecting %d timing samples from a %s %s server...\n", *samples, policy.Name(), *service)
	cts := make([][]rcoal.Line, *samples)
	times := make([]float64, *samples)
	trueKey := srv.LastRoundKey()
	var atk *rcoal.Attacker
	switch *service {
	case "encrypt":
		ds, err := srv.Collect(*samples, *lines, *seed)
		if err != nil {
			return err
		}
		for i, s := range ds.Samples {
			cts[i] = s.Ciphertexts
		}
		times = ds.LastRoundTimes()
		if atk, err = rcoal.NewAttacker(policy, *seed^0xA77ACC); err != nil {
			return err
		}
	case "decrypt":
		trueKey = srv.RoundZeroKey() // decryption leaks the original key
		for n := 0; n < *samples; n++ {
			in := rcoal.RandomPlaintext(*seed^uint64(n+1), *lines)
			smp, err := srv.Decrypt(in, *seed^uint64(n+1)*0x9e37)
			if err != nil {
				return err
			}
			cts[n] = smp.Ciphertexts // recovered plaintexts
			times[n] = float64(smp.LastRoundCycles)
		}
		var err error
		if atk, err = rcoal.NewDecryptAttacker(policy, *seed^0xA77ACC); err != nil {
			return err
		}
	case "ctr":
		for n := 0; n < *samples; n++ {
			pts := rcoal.RandomPlaintext(*seed^uint64(n+1), *lines)
			out, err := srv.EncryptCTR(uint64(n)<<32, pts, *seed^uint64(n+1)*0x9e37)
			if err != nil {
				return err
			}
			cts[n] = out.Keystream // = pt XOR ct, reconstructable
			times[n] = float64(out.LastRoundCycles)
		}
		var err error
		if atk, err = rcoal.NewAttacker(policy, *seed^0xA77ACC); err != nil {
			return err
		}
	}
	kr, err := atk.RecoverKey(cts, times)
	if err != nil {
		return err
	}
	t := &report.Table{Title: "correlation timing attack (" + atk.Name() + ")",
		Headers: []string{"byte", "true", "recovered", "corr", "rank"}}
	correct := 0
	for j := 0; j < 16; j++ {
		ok := kr.Key[j] == trueKey[j]
		if ok {
			correct++
		}
		t.AddRow(j, fmt.Sprintf("%02x", trueKey[j]), fmt.Sprintf("%02x", kr.Key[j]),
			kr.Bytes[j].BestCorr, fmt.Sprintf("%d/256", kr.Bytes[j].Rank(trueKey[j])))
	}
	fmt.Print(t.String())
	fmt.Printf("\nrecovered %d/16 last-round key bytes; avg correct-byte correlation %.3f\n",
		correct, kr.AvgCorrectCorrelation(trueKey))
	fmt.Printf("guessing entropy %.1f guesses/byte; ~%.1f key bits left to brute-force\n",
		kr.GuessingEntropy(trueKey), kr.RemainingKeyBits(trueKey))
	if correct == 16 {
		fmt.Println("FULL LAST-ROUND KEY RECOVERED — the AES-128 key schedule is invertible, the key is lost.")
	}
	return nil
}

func cmdSweep(args []string) error {
	fs := flag.NewFlagSet("sweep", flag.ExitOnError)
	samples := fs.Int("samples", 60, "timing samples per configuration")
	seed := fs.Uint64("seed", 0x8C0A1, "master seed")
	ms := fs.String("m", "1,2,4,8,16", "comma-separated num-subwarp values")
	if err := fs.Parse(args); err != nil {
		return err
	}
	mvals, err := parseSubwarpCounts(*ms, 32)
	if err != nil {
		return err
	}
	o := rcoal.DefaultExperimentOptions()
	o.Samples = *samples
	o.Seed = *seed
	sw, err := experiments.Sweep(o, mvals)
	if err != nil {
		return err
	}
	t := &report.Table{Title: fmt.Sprintf("mechanism sweep (%d samples; time/tx normalized to baseline)", *samples),
		Headers: []string{"mechanism", "num-subwarp", "time (x)", "tx (x)", "attack corr"}}
	for _, c := range sw.Cells {
		t.AddRow(c.Mechanism, c.M, c.NormCycles, c.NormTx, c.AvgCorrectCorr)
	}
	fmt.Print(t.String())
	return nil
}

func cmdListMechanisms() error {
	t := &report.Table{Title: "registered defense mechanisms (-mechanism accepts any example spec)",
		Headers: []string{"keyword", "usage", "aliases", "examples", "summary"}}
	for _, info := range rcoal.ListMechanisms() {
		t.AddRow(info.Keyword, info.Usage, strings.Join(info.Aliases, ", "),
			strings.Join(info.Examples, ", "), info.Summary)
	}
	fmt.Print(t.String())
	return nil
}

// cmdTheory evaluates the Section V analytical security model at any
// (N, R, M) point: the paper's Table II by default, or one defense
// spec's rho with -mechanism.
func cmdTheory(args []string) error {
	fs := flag.NewFlagSet("theory", flag.ExitOnError)
	n := fs.Int("n", 32, "threads per warp (N)")
	r := fs.Int("r", 16, "memory blocks per lookup table (R)")
	ms := fs.String("m", "1,2,4,8,16,32", "comma-separated subwarp counts (M)")
	mechSpec := fs.String("mechanism", "", "evaluate one defense spec (e.g. rss+rts:8) instead of the Table II grid")
	alpha := fs.Float64("alpha", 0.99, "attack success rate for absolute sample counts")
	absolute := fs.Bool("absolute", false, "also print absolute samples via Equation 4")
	progress := fs.Bool("progress", false, "report per-row compute time on stderr (the partition sums get slow at large N)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *absolute && !(*alpha > 0 && *alpha < 1) {
		return fmt.Errorf("-alpha %v: need 0 < alpha < 1", *alpha)
	}

	md, err := rcoal.NewSecurityModel(*n, *r)
	if err != nil {
		return err
	}

	if *mechSpec != "" {
		mech, err := rcoal.ParseMechanism(*mechSpec)
		if err != nil {
			return err
		}
		rho, ok := md.RhoFor(mech)
		if !ok {
			fmt.Printf("%s: the Section V model has no closed form for this mechanism;\n"+
				"measure it empirically (rcoal-experiments -run ext-defense-frontier).\n", mech.Name())
			return nil
		}
		fmt.Printf("%s: analytic rho = %s (N=%d, R=%d)\n", mech.Name(), report.FormatFloat(rho, 4), *n, *r)
		if *absolute {
			fmt.Printf("samples for a successful attack (Equation 4, alpha=%.2f): %s\n",
				*alpha, report.FormatFloat(rcoal.SamplesForAttack(rho, *alpha), 0))
		}
		return nil
	}

	mvals, err := parseSubwarpCounts(*ms, *n)
	if err != nil {
		return err
	}
	// Rows are independent, so computing them one M at a time costs
	// nothing and lets -progress time each (the Σ_F sum enumerates all
	// partitions of N, which grows fast: 8349 at N=32, 1.7M at N=64).
	var rows []rcoal.SecurityRow
	for _, m := range mvals {
		start := time.Now()
		rows = append(rows, md.Table2([]int{m})...)
		if *progress {
			fmt.Fprintf(os.Stderr, "rcoal: M=%d done in %v\n", m, time.Since(start).Round(time.Millisecond))
		}
	}
	t := &report.Table{
		Title: fmt.Sprintf("Analytical security model, N=%d threads, R=%d blocks (S normalized to M=1)", *n, *r),
		Headers: []string{"M", "rho FSS", "rho FSS+RTS", "rho RSS+RTS",
			"S FSS+RTS", "S RSS+RTS"},
	}
	for _, row := range rows {
		t.AddRow(row.M,
			report.FormatFloat(row.RhoFSS, 2),
			report.FormatFloat(row.RhoFSSRTS, 4),
			report.FormatFloat(row.RhoRSSRTS, 4),
			report.FormatFloat(row.SFSSRTS, 0),
			report.FormatFloat(row.SRSSRTS, 0))
	}
	fmt.Print(t.String())

	if *absolute {
		t2 := &report.Table{
			Title:   fmt.Sprintf("\nAbsolute samples for a successful attack (Equation 4, alpha=%.2f)", *alpha),
			Headers: []string{"M", "samples FSS+RTS", "samples RSS+RTS"},
		}
		for _, row := range rows {
			t2.AddRow(row.M,
				report.FormatFloat(rcoal.SamplesForAttack(row.RhoFSSRTS, *alpha), 0),
				report.FormatFloat(rcoal.SamplesForAttack(row.RhoRSSRTS, *alpha), 0))
		}
		fmt.Print(t2.String())
	}
	return nil
}

// parseSubwarpCounts parses a comma-separated list of subwarp counts,
// each of which must divide the warp size n (FSS needs equal subwarps).
func parseSubwarpCounts(spec string, n int) ([]int, error) {
	var mvals []int
	for _, part := range strings.Split(spec, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || v < 1 || v > n {
			return nil, fmt.Errorf("bad M value %q", part)
		}
		if n%v != 0 {
			return nil, fmt.Errorf("M=%d does not divide N=%d (FSS needs equal subwarps)", v, n)
		}
		mvals = append(mvals, v)
	}
	return mvals, nil
}
