//go:build !race

// The examples run the paper's headline claims end to end through the
// public API, and go test checks every number they print. They are
// left out of race builds: they start no goroutines of their own, and
// under the race detector the simulator runs too slowly for them.

package rcoal_test

import (
	"bytes"
	"fmt"
	"log"
	"math"
	"sort"

	"rcoal"
)

// Quickstart: encrypt a plaintext on the simulated GPU under each
// RCoal defense mechanism and watch the security/performance knob
// move — more subwarps and more randomness mean more memory
// transactions and more cycles, in exchange for a harder timing
// side-channel.
func Example_quickstart() {
	key := []byte("quickstart key!!")
	plaintext := rcoal.RandomPlaintext(42, 32) // 32 lines = one warp

	mechanisms := []rcoal.Mechanism{
		rcoal.Baseline(),
		rcoal.FSS(4),
		rcoal.FSSRTS(4),
		rcoal.RSS(4),
		rcoal.RSSRTS(4),
		rcoal.FSS(32), // every thread alone: maximum security, maximum cost
	}

	fmt.Println("AES-128 encryption of 32 lines on the simulated GPU (Table I config):")
	fmt.Printf("%-12s  %12s  %12s  %14s\n", "mechanism", "cycles", "transactions", "last-round tx")
	for _, mech := range mechanisms {
		cfg := rcoal.DefaultGPUConfig()
		cfg.Defense = mech
		srv, err := rcoal.NewServer(cfg, key)
		if err != nil {
			log.Fatal(err)
		}
		sample, err := srv.Encrypt(plaintext, 7)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-12s  %12d  %12d  %14d\n",
			mech.Name(), sample.TotalCycles, sample.TotalTx, sample.LastRoundTx)
	}

	// Ciphertexts are identical regardless of mechanism: RCoal changes
	// timing, never results.
	srv, err := rcoal.NewServer(rcoal.DefaultGPUConfig(), key)
	if err != nil {
		log.Fatal(err)
	}
	s, err := srv.Encrypt(plaintext, 7)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nfirst ciphertext line: %x\n", s.Ciphertexts[0])
	fmt.Println("(identical under every mechanism — the defense only reshapes memory traffic)")

	// Output:
	// AES-128 encryption of 32 lines on the simulated GPU (Table I config):
	// mechanism           cycles  transactions   last-round tx
	// Baseline             11448          2290             225
	// FSS(4)               15246          4189             413
	// FSS+RTS(4)           15470          4302             417
	// RSS(4)               13215          3173             313
	// RSS+RTS(4)           13283          3203             314
	// FSS(32)              17727          5376             512
	//
	// first ciphertext line: 2488cd3367c42664c3e4afed2d8376aa
	// (identical under every mechanism — the defense only reshapes memory traffic)
}

// Key recovery: the full correlation timing attack of Jiang et al.
// (the RCoal paper's baseline threat), end to end:
//
//  1. pose as a client of a remote GPU AES server, submitting random
//     plaintexts and recording ciphertexts + last-round timing;
//  2. for each last-round key byte, correlate guessed coalesced-access
//     counts with the timing and pick the best guess;
//  3. invert the AES-128 key schedule to recover the original key;
//  4. repeat against an RCoal-defended server and fail.
func Example_keyrecovery() {
	secret := []byte("do-not-reveal-me")

	fmt.Println("=== Phase 1: attack the undefended GPU ===")
	recovered, ok := attackServer(rcoal.Baseline(), secret)
	if ok {
		fmt.Printf("last-round key fully recovered; inverting the key schedule...\n")
		original := rcoal.InvertAES128Schedule(recovered)
		fmt.Printf("recovered AES key: %q\n", original[:])
		if bytes.Equal(original[:], secret) {
			fmt.Println("ATTACK SUCCESSFUL: the recovered key matches the server's secret.")
		}
	} else {
		fmt.Println("attack incomplete (increase samples)")
	}

	fmt.Println("\n=== Phase 2: same attack against RCoal (RSS+RTS, 8 subwarps) ===")
	if _, ok := attackServer(rcoal.RSSRTS(8), secret); !ok {
		fmt.Println("ATTACK DEFEATED: randomized coalescing removed the usable correlation.")
	}

	// Output:
	// === Phase 1: attack the undefended GPU ===
	// collecting 500 timing samples from the Baseline server...
	// recovered 16/16 last-round key bytes (avg correct-byte corr 0.256)
	// last-round key fully recovered; inverting the key schedule...
	// recovered AES key: "do-not-reveal-me"
	// ATTACK SUCCESSFUL: the recovered key matches the server's secret.
	//
	// === Phase 2: same attack against RCoal (RSS+RTS, 8 subwarps) ===
	// collecting 500 timing samples from the RSS+RTS(8) server...
	// recovered 0/16 last-round key bytes (avg correct-byte corr 0.021)
	// ATTACK DEFEATED: randomized coalescing removed the usable correlation.
}

// attackServer mounts the corresponding attack against a server
// defended with the given policy; returns the recovered last-round key
// and whether all 16 bytes were correct.
func attackServer(policy rcoal.Mechanism, key []byte) ([16]byte, bool) {
	const samples = 500 // enough for full 16/16 recovery on this substrate
	cfg := rcoal.DefaultGPUConfig()
	cfg.Defense = policy
	srv, err := rcoal.NewServer(cfg, key)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("collecting %d timing samples from the %s server...\n", samples, policy.Name())
	ds, err := srv.Collect(samples, 32, 0xA77AC4)
	if err != nil {
		log.Fatal(err)
	}

	atk, err := rcoal.NewAttacker(policy, 0x5EED) // attacker's own RNG, not the hardware's
	if err != nil {
		log.Fatal(err)
	}
	kr, err := atk.RecoverKey(ciphertexts(ds), ds.LastRoundTimes())
	if err != nil {
		log.Fatal(err)
	}

	trueKey := srv.LastRoundKey()
	correct := kr.CorrectCount(trueKey)
	fmt.Printf("recovered %d/16 last-round key bytes (avg correct-byte corr %.3f)\n",
		correct, kr.AvgCorrectCorrelation(trueKey))
	return kr.Key, correct == 16
}

// ciphertexts returns each sample's ciphertext lines, the attacker's
// view of a dataset.
func ciphertexts(ds *rcoal.Dataset) [][]rcoal.Line {
	cts := make([][]rcoal.Line, len(ds.Samples))
	for i, s := range ds.Samples {
		cts[i] = s.Ciphertexts
	}
	return cts
}

// CTR mode: the timing attack does not care about the encryption
// mode. A GPU AES-CTR service looks safer — ciphertexts are
// keystream-masked, counters are structured — but an attacker with
// known plaintext reconstructs the keystream (ct XOR pt), and every
// keystream block is a plain AES encryption whose last-round
// coalescing leaks exactly like ECB. This example mounts the attack
// through CTR mode, then shows RCoal closing it.
func Example_ctrmode() {
	key := []byte("ctr mode secret!")

	fmt.Println("=== AES-CTR on the undefended GPU ===")
	attackCTR(rcoal.Baseline(), key)

	fmt.Println("\n=== AES-CTR with RCoal (RSS+RTS, 8 subwarps) ===")
	attackCTR(rcoal.RSSRTS(8), key)

	// Output:
	// === AES-CTR on the undefended GPU ===
	// recovered 16/16 last-round key bytes through CTR mode
	// guessing entropy 0.0 guesses/byte, ~0 key bits left
	// key schedule inverted: AES key = "ctr mode secret!"
	//
	// === AES-CTR with RCoal (RSS+RTS, 8 subwarps) ===
	// recovered 0/16 last-round key bytes through CTR mode
	// guessing entropy 68.3 guesses/byte, ~88 key bits left
}

func attackCTR(policy rcoal.Mechanism, key []byte) {
	const samples, lines = 400, 32
	cfg := rcoal.DefaultGPUConfig()
	cfg.Defense = policy
	srv, err := rcoal.NewServer(cfg, key)
	if err != nil {
		log.Fatal(err)
	}

	// The attacker sends known plaintexts and records ciphertexts and
	// last-round timing; keystream = pt XOR ct.
	var keystreams [][]rcoal.Line
	var times []float64
	for n := 0; n < samples; n++ {
		pts := rcoal.RandomPlaintext(uint64(n+1), lines)
		out, err := srv.EncryptCTR(uint64(n)<<32, pts, uint64(n+77))
		if err != nil {
			log.Fatal(err)
		}
		ks := make([]rcoal.Line, lines)
		for i := range pts {
			for b := 0; b < 16; b++ {
				ks[i][b] = pts[i][b] ^ out.Ciphertexts[i][b]
			}
		}
		keystreams = append(keystreams, ks)
		times = append(times, float64(out.LastRoundCycles))
	}

	atk, err := rcoal.NewAttacker(policy, 0xC7C7C7)
	if err != nil {
		log.Fatal(err)
	}
	kr, err := atk.RecoverKey(keystreams, times)
	if err != nil {
		log.Fatal(err)
	}
	trueKey := srv.LastRoundKey()
	correct := kr.CorrectCount(trueKey)
	fmt.Printf("recovered %d/16 last-round key bytes through CTR mode\n", correct)
	fmt.Printf("guessing entropy %.1f guesses/byte, ~%.0f key bits left\n",
		kr.GuessingEntropy(trueKey), kr.RemainingKeyBits(trueKey))
	if correct == 16 {
		original := rcoal.InvertAES128Schedule(kr.Key)
		fmt.Printf("key schedule inverted: AES key = %q\n", original[:])
	}
}

// Defense tuning: a hardware engineer's walk through the RCoal_Score
// metric (Equation 7). For each mechanism and subwarp count, measure
// security (average attack correlation → S = 1/ρ²) and performance
// (execution time normalized to the baseline) on the simulator, then
// rank configurations for a security-oriented design (a=1, b=1) and a
// performance-oriented design (a=1, b=20), reproducing the Figure 17
// methodology.
func Example_defensetuning() {
	key := []byte("tuning demo key!")

	// Baseline reference time.
	baseTime, _ := measureDefense(rcoal.Baseline(), key)

	type point struct {
		policy   rcoal.Mechanism
		normTime float64
		avgCorr  float64
	}
	score := func(p point, a, b float64) float64 {
		s := 1 / (p.avgCorr * p.avgCorr) // S = squared inverse of avg correlation
		if math.IsInf(s, 1) {
			s = math.MaxFloat64
		}
		return rcoal.RCoalScore(s, p.normTime, a, b)
	}

	var points []point
	for _, m := range []int{2, 4, 8, 16} {
		for _, mk := range []func(int) rcoal.Mechanism{rcoal.FSS, rcoal.FSSRTS, rcoal.RSS, rcoal.RSSRTS} {
			policy := mk(m)
			meanTime, avgCorr := measureDefense(policy, key)
			pt := point{policy: policy, normTime: meanTime / baseTime, avgCorr: avgCorr}
			points = append(points, pt)
			fmt.Printf("measured %-12s  time %.2fx  attack corr %+.3f\n",
				policy.Name(), pt.normTime, pt.avgCorr)
		}
	}

	for _, design := range []struct {
		title string
		a, b  float64
	}{
		{"security-oriented (a=1, b=1)", 1, 1},
		{"performance-oriented (a=1, b=20)", 1, 20},
	} {
		sort.Slice(points, func(i, j int) bool {
			return score(points[i], design.a, design.b) > score(points[j], design.a, design.b)
		})
		fmt.Printf("\nTop configurations for a %s design:\n", design.title)
		for i := 0; i < 3; i++ {
			p := points[i]
			fmt.Printf("  %d. %-12s  RCoal_Score %.3g (time %.2fx, corr %+.3f)\n",
				i+1, p.policy.Name(), score(p, design.a, design.b), p.normTime, p.avgCorr)
		}
	}

	// Output:
	// measured FSS(2)        time 1.19x  attack corr +0.229
	// measured FSS+RTS(2)    time 1.20x  attack corr +0.104
	// measured RSS(2)        time 1.13x  attack corr -0.083
	// measured RSS+RTS(2)    time 1.13x  attack corr -0.056
	// measured FSS(4)        time 1.33x  attack corr +0.257
	// measured FSS+RTS(4)    time 1.35x  attack corr +0.020
	// measured RSS(4)        time 1.28x  attack corr +0.026
	// measured RSS+RTS(4)    time 1.29x  attack corr +0.032
	// measured FSS(8)        time 1.42x  attack corr +0.254
	// measured FSS+RTS(8)    time 1.45x  attack corr +0.005
	// measured RSS(8)        time 1.39x  attack corr +0.035
	// measured RSS+RTS(8)    time 1.40x  attack corr -0.014
	// measured FSS(16)       time 1.49x  attack corr +0.247
	// measured FSS+RTS(16)   time 1.51x  attack corr +0.056
	// measured RSS(16)       time 1.47x  attack corr +0.050
	// measured RSS+RTS(16)   time 1.48x  attack corr -0.001
	//
	// Top configurations for a security-oriented (a=1, b=1) design:
	//   1. RSS+RTS(16)   RCoal_Score 8.84e+05 (time 1.48x, corr -0.001)
	//   2. FSS+RTS(8)    RCoal_Score 2.69e+04 (time 1.45x, corr +0.005)
	//   3. RSS+RTS(8)    RCoal_Score 3.52e+03 (time 1.40x, corr -0.014)
	//
	// Top configurations for a performance-oriented (a=1, b=20) design:
	//   1. RSS+RTS(16)   RCoal_Score 497 (time 1.48x, corr -0.001)
	//   2. RSS+RTS(2)    RCoal_Score 26.9 (time 1.13x, corr -0.056)
	//   3. FSS+RTS(8)    RCoal_Score 23 (time 1.45x, corr +0.005)
}

// measureDefense returns a policy's mean total cycles over 60 32-line
// samples and the corresponding attack's average correct-byte
// correlation on them.
func measureDefense(policy rcoal.Mechanism, key []byte) (meanTime, avgCorr float64) {
	cfg := rcoal.DefaultGPUConfig()
	cfg.Defense = policy
	srv, err := rcoal.NewServer(cfg, key)
	if err != nil {
		log.Fatal(err)
	}
	ds, err := srv.Collect(60, 32, 0x7E57)
	if err != nil {
		log.Fatal(err)
	}
	for _, s := range ds.Samples {
		meanTime += float64(s.TotalCycles)
	}
	meanTime /= float64(len(ds.Samples))

	atk, err := rcoal.NewAttacker(policy, 0xBAD5EED)
	if err != nil {
		log.Fatal(err)
	}
	kr, err := atk.RecoverKey(ciphertexts(ds), ds.LastRoundTimes())
	if err != nil {
		log.Fatal(err)
	}
	return meanTime, kr.AvgCorrectCorrelation(srv.LastRoundKey())
}

// Large plaintext: the paper's Section VI-D case study at library
// scale. Encrypt 1024-line plaintexts (32 warps spread over 15 SMs)
// under each mechanism and verify the defense scales: the attacker's
// ability to reconstruct the last-round access counts collapses while
// the performance overhead stays in the paper's reported band.
func Example_largeplaintext() {
	const samples, lines = 12, 1024
	key := []byte("case study key!!")

	baseTime := 0.0
	fmt.Printf("%-12s  %10s  %12s  %16s\n", "mechanism", "time (x)", "last-rnd tx", "est-vs-obs corr")
	for _, policy := range []rcoal.Mechanism{
		rcoal.Baseline(),
		rcoal.RSS(2), rcoal.RSS(4), rcoal.RSS(8),
		rcoal.RSSRTS(2), rcoal.RSSRTS(4), rcoal.RSSRTS(8),
	} {
		cfg := rcoal.DefaultGPUConfig()
		cfg.Defense = policy
		srv, err := rcoal.NewServer(cfg, key)
		if err != nil {
			log.Fatal(err)
		}
		ds, err := srv.Collect(samples, lines, 0x10_24)
		if err != nil {
			log.Fatal(err)
		}

		meanTime, meanTx := 0.0, 0.0
		for _, s := range ds.Samples {
			meanTime += float64(s.TotalCycles)
			meanTx += float64(s.LastRoundTx)
		}
		meanTime /= samples
		meanTx /= samples
		if baseTime == 0 {
			baseTime = meanTime
		}

		// How well can the corresponding attack, granted the full
		// correct key, reconstruct the observed last-round access
		// counts? 1.0 means a perfect timing model; near 0 means the
		// randomization removed the channel.
		atk, err := rcoal.NewAttacker(policy, 0xCA5E)
		if err != nil {
			log.Fatal(err)
		}
		corr := estimateVsObserved(atk, srv, ds)

		fmt.Printf("%-12s  %10.2f  %12.0f  %16.3f\n",
			policy.Name(), meanTime/baseTime, meanTx, corr)
	}
	fmt.Println("\nPaper (Fig. 18): overhead 29-76% for RSS+RTS at 2-8 subwarps, with the")
	fmt.Println("attack's access-count estimates decorrelated from the observed counts.")

	// Output:
	// mechanism       time (x)   last-rnd tx   est-vs-obs corr
	// Baseline            1.00          7154             1.000
	// RSS(2)              1.37          9828             0.415
	// RSS(4)              1.62         11571            -0.132
	// RSS(8)              1.93         13800             0.317
	// RSS+RTS(2)          1.38          9822             0.405
	// RSS+RTS(4)          1.64         11565            -0.146
	// RSS+RTS(8)          1.96         13791             0.285
	//
	// Paper (Fig. 18): overhead 29-76% for RSS+RTS at 2-8 subwarps, with the
	// attack's access-count estimates decorrelated from the observed counts.
}

func estimateVsObserved(atk *rcoal.Attacker, srv *rcoal.Server, ds *rcoal.Dataset) float64 {
	trueKey := srv.LastRoundKey()
	obs := ds.ObservedLastRoundTx()
	est := make([]float64, len(ds.Samples))
	cts := ciphertexts(ds)
	for j := 0; j < 16; j++ {
		u := atk.EstimationVector(cts, j, trueKey[j])
		for n := range u {
			est[n] += u[n]
		}
	}
	return pearson(est, obs)
}

func pearson(xs, ys []float64) float64 {
	n := float64(len(xs))
	var mx, my float64
	for i := range xs {
		mx += xs[i]
		my += ys[i]
	}
	mx /= n
	my /= n
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}
