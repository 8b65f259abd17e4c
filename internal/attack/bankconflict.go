package attack

import (
	"fmt"
	"math/bits"

	"rcoal/internal/aes"
	"rcoal/internal/kernels"
	"rcoal/internal/stats"
)

// Bank-conflict attack: the shared-memory analogue of the coalescing
// attack (Jiang et al., GLSVLSI'17). When the T-tables live in
// scratchpad, a last-round lookup's latency is its bank-conflict
// serialization degree — the maximum number of distinct words any
// shared-memory bank must serve. Like the coalesced-access count, the
// degree is a deterministic per-byte function of ciphertext and key
// byte, so the same correlate-and-rank machinery recovers the key.
//
// RCoal does not close this channel: subwarp plans regroup threads for
// *coalescing*, while bank conflicts are computed from raw per-thread
// addresses regardless of grouping. The ext-sharedmem experiment uses
// this attacker to map that boundary.

// SharedBanks is the bank count of the modeled scratchpad.
const SharedBanks = 32

// EstimateSharedSample predicts the summed last-round bank-conflict
// degree of one sample for key byte j and guess m: per 32-line warp,
// the conflict degree of lookup j, summed over warps. Table entries
// are 4-byte words, so entry i of table T4 occupies bank
// (T4·256 + i) mod 32 = (i + T4·256) mod 32; the table offset shifts
// every index equally and cancels in the degree, so index mod 32
// suffices.
func EstimateSharedSample(lines []kernels.Line, j int, m byte) int {
	if j < 0 || j >= KeyBytes {
		panic(fmt.Sprintf("attack: key byte index %d out of range", j))
	}
	const warpSize = 32
	total := 0
	for base := 0; base < len(lines); base += warpSize {
		hi := base + warpSize
		if hi > len(lines) {
			hi = len(lines)
		}
		// words[b] is a bitmask of distinct word indices seen in bank b:
		// index i maps to bank i%32 and word i/32 ∈ [0,8) for a 256-entry
		// table.
		var words [SharedBanks]uint8
		for t := base; t < hi; t++ {
			idx := aes.LastRoundIndex(lines[t][j], m)
			words[idx%SharedBanks] |= 1 << (idx / SharedBanks)
		}
		degree := 0
		for b := 0; b < SharedBanks; b++ {
			if n := bits.OnesCount8(words[b]); n > degree {
				degree = n
			}
		}
		total += degree
	}
	return total
}

// BankConflictAttacker mounts the correlation attack over the bank-
// conflict channel. It has no randomness to simulate: the channel is
// deterministic, like the baseline coalescing attack.
type BankConflictAttacker struct{}

// EstimationVector returns the predicted conflict degrees for guess m
// of byte j across samples.
func (BankConflictAttacker) EstimationVector(cts [][]kernels.Line, j int, m byte) []float64 {
	out := make([]float64, len(cts))
	for n, lines := range cts {
		out[n] = float64(EstimateSharedSample(lines, j, m))
	}
	return out
}

// RecoverByte ranks all 256 guesses for key byte j against the
// measurement vector.
func (a BankConflictAttacker) RecoverByte(cts [][]kernels.Line, measurements []float64, j int) (*ByteResult, error) {
	if len(cts) != len(measurements) {
		return nil, fmt.Errorf("attack: %d samples vs %d measurements", len(cts), len(measurements))
	}
	if len(cts) < 2 {
		return nil, fmt.Errorf("attack: need at least 2 samples, have %d", len(cts))
	}
	res := &ByteResult{BestCorr: -2}
	for m := 0; m < 256; m++ {
		u := a.EstimationVector(cts, j, byte(m))
		r, err := stats.Pearson(u, measurements)
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

// RecoverKey attacks all 16 key bytes over the bank-conflict channel.
func (a BankConflictAttacker) RecoverKey(cts [][]kernels.Line, measurements []float64) (*KeyResult, error) {
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
