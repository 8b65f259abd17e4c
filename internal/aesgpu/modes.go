package aesgpu

import (
	"encoding/binary"

	"rcoal/internal/gpusim"
	"rcoal/internal/kernels"
)

// This file extends the encryption server with the other GPU AES
// services a real deployment exposes: block decryption (the
// equivalent inverse cipher on the GPU) and CTR-mode encryption (the
// parallel mode GPU AES libraries actually ship). Both reuse the same
// simulated pipeline, and — the point of modeling them — both leak
// through memory-access coalescing exactly like plain encryption:
//
//   - decryption's final inverse round does per-byte Td4 lookups whose
//     indices follow from the output plaintext and the equivalent key
//     (see aes.LastRoundDecIndex), and
//   - CTR's keystream blocks are plain AES encryptions, and the
//     attacker reconstructs the keystream as ciphertext XOR plaintext.

// Decrypt runs one GPU decryption request: Sample.Ciphertexts holds
// the *recovered plaintext* lines (the kernel's output).
func (s *Server) Decrypt(lines []kernels.Line, seed uint64) (*Sample, error) {
	b := builders.Get().(*kernels.Builder)
	defer builders.Put(b)
	kernel, pts, err := b.BuildDecrypt(s.cipher, lines)
	if err != nil {
		return nil, err
	}
	return s.run(kernel, pts, seed)
}

// CTRSample is one CTR-mode encryption response.
type CTRSample struct {
	*Sample
	// Keystream holds the raw keystream blocks (AES(counter_t)); an
	// attacker reconstructs them as plaintext XOR ciphertext, so they
	// are effectively public given known plaintext.
	Keystream []kernels.Line
}

// EncryptCTR encrypts lines in counter mode: thread t computes
// AES(nonce ‖ blockIndex_t) and XORs the keystream into its line. The
// keystream generation dominates the kernel and is what the timing
// channel sees.
func (s *Server) EncryptCTR(nonce uint64, lines []kernels.Line, seed uint64) (*CTRSample, error) {
	counters := make([]kernels.Line, len(lines))
	for i := range counters {
		binary.BigEndian.PutUint64(counters[i][:8], nonce)
		binary.BigEndian.PutUint64(counters[i][8:], uint64(i))
	}
	b := builders.Get().(*kernels.Builder)
	defer builders.Put(b)
	kernel, keystream, err := b.Build(s.cipher, counters)
	if err != nil {
		return nil, err
	}
	cts := make([]kernels.Line, len(lines))
	for i := range lines {
		for b := 0; b < kernels.LineBytes; b++ {
			cts[i][b] = lines[i][b] ^ keystream[i][b]
		}
	}
	sample, err := s.run(kernel, cts, seed)
	if err != nil {
		return nil, err
	}
	return &CTRSample{Sample: sample, Keystream: keystream}, nil
}

// run executes a prepared kernel and assembles the attacker-visible
// sample with the given output lines.
func (s *Server) run(kernel *gpusim.Kernel, outputs []kernels.Line, seed uint64) (*Sample, error) {
	res, err := s.gpu.Run(kernel, seed)
	if err != nil {
		return nil, err
	}
	last := s.cipher.Rounds()
	sample := &Sample{
		Ciphertexts:     outputs,
		TotalCycles:     res.Cycles,
		LastRoundCycles: res.RoundWindow(last),
		LastRoundTx:     res.LastRoundTx(last),
		TotalTx:         res.TotalTx,
		Plan:            res.Plan,
		MSHRMerges:      res.MSHRMerges,
		Metrics:         res.Metrics,
		Energy:          gpusim.DefaultEnergyModel().Estimate(res, s.gpu.Config()).Total(),
	}
	for _, d := range res.DRAM {
		sample.DRAMAccesses += d.Accesses
	}
	for _, c := range res.L1 {
		sample.L1Hits += c.Hits
	}
	for _, c := range res.L2 {
		sample.L2Hits += c.Hits
	}
	return sample, nil
}

// RoundZeroKey returns the cipher's round-0 key — the target of the
// decryption-side attack (for AES the round-0 key IS the original
// key).
func (s *Server) RoundZeroKey() [16]byte { return s.cipher.RoundKey(0) }
