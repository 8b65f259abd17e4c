// Package aesgpu runs AES encryption on the simulated GPU and plays
// the role of the remote encryption server in the RCoal threat model
// (Section II-C): the attacker submits plaintexts and receives
// ciphertexts plus execution timing. Each plaintext sample is one
// kernel launch, so RSS/RTS randomness is redrawn between samples,
// exactly as the defense specifies.
package aesgpu

import (
	"fmt"
	"sync"

	"rcoal/internal/aes"
	"rcoal/internal/core"
	"rcoal/internal/gpusim"
	"rcoal/internal/kernels"
	"rcoal/internal/metrics"
	"rcoal/internal/rng"
)

// Server is a GPU AES encryption service with a fixed secret key. Like
// the underlying simulator, it serves requests sequentially; create one
// Server per goroutine for parallel studies.
type Server struct {
	gpu    *gpusim.GPU
	cipher *aes.Cipher
}

// NewServer builds a server simulating the given GPU configuration
// with the given AES key (16, 24, or 32 bytes).
func NewServer(cfg gpusim.Config, key []byte) (*Server, error) {
	g, err := gpusim.New(cfg)
	if err != nil {
		return nil, err
	}
	c, err := aes.NewCipher(key)
	if err != nil {
		return nil, err
	}
	return &Server{gpu: g, cipher: c}, nil
}

// LastRound returns the index of the final AES round (10 for AES-128).
func (s *Server) LastRound() int { return s.cipher.Rounds() }

// LastRoundKey returns the ground-truth last round key — available to
// experiments for verifying attack results, never to attack code paths.
func (s *Server) LastRoundKey() [16]byte { return s.cipher.LastRoundKey() }

// Config returns the simulated GPU configuration.
func (s *Server) Config() gpusim.Config { return s.gpu.Config() }

// Sample is what the attacker observes from one encryption request
// (one kernel launch), plus simulator-internal ground truth used by
// the evaluation (observed access counts, the realized plan).
type Sample struct {
	// Ciphertexts are the encrypted lines, visible to the attacker.
	Ciphertexts []kernels.Line
	// TotalCycles is the end-to-end kernel time, visible to the
	// attacker (the realistic measurement).
	TotalCycles int64
	// LastRoundCycles is the last-round execution window; the paper
	// assumes a stronger attacker who can observe it directly.
	LastRoundCycles int64
	// LastRoundTx is the number of last-round coalesced accesses the
	// hardware actually generated (simulator ground truth, used by the
	// 1024-line case study's noise-free correlation).
	LastRoundTx uint64
	// TotalTx is the launch's total memory transactions ("data
	// movement").
	TotalTx uint64
	// Plan is the subwarp plan the launch realized (diagnostics only).
	Plan core.Plan
	// DRAMAccesses is the DRAM traffic summed over partitions (differs
	// from TotalTx when caches or MSHR merging absorb transactions).
	DRAMAccesses uint64
	// L1Hits and L2Hits aggregate cache hits when the caches are
	// enabled.
	L1Hits, L2Hits uint64
	// MSHRMerges counts loads absorbed by MSHR request merging.
	MSHRMerges uint64
	// Metrics is the launch's metrics snapshot, present only when the
	// server's GPU config installs a gpusim.Metrics bundle.
	Metrics *metrics.Snapshot
	// Energy is the launch's estimated energy in picojoules under the
	// default GTX-480-class energy model (evaluation ground truth for
	// the defense frontier's energy axis).
	Energy float64
}

// builders holds the servers' kernel builders. A kernel lives only
// through its launch, so one builder serves every sample of a collect
// and, returned here, the collects after it, whatever their sizes.
var builders = sync.Pool{New: func() any { return new(kernels.Builder) }}

// Encrypt runs one encryption request. The seed determines the
// launch's hardware randomness; callers give every sample a distinct
// seed.
func (s *Server) Encrypt(lines []kernels.Line, seed uint64) (*Sample, error) {
	b := builders.Get().(*kernels.Builder)
	defer builders.Put(b)
	return s.encrypt(b, lines, seed)
}

// encrypt is Encrypt building through b.
func (s *Server) encrypt(b *kernels.Builder, lines []kernels.Line, seed uint64) (*Sample, error) {
	kernel, cts, err := b.Build(s.cipher, lines)
	if err != nil {
		return nil, err
	}
	return s.run(kernel, cts, seed)
}

// Dataset is a collection of timing samples for a fixed server: the
// attacker's raw material.
type Dataset struct {
	// Plaintexts[n] are the lines submitted in sample n.
	Plaintexts [][]kernels.Line
	// Samples[n] is the server's response for sample n.
	Samples []*Sample
}

// Collect gathers nSamples encryption samples of linesPer lines each,
// with plaintexts drawn from the given seed and per-sample hardware
// seeds derived from it.
func (s *Server) Collect(nSamples, linesPer int, seed uint64) (*Dataset, error) {
	b := builders.Get().(*kernels.Builder)
	defer builders.Put(b)
	return s.collect(b, nSamples, linesPer, seed)
}

// collect is Collect building through b.
func (s *Server) collect(b *kernels.Builder, nSamples, linesPer int, seed uint64) (*Dataset, error) {
	if nSamples <= 0 || linesPer <= 0 {
		return nil, fmt.Errorf("aesgpu: need positive samples (%d) and lines (%d)", nSamples, linesPer)
	}
	ptRNG := rng.New(seed).Split(1)
	ds := &Dataset{}
	for n := 0; n < nSamples; n++ {
		lines := kernels.RandomPlaintext(ptRNG, linesPer)
		sample, err := s.encrypt(b, lines, seed^uint64(n+1)*0x9e3779b97f4a7c15)
		if err != nil {
			return nil, err
		}
		ds.Plaintexts = append(ds.Plaintexts, lines)
		ds.Samples = append(ds.Samples, sample)
	}
	return ds, nil
}

// LastRoundTimes returns the measurement vector T of last-round
// execution times (the paper's strong-attacker measurement).
func (d *Dataset) LastRoundTimes() []float64 {
	out := make([]float64, len(d.Samples))
	for i, s := range d.Samples {
		out[i] = float64(s.LastRoundCycles)
	}
	return out
}

// TotalTimes returns the total execution times (the realistic, noisier
// measurement).
func (d *Dataset) TotalTimes() []float64 {
	out := make([]float64, len(d.Samples))
	for i, s := range d.Samples {
		out[i] = float64(s.TotalCycles)
	}
	return out
}

// ObservedLastRoundTx returns the hardware's actual last-round
// coalesced-access counts (ground truth for noise-free correlations).
func (d *Dataset) ObservedLastRoundTx() []float64 {
	out := make([]float64, len(d.Samples))
	for i, s := range d.Samples {
		out[i] = float64(s.LastRoundTx)
	}
	return out
}
