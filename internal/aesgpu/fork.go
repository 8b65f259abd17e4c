package aesgpu

import (
	"fmt"

	"rcoal/internal/aes"
	"rcoal/internal/gpusim"
	"rcoal/internal/kernels"
	"rcoal/internal/mechanism"
	"rcoal/internal/rng"
)

// ForkedCollect is the prefix-forked counterpart of running
// Server.Collect once per defense mechanism: it gathers nSamples
// encryption samples under EACH of the given mechanisms, simulating
// the mechanism-independent prefix of every sample once and forking it
// per mechanism. cfg carries the shared GPU configuration; its Defense
// field is ignored (each mechanism supplies it) and its
// VulnerableRounds must be non-empty — forking only accelerates
// selective RCoal, where the prefix provably cannot depend on the
// mechanism. Every mechanism must be plan-only (gpusim's forkable()
// rejects per-request hooks and the coalescer bypass).
//
// The returned datasets are ordered like mechs, and each is
// byte-identical to what a per-mechanism Server.Collect with the same
// (nSamples, linesPer, seed) would produce — the contract
// fork_test.go here and internal/equiv enforce.
func ForkedCollect(cfg gpusim.Config, key []byte, mechs []mechanism.Mechanism, nSamples, linesPer int, seed uint64) ([]*Dataset, error) {
	if nSamples <= 0 || linesPer <= 0 {
		return nil, fmt.Errorf("aesgpu: need positive samples (%d) and lines (%d)", nSamples, linesPer)
	}
	if len(mechs) == 0 {
		return nil, fmt.Errorf("aesgpu: no mechanisms to fork")
	}
	cipher, err := aes.NewCipher(key)
	if err != nil {
		return nil, err
	}

	prefixCfg := cfg
	prefixCfg.Defense = mechanism.Baseline()
	prefixGPU, err := gpusim.New(prefixCfg)
	if err != nil {
		return nil, err
	}
	forkGPUs := make([]*gpusim.GPU, len(mechs))
	for i, m := range mechs {
		forkCfg := cfg
		forkCfg.Defense = m
		if forkGPUs[i], err = gpusim.New(forkCfg); err != nil {
			return nil, err
		}
	}

	b := builders.Get().(*kernels.Builder)
	defer builders.Put(b)

	// Mirror Collect exactly: same plaintext stream, same per-sample
	// hardware seed derivation.
	ptRNG := rng.New(seed).Split(1)
	last := cipher.Rounds()
	out := make([]*Dataset, len(mechs))
	for i := range out {
		out[i] = &Dataset{}
	}
	for n := 0; n < nSamples; n++ {
		lines := kernels.RandomPlaintext(ptRNG, linesPer)
		kernel, cts, err := b.Build(cipher, lines)
		if err != nil {
			return nil, err
		}
		hwSeed := seed ^ uint64(n+1)*0x9e3779b97f4a7c15
		snap, err := prefixGPU.RunPrefix(kernel, hwSeed)
		if err != nil {
			return nil, err
		}
		for i := range mechs {
			res, err := forkGPUs[i].RunFork(snap)
			if err != nil {
				return nil, err
			}
			out[i].Plaintexts = append(out[i].Plaintexts, lines)
			out[i].Samples = append(out[i].Samples, newSample(last, cts, res, forkGPUs[i].Config()))
		}
	}
	return out, nil
}
