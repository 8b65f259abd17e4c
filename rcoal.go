// Package rcoal is a from-scratch reproduction of "RCoal: Mitigating
// GPU Timing Attack via Subwarp-Based Randomized Coalescing
// Techniques" (Kadam, Zhang, Jog — HPCA 2018).
//
// It provides, as one coherent library:
//
//   - the randomized coalescing mechanisms themselves (FSS, RSS, RTS
//     and their combinations) and the subwarp-plan abstraction the
//     modified coalescing unit executes;
//   - a cycle-level GPU timing simulator configured like the paper's
//     Table I (SIMT cores, crossbar interconnect, GDDR5 partitions
//     scheduling each request on arrival, which is what FR-FCFS does
//     at Table I's rates) that runs AES-128 encryption kernels;
//   - the correlation timing attack of Jiang et al. and the paper's
//     "corresponding attacks" against each defense;
//   - the Section V analytical security model that regenerates
//     Table II; and
//   - experiment drivers reproducing every figure and table of the
//     paper's evaluation.
//
// This file is the public facade: type aliases and constructors over
// the internal packages, so downstream users interact with one stable
// surface. The examples/ directory shows typical usage; the cmd/
// directory ships CLI tools built on the same API.
package rcoal

import (
	"rcoal/internal/aes"
	"rcoal/internal/aesgpu"
	"rcoal/internal/attack"
	"rcoal/internal/core"
	"rcoal/internal/experiments"
	"rcoal/internal/gpusim"
	"rcoal/internal/kernels"
	"rcoal/internal/mechanism"
	"rcoal/internal/rng"
	"rcoal/internal/stats"
	"rcoal/internal/theory"
)

// --- Defense mechanisms (the paper's contribution, plus the zoo) -------------

// Mechanism is a pluggable coalescing-stage defense: it validates
// against a warp size and realizes per-launch behavior (a subwarp plan
// plus optional per-request hooks). The paper's subwarp mechanisms
// (FSS, RSS, RTS combinations), the obfuscation defenses of Karimi et
// al. (randomized delay, access shuffling), and the no-coalescing
// strawman all implement it. Build one with the constructors below or
// ParseMechanism.
type Mechanism = mechanism.Mechanism

// MechanismInfo describes one registered mechanism family (its CLI
// keyword, usage, and example specs).
type MechanismInfo = mechanism.Info

// SubwarpPlan is one realized thread→subwarp mapping (drawn per kernel
// launch).
type SubwarpPlan = core.Plan

// Baseline returns the undefended whole-warp coalescing policy.
func Baseline() Mechanism { return mechanism.Baseline() }

// FSS returns fixed-sized subwarps with m subwarps per warp.
func FSS(m int) Mechanism { return mechanism.FSS(m) }

// FSSRTS returns FSS with random thread allocation.
func FSSRTS(m int) Mechanism { return mechanism.FSSRTS(m) }

// RSS returns random-sized (skewed) subwarps.
func RSS(m int) Mechanism { return mechanism.RSS(m) }

// RSSRTS returns RSS with random thread allocation.
func RSSRTS(m int) Mechanism { return mechanism.RSSRTS(m) }

// RSSNormal returns the normal-sized RSS variant of Figure 9.
func RSSNormal(m int, sigma float64) Mechanism { return mechanism.RSSNormal(m, sigma) }

// Delay returns the randomized-delay obfuscation defense (Karimi et
// al.): each memory instruction's issue is stalled by a uniform random
// 0..maxCycles cycles.
func Delay(maxCycles int) Mechanism { return mechanism.Delay(maxCycles) }

// Shuffle returns the access-pattern-shuffling obfuscation defense
// (Karimi et al.): coalesced transactions leave the MCU in a random
// order.
func Shuffle() Mechanism { return mechanism.Shuffle() }

// NoCoal returns the Section III strawman: coalescing disabled, one
// transaction per active thread.
func NoCoal() Mechanism { return mechanism.NoCoal() }

// ParseMechanism parses a defense spec such as "baseline", "fss:4",
// "rss+rts:8", "rss-normal:4:1.5", "delay:64", "shuffle", or
// "nocoal". The grammar is keyword[:arg[:arg]]; ListMechanisms
// enumerates the registered keywords. Specs round-trip:
// ParseMechanism(m.Spec()) reconstructs m.
func ParseMechanism(spec string) (Mechanism, error) { return mechanism.Parse(spec) }

// ListMechanisms returns the registered mechanism families in
// registration order (the defense zoo's table of contents).
func ListMechanisms() []MechanismInfo { return mechanism.List() }

// --- Simulated GPU and encryption service -----------------------------------

// GPUConfig is the simulated GPU configuration (Table I defaults via
// DefaultGPUConfig).
type GPUConfig = gpusim.Config

// DefaultGPUConfig returns the paper's Table I configuration.
func DefaultGPUConfig() GPUConfig { return gpusim.DefaultConfig() }

// Server is a GPU AES encryption service (the remote victim of the
// threat model).
type Server = aesgpu.Server

// Dataset is a collection of timing samples gathered from a Server.
type Dataset = aesgpu.Dataset

// Sample is one encryption request's observable outcome.
type Sample = aesgpu.Sample

// Line is one 16-byte plaintext/ciphertext block.
type Line = kernels.Line

// NewServer builds an encryption server simulating cfg with the given
// AES key.
func NewServer(cfg GPUConfig, key []byte) (*Server, error) {
	return aesgpu.NewServer(cfg, key)
}

// ForkedCollect gathers nSamples timing samples under EACH mechanism,
// simulating the mechanism-independent prefix of every sample once and
// forking it per mechanism (copy-on-write prefix forking). Requires
// selective RCoal (cfg.VulnerableRounds non-empty) and plan-only
// mechanisms (no per-request hooks); the datasets are byte-identical
// to per-mechanism Server.Collect runs.
func ForkedCollect(cfg GPUConfig, key []byte, mechs []Mechanism, nSamples, linesPer int, seed uint64) ([]*Dataset, error) {
	return aesgpu.ForkedCollect(cfg, key, mechs, nSamples, linesPer, seed)
}

// RandomPlaintext draws n random plaintext lines from the seed.
func RandomPlaintext(seed uint64, n int) []Line {
	return kernels.RandomPlaintext(rng.New(seed), n)
}

// InvertAES128Schedule recovers the original AES-128 key from a
// recovered last round key — the property that makes the last round
// the attack target.
func InvertAES128Schedule(lastRoundKey [16]byte) [16]byte {
	return aes.InvertSchedule128(lastRoundKey)
}

// EnergyModel estimates per-launch energy (GPUWattch-style constants);
// see the gpusim package for the event accounting.
type EnergyModel = gpusim.EnergyModel

// DefaultEnergyModel returns the order-of-magnitude per-event energies.
func DefaultEnergyModel() EnergyModel { return gpusim.DefaultEnergyModel() }

// --- Attacks -----------------------------------------------------------------

// Attacker mounts correlation timing attacks under an assumed defense
// policy.
type Attacker = attack.Attacker

// KeyResult is a full 16-byte last-round key recovery outcome.
type KeyResult = attack.KeyResult

// ByteResult is a single key byte's attack outcome.
type ByteResult = attack.ByteResult

// NewAttacker builds a "corresponding attack" for the given assumed
// defense; the seed drives the attacker's own defense simulation.
func NewAttacker(defense Mechanism, seed uint64) (*Attacker, error) {
	return attack.New(defense, seed)
}

// BaselineAttacker returns the original attack of Jiang et al.
// (whole-warp coalescing assumed).
func BaselineAttacker(seed uint64) *Attacker { return attack.Baseline(seed) }

// NewDecryptAttacker builds a corresponding attack against a GPU
// *decryption* service: the observed lines are recovered plaintexts
// and the recovered bytes form round key 0 — the original AES key.
func NewDecryptAttacker(defense Mechanism, seed uint64) (*Attacker, error) {
	return attack.NewDecrypt(defense, seed)
}

// CTRSample is a CTR-mode encryption response (ciphertexts plus the
// keystream blocks the attacker can reconstruct from known plaintext).
type CTRSample = aesgpu.CTRSample

// BankConflictAttacker mounts the shared-memory bank-conflict attack
// (the channel RCoal does not cover; see the ext-sharedmem
// experiment).
type BankConflictAttacker = attack.BankConflictAttacker

// --- Analytical model and metrics ---------------------------------------------

// SecurityModel is the Section V analytical model.
type SecurityModel = theory.Model

// SecurityRow is one Table II row (fixed M across mechanisms).
type SecurityRow = theory.Row

// NewSecurityModel builds the model for n threads per warp and r
// memory blocks per table (the paper uses 32 and 16).
func NewSecurityModel(n, r int) (*SecurityModel, error) { return theory.NewModel(n, r) }

// SamplesForAttack is Equation 4: the samples needed for a successful
// attack at correlation rho and success rate alpha.
func SamplesForAttack(rho, alpha float64) float64 { return stats.SamplesForAttack(rho, alpha) }

// RCoalScore is Equation 7: the security/performance trade-off metric.
func RCoalScore(s, executionTime, a, b float64) float64 {
	return stats.RCoalScore(s, executionTime, a, b)
}

// --- Experiments ---------------------------------------------------------------

// ExperimentOptions parameterizes a paper-reproduction experiment.
type ExperimentOptions = experiments.Options

// DefaultExperimentOptions mirrors the paper's evaluation setup. The
// returned value and its copies share one in-memory results store, so
// a grid cell computed once is restored on every later run; set Cache
// to nil to recompute every cell.
func DefaultExperimentOptions() ExperimentOptions { return experiments.DefaultOptions() }

// ExperimentIDs lists the reproducible paper artifacts ("fig6",
// "table2", ...).
func ExperimentIDs() []string { return experiments.IDs() }

// RunExperiment reproduces one paper artifact and returns its report.
func RunExperiment(id string, o ExperimentOptions) (string, error) {
	res, err := experiments.Run(id, o)
	if err != nil {
		return "", err
	}
	return res.Render(), nil
}
