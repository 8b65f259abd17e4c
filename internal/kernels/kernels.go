// Package kernels translates AES encryptions into the per-warp
// instruction traces the GPU simulator executes, mirroring the CUDA
// AES implementation the RCoal paper attacks (Section II-B): each
// thread encrypts one 16-byte line of the plaintext, lines map to
// threads sequentially, and every round performs 16 T-table lookups
// per thread that the coalescing unit merges warp-wide.
//
// The trace builder uses the real AES dataflow (internal/aes's
// TraceEncrypt) to compute the exact global-memory address of every
// table lookup, so the coalescing behaviour on the simulator is
// bit-exact with respect to the modeled GPU kernel.
package kernels

import (
	"fmt"

	"rcoal/internal/aes"
	"rcoal/internal/gpusim"
	"rcoal/internal/rng"
)

// Memory layout of the kernel's address space. Bases are chunk-aligned
// and far apart so table, plaintext, and ciphertext traffic never share
// memory blocks.
const (
	// TableBase is where the five T-tables (T0..T4, 1 KiB each) start.
	TableBase uint64 = 0x1000_0000
	// PlainBase is the plaintext buffer base.
	PlainBase uint64 = 0x2000_0000
	// CipherBase is the ciphertext buffer base.
	CipherBase uint64 = 0x3000_0000
	// LineBytes is one plaintext/ciphertext line (one AES block).
	LineBytes = aes.BlockSize
)

// TableAddr returns the global address of entry index of table t.
func TableAddr(t aes.TableID, index byte) uint64 {
	return TableBase + uint64(t)*uint64(aes.TableBytes) + uint64(index)*uint64(aes.EntryBytes)
}

// Line is one 16-byte plaintext or ciphertext block.
type Line = [LineBytes]byte

// RandomPlaintext draws n random lines — the attacker's chosen
// plaintext samples.
func RandomPlaintext(r *rng.Source, n int) []Line {
	lines := make([]Line, n)
	for i := range lines {
		for j := 0; j < LineBytes; j += 8 {
			v := r.Uint64()
			for b := 0; b < 8; b++ {
				lines[i][j+b] = byte(v >> (8 * b))
			}
		}
	}
	return lines
}

// Build constructs the kernel for encrypting the given plaintext lines
// under the cipher, along with the resulting ciphertext lines. Lines
// are assigned to threads sequentially (line L -> warp L/32, thread
// L%32), per the baseline implementation; a trailing partial warp runs
// with inactive threads.
func Build(c *aes.Cipher, lines []Line) (*gpusim.Kernel, []Line, error) {
	return build(lines, c.Rounds(), c.TraceEncrypt, PlainBase, CipherBase, "", "plaintext")
}

// BuildDecrypt constructs the kernel for *decrypting* the given
// ciphertext lines: the mirror of Build using the equivalent inverse
// cipher's Td-table dataflow (one line per thread, 16 lookups per
// inverse round). The decryption tables occupy the same address
// layout as the encryption tables (a decryption kernel binds Td0..Td4
// at TableBase), so the coalescing geometry — 16 entries per 64-byte
// block, R = 16 blocks per table — is identical.
//
// It returns the recovered plaintext lines alongside the kernel.
func BuildDecrypt(c *aes.Cipher, lines []Line) (*gpusim.Kernel, []Line, error) {
	return build(lines, c.Rounds(), c.TraceDecrypt, CipherBase, PlainBase, "dec-", "ciphertext")
}

// build is Build and BuildDecrypt: each thread loads its input line
// from loadBase, performs the rounds' table lookups that trace records,
// and stores its output line at storeBase. label tags the kernel name
// and what names the input lines in the empty-input error.
func build(lines []Line, rounds int, trace func([]byte) (Line, aes.Trace),
	loadBase, storeBase uint64, label, what string) (*gpusim.Kernel, []Line, error) {
	if len(lines) == 0 {
		return nil, nil, fmt.Errorf("kernels: no %s lines", what)
	}
	const warpSize = 32
	outs := make([]Line, len(lines))

	numWarps := (len(lines) + warpSize - 1) / warpSize
	kernel := &gpusim.Kernel{Label: fmt.Sprintf("aes%d-%s%dlines", 128+(rounds-10)*32, label, len(lines))}

	// lineWords emits one 4-byte access per thread for each word of its
	// line at base; padded threads carry a dummy address (their warp's
	// first line).
	lineWords := func(wp *gpusim.WarpProgram, kind gpusim.InstrKind, base uint64, lo int, active []bool) {
		for word := 0; word < 4; word++ {
			addrs := make([]uint64, warpSize)
			for t := 0; t < warpSize; t++ {
				line := lo + t
				if line >= len(lines) {
					line = lo
				}
				addrs[t] = base + uint64(line)*LineBytes + uint64(word)*4
			}
			wp.Instrs = append(wp.Instrs, gpusim.Instr{Kind: kind, Addrs: addrs, Active: active})
		}
	}

	for w := 0; w < numWarps; w++ {
		lo := w * warpSize
		hi := lo + warpSize
		if hi > len(lines) {
			hi = len(lines)
		}
		nActive := hi - lo

		// Per-thread lookup traces from the real AES dataflow.
		traces := make([]aes.Trace, nActive)
		for t := 0; t < nActive; t++ {
			outs[lo+t], traces[t] = trace(lines[lo+t][:])
		}

		var active []bool
		if nActive < warpSize {
			active = make([]bool, warpSize)
			for t := 0; t < nActive; t++ {
				active[t] = true
			}
		}

		wp := &gpusim.WarpProgram{ID: w}

		// Input loads: each thread reads its 16-byte line as four
		// 4-byte words.
		lineWords(wp, gpusim.Load, loadBase, lo, active)
		// Initial AddRoundKey.
		wp.Instrs = append(wp.Instrs, gpusim.Instr{Kind: gpusim.ALU})

		// Rounds 1..rounds: 16 table lookups each. Lookup slot j is
		// issued warp-wide: all threads access their own index of the
		// same table in lock step (Figure 3).
		for r := 1; r <= rounds; r++ {
			wp.Instrs = append(wp.Instrs, gpusim.Instr{Kind: gpusim.RoundMark, Round: r})
			for j := 0; j < 16; j++ {
				addrs := make([]uint64, warpSize)
				for t := 0; t < warpSize; t++ {
					if t < nActive {
						lk := traces[t][r-1][j]
						addrs[t] = TableAddr(lk.Table, lk.Index)
					} else {
						addrs[t] = TableAddr(aes.T0, 0)
					}
				}
				wp.Instrs = append(wp.Instrs, gpusim.Instr{
					Kind: gpusim.Load, Addrs: addrs, Active: active, Round: r,
				})
				// XOR-accumulate after each word's four lookups.
				if j%4 == 3 {
					wp.Instrs = append(wp.Instrs, gpusim.Instr{Kind: gpusim.ALU, Round: r})
				}
			}
		}
		wp.Instrs = append(wp.Instrs, gpusim.Instr{Kind: gpusim.RoundMark, Round: 0})

		// Output stores.
		lineWords(wp, gpusim.Store, storeBase, lo, active)

		kernel.Warps = append(kernel.Warps, wp)
	}
	return kernel, outs, nil
}
