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
	"strconv"

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
// under the cipher, along with the resulting ciphertext lines, into
// fresh storage the kernel owns. Lines are assigned to threads
// sequentially (line L -> warp L/32, thread L%32), per the baseline
// implementation; a trailing partial warp runs with inactive threads.
func Build(c *aes.Cipher, lines []Line) (*gpusim.Kernel, []Line, error) {
	return new(Builder).Build(c, lines)
}

// warpSize is the thread count of the kernels' warps.
const warpSize = 32

// Builder builds kernels into storage it keeps across builds: the
// kernel, its warp programs and instruction slices, one address slab
// all the memory instructions' addresses are carved from, and the
// per-thread lookup traces. A warmed builder allocates only each
// build's output lines and kernel label, which the caller keeps. A
// kernel a Builder returns is valid until its next build. The zero
// Builder is ready to use; it is not safe for concurrent use.
type Builder struct {
	kernel gpusim.Kernel
	progs  []*gpusim.WarpProgram
	slab   []uint64
	traces []aes.Trace
	active []bool // the partial warp's predication mask
}

// Build is the package-level Build into the builder's storage.
func (b *Builder) Build(c *aes.Cipher, lines []Line) (*gpusim.Kernel, []Line, error) {
	return b.build(lines, c.Rounds(), c.TraceEncryptInto, PlainBase, CipherBase, "", "plaintext")
}

// BuildDecrypt constructs, into the builder's storage, the kernel for
// *decrypting* the given ciphertext lines: the mirror of Build using
// the equivalent inverse cipher's Td-table dataflow (one line per
// thread, 16 lookups per inverse round). The decryption tables occupy
// the same address layout as the encryption tables (a decryption
// kernel binds Td0..Td4 at TableBase), so the coalescing geometry — 16
// entries per 64-byte block, R = 16 blocks per table — is identical.
//
// It returns the recovered plaintext lines alongside the kernel.
func (b *Builder) BuildDecrypt(c *aes.Cipher, lines []Line) (*gpusim.Kernel, []Line, error) {
	return b.build(lines, c.Rounds(), c.TraceDecryptInto, CipherBase, PlainBase, "dec-", "ciphertext")
}

// build is Build and BuildDecrypt: each thread loads its input line
// from loadBase, performs the rounds' table lookups that trace records,
// and stores its output line at storeBase. label tags the kernel name
// and what names the input lines in the empty-input error.
func (b *Builder) build(lines []Line, rounds int, trace func([]byte, aes.Trace) Line,
	loadBase, storeBase uint64, label, what string) (*gpusim.Kernel, []Line, error) {
	if len(lines) == 0 {
		return nil, nil, fmt.Errorf("kernels: no %s lines", what)
	}
	outs := make([]Line, len(lines))
	numWarps := (len(lines) + warpSize - 1) / warpSize
	b.reserve(numWarps, rounds)
	slab := b.slab

	// nextAddrs carves the next instruction's per-thread addresses from
	// the slab; capped, so no append can run into its neighbour.
	nextAddrs := func() []uint64 {
		addrs := slab[:warpSize:warpSize]
		slab = slab[warpSize:]
		return addrs
	}

	// lineWords emits one 4-byte access per thread for each word of its
	// line at base; padded threads carry a dummy address (their warp's
	// first line).
	lineWords := func(wp *gpusim.WarpProgram, kind gpusim.InstrKind, base uint64, lo int, active []bool) {
		for word := 0; word < 4; word++ {
			addrs := nextAddrs()
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
		hi := min(lo+warpSize, len(lines))
		nActive := hi - lo

		// Per-thread lookup traces from the real AES dataflow.
		traces := b.traces[:nActive]
		for t := range traces {
			outs[lo+t] = trace(lines[lo+t][:], traces[t])
		}

		var active []bool
		if nActive < warpSize {
			active = b.active
			for t := range active {
				active[t] = t < nActive
			}
		}

		wp := b.progs[w]
		wp.ID, wp.Instrs = w, wp.Instrs[:0]

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
				addrs := nextAddrs()
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
	}
	b.kernel = gpusim.Kernel{Warps: b.progs[:numWarps], Label: kernelLabel(rounds, label, len(lines))}
	return &b.kernel, outs, nil
}

// kernelLabel names an AES kernel, e.g. "aes128-dec-32lines", in one
// allocation (fmt would box its arguments).
func kernelLabel(rounds int, label string, lines int) string {
	var buf [32]byte
	s := strconv.AppendInt(append(buf[:0], "aes"...), int64(128+(rounds-10)*32), 10)
	s = append(append(s, '-'), label...)
	s = strconv.AppendInt(s, int64(lines), 10)
	return string(append(s, "lines"...))
}

// reserve sizes the builder's storage for numWarps warps of an AES
// kernel with the given round count. A warp issues 8 line accesses and
// 16 lookups per round, each of warpSize addresses, plus an ALU
// operation after every 4 lookups, a mark per round and two more
// instructions around the rounds.
func (b *Builder) reserve(numWarps, rounds int) {
	if n := numWarps * (8 + 16*rounds) * warpSize; cap(b.slab) < n {
		b.slab = make([]uint64, n)
	} else {
		b.slab = b.slab[:n]
	}
	if n := numWarps - len(b.progs); n > 0 {
		more := make([]gpusim.WarpProgram, n)
		for i := range more {
			b.progs = append(b.progs, &more[i])
		}
	}
	for _, wp := range b.progs[:numWarps] {
		if n := 10 + 21*rounds; cap(wp.Instrs) < n {
			wp.Instrs = make([]gpusim.Instr, 0, n)
		}
	}
	if len(b.traces) == 0 || len(b.traces[0]) != rounds {
		b.traces = make([]aes.Trace, warpSize)
		for t := range b.traces {
			b.traces[t] = make(aes.Trace, rounds)
		}
	}
	if b.active == nil {
		b.active = make([]bool, warpSize)
	}
}
