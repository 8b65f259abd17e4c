package kernels

import (
	"reflect"
	"testing"

	"rcoal/internal/aes"
	"rcoal/internal/gpusim"
	"rcoal/internal/gpusim/mem"
	"rcoal/internal/rng"
)

func testCipher(t *testing.T) *aes.Cipher {
	t.Helper()
	c, err := aes.NewCipher([]byte("0123456789abcdef"))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestTableAddrLayout(t *testing.T) {
	if TableAddr(aes.T0, 0) != TableBase {
		t.Error("T0 not at base")
	}
	if TableAddr(aes.T1, 0)-TableAddr(aes.T0, 0) != 1024 {
		t.Error("tables not 1KiB apart")
	}
	if TableAddr(aes.T4, 255) != TableBase+4*1024+255*4 {
		t.Error("T4 last entry misplaced")
	}
	// 16 consecutive entries share one 64-byte block (R = 16).
	if TableAddr(aes.T4, 0)/64 != TableAddr(aes.T4, 15)/64 {
		t.Error("entries 0 and 15 in different blocks")
	}
	if TableAddr(aes.T4, 15)/64 == TableAddr(aes.T4, 16)/64 {
		t.Error("entries 15 and 16 share a block")
	}
	// Each table spans exactly 16 blocks.
	blocks := map[uint64]bool{}
	for i := 0; i < 256; i++ {
		blocks[TableAddr(aes.T4, byte(i))/64] = true
	}
	if len(blocks) != 16 {
		t.Errorf("T4 spans %d blocks, want 16", len(blocks))
	}
}

func TestRandomPlaintext(t *testing.T) {
	r := rng.New(1)
	lines := RandomPlaintext(r, 32)
	if len(lines) != 32 {
		t.Fatalf("got %d lines", len(lines))
	}
	same := 0
	for i := 1; i < len(lines); i++ {
		if lines[i] == lines[i-1] {
			same++
		}
	}
	if same > 0 {
		t.Errorf("%d duplicate adjacent lines", same)
	}
}

func TestBuildCiphertextsMatchAES(t *testing.T) {
	c := testCipher(t)
	lines := RandomPlaintext(rng.New(2), 48) // spans 2 warps, one partial
	_, cts, err := Build(c, lines)
	if err != nil {
		t.Fatal(err)
	}
	for i, pt := range lines {
		want := make([]byte, 16)
		c.Encrypt(want, pt[:])
		for b := 0; b < 16; b++ {
			if cts[i][b] != want[b] {
				t.Fatalf("line %d ciphertext mismatch", i)
			}
		}
	}
}

func TestBuildStructure(t *testing.T) {
	c := testCipher(t)
	lines := RandomPlaintext(rng.New(3), 64)
	k, _, err := Build(c, lines)
	if err != nil {
		t.Fatal(err)
	}
	if len(k.Warps) != 2 {
		t.Fatalf("%d warps, want 2", len(k.Warps))
	}
	if err := k.Validate(32); err != nil {
		t.Fatal(err)
	}
	// Per warp: 4 pt loads + 10*16 lookups + 4 ct stores = 168 memory
	// instructions; kernel-wide 336.
	if got := memInstrs(k); got != 336 {
		t.Errorf("memInstrs = %d, want 336", got)
	}
	// Last-round lookups target T4's address range.
	w := k.Warps[0]
	t4lo, t4hi := TableAddr(aes.T4, 0), TableAddr(aes.T4, 255)
	seenLastRound := 0
	for _, ins := range w.Instrs {
		if ins.Kind == gpusim.Load && ins.Round == 10 {
			seenLastRound++
			for _, b := range ins.Blocks {
				if b < mem.BlockOf(t4lo) || b > mem.BlockOf(t4hi) {
					t.Fatalf("last-round lookup at block %#x outside T4", b)
				}
			}
		}
	}
	if seenLastRound != 16 {
		t.Errorf("%d last-round lookups, want 16", seenLastRound)
	}
}

func TestBuildPartialWarpMasksPadding(t *testing.T) {
	c := testCipher(t)
	lines := RandomPlaintext(rng.New(4), 40) // 32 + 8
	k, _, err := Build(c, lines)
	if err != nil {
		t.Fatal(err)
	}
	if len(k.Warps) != 2 {
		t.Fatalf("%d warps, want 2", len(k.Warps))
	}
	for _, ins := range k.Warps[1].Instrs {
		if ins.Kind != gpusim.Load && ins.Kind != gpusim.Store {
			continue
		}
		if ins.Active == nil {
			t.Fatal("partial warp without active mask")
		}
		for t8 := 0; t8 < 8; t8++ {
			if !ins.Active[t8] {
				t.Fatal("active thread masked off")
			}
		}
		for t8 := 8; t8 < 32; t8++ {
			if ins.Active[t8] {
				t.Fatal("padded thread active")
			}
		}
	}
}

// TestBuilderReuseMatchesFreshBuild: one Builder reused across
// encryptions of different sizes (shrinking, a partial warp, then
// growing past it), an AES-256 cipher and a decryption returns kernels
// and output lines equal to a fresh builder's.
func TestBuilderReuseMatchesFreshBuild(t *testing.T) {
	c := testCipher(t)
	c256, err := aes.NewCipher([]byte("0123456789abcdef0123456789abcdef"))
	if err != nil {
		t.Fatal(err)
	}
	var b Builder
	for i, step := range []struct {
		c       *aes.Cipher
		lines   int
		decrypt bool
	}{{c, 1024, false}, {c, 32, false}, {c, 33, false}, {c256, 40, false}, {c, 70, true}, {c, 64, false}} {
		lines := RandomPlaintext(rng.New(uint64(100+i)), step.lines)
		build, fresh := b.Build, Build
		if step.decrypt {
			build, fresh = b.BuildDecrypt, new(Builder).BuildDecrypt
		}
		want, wantOut, err := fresh(step.c, lines)
		if err != nil {
			t.Fatal(err)
		}
		got, gotOut, err := build(step.c, lines)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(gotOut, wantOut) {
			t.Fatalf("step %d (%d lines, decrypt %v): reused builder differs from a fresh build",
				i, step.lines, step.decrypt)
		}
	}
}

// TestBuilderSteadyStateAllocations guards the reuse: a warmed builder
// allocates a 1024-line kernel's output lines and label, not its
// traces, instructions or addresses, in either direction.
func TestBuilderSteadyStateAllocations(t *testing.T) {
	c := testCipher(t)
	lines := RandomPlaintext(rng.New(6), 1024)
	var b Builder
	for _, dir := range []struct {
		name  string
		build func(*aes.Cipher, []Line) (*gpusim.Kernel, []Line, error)
	}{{"Build", b.Build}, {"BuildDecrypt", b.BuildDecrypt}} {
		if _, _, err := dir.build(c, lines); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(5, func() {
			if _, _, err := dir.build(c, lines); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 2 {
			t.Fatalf("warmed %s of 1024 lines allocates %v times, want 2", dir.name, allocs)
		}
	}
}

func TestBuildEmptyErrors(t *testing.T) {
	if _, _, err := Build(testCipher(t), nil); err == nil {
		t.Fatal("empty plaintext accepted")
	}
}

func TestBuildRunsOnSimulator(t *testing.T) {
	c := testCipher(t)
	lines := RandomPlaintext(rng.New(5), 32)
	k, _, err := Build(c, lines)
	if err != nil {
		t.Fatal(err)
	}
	g, err := gpusim.New(gpusim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err := g.Run(k, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles <= 0 || res.TotalTx == 0 {
		t.Fatalf("degenerate run: %d cycles, %d txs", res.Cycles, res.TotalTx)
	}
	// All ten rounds saw traffic; round windows are ordered.
	for r := 1; r <= 10; r++ {
		if res.RoundTx[r] == 0 {
			t.Errorf("round %d has no transactions", r)
		}
		if res.RoundWindow(r) <= 0 {
			t.Errorf("round %d window empty", r)
		}
	}
	// With num-subwarp = 1, each lookup coalesces to at most 16 blocks:
	// per-round tx <= 16 instr x 16 blocks.
	if res.RoundTx[10] > 256 {
		t.Errorf("last round tx %d exceeds 16x16", res.RoundTx[10])
	}
}

func TestBuildSyntheticValidation(t *testing.T) {
	if _, err := BuildSynthetic(Sequential, 0, 4, 1); err == nil {
		t.Error("0 warps accepted")
	}
	if _, err := BuildSynthetic(Sequential, 1, 0, 1); err == nil {
		t.Error("0 loads accepted")
	}
}

func TestBuildSyntheticPatterns(t *testing.T) {
	for _, p := range AllPatterns {
		k, err := BuildSynthetic(p, 2, 8, 7)
		if err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		if err := k.Validate(32); err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		if len(k.Warps) != 2 || memInstrs(k) != 16 {
			t.Errorf("%v: %d warps, %d mem instrs", p, len(k.Warps), memInstrs(k))
		}
	}
}

func TestSyntheticPatternGeometry(t *testing.T) {
	// Block-level structure per pattern, for one warp instruction.
	blockSpread := func(p Pattern) int {
		k, err := BuildSynthetic(p, 1, 1, 3)
		if err != nil {
			t.Fatal(err)
		}
		for _, ins := range k.Warps[0].Instrs {
			if ins.Kind != gpusim.Load {
				continue
			}
			blocks := map[uint64]bool{}
			for _, b := range ins.Blocks {
				blocks[b] = true
			}
			return len(blocks)
		}
		t.Fatal("no load found")
		return 0
	}
	if got := blockSpread(Sequential); got != 2 {
		t.Errorf("sequential spreads %d blocks, want 2", got)
	}
	if got := blockSpread(Strided); got != 32 {
		t.Errorf("strided spreads %d blocks, want 32", got)
	}
	if got := blockSpread(UniformRandom); got < 8 || got > 16 {
		t.Errorf("uniform-random spreads %d blocks, want 8..16", got)
	}
	if got := blockSpread(Hotspot); got < 1 || got > 8 {
		t.Errorf("hotspot spreads %d blocks, want small", got)
	}
}

func TestPatternString(t *testing.T) {
	if Sequential.String() != "sequential" || Pattern(99).String() != "unknown" {
		t.Error("pattern names wrong")
	}
}

// memInstrs counts the global-memory instructions in a kernel.
func memInstrs(k *gpusim.Kernel) int {
	n := 0
	for _, w := range k.Warps {
		for _, ins := range w.Instrs {
			if ins.Kind == gpusim.Load || ins.Kind == gpusim.Store {
				n++
			}
		}
	}
	return n
}
