package kernels

import (
	"testing"

	"rcoal/internal/aes"
	"rcoal/internal/gpusim"
	"rcoal/internal/gpusim/mem"
	"rcoal/internal/rng"
)

func TestBuildDecryptRecoversPlaintext(t *testing.T) {
	c := testCipher(t)
	pts := RandomPlaintext(rng.New(71), 48)
	_, cts, err := Build(c, pts)
	if err != nil {
		t.Fatal(err)
	}
	_, back, err := new(Builder).BuildDecrypt(c, cts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range pts {
		if back[i] != pts[i] {
			t.Fatalf("line %d did not round-trip through the kernel builders", i)
		}
	}
}

func TestBuildDecryptStructure(t *testing.T) {
	c := testCipher(t)
	cts := RandomPlaintext(rng.New(73), 64)
	k, _, err := new(Builder).BuildDecrypt(c, cts)
	if err != nil {
		t.Fatal(err)
	}
	if err := k.Validate(32); err != nil {
		t.Fatal(err)
	}
	if len(k.Warps) != 2 || memInstrs(k) != 336 {
		t.Errorf("%d warps, %d mem instrs", len(k.Warps), memInstrs(k))
	}
	// Final-inverse-round lookups land in the T4 slot's address range
	// (the Td4 table binds at the same base).
	t4lo, t4hi := TableAddr(aes.T4, 0), TableAddr(aes.T4, 255)
	seen := 0
	for _, ins := range k.Warps[0].Instrs {
		if ins.Kind == gpusim.Load && ins.Round == 10 {
			seen++
			for _, b := range ins.Blocks {
				if b < mem.BlockOf(t4lo) || b > mem.BlockOf(t4hi) {
					t.Fatalf("final-round lookup at block %#x outside table 4", b)
				}
			}
		}
	}
	if seen != 16 {
		t.Errorf("%d final-round lookups, want 16", seen)
	}
}

func TestBuildDecryptPartialWarp(t *testing.T) {
	c := testCipher(t)
	cts := RandomPlaintext(rng.New(79), 40)
	k, pts, err := new(Builder).BuildDecrypt(c, cts)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 40 || len(k.Warps) != 2 {
		t.Fatalf("%d lines, %d warps", len(pts), len(k.Warps))
	}
	for _, ins := range k.Warps[1].Instrs {
		if ins.Kind != gpusim.Load && ins.Kind != gpusim.Store {
			continue
		}
		if ins.Active == nil {
			t.Fatal("partial decrypt warp without active mask")
		}
	}
}

func TestBuildDecryptEmptyErrors(t *testing.T) {
	if _, _, err := new(Builder).BuildDecrypt(testCipher(t), nil); err == nil {
		t.Fatal("empty ciphertext accepted")
	}
}

func TestBuildDecryptRunsOnSimulator(t *testing.T) {
	c := testCipher(t)
	cts := RandomPlaintext(rng.New(83), 32)
	k, _, err := new(Builder).BuildDecrypt(c, cts)
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
	for r := 1; r <= 10; r++ {
		if res.RoundTx[r] == 0 {
			t.Errorf("inverse round %d has no transactions", r)
		}
	}
}
