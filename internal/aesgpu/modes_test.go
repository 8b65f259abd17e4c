package aesgpu

import (
	stdaes "crypto/aes"
	"crypto/cipher"
	"encoding/binary"
	"math"
	"testing"

	"rcoal/internal/aes"
	"rcoal/internal/gpusim"
	"rcoal/internal/kernels"
	"rcoal/internal/rng"
)

func TestDecryptInvertsEncrypt(t *testing.T) {
	s := newTestServer(t, gpusim.DefaultConfig())
	pts := kernels.RandomPlaintext(rng.New(21), 32)
	enc, err := s.Encrypt(pts, 1)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := s.Decrypt(enc.Ciphertexts, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range pts {
		if dec.Ciphertexts[i] != pts[i] {
			t.Fatalf("line %d did not round-trip through the GPU", i)
		}
	}
	if dec.TotalCycles <= 0 || dec.LastRoundTx == 0 {
		t.Error("decryption sample lacks timing/accounting")
	}
}

func testPearson(xs, ys []float64) float64 {
	n := float64(len(xs))
	var mx, my float64
	for i := range xs {
		mx += xs[i]
		my += ys[i]
	}
	mx /= n
	my /= n
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}

func TestDecryptTimingChannelExists(t *testing.T) {
	// Decryption leaks like encryption: last-round accesses vary and
	// drive the last-round time.
	s := newTestServer(t, gpusim.DefaultConfig())
	var txs, times []float64
	src := rng.New(23)
	for n := 0; n < 30; n++ {
		cts := kernels.RandomPlaintext(src, 32)
		smp, err := s.Decrypt(cts, uint64(n+1))
		if err != nil {
			t.Fatal(err)
		}
		txs = append(txs, float64(smp.LastRoundTx))
		times = append(times, float64(smp.LastRoundCycles))
	}
	varied := false
	for i := 1; i < len(txs); i++ {
		if txs[i] != txs[0] {
			varied = true
		}
	}
	if !varied {
		t.Fatal("decryption access counts constant; no channel to test")
	}
	if r := testPearson(txs, times); r < 0.9 {
		t.Errorf("decryption channel rho = %v, want > 0.9", r)
	}
}

func TestCTRRoundTripAndKeystream(t *testing.T) {
	s := newTestServer(t, gpusim.DefaultConfig())
	pts := kernels.RandomPlaintext(rng.New(29), 32)
	const nonce = 0xD00DFEED
	out, err := s.EncryptCTR(nonce, pts, 3)
	if err != nil {
		t.Fatal(err)
	}
	// ct XOR keystream = pt.
	for i := range pts {
		for b := 0; b < 16; b++ {
			if out.Ciphertexts[i][b]^out.Keystream[i][b] != pts[i][b] {
				t.Fatalf("CTR line %d byte %d does not round-trip", i, b)
			}
		}
	}
	// The keystream is the encryption of the counter blocks.
	c, err := aes.NewCipher(testKey)
	if err != nil {
		t.Fatal(err)
	}
	for i := range pts {
		var counter, want [16]byte
		binary.BigEndian.PutUint64(counter[:8], nonce)
		binary.BigEndian.PutUint64(counter[8:], uint64(i))
		c.Encrypt(want[:], counter[:])
		if out.Keystream[i] != want {
			t.Fatalf("keystream block %d is not AES(counter)", i)
		}
	}
	if out.TotalCycles <= 0 || out.LastRoundTx == 0 {
		t.Error("CTR sample lacks timing")
	}
}

func TestCTRTimingChannelOnKeystream(t *testing.T) {
	// The CTR attack surface: the attacker derives the keystream from
	// known plaintext and correlates — the last-round channel exists
	// for the keystream generation exactly as for block encryption.
	s := newTestServer(t, gpusim.DefaultConfig())
	var txs, times []float64
	src := rng.New(31)
	for n := 0; n < 30; n++ {
		pts := kernels.RandomPlaintext(src, 32)
		out, err := s.EncryptCTR(uint64(1000+n), pts, uint64(n+1))
		if err != nil {
			t.Fatal(err)
		}
		txs = append(txs, float64(out.LastRoundTx))
		times = append(times, float64(out.LastRoundCycles))
	}
	if r := testPearson(txs, times); r < 0.9 {
		t.Errorf("CTR channel rho = %v, want > 0.9", r)
	}
}

func TestRoundZeroKeyIsOriginalKey(t *testing.T) {
	s := newTestServer(t, gpusim.DefaultConfig())
	rk := s.RoundZeroKey()
	for i := range rk {
		if rk[i] != testKey[i] {
			t.Fatal("round-0 key differs from the AES key")
		}
	}
}

func TestCTRMatchesCryptoCipher(t *testing.T) {
	// Validate the CTR construction against the standard library's
	// cipher.NewCTR with IV = nonce || 0: our per-line counter is the
	// big-endian block index in the low 8 bytes, which matches the
	// stdlib's increment for < 2^64 blocks.
	s := newTestServer(t, gpusim.DefaultConfig())
	pts := kernels.RandomPlaintext(rng.New(33), 40)
	const nonce = 0x0123456789ABCDEF
	out, err := s.EncryptCTR(nonce, pts, 4)
	if err != nil {
		t.Fatal(err)
	}

	block, err := stdaes.NewCipher(testKey)
	if err != nil {
		t.Fatal(err)
	}
	var iv [16]byte
	binary.BigEndian.PutUint64(iv[:8], nonce)
	ctr := cipher.NewCTR(block, iv[:])
	flat := make([]byte, 16*len(pts))
	for i, p := range pts {
		copy(flat[16*i:], p[:])
	}
	want := make([]byte, len(flat))
	ctr.XORKeyStream(want, flat)
	for i := range pts {
		for b := 0; b < 16; b++ {
			if out.Ciphertexts[i][b] != want[16*i+b] {
				t.Fatalf("CTR line %d differs from crypto/cipher", i)
			}
		}
	}
}
