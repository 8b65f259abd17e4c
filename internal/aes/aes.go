package aes

import (
	"encoding/binary"
	"fmt"
)

// BlockSize is the AES block size in bytes.
const BlockSize = 16

// KeySizeError reports an unsupported key length.
type KeySizeError int

func (k KeySizeError) Error() string {
	return fmt.Sprintf("aes: invalid key size %d (want 16, 24, or 32)", int(k))
}

// Cipher holds an expanded AES key schedule.
type Cipher struct {
	rounds int      // 10, 12, or 14
	enc    []uint32 // 4*(rounds+1) round-key words
	dec    []uint32 // the equivalent inverse cipher's (decKeySchedule)
}

// rcon are the round constants of the key schedule.
var rcon = [...]byte{0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1b, 0x36}

func subWord(w uint32) uint32 {
	return uint32(sbox[w>>24])<<24 | uint32(sbox[(w>>16)&0xff])<<16 |
		uint32(sbox[(w>>8)&0xff])<<8 | uint32(sbox[w&0xff])
}

func rotWord(w uint32) uint32 { return w<<8 | w>>24 }

// NewCipher expands key (16, 24, or 32 bytes) into a Cipher.
func NewCipher(key []byte) (*Cipher, error) {
	var rounds int
	switch len(key) {
	case 16:
		rounds = 10
	case 24:
		rounds = 12
	case 32:
		rounds = 14
	default:
		return nil, KeySizeError(len(key))
	}
	nk := len(key) / 4
	n := 4 * (rounds + 1)
	w := make([]uint32, n)
	for i := 0; i < nk; i++ {
		w[i] = binary.BigEndian.Uint32(key[4*i:])
	}
	for i := nk; i < n; i++ {
		t := w[i-1]
		switch {
		case i%nk == 0:
			t = subWord(rotWord(t)) ^ uint32(rcon[i/nk-1])<<24
		case nk > 6 && i%nk == 4:
			t = subWord(t)
		}
		w[i] = w[i-nk] ^ t
	}
	c := &Cipher{rounds: rounds, enc: w}
	c.dec = c.decKeySchedule()
	return c, nil
}

// Rounds returns the number of rounds (10 for AES-128).
func (c *Cipher) Rounds() int { return c.rounds }

// RoundKey returns the 16-byte round key for round r (0 is the initial
// AddRoundKey, Rounds() is the final one).
func (c *Cipher) RoundKey(r int) [BlockSize]byte {
	if r < 0 || r > c.rounds {
		panic(fmt.Sprintf("aes: RoundKey round %d out of range [0,%d]", r, c.rounds))
	}
	var out [BlockSize]byte
	for i := 0; i < 4; i++ {
		binary.BigEndian.PutUint32(out[4*i:], c.enc[4*r+i])
	}
	return out
}

// LastRoundKey returns the final round key — the secret the RCoal
// baseline attack recovers byte by byte. For AES-128 the key schedule
// is invertible, so the last round key reveals the original key (see
// InvertSchedule128).
func (c *Cipher) LastRoundKey() [BlockSize]byte { return c.RoundKey(c.rounds) }

// Encrypt computes dst = AES(src) for one block. dst and src may
// overlap. It panics if either slice is shorter than BlockSize.
func (c *Cipher) Encrypt(dst, src []byte) {
	_ = src[BlockSize-1]
	_ = dst[BlockSize-1]
	s0 := binary.BigEndian.Uint32(src[0:]) ^ c.enc[0]
	s1 := binary.BigEndian.Uint32(src[4:]) ^ c.enc[1]
	s2 := binary.BigEndian.Uint32(src[8:]) ^ c.enc[2]
	s3 := binary.BigEndian.Uint32(src[12:]) ^ c.enc[3]

	k := 4
	for r := 1; r < c.rounds; r++ {
		t0 := te[T0][s0>>24] ^ te[T1][(s1>>16)&0xff] ^ te[T2][(s2>>8)&0xff] ^ te[T3][s3&0xff] ^ c.enc[k]
		t1 := te[T0][s1>>24] ^ te[T1][(s2>>16)&0xff] ^ te[T2][(s3>>8)&0xff] ^ te[T3][s0&0xff] ^ c.enc[k+1]
		t2 := te[T0][s2>>24] ^ te[T1][(s3>>16)&0xff] ^ te[T2][(s0>>8)&0xff] ^ te[T3][s1&0xff] ^ c.enc[k+2]
		t3 := te[T0][s3>>24] ^ te[T1][(s0>>16)&0xff] ^ te[T2][(s1>>8)&0xff] ^ te[T3][s2&0xff] ^ c.enc[k+3]
		s0, s1, s2, s3 = t0, t1, t2, t3
		k += 4
	}

	// Last round: Te4 lookups (S-box lanes), no MixColumns.
	t0 := te[T4][s0>>24]&0xff000000 ^ te[T4][(s1>>16)&0xff]&0x00ff0000 ^
		te[T4][(s2>>8)&0xff]&0x0000ff00 ^ te[T4][s3&0xff]&0x000000ff ^ c.enc[k]
	t1 := te[T4][s1>>24]&0xff000000 ^ te[T4][(s2>>16)&0xff]&0x00ff0000 ^
		te[T4][(s3>>8)&0xff]&0x0000ff00 ^ te[T4][s0&0xff]&0x000000ff ^ c.enc[k+1]
	t2 := te[T4][s2>>24]&0xff000000 ^ te[T4][(s3>>16)&0xff]&0x00ff0000 ^
		te[T4][(s0>>8)&0xff]&0x0000ff00 ^ te[T4][s1&0xff]&0x000000ff ^ c.enc[k+2]
	t3 := te[T4][s3>>24]&0xff000000 ^ te[T4][(s0>>16)&0xff]&0x00ff0000 ^
		te[T4][(s1>>8)&0xff]&0x0000ff00 ^ te[T4][s2&0xff]&0x000000ff ^ c.enc[k+3]

	binary.BigEndian.PutUint32(dst[0:], t0)
	binary.BigEndian.PutUint32(dst[4:], t1)
	binary.BigEndian.PutUint32(dst[8:], t2)
	binary.BigEndian.PutUint32(dst[12:], t3)
}

// Decrypt computes dst = AES⁻¹(src) for one block using the
// straightforward inverse cipher (InvShiftRows/InvSubBytes/
// InvMixColumns on a byte-oriented state). It is used for validation
// and round-trip tests, not on the simulated GPU.
func (c *Cipher) Decrypt(dst, src []byte) {
	_ = src[BlockSize-1]
	_ = dst[BlockSize-1]
	var st [16]byte
	copy(st[:], src[:16])

	addRoundKey := func(r int) {
		rk := c.RoundKey(r)
		for i := range st {
			st[i] ^= rk[i]
		}
	}
	invShiftRows := func() {
		var t [16]byte
		// state byte order is column-major: st[4*col+row'] where the
		// word layout puts row b at byte b of column word. ShiftRows
		// rotated row b left by b columns; invert it.
		for col := 0; col < 4; col++ {
			for row := 0; row < 4; row++ {
				t[4*((col+row)%4)+row] = st[4*col+row]
			}
		}
		st = t
	}
	invSubBytes := func() {
		for i := range st {
			st[i] = invSbox[st[i]]
		}
	}
	invMixColumns := func() {
		for col := 0; col < 4; col++ {
			a0, a1, a2, a3 := st[4*col], st[4*col+1], st[4*col+2], st[4*col+3]
			st[4*col+0] = gfMul(a0, 14) ^ gfMul(a1, 11) ^ gfMul(a2, 13) ^ gfMul(a3, 9)
			st[4*col+1] = gfMul(a0, 9) ^ gfMul(a1, 14) ^ gfMul(a2, 11) ^ gfMul(a3, 13)
			st[4*col+2] = gfMul(a0, 13) ^ gfMul(a1, 9) ^ gfMul(a2, 14) ^ gfMul(a3, 11)
			st[4*col+3] = gfMul(a0, 11) ^ gfMul(a1, 13) ^ gfMul(a2, 9) ^ gfMul(a3, 14)
		}
	}

	addRoundKey(c.rounds)
	for r := c.rounds - 1; r >= 1; r-- {
		invShiftRows()
		invSubBytes()
		addRoundKey(r)
		invMixColumns()
	}
	invShiftRows()
	invSubBytes()
	addRoundKey(0)
	copy(dst[:16], st[:])
}

// InvertSchedule128 recovers the original AES-128 key from its last
// round key by running the key schedule backwards. This is the
// property (Neve & Seifert) that makes the last round the attack
// target: recovering round key 10 is as good as recovering the key.
func InvertSchedule128(lastRoundKey [BlockSize]byte) [BlockSize]byte {
	w := make([]uint32, 44)
	for i := 0; i < 4; i++ {
		w[40+i] = binary.BigEndian.Uint32(lastRoundKey[4*i:])
	}
	for i := 39; i >= 0; i-- {
		t := w[i+3] // w[i+4-1]
		if (i+4)%4 == 0 {
			t = subWord(rotWord(t)) ^ uint32(rcon[(i+4)/4-1])<<24
		}
		w[i] = w[i+4] ^ t
	}
	var key [BlockSize]byte
	for i := 0; i < 4; i++ {
		binary.BigEndian.PutUint32(key[4*i:], w[i])
	}
	return key
}
