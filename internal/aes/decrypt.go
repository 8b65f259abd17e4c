package aes

import "encoding/binary"

// This file implements the equivalent inverse cipher in the T-table
// formulation (Td0..Td4), the form a GPU decryption kernel uses. The
// straightforward byte-oriented Decrypt in aes.go cross-validates it.
//
// Decryption matters to the reproduction because a GPU AES *decryption*
// server leaks the same way encryption does: its final round performs
// Td4 lookups whose indices are a per-byte function of the *plaintext*
// byte and the first (equivalent) round key, so the correlation attack
// transfers. TraceDecrypt exposes the lookups for the kernel builder.

// DecryptTableID mirrors TableID for the decryption tables.
const (
	// Td0..Td3 are the inverse round tables, Td4 the inverse S-box
	// table; they occupy the same TableID space as the encryption
	// tables in a decryption kernel's address layout.
	numDecTables = 5
)

var td = computeDecTables()

func computeDecTables() (td [numDecTables][256]uint32) {
	for i := 0; i < 256; i++ {
		s := invSbox[i]
		s9 := gfMul(s, 9)
		sb := gfMul(s, 11)
		sd := gfMul(s, 13)
		se := gfMul(s, 14)
		td[0][i] = uint32(se)<<24 | uint32(s9)<<16 | uint32(sd)<<8 | uint32(sb)
		td[1][i] = uint32(sb)<<24 | uint32(se)<<16 | uint32(s9)<<8 | uint32(sd)
		td[2][i] = uint32(sd)<<24 | uint32(sb)<<16 | uint32(se)<<8 | uint32(s9)
		td[3][i] = uint32(s9)<<24 | uint32(sd)<<16 | uint32(sb)<<8 | uint32(se)
		td[4][i] = uint32(s)<<24 | uint32(s)<<16 | uint32(s)<<8 | uint32(s)
	}
	return td
}

// DecTableWord returns entry i of decryption table t (0..4), as a GPU
// kernel would load it.
func DecTableWord(t int, i byte) uint32 { return td[t][i] }

// invMixColumnsWord applies InvMixColumns to one column word.
func invMixColumnsWord(w uint32) uint32 {
	b0, b1, b2, b3 := byte(w>>24), byte(w>>16), byte(w>>8), byte(w)
	return uint32(gfMul(b0, 14)^gfMul(b1, 11)^gfMul(b2, 13)^gfMul(b3, 9))<<24 |
		uint32(gfMul(b0, 9)^gfMul(b1, 14)^gfMul(b2, 11)^gfMul(b3, 13))<<16 |
		uint32(gfMul(b0, 13)^gfMul(b1, 9)^gfMul(b2, 14)^gfMul(b3, 11))<<8 |
		uint32(gfMul(b0, 11)^gfMul(b1, 13)^gfMul(b2, 9)^gfMul(b3, 14))
}

// decKeySchedule returns the equivalent-inverse-cipher round keys:
// encryption keys in reverse round order, with InvMixColumns applied
// to the middle rounds.
func (c *Cipher) decKeySchedule() []uint32 {
	n := 4 * (c.rounds + 1)
	dk := make([]uint32, n)
	for r := 0; r <= c.rounds; r++ {
		for i := 0; i < 4; i++ {
			dk[4*r+i] = c.enc[4*(c.rounds-r)+i]
		}
	}
	for r := 1; r < c.rounds; r++ {
		for i := 0; i < 4; i++ {
			dk[4*r+i] = invMixColumnsWord(dk[4*r+i])
		}
	}
	return dk
}

// DecryptFast computes dst = AES⁻¹(src) for one block using the
// Td-table equivalent inverse cipher — the dataflow a GPU decryption
// kernel executes.
func (c *Cipher) DecryptFast(dst, src []byte) {
	pt := c.TraceDecryptInto(src, nil)
	copy(dst[:BlockSize], pt[:])
}

// TraceDecrypt decrypts one block while recording every Td-table
// lookup, in the same Trace layout as TraceEncrypt: trace[r-1][j] is
// the lookup feeding state/plaintext byte j in (inverse) round r, and
// the final round's slot j is the Td4 lookup whose index is
// InvSBox-free: index = SBox(p_j ⊕ dk_j)… see LastRoundDecIndex.
func (c *Cipher) TraceDecrypt(src []byte) (pt [BlockSize]byte, trace Trace) {
	trace = make(Trace, c.rounds)
	return c.TraceDecryptInto(src, trace), trace
}

// TraceDecryptInto is TraceDecrypt recording into trace, which must
// hold Rounds() rounds; a nil trace records nothing.
func (c *Cipher) TraceDecryptInto(src []byte, trace Trace) (pt [BlockSize]byte) {
	_ = src[BlockSize-1]
	dk := c.dec
	wantTrace := trace != nil

	var s [4]uint32
	for i := range s {
		s[i] = binary.BigEndian.Uint32(src[4*i:]) ^ dk[i]
	}

	k := 4
	for r := 1; r < c.rounds; r++ {
		var t [4]uint32
		for i := 0; i < 4; i++ {
			w := dk[k+i]
			for b := 0; b < 4; b++ {
				// Inverse ShiftRows rotates the other way: lane b of
				// output word i reads lane b of word (i-b) mod 4.
				idx := byteOf(s[(i+4-b)%4], b)
				if wantTrace {
					trace[r-1][4*i+b] = Lookup{Table: TableID(b), Index: idx}
				}
				w ^= td[b][idx]
			}
			t[i] = w
		}
		s = t
		k += 4
	}

	var out [4]uint32
	for i := 0; i < 4; i++ {
		w := dk[k+i]
		for b := 0; b < 4; b++ {
			idx := byteOf(s[(i+4-b)%4], b)
			if wantTrace {
				trace[c.rounds-1][4*i+b] = Lookup{Table: T4, Index: idx}
			}
			w ^= td[4][idx] & (0xff000000 >> (8 * b))
		}
		out[i] = w
	}
	for i := range out {
		binary.BigEndian.PutUint32(pt[4*i:], out[i])
	}
	return pt
}

// LastRoundDecIndex is the decryption analogue of Equation 3: the
// final inverse round computes p_j = Td4[t_j] ⊕ dk_j with Td4 = S⁻¹,
// so an attacker observing plaintext byte p_j and guessing the
// equivalent-key byte dk_j recovers the lookup index
// t_j = S(p_j ⊕ dk_j).
func LastRoundDecIndex(plainByte, keyGuess byte) byte {
	return sbox[plainByte^keyGuess]
}
