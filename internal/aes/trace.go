package aes

import "encoding/binary"

// Lookup records one T-table access performed during encryption: which
// table and which of its 256 entries. The GPU kernel builder turns
// each Lookup into a per-thread global-memory address; the coalescing
// unit then merges the 32 addresses of a warp-wide lookup instruction.
type Lookup struct {
	Table TableID
	Index byte
}

// Trace is the complete table-access record of one block encryption:
// Trace[r-1] holds round r's 16 lookups (r = 1..Rounds()). In the
// middle rounds each lookup feeds a whole state column, so slot
// j = 4·word+lane is a storage convention; in the last round slot j is
// exactly the T4 lookup producing ciphertext byte j, whose index the
// attacker reconstructs from ciphertext byte j and key byte j via
// Equation 3.
type Trace [][BlockSize]Lookup

// byteOf extracts byte lane b (0 = most significant) of w.
func byteOf(w uint32, b int) byte { return byte(w >> (24 - 8*b)) }

// TraceEncrypt encrypts one block like Encrypt while recording every
// T-table lookup. The ciphertext matches Encrypt bit for bit (tested),
// so traces can be paired with real ciphertexts.
func (c *Cipher) TraceEncrypt(src []byte) (ct [BlockSize]byte, trace Trace) {
	trace = make(Trace, c.rounds)
	return c.TraceEncryptInto(src, trace), trace
}

// TraceEncryptInto is TraceEncrypt recording into trace, which must
// hold Rounds() rounds, so a caller tracing many blocks reuses one.
func (c *Cipher) TraceEncryptInto(src []byte, trace Trace) (ct [BlockSize]byte) {
	_ = src[BlockSize-1]
	_ = trace[c.rounds-1]

	var s [4]uint32
	for i := range s {
		s[i] = binary.BigEndian.Uint32(src[4*i:]) ^ c.enc[i]
	}

	k := 4
	for r := 1; r < c.rounds; r++ {
		var t [4]uint32
		for i := 0; i < 4; i++ {
			w := c.enc[k+i]
			for b := 0; b < 4; b++ {
				idx := byteOf(s[(i+b)%4], b)
				trace[r-1][4*i+b] = Lookup{Table: TableID(b), Index: idx}
				w ^= te[TableID(b)][idx]
			}
			t[i] = w
		}
		s = t
		k += 4
	}

	var out [4]uint32
	for i := 0; i < 4; i++ {
		w := c.enc[k+i]
		for b := 0; b < 4; b++ {
			idx := byteOf(s[(i+b)%4], b)
			trace[c.rounds-1][4*i+b] = Lookup{Table: T4, Index: idx}
			w ^= te[T4][idx] & (0xff000000 >> (8 * b))
		}
		out[i] = w
	}
	for i := range out {
		binary.BigEndian.PutUint32(ct[4*i:], out[i])
	}
	return ct
}

// LastRoundIndex implements Equation 3 of the paper: given ciphertext
// byte c_j and a guess k for last-round key byte k_j, it returns the
// T4 lookup index t_j = T4⁻¹[c_j ⊕ k_j] that the guess implies.
func LastRoundIndex(cipherByte, keyGuess byte) byte {
	return invSbox[cipherByte^keyGuess]
}

// BlocksPerTable is R, the number of cache-line-sized memory blocks a
// lookup table spans: 256 entries × 4 B / 64 B lines = 16.
const BlocksPerTable = TableBytes / 64

// BlockOfIndex maps a table index to the memory block (0..R-1) it
// falls in: 16 consecutive entries share a 64-byte line, so the block
// is index >> 4. This is the "holder[...] >> 4" step of Algorithm 1.
func BlockOfIndex(index byte) int { return int(index) >> 4 }
