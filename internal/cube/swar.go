package cube

// Word-at-a-time trit kernels. A Cube is one byte per trit (Zero=0,
// One=1, X=2), so eight trits arrive in one 8-byte little-endian load
// and are decoded with a few word operations instead of eight loop
// steps. Inputs must hold only the three valid trit values. Cube text
// decodes the same way: decode64 classifies eight ASCII bytes per word
// operation and validates every one.

import "unsafe"

const (
	lsb8 = 0x0101010101010101 // bit 0 of every byte
	msb8 = 0x8080808080808080 // bit 7 of every byte
	xs8  = 0x0202020202020202 // eight X trits
)

// load64 reads t[0..7] as one little-endian word: byte k is trit k.
// The compiler merges the eight byte loads into one 8-byte load; the
// bounds check on t[7] keeps it inside len(t).
func load64(t []Trit) uint64 {
	_ = t[7]
	return uint64(t[0]) | uint64(t[1])<<8 | uint64(t[2])<<16 | uint64(t[3])<<24 |
		uint64(t[4])<<32 | uint64(t[5])<<40 | uint64(t[6])<<48 | uint64(t[7])<<56
}

// gather packs bit 0 of each byte of b — whose other bits must be
// zero — into the low byte: bit k of the result is bit 8k of b. The
// multiply moves bit 8k to bit 56+k; every partial product sits at a
// distinct position, so no carry disturbs the top byte.
func gather(b uint64) uint64 { return (b * 0x0102040810204080) >> 56 }

// dpvet:hot
// packWord decodes up to 64 trits into a (care, val) bit pair: bit k
// of care is set where t[k] is specified, bit k of val where it is One.
// A trit's bit 1 is set only for X and its bit 0 only for One, so care
// is the inverted bit 1 and val is bit 0, gathered eight trits at a
// time.
func packWord(t []Trit) (care, val uint64) {
	k := 0
	for ; k+8 <= len(t); k += 8 {
		x := load64(t[k:])
		care |= gather(^(x>>1)&lsb8) << k
		val |= gather(x&lsb8) << k
	}
	for ; k < len(t); k++ {
		tb := uint64(t[k])
		care |= (tb>>1 ^ 1) << k
		val |= (tb & 1) << k
	}
	return care, val
}

// dpvet:hot
// unpackWords is packWord's inverse over a whole cube: it decodes the
// care and value words into t, eight trits per word operation. A care
// bit of 0 gives X (2), a care bit of 1 the value bit.
func unpackWords(t []Trit, care, val []uint64) {
	k := 0
	for ; k+8 <= len(t); k += 8 {
		c := spread[byte(care[k/64]>>(k%64))]
		x := (c^lsb8)<<1 | c&spread[byte(val[k/64]>>(k%64))]
		_ = t[k+7]
		for b := range 8 {
			t[k+b] = Trit(x >> (8 * b))
		}
	}
	for ; k < len(t); k++ {
		c := care[k/64] >> (k % 64) & 1
		t[k] = Trit((c^1)<<1 | c&(val[k/64]>>(k%64)&1))
	}
}

// dpvet:hot
// transpose64 transposes the 64×64 bit matrix a in place: bit c of
// a[r] becomes bit r of a[c]. It is the block-swap transpose of
// Warren, Hacker's Delight §7-3, for bit 0 as the first column: each
// round swaps the upper-right and lower-left j×j blocks of every 2j×2j
// block, for j = 32, 16, …, 1.
func transpose64(a *[64]uint64) {
	m := uint64(0x00000000FFFFFFFF)
	for j := 32; j != 0; {
		for k := 0; k < 64; k = (k + j + 1) &^ j {
			t := (a[k]>>j ^ a[k+j]) & m
			a[k] ^= t << j
			a[k+j] ^= t
		}
		j >>= 1
		m ^= m << j
	}
}

// LoadStr64 is load64 on the bytes of s: byte k of the word is s[k].
// Word-at-a-time string scans outside this package (the request
// scanner, the coordinator's shard encoder) read their words with it.
func LoadStr64(s string) uint64 {
	_ = s[7]
	return uint64(s[0]) | uint64(s[1])<<8 | uint64(s[2])<<16 | uint64(s[3])<<24 |
		uint64(s[4])<<32 | uint64(s[5])<<40 | uint64(s[6])<<48 | uint64(s[7])<<56
}

// allX is 64 X characters, the padding of a cube's last partial word.
var allX = [64]byte{'X', 'X', 'X', 'X', 'X', 'X', 'X', 'X', 'X', 'X', 'X', 'X', 'X', 'X', 'X', 'X',
	'X', 'X', 'X', 'X', 'X', 'X', 'X', 'X', 'X', 'X', 'X', 'X', 'X', 'X', 'X', 'X',
	'X', 'X', 'X', 'X', 'X', 'X', 'X', 'X', 'X', 'X', 'X', 'X', 'X', 'X', 'X', 'X',
	'X', 'X', 'X', 'X', 'X', 'X', 'X', 'X', 'X', 'X', 'X', 'X', 'X', 'X', 'X', 'X'}

// dpvet:hot
// decodeWords decodes the ASCII cube s into care/value words, which
// must number ceil(len(s)/64) and are fully overwritten: 64 bytes per
// word through decode64, the last partial word padded with 'X' on the
// stack. It reports false when some byte is none of the accepted
// characters '0', '1', 'x', 'X' and '-'; the words are then garbage.
func decodeWords(s string, care, val []uint64) bool {
	var bad uint64
	full := len(s) / 64
	for w := 0; w < full; w++ {
		var b uint64
		care[w], val[w], b = decode64(s[w*64 : w*64+64])
		bad |= b
	}
	if rem := s[full*64:]; rem != "" {
		pad := allX
		copy(pad[:], rem)
		var b uint64
		care[full], val[full], b = decode64(unsafe.String(&pad[0], 64))
		bad |= b
	}
	return bad == 0
}

// dpvet:hot
// decode64 decodes 64 ASCII bytes into a care/value word pair, eight
// bytes at a time. Per-byte equality masks pick out '0'/'1' (equal
// once bit 0 is cleared), 'x'/'X' (equal once 0x20 is set) and '-';
// the '0'/'1' mask is the care bits and, ANDed with bit 0, the value
// bits. Once every byte is known to be below 0x80, a byte of y is zero
// exactly when bit 7 of its sum with 0x7F is clear, and no sum carries
// into the next byte; a byte at or above 0x80 is bad anyway, so the
// masks it garbles are never used. bad is non-zero when some byte is
// not one of the five characters.
func decode64(s string) (care, val, bad uint64) {
	const low7 = ^uint64(msb8)
	s = s[:64]
	for k := 0; k < 64; k += 8 {
		x := LoadStr64(s[k : k+8])
		bin := msb8 &^ (x&^lsb8 ^ '0'*lsb8 + low7)
		xs := msb8 &^ (x | 0x20*lsb8 ^ 'x'*lsb8 + low7)
		dash := msb8 &^ (x ^ '-'*lsb8 + low7)
		bad |= x | ^(bin | xs | dash)
		// Shifting right by a byte per step lands step k's bits at
		// k..k+7 after the eighth.
		care = care>>8 | gather(bin>>7)<<56
		val = val>>8 | gather(x&(bin>>7))<<56
	}
	return care, val, bad & msb8
}
