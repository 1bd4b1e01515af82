package kernels

import (
	"encoding/binary"
	"math/bits"
)

// SHA1 computes the RFC 3174 digest of data, implemented from the
// specification (no crypto/sha1). SHA-1 is cryptographically broken
// for collision resistance; it is here as the paper's CPU-bound
// benchmark kernel, not for security use.
//
// Whole blocks are hashed straight from data; only the tail — the last
// partial block, 0x80, zeros and the 64-bit big-endian bit length, one
// or two blocks — is assembled, on the stack.
func SHA1(data []byte) [20]byte {
	h := [5]uint32{0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476, 0xC3D2E1F0}

	whole := len(data) &^ 63
	for chunk := 0; chunk < whole; chunk += 64 {
		sha1Block(&h, data[chunk:chunk+64])
	}
	var tail [128]byte
	n := padTail(&tail, data[whole:])
	binary.BigEndian.PutUint64(tail[n-8:], uint64(len(data))*8)
	for chunk := 0; chunk < n; chunk += 64 {
		sha1Block(&h, tail[chunk:chunk+64])
	}

	var out [20]byte
	for i, v := range h {
		binary.BigEndian.PutUint32(out[4*i:], v)
	}
	return out
}

// padTail starts the Merkle–Damgård padding both digests share: it
// copies rest (the message's last, partial block) into tail, appends
// 0x80 and returns the padded length — 64, or 128 when rest leaves no
// room for the length field. tail must be zero; the caller writes the
// bit length into tail[n-8:n] in its own byte order.
func padTail(tail *[128]byte, rest []byte) int {
	copy(tail[:], rest)
	tail[len(rest)] = 0x80
	if len(rest) < 56 {
		return 64
	}
	return 128
}

// sha1Block folds one 64-byte block into h.
//
// The 80 rounds are written out: the spec's loop form — an 80-word
// schedule array, then a switch on the round number in every round —
// takes about twice as long (refSHA1 in the tests keeps that form as
// the reference the digests are compared with). The sixteen message
// words stay in locals w0…w15 and are rescheduled in place (w[i&15] =
// rotl1(w[i-3] ^ w[i-8] ^ w[i-14] ^ w[i-16]), the line before the round
// that reads it), and no round branches. Each round is one line,
//
//	e, b = e + w + K + f(b, c, d) + rotl5(a), rotl30(b)
//
// storing the new a where e was and the rotated b where b was, so the
// five working variables rotate by renaming and never move: the next
// line reads them under the roles' new names (e, a, b, c, d). The
// rotated a is added last because a is the previous round's result and
// the rest is ready earlier, so one rotate and one add chain round to
// round. The rounds are spelled out rather than calls to four inlined
// round helpers: the inlined bodies carry the helpers' line numbers,
// the compiler schedules by line, and it hoisted all 64 schedule words
// ahead of the rounds into stack slots (measured 9–19 % slower).
// CHANGES.md's entry for this unrolling has the measurements,
// including a 5-round-unrolled loop over an 80-word array.
func sha1Block(h *[5]uint32, p []byte) {
	p = p[:64]
	w0 := binary.BigEndian.Uint32(p[0:])
	w1 := binary.BigEndian.Uint32(p[4:])
	w2 := binary.BigEndian.Uint32(p[8:])
	w3 := binary.BigEndian.Uint32(p[12:])
	w4 := binary.BigEndian.Uint32(p[16:])
	w5 := binary.BigEndian.Uint32(p[20:])
	w6 := binary.BigEndian.Uint32(p[24:])
	w7 := binary.BigEndian.Uint32(p[28:])
	w8 := binary.BigEndian.Uint32(p[32:])
	w9 := binary.BigEndian.Uint32(p[36:])
	w10 := binary.BigEndian.Uint32(p[40:])
	w11 := binary.BigEndian.Uint32(p[44:])
	w12 := binary.BigEndian.Uint32(p[48:])
	w13 := binary.BigEndian.Uint32(p[52:])
	w14 := binary.BigEndian.Uint32(p[56:])
	w15 := binary.BigEndian.Uint32(p[60:])
	a, b, c, d, e := h[0], h[1], h[2], h[3], h[4]

	// Rounds 0–19: f = Ch(b, c, d) = d ^ (b & (c ^ d)), K = 0x5A827999.
	e, b = e+w0+0x5A827999+(d^(b&(c^d)))+bits.RotateLeft32(a, 5), bits.RotateLeft32(b, 30)
	d, a = d+w1+0x5A827999+(c^(a&(b^c)))+bits.RotateLeft32(e, 5), bits.RotateLeft32(a, 30)
	c, e = c+w2+0x5A827999+(b^(e&(a^b)))+bits.RotateLeft32(d, 5), bits.RotateLeft32(e, 30)
	b, d = b+w3+0x5A827999+(a^(d&(e^a)))+bits.RotateLeft32(c, 5), bits.RotateLeft32(d, 30)
	a, c = a+w4+0x5A827999+(e^(c&(d^e)))+bits.RotateLeft32(b, 5), bits.RotateLeft32(c, 30)
	e, b = e+w5+0x5A827999+(d^(b&(c^d)))+bits.RotateLeft32(a, 5), bits.RotateLeft32(b, 30)
	d, a = d+w6+0x5A827999+(c^(a&(b^c)))+bits.RotateLeft32(e, 5), bits.RotateLeft32(a, 30)
	c, e = c+w7+0x5A827999+(b^(e&(a^b)))+bits.RotateLeft32(d, 5), bits.RotateLeft32(e, 30)
	b, d = b+w8+0x5A827999+(a^(d&(e^a)))+bits.RotateLeft32(c, 5), bits.RotateLeft32(d, 30)
	a, c = a+w9+0x5A827999+(e^(c&(d^e)))+bits.RotateLeft32(b, 5), bits.RotateLeft32(c, 30)
	e, b = e+w10+0x5A827999+(d^(b&(c^d)))+bits.RotateLeft32(a, 5), bits.RotateLeft32(b, 30)
	d, a = d+w11+0x5A827999+(c^(a&(b^c)))+bits.RotateLeft32(e, 5), bits.RotateLeft32(a, 30)
	c, e = c+w12+0x5A827999+(b^(e&(a^b)))+bits.RotateLeft32(d, 5), bits.RotateLeft32(e, 30)
	b, d = b+w13+0x5A827999+(a^(d&(e^a)))+bits.RotateLeft32(c, 5), bits.RotateLeft32(d, 30)
	a, c = a+w14+0x5A827999+(e^(c&(d^e)))+bits.RotateLeft32(b, 5), bits.RotateLeft32(c, 30)
	e, b = e+w15+0x5A827999+(d^(b&(c^d)))+bits.RotateLeft32(a, 5), bits.RotateLeft32(b, 30)
	w0 = bits.RotateLeft32(w13^w8^w2^w0, 1)
	d, a = d+w0+0x5A827999+(c^(a&(b^c)))+bits.RotateLeft32(e, 5), bits.RotateLeft32(a, 30)
	w1 = bits.RotateLeft32(w14^w9^w3^w1, 1)
	c, e = c+w1+0x5A827999+(b^(e&(a^b)))+bits.RotateLeft32(d, 5), bits.RotateLeft32(e, 30)
	w2 = bits.RotateLeft32(w15^w10^w4^w2, 1)
	b, d = b+w2+0x5A827999+(a^(d&(e^a)))+bits.RotateLeft32(c, 5), bits.RotateLeft32(d, 30)
	w3 = bits.RotateLeft32(w0^w11^w5^w3, 1)
	a, c = a+w3+0x5A827999+(e^(c&(d^e)))+bits.RotateLeft32(b, 5), bits.RotateLeft32(c, 30)

	// Rounds 20–39: f = b ^ c ^ d, K = 0x6ED9EBA1.
	w4 = bits.RotateLeft32(w1^w12^w6^w4, 1)
	e, b = e+w4+0x6ED9EBA1+(b^c^d)+bits.RotateLeft32(a, 5), bits.RotateLeft32(b, 30)
	w5 = bits.RotateLeft32(w2^w13^w7^w5, 1)
	d, a = d+w5+0x6ED9EBA1+(a^b^c)+bits.RotateLeft32(e, 5), bits.RotateLeft32(a, 30)
	w6 = bits.RotateLeft32(w3^w14^w8^w6, 1)
	c, e = c+w6+0x6ED9EBA1+(e^a^b)+bits.RotateLeft32(d, 5), bits.RotateLeft32(e, 30)
	w7 = bits.RotateLeft32(w4^w15^w9^w7, 1)
	b, d = b+w7+0x6ED9EBA1+(d^e^a)+bits.RotateLeft32(c, 5), bits.RotateLeft32(d, 30)
	w8 = bits.RotateLeft32(w5^w0^w10^w8, 1)
	a, c = a+w8+0x6ED9EBA1+(c^d^e)+bits.RotateLeft32(b, 5), bits.RotateLeft32(c, 30)
	w9 = bits.RotateLeft32(w6^w1^w11^w9, 1)
	e, b = e+w9+0x6ED9EBA1+(b^c^d)+bits.RotateLeft32(a, 5), bits.RotateLeft32(b, 30)
	w10 = bits.RotateLeft32(w7^w2^w12^w10, 1)
	d, a = d+w10+0x6ED9EBA1+(a^b^c)+bits.RotateLeft32(e, 5), bits.RotateLeft32(a, 30)
	w11 = bits.RotateLeft32(w8^w3^w13^w11, 1)
	c, e = c+w11+0x6ED9EBA1+(e^a^b)+bits.RotateLeft32(d, 5), bits.RotateLeft32(e, 30)
	w12 = bits.RotateLeft32(w9^w4^w14^w12, 1)
	b, d = b+w12+0x6ED9EBA1+(d^e^a)+bits.RotateLeft32(c, 5), bits.RotateLeft32(d, 30)
	w13 = bits.RotateLeft32(w10^w5^w15^w13, 1)
	a, c = a+w13+0x6ED9EBA1+(c^d^e)+bits.RotateLeft32(b, 5), bits.RotateLeft32(c, 30)
	w14 = bits.RotateLeft32(w11^w6^w0^w14, 1)
	e, b = e+w14+0x6ED9EBA1+(b^c^d)+bits.RotateLeft32(a, 5), bits.RotateLeft32(b, 30)
	w15 = bits.RotateLeft32(w12^w7^w1^w15, 1)
	d, a = d+w15+0x6ED9EBA1+(a^b^c)+bits.RotateLeft32(e, 5), bits.RotateLeft32(a, 30)
	w0 = bits.RotateLeft32(w13^w8^w2^w0, 1)
	c, e = c+w0+0x6ED9EBA1+(e^a^b)+bits.RotateLeft32(d, 5), bits.RotateLeft32(e, 30)
	w1 = bits.RotateLeft32(w14^w9^w3^w1, 1)
	b, d = b+w1+0x6ED9EBA1+(d^e^a)+bits.RotateLeft32(c, 5), bits.RotateLeft32(d, 30)
	w2 = bits.RotateLeft32(w15^w10^w4^w2, 1)
	a, c = a+w2+0x6ED9EBA1+(c^d^e)+bits.RotateLeft32(b, 5), bits.RotateLeft32(c, 30)
	w3 = bits.RotateLeft32(w0^w11^w5^w3, 1)
	e, b = e+w3+0x6ED9EBA1+(b^c^d)+bits.RotateLeft32(a, 5), bits.RotateLeft32(b, 30)
	w4 = bits.RotateLeft32(w1^w12^w6^w4, 1)
	d, a = d+w4+0x6ED9EBA1+(a^b^c)+bits.RotateLeft32(e, 5), bits.RotateLeft32(a, 30)
	w5 = bits.RotateLeft32(w2^w13^w7^w5, 1)
	c, e = c+w5+0x6ED9EBA1+(e^a^b)+bits.RotateLeft32(d, 5), bits.RotateLeft32(e, 30)
	w6 = bits.RotateLeft32(w3^w14^w8^w6, 1)
	b, d = b+w6+0x6ED9EBA1+(d^e^a)+bits.RotateLeft32(c, 5), bits.RotateLeft32(d, 30)
	w7 = bits.RotateLeft32(w4^w15^w9^w7, 1)
	a, c = a+w7+0x6ED9EBA1+(c^d^e)+bits.RotateLeft32(b, 5), bits.RotateLeft32(c, 30)

	// Rounds 40–59: f = Maj(b, c, d) = (b & c) | (d & (b | c)), K = 0x8F1BBCDC.
	w8 = bits.RotateLeft32(w5^w0^w10^w8, 1)
	e, b = e+w8+0x8F1BBCDC+((b&c)|(d&(b|c)))+bits.RotateLeft32(a, 5), bits.RotateLeft32(b, 30)
	w9 = bits.RotateLeft32(w6^w1^w11^w9, 1)
	d, a = d+w9+0x8F1BBCDC+((a&b)|(c&(a|b)))+bits.RotateLeft32(e, 5), bits.RotateLeft32(a, 30)
	w10 = bits.RotateLeft32(w7^w2^w12^w10, 1)
	c, e = c+w10+0x8F1BBCDC+((e&a)|(b&(e|a)))+bits.RotateLeft32(d, 5), bits.RotateLeft32(e, 30)
	w11 = bits.RotateLeft32(w8^w3^w13^w11, 1)
	b, d = b+w11+0x8F1BBCDC+((d&e)|(a&(d|e)))+bits.RotateLeft32(c, 5), bits.RotateLeft32(d, 30)
	w12 = bits.RotateLeft32(w9^w4^w14^w12, 1)
	a, c = a+w12+0x8F1BBCDC+((c&d)|(e&(c|d)))+bits.RotateLeft32(b, 5), bits.RotateLeft32(c, 30)
	w13 = bits.RotateLeft32(w10^w5^w15^w13, 1)
	e, b = e+w13+0x8F1BBCDC+((b&c)|(d&(b|c)))+bits.RotateLeft32(a, 5), bits.RotateLeft32(b, 30)
	w14 = bits.RotateLeft32(w11^w6^w0^w14, 1)
	d, a = d+w14+0x8F1BBCDC+((a&b)|(c&(a|b)))+bits.RotateLeft32(e, 5), bits.RotateLeft32(a, 30)
	w15 = bits.RotateLeft32(w12^w7^w1^w15, 1)
	c, e = c+w15+0x8F1BBCDC+((e&a)|(b&(e|a)))+bits.RotateLeft32(d, 5), bits.RotateLeft32(e, 30)
	w0 = bits.RotateLeft32(w13^w8^w2^w0, 1)
	b, d = b+w0+0x8F1BBCDC+((d&e)|(a&(d|e)))+bits.RotateLeft32(c, 5), bits.RotateLeft32(d, 30)
	w1 = bits.RotateLeft32(w14^w9^w3^w1, 1)
	a, c = a+w1+0x8F1BBCDC+((c&d)|(e&(c|d)))+bits.RotateLeft32(b, 5), bits.RotateLeft32(c, 30)
	w2 = bits.RotateLeft32(w15^w10^w4^w2, 1)
	e, b = e+w2+0x8F1BBCDC+((b&c)|(d&(b|c)))+bits.RotateLeft32(a, 5), bits.RotateLeft32(b, 30)
	w3 = bits.RotateLeft32(w0^w11^w5^w3, 1)
	d, a = d+w3+0x8F1BBCDC+((a&b)|(c&(a|b)))+bits.RotateLeft32(e, 5), bits.RotateLeft32(a, 30)
	w4 = bits.RotateLeft32(w1^w12^w6^w4, 1)
	c, e = c+w4+0x8F1BBCDC+((e&a)|(b&(e|a)))+bits.RotateLeft32(d, 5), bits.RotateLeft32(e, 30)
	w5 = bits.RotateLeft32(w2^w13^w7^w5, 1)
	b, d = b+w5+0x8F1BBCDC+((d&e)|(a&(d|e)))+bits.RotateLeft32(c, 5), bits.RotateLeft32(d, 30)
	w6 = bits.RotateLeft32(w3^w14^w8^w6, 1)
	a, c = a+w6+0x8F1BBCDC+((c&d)|(e&(c|d)))+bits.RotateLeft32(b, 5), bits.RotateLeft32(c, 30)
	w7 = bits.RotateLeft32(w4^w15^w9^w7, 1)
	e, b = e+w7+0x8F1BBCDC+((b&c)|(d&(b|c)))+bits.RotateLeft32(a, 5), bits.RotateLeft32(b, 30)
	w8 = bits.RotateLeft32(w5^w0^w10^w8, 1)
	d, a = d+w8+0x8F1BBCDC+((a&b)|(c&(a|b)))+bits.RotateLeft32(e, 5), bits.RotateLeft32(a, 30)
	w9 = bits.RotateLeft32(w6^w1^w11^w9, 1)
	c, e = c+w9+0x8F1BBCDC+((e&a)|(b&(e|a)))+bits.RotateLeft32(d, 5), bits.RotateLeft32(e, 30)
	w10 = bits.RotateLeft32(w7^w2^w12^w10, 1)
	b, d = b+w10+0x8F1BBCDC+((d&e)|(a&(d|e)))+bits.RotateLeft32(c, 5), bits.RotateLeft32(d, 30)
	w11 = bits.RotateLeft32(w8^w3^w13^w11, 1)
	a, c = a+w11+0x8F1BBCDC+((c&d)|(e&(c|d)))+bits.RotateLeft32(b, 5), bits.RotateLeft32(c, 30)

	// Rounds 60–79: f = b ^ c ^ d, K = 0xCA62C1D6.
	w12 = bits.RotateLeft32(w9^w4^w14^w12, 1)
	e, b = e+w12+0xCA62C1D6+(b^c^d)+bits.RotateLeft32(a, 5), bits.RotateLeft32(b, 30)
	w13 = bits.RotateLeft32(w10^w5^w15^w13, 1)
	d, a = d+w13+0xCA62C1D6+(a^b^c)+bits.RotateLeft32(e, 5), bits.RotateLeft32(a, 30)
	w14 = bits.RotateLeft32(w11^w6^w0^w14, 1)
	c, e = c+w14+0xCA62C1D6+(e^a^b)+bits.RotateLeft32(d, 5), bits.RotateLeft32(e, 30)
	w15 = bits.RotateLeft32(w12^w7^w1^w15, 1)
	b, d = b+w15+0xCA62C1D6+(d^e^a)+bits.RotateLeft32(c, 5), bits.RotateLeft32(d, 30)
	w0 = bits.RotateLeft32(w13^w8^w2^w0, 1)
	a, c = a+w0+0xCA62C1D6+(c^d^e)+bits.RotateLeft32(b, 5), bits.RotateLeft32(c, 30)
	w1 = bits.RotateLeft32(w14^w9^w3^w1, 1)
	e, b = e+w1+0xCA62C1D6+(b^c^d)+bits.RotateLeft32(a, 5), bits.RotateLeft32(b, 30)
	w2 = bits.RotateLeft32(w15^w10^w4^w2, 1)
	d, a = d+w2+0xCA62C1D6+(a^b^c)+bits.RotateLeft32(e, 5), bits.RotateLeft32(a, 30)
	w3 = bits.RotateLeft32(w0^w11^w5^w3, 1)
	c, e = c+w3+0xCA62C1D6+(e^a^b)+bits.RotateLeft32(d, 5), bits.RotateLeft32(e, 30)
	w4 = bits.RotateLeft32(w1^w12^w6^w4, 1)
	b, d = b+w4+0xCA62C1D6+(d^e^a)+bits.RotateLeft32(c, 5), bits.RotateLeft32(d, 30)
	w5 = bits.RotateLeft32(w2^w13^w7^w5, 1)
	a, c = a+w5+0xCA62C1D6+(c^d^e)+bits.RotateLeft32(b, 5), bits.RotateLeft32(c, 30)
	w6 = bits.RotateLeft32(w3^w14^w8^w6, 1)
	e, b = e+w6+0xCA62C1D6+(b^c^d)+bits.RotateLeft32(a, 5), bits.RotateLeft32(b, 30)
	w7 = bits.RotateLeft32(w4^w15^w9^w7, 1)
	d, a = d+w7+0xCA62C1D6+(a^b^c)+bits.RotateLeft32(e, 5), bits.RotateLeft32(a, 30)
	w8 = bits.RotateLeft32(w5^w0^w10^w8, 1)
	c, e = c+w8+0xCA62C1D6+(e^a^b)+bits.RotateLeft32(d, 5), bits.RotateLeft32(e, 30)
	w9 = bits.RotateLeft32(w6^w1^w11^w9, 1)
	b, d = b+w9+0xCA62C1D6+(d^e^a)+bits.RotateLeft32(c, 5), bits.RotateLeft32(d, 30)
	w10 = bits.RotateLeft32(w7^w2^w12^w10, 1)
	a, c = a+w10+0xCA62C1D6+(c^d^e)+bits.RotateLeft32(b, 5), bits.RotateLeft32(c, 30)
	w11 = bits.RotateLeft32(w8^w3^w13^w11, 1)
	e, b = e+w11+0xCA62C1D6+(b^c^d)+bits.RotateLeft32(a, 5), bits.RotateLeft32(b, 30)
	w12 = bits.RotateLeft32(w9^w4^w14^w12, 1)
	d, a = d+w12+0xCA62C1D6+(a^b^c)+bits.RotateLeft32(e, 5), bits.RotateLeft32(a, 30)
	w13 = bits.RotateLeft32(w10^w5^w15^w13, 1)
	c, e = c+w13+0xCA62C1D6+(e^a^b)+bits.RotateLeft32(d, 5), bits.RotateLeft32(e, 30)
	w14 = bits.RotateLeft32(w11^w6^w0^w14, 1)
	b, d = b+w14+0xCA62C1D6+(d^e^a)+bits.RotateLeft32(c, 5), bits.RotateLeft32(d, 30)
	w15 = bits.RotateLeft32(w12^w7^w1^w15, 1)
	a, c = a+w15+0xCA62C1D6+(c^d^e)+bits.RotateLeft32(b, 5), bits.RotateLeft32(c, 30)

	h[0] += a
	h[1] += b
	h[2] += c
	h[3] += d
	h[4] += e
}
