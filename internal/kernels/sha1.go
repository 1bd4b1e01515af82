package kernels

import "encoding/binary"

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
func sha1Block(h *[5]uint32, p []byte) {
	var w [80]uint32
	for i := 0; i < 16; i++ {
		w[i] = binary.BigEndian.Uint32(p[4*i:])
	}
	for i := 16; i < 80; i++ {
		v := w[i-3] ^ w[i-8] ^ w[i-14] ^ w[i-16]
		w[i] = (v << 1) | (v >> 31)
	}
	a, b, c, d, e := h[0], h[1], h[2], h[3], h[4]
	for i := 0; i < 80; i++ {
		var f, k uint32
		switch {
		case i < 20:
			f = (b & c) | (^b & d)
			k = 0x5A827999
		case i < 40:
			f = b ^ c ^ d
			k = 0x6ED9EBA1
		case i < 60:
			f = (b & c) | (b & d) | (c & d)
			k = 0x8F1BBCDC
		default:
			f = b ^ c ^ d
			k = 0xCA62C1D6
		}
		tmp := ((a << 5) | (a >> 27)) + f + e + k + w[i]
		e = d
		d = c
		c = (b << 30) | (b >> 2)
		b = a
		a = tmp
	}
	h[0] += a
	h[1] += b
	h[2] += c
	h[3] += d
	h[4] += e
}
