package kernels

import "encoding/binary"

// MD5 computes the RFC 1321 message digest of data. It is implemented
// from the specification (no crypto/md5) because the benchmark suite
// must own its kernels; it matches the standard library bit-for-bit
// (see the test vectors). Like SHA1 it hashes whole blocks in place and
// pads only the tail (little-endian bit length here).
func MD5(data []byte) [16]byte {
	h := [4]uint32{0x67452301, 0xefcdab89, 0x98badcfe, 0x10325476}

	whole := len(data) &^ 63
	for chunk := 0; chunk < whole; chunk += 64 {
		md5Block(&h, data[chunk:chunk+64])
	}
	var tail [128]byte
	n := padTail(&tail, data[whole:])
	binary.LittleEndian.PutUint64(tail[n-8:], uint64(len(data))*8)
	for chunk := 0; chunk < n; chunk += 64 {
		md5Block(&h, tail[chunk:chunk+64])
	}

	var out [16]byte
	for i, v := range h {
		binary.LittleEndian.PutUint32(out[4*i:], v)
	}
	return out
}

// md5Shift holds the per-round shift amounts.
var md5Shift = [64]uint{
	7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22,
	5, 9, 14, 20, 5, 9, 14, 20, 5, 9, 14, 20, 5, 9, 14, 20,
	4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23,
	6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21,
}

// md5K[i] = floor(2^32 × abs(sin(i+1))), precomputed per the RFC.
var md5K = [64]uint32{
	0xd76aa478, 0xe8c7b756, 0x242070db, 0xc1bdceee,
	0xf57c0faf, 0x4787c62a, 0xa8304613, 0xfd469501,
	0x698098d8, 0x8b44f7af, 0xffff5bb1, 0x895cd7be,
	0x6b901122, 0xfd987193, 0xa679438e, 0x49b40821,
	0xf61e2562, 0xc040b340, 0x265e5a51, 0xe9b6c7aa,
	0xd62f105d, 0x02441453, 0xd8a1e681, 0xe7d3fbc8,
	0x21e1cde6, 0xc33707d6, 0xf4d50d87, 0x455a14ed,
	0xa9e3e905, 0xfcefa3f8, 0x676f02d9, 0x8d2a4c8a,
	0xfffa3942, 0x8771f681, 0x6d9d6122, 0xfde5380c,
	0xa4beea44, 0x4bdecfa9, 0xf6bb4b60, 0xbebfbc70,
	0x289b7ec6, 0xeaa127fa, 0xd4ef3085, 0x04881d05,
	0xd9d4d039, 0xe6db99e5, 0x1fa27cf8, 0xc4ac5665,
	0xf4292244, 0x432aff97, 0xab9423a7, 0xfc93a039,
	0x655b59c3, 0x8f0ccc92, 0xffeff47d, 0x85845dd1,
	0x6fa87e4f, 0xfe2ce6e0, 0xa3014314, 0x4e0811a1,
	0xf7537e82, 0xbd3af235, 0x2ad7d2bb, 0xeb86d391,
}

// md5Block folds one 64-byte block into h.
func md5Block(h *[4]uint32, p []byte) {
	var m [16]uint32
	for i := 0; i < 16; i++ {
		m[i] = binary.LittleEndian.Uint32(p[4*i:])
	}
	a, b, c, d := h[0], h[1], h[2], h[3]
	for i := 0; i < 64; i++ {
		var f uint32
		var g int
		switch {
		case i < 16:
			f = (b & c) | (^b & d)
			g = i
		case i < 32:
			f = (d & b) | (^d & c)
			g = (5*i + 1) % 16
		case i < 48:
			f = b ^ c ^ d
			g = (3*i + 5) % 16
		default:
			f = c ^ (b | ^d)
			g = (7 * i) % 16
		}
		f += a + md5K[i] + m[g]
		a = d
		d = c
		c = b
		b += (f << md5Shift[i]) | (f >> (32 - md5Shift[i]))
	}
	h[0] += a
	h[1] += b
	h[2] += c
	h[3] += d
}
