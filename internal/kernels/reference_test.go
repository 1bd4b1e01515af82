package kernels

// The kernels exactly as they stood before Scratch (the parent commit of
// the change that introduced it), renamed with a ref prefix and otherwise
// verbatim: each builds its working memory per call. They are the
// reference the differential tests and FuzzScratchKernels compare the
// scratch-reusing kernels against, byte for byte. The DCT and the text
// corpus fill are kept as they stood before their constant tables
// (refFdct8, refIdct8, refTextCorpusInto), so the reference JE encoder
// sees a change to the live transform.

import (
	"container/heap"
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"repro/internal/xrand"
)

// refLZWCompress encodes data. Empty input yields an empty output.
func refLZWCompress(data []byte) []byte {
	if len(data) == 0 {
		return nil
	}
	type key struct {
		prefix uint32
		b      byte
	}
	dict := make(map[key]uint32, 4096)
	next := uint32(lzwFirstCode)
	width := uint(lzwMinBits)

	var w bitWriter
	cur := uint32(data[0])
	for _, b := range data[1:] {
		k := key{cur, b}
		if code, ok := dict[k]; ok {
			cur = code
			continue
		}
		w.write(cur, width)
		dict[k] = next
		next++
		// Widen when the next code would not fit.
		if next > (1<<width)-1 && width < lzwMaxBits {
			width++
		}
		if next >= (1<<lzwMaxBits)-1 {
			// Dictionary full: signal a reset.
			w.write(lzwClearCode, width)
			dict = make(map[key]uint32, 4096)
			next = lzwFirstCode
			width = lzwMinBits
		}
		cur = uint32(b)
	}
	w.write(cur, width)
	w.flush()
	return w.out
}

// refArithEncoder is a classic 32-bit binary arithmetic encoder with
// underflow (E3) handling.
type refArithEncoder struct {
	low, high uint32
	pending   int
	w         bitWriter
}

func refNewArithEncoder() *refArithEncoder {
	return &refArithEncoder{low: 0, high: ^uint32(0)}
}

// encode narrows the interval for one bit. p1 is P(bit=1) in 1/65536
// units, clamped to (0, 1).
func (e *refArithEncoder) encode(bit int, p1 uint32) {
	span := uint64(e.high) - uint64(e.low)
	split := e.low + uint32((span*uint64(p1))>>16)
	// split ∈ [low, high); bit 1 takes [low, split], bit 0 (split, high].
	if bit == 1 {
		e.high = split
	} else {
		e.low = split + 1
	}
	for {
		switch {
		case e.high < 1<<31:
			e.emit(0)
		case e.low >= 1<<31:
			e.emit(1)
			e.low -= 1 << 31
			e.high -= 1 << 31
		case e.low >= 1<<30 && e.high < 3<<30:
			e.pending++
			e.low -= 1 << 30
			e.high -= 1 << 30
		default:
			return
		}
		e.low <<= 1
		e.high = e.high<<1 | 1
	}
}

func (e *refArithEncoder) emit(bit uint32) {
	e.w.write(bit, 1)
	for ; e.pending > 0; e.pending-- {
		e.w.write(bit^1, 1)
	}
}

// finish flushes the interval: two disambiguating bits plus padding.
func (e *refArithEncoder) finish() []byte {
	e.pending++
	if e.low >= 1<<30 {
		e.emit(1)
	} else {
		e.emit(0)
	}
	e.w.flush()
	return e.w.out
}

type refDmcState struct {
	next  [2]int32
	count [2]float32
}

// refDmcModel is the cloning finite-state machine. The initial machine is
// the standard byte-structured braid: 255 tree nodes per 256 chains is
// overkill for this corpus, so we use the common compact variant — a
// complete binary tree of depth 8 whose leaves feed back to the root.
type refDmcModel struct {
	states []refDmcState
	cur    int32
	// cloning thresholds (Cormack & Horspool's C1/C2).
	bigThresh   float32
	smallThresh float32
	maxStates   int
}

func refNewDMCModel() *refDmcModel {
	m := &refDmcModel{bigThresh: 2, smallThresh: 2, maxStates: 1 << 20}
	// Depth-8 binary tree: node i has children 2i+1, 2i+2; leaves wrap
	// to the root, giving an order-1 (within byte) initial machine.
	const depth = 8
	n := (1 << depth) - 1
	m.states = make([]refDmcState, n)
	for i := 0; i < n; i++ {
		l, r := int32(2*i+1), int32(2*i+2)
		if int(l) >= n {
			l = 0
		}
		if int(r) >= n {
			r = 0
		}
		m.states[i] = refDmcState{next: [2]int32{l, r}, count: [2]float32{0.2, 0.2}}
	}
	return m
}

// p1 returns P(next bit = 1) in 1/65536 units, clamped away from 0 and
// 65536 so the coder interval never collapses.
func (m *refDmcModel) p1() uint32 {
	s := &m.states[m.cur]
	p := float64(s.count[1]) / float64(s.count[0]+s.count[1])
	v := uint32(p * 65536)
	if v < 1 {
		v = 1
	}
	if v > 65535 {
		v = 65535
	}
	return v
}

// update advances the machine over one observed bit, cloning the
// target state when both the traversed edge and the target are heavy.
func (m *refDmcModel) update(bit int) {
	s := &m.states[m.cur]
	target := s.next[bit]
	t := &m.states[target]
	edgeCount := s.count[bit]
	targetTotal := t.count[0] + t.count[1]

	if edgeCount > m.bigThresh && targetTotal-edgeCount > m.smallThresh && len(m.states) < m.maxStates {
		// Clone: the new state inherits the target's transitions and a
		// share of its counts proportional to the edge usage.
		frac := edgeCount / targetTotal
		clone := refDmcState{
			next:  t.next,
			count: [2]float32{t.count[0] * frac, t.count[1] * frac},
		}
		t.count[0] -= clone.count[0]
		t.count[1] -= clone.count[1]
		m.states = append(m.states, clone)
		target = int32(len(m.states) - 1)
		m.states[m.cur].next[bit] = target
	}

	m.states[m.cur].count[bit] += 1
	m.cur = target
}

// refDMCCompress encodes data with dynamic Markov coding.
// Format: [4 bytes LE length][arithmetic-coded bits].
func refDMCCompress(data []byte) []byte {
	model := refNewDMCModel()
	enc := refNewArithEncoder()
	for _, b := range data {
		for i := 7; i >= 0; i-- {
			bit := int(b>>uint(i)) & 1
			enc.encode(bit, model.p1())
			model.update(bit)
		}
	}
	payload := enc.finish()
	out := make([]byte, 4, 4+len(payload))
	binary.LittleEndian.PutUint32(out, uint32(len(data)))
	return append(out, payload...)
}

type refHuffNode struct {
	freq        uint64
	sym         int // -1 for internal
	left, right *refHuffNode
}

type refHuffHeap []*refHuffNode

func (h refHuffHeap) Len() int { return len(h) }
func (h refHuffHeap) Less(i, j int) bool {
	if h[i].freq != h[j].freq {
		return h[i].freq < h[j].freq
	}
	return h[i].sym < h[j].sym // deterministic tie-break
}
func (h refHuffHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHuffHeap) Push(x any)   { *h = append(*h, x.(*refHuffNode)) }
func (h *refHuffHeap) Pop() any {
	old := *h
	n := len(old)
	v := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return v
}

// refHuffLengths computes per-symbol code lengths from frequencies.
func refHuffLengths(freq [256]uint64) [256]uint8 {
	var lengths [256]uint8
	h := refHuffHeap{}
	for s, f := range freq {
		if f > 0 {
			h = append(h, &refHuffNode{freq: f, sym: s})
		}
	}
	if len(h) == 0 {
		return lengths
	}
	if len(h) == 1 {
		lengths[h[0].sym] = 1 // a single symbol still needs one bit
		return lengths
	}
	heap.Init(&h)
	internalSym := 256 // tie-break ids for internal nodes
	for h.Len() > 1 {
		a := heap.Pop(&h).(*refHuffNode)
		b := heap.Pop(&h).(*refHuffNode)
		heap.Push(&h, &refHuffNode{freq: a.freq + b.freq, sym: internalSym, left: a, right: b})
		internalSym++
	}
	root := h[0]
	var walk func(n *refHuffNode, depth uint8)
	walk = func(n *refHuffNode, depth uint8) {
		if n.left == nil {
			lengths[n.sym] = depth
			return
		}
		walk(n.left, depth+1)
		walk(n.right, depth+1)
	}
	walk(root, 0)
	return lengths
}

// refCanonicalCodes assigns canonical codes (shorter lengths first, then
// symbol order) from lengths.
func refCanonicalCodes(lengths [256]uint8) [256]uint64 {
	type sl struct {
		sym int
		l   uint8
	}
	var syms []sl
	for s, l := range lengths {
		if l > 0 {
			syms = append(syms, sl{s, l})
		}
	}
	sort.Slice(syms, func(i, j int) bool {
		if syms[i].l != syms[j].l {
			return syms[i].l < syms[j].l
		}
		return syms[i].sym < syms[j].sym
	})
	var codes [256]uint64
	code := uint64(0)
	prevLen := uint8(0)
	for _, s := range syms {
		code <<= (s.l - prevLen)
		codes[s.sym] = code
		code++
		prevLen = s.l
	}
	return codes
}

// refHuffmanEncode compresses data with a canonical Huffman code built
// from its byte histogram.
func refHuffmanEncode(data []byte) []byte {
	var freq [256]uint64
	for _, b := range data {
		freq[b]++
	}
	lengths := refHuffLengths(freq)
	codes := refCanonicalCodes(lengths)

	out := make([]byte, 0, len(data)/2+260)
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(data)))
	out = append(out, hdr[:]...)
	for _, l := range lengths {
		out = append(out, l)
	}
	w := bitWriter{out: out}
	for _, b := range data {
		w.write64(codes[b], uint(lengths[b]))
	}
	w.flush()
	return w.out
}

// refEncodeJPEGish compresses im at the given quality (1–100).
// Container: [W][H][quality] (4-byte LE each) + Huffman-coded symbol
// stream of DC deltas and AC (run, level) pairs, byte-serialized with
// zigzag order per block.
func refEncodeJPEGish(im *Image, quality int) ([]byte, error) {
	if im == nil || im.W <= 0 || im.H <= 0 || len(im.Pix) != im.W*im.H {
		return nil, fmt.Errorf("jpegish: invalid image")
	}
	quant := scaledQuant(quality)
	var syms []byte // symbol stream before entropy coding
	putVarint := func(v int32) {
		var buf [5]byte
		n := binary.PutVarint(buf[:], int64(v))
		syms = append(syms, buf[:n]...)
	}

	prevDC := int32(0)
	for by := 0; by < im.H; by += 8 {
		for bx := 0; bx < im.W; bx += 8 {
			var blk [64]float64
			for y := 0; y < 8; y++ {
				for x := 0; x < 8; x++ {
					blk[y*8+x] = float64(im.At(bx+x, by+y)) - 128
				}
			}
			refFdct8(&blk)
			var q [64]int32
			for i := 0; i < 64; i++ {
				q[i] = int32(math.Round(blk[i] / float64(quant[i])))
			}
			// DC delta.
			dc := q[0]
			putVarint(dc - prevDC)
			prevDC = dc
			// AC: (zero-run, value) pairs in zigzag order; 0xFF run
			// marks end-of-block.
			run := 0
			for s := 1; s < 64; s++ {
				v := q[zigzag[s]]
				if v == 0 {
					run++
					continue
				}
				for run > 62 {
					syms = append(syms, 62)
					putVarint(0) // long-run continuation
					run -= 63
				}
				syms = append(syms, byte(run))
				putVarint(v)
				run = 0
			}
			syms = append(syms, 0xFF) // end of block
		}
	}

	payload := refHuffmanEncode(syms)
	out := make([]byte, 12, 12+len(payload))
	binary.LittleEndian.PutUint32(out[0:], uint32(im.W))
	binary.LittleEndian.PutUint32(out[4:], uint32(im.H))
	binary.LittleEndian.PutUint32(out[8:], uint32(quality))
	return append(out, payload...), nil
}

// refFdct8 is fdct8 before the basis table: it evaluates the cosine
// at every multiply.
func refFdct8(block *[64]float64) {
	var tmp [64]float64
	// Rows.
	for r := 0; r < 8; r++ {
		for u := 0; u < 8; u++ {
			sum := 0.0
			for x := 0; x < 8; x++ {
				sum += block[r*8+x] * math.Cos((2*float64(x)+1)*float64(u)*math.Pi/16)
			}
			c := 0.5
			if u == 0 {
				c = 1 / (2 * math.Sqrt2)
			}
			tmp[r*8+u] = sum * c
		}
	}
	// Columns.
	for cidx := 0; cidx < 8; cidx++ {
		for v := 0; v < 8; v++ {
			sum := 0.0
			for y := 0; y < 8; y++ {
				sum += tmp[y*8+cidx] * math.Cos((2*float64(y)+1)*float64(v)*math.Pi/16)
			}
			c := 0.5
			if v == 0 {
				c = 1 / (2 * math.Sqrt2)
			}
			block[v*8+cidx] = sum * c
		}
	}
}

// refIdct8 is idct8 before the basis table.
func refIdct8(block *[64]float64) {
	var tmp [64]float64
	// Columns.
	for cidx := 0; cidx < 8; cidx++ {
		for y := 0; y < 8; y++ {
			sum := 0.0
			for v := 0; v < 8; v++ {
				c := 0.5
				if v == 0 {
					c = 1 / (2 * math.Sqrt2)
				}
				sum += c * block[v*8+cidx] * math.Cos((2*float64(y)+1)*float64(v)*math.Pi/16)
			}
			tmp[y*8+cidx] = sum
		}
	}
	// Rows.
	for r := 0; r < 8; r++ {
		for x := 0; x < 8; x++ {
			sum := 0.0
			for u := 0; u < 8; u++ {
				c := 0.5
				if u == 0 {
					c = 1 / (2 * math.Sqrt2)
				}
				sum += c * tmp[r*8+u] * math.Cos((2*float64(x)+1)*float64(u)*math.Pi/16)
			}
			block[r*8+x] = sum
		}
	}
}

// refTextCorpusInto is TextCorpusInto before the 16-byte stores: one
// copy per word.
func refTextCorpusInto(dst []byte, seed uint64) {
	rng := xrand.New(seed)
	i := 0
	for i < len(dst) {
		i += copy(dst[i:], corpusWords[rng.Intn(len(corpusWords))])
	}
}

// refSHA1 computes the RFC 3174 digest of data, implemented from the
// specification (no crypto/sha1). SHA-1 is cryptographically broken
// for collision resistance; it is here as the paper's CPU-bound
// benchmark kernel, not for security use.
func refSHA1(data []byte) [20]byte {
	h0 := uint32(0x67452301)
	h1 := uint32(0xEFCDAB89)
	h2 := uint32(0x98BADCFE)
	h3 := uint32(0x10325476)
	h4 := uint32(0xC3D2E1F0)

	msgLen := uint64(len(data))
	padded := make([]byte, 0, len(data)+72)
	padded = append(padded, data...)
	padded = append(padded, 0x80)
	for len(padded)%64 != 56 {
		padded = append(padded, 0)
	}
	var lenb [8]byte
	binary.BigEndian.PutUint64(lenb[:], msgLen*8)
	padded = append(padded, lenb[:]...)

	var w [80]uint32
	for chunk := 0; chunk < len(padded); chunk += 64 {
		for i := 0; i < 16; i++ {
			w[i] = binary.BigEndian.Uint32(padded[chunk+4*i:])
		}
		for i := 16; i < 80; i++ {
			v := w[i-3] ^ w[i-8] ^ w[i-14] ^ w[i-16]
			w[i] = (v << 1) | (v >> 31)
		}
		a, b, c, d, e := h0, h1, h2, h3, h4
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
		h0 += a
		h1 += b
		h2 += c
		h3 += d
		h4 += e
	}

	var out [20]byte
	binary.BigEndian.PutUint32(out[0:], h0)
	binary.BigEndian.PutUint32(out[4:], h1)
	binary.BigEndian.PutUint32(out[8:], h2)
	binary.BigEndian.PutUint32(out[12:], h3)
	binary.BigEndian.PutUint32(out[16:], h4)
	return out
}

// refMD5 computes the RFC 1321 message digest of data. It is implemented
// from the specification (no crypto/md5) because the benchmark suite
// must own its kernels; it matches the standard library bit-for-bit
// (see the test vectors).
func refMD5(data []byte) [16]byte {
	// Per-round shift amounts.
	var s = [64]uint{
		7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22,
		5, 9, 14, 20, 5, 9, 14, 20, 5, 9, 14, 20, 5, 9, 14, 20,
		4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23,
		6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21,
	}
	// K[i] = floor(2^32 × abs(sin(i+1))), precomputed per the RFC.
	var k = [64]uint32{
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

	a0, b0, c0, d0 := uint32(0x67452301), uint32(0xefcdab89), uint32(0x98badcfe), uint32(0x10325476)

	// Padding: 0x80, zeros, then the 64-bit little-endian bit length.
	msgLen := uint64(len(data))
	padded := make([]byte, 0, len(data)+72)
	padded = append(padded, data...)
	padded = append(padded, 0x80)
	for len(padded)%64 != 56 {
		padded = append(padded, 0)
	}
	var lenb [8]byte
	binary.LittleEndian.PutUint64(lenb[:], msgLen*8)
	padded = append(padded, lenb[:]...)

	var m [16]uint32
	for chunk := 0; chunk < len(padded); chunk += 64 {
		for i := 0; i < 16; i++ {
			m[i] = binary.LittleEndian.Uint32(padded[chunk+4*i:])
		}
		a, b, c, d := a0, b0, c0, d0
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
			f += a + k[i] + m[g]
			a = d
			d = c
			c = b
			b += (f << s[i]) | (f >> (32 - s[i]))
		}
		a0 += a
		b0 += b
		c0 += c
		d0 += d
	}

	var out [16]byte
	binary.LittleEndian.PutUint32(out[0:], a0)
	binary.LittleEndian.PutUint32(out[4:], b0)
	binary.LittleEndian.PutUint32(out[8:], c0)
	binary.LittleEndian.PutUint32(out[12:], d0)
	return out
}

// refGradientImage is GradientImage before GradientImageInto existed.
func refGradientImage(seed uint64, w, h int) *Image {
	rng := xrand.New(seed)
	im := NewImage(w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			v := 96 + 64*((x+y)%32)/32 + rng.Intn(12)
			if v > 255 {
				v = 255
			}
			im.Pix[y*w+x] = byte(v)
		}
	}
	return im
}
