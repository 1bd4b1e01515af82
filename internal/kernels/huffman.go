package kernels

import "encoding/binary"

// Canonical Huffman coding over the byte alphabet. The encoded format
// is self-describing:
//
//	[4 bytes LE: original length n]
//	[256 bytes: code length of each symbol (0 = unused)]
//	[bit-packed codes, MSB first]
//
// Canonical codes are reconstructed from the lengths alone, so the
// header needs no code table. Lengths are uncapped (≤ 64 in theory,
// ≤ ~40 in practice for 32-bit counts), which keeps the implementation
// honest without the length-limiting heuristics real formats need.

type huffNode struct {
	freq        uint64
	sym         int // ≥ 256 for internal nodes, in creation order
	left, right *huffNode
}

// less is the heap order: frequency, then symbol — a total order, so
// the tree does not depend on how the heap is implemented.
func (n *huffNode) less(o *huffNode) bool {
	if n.freq != o.freq {
		return n.freq < o.freq
	}
	return n.sym < o.sym
}

// huffTree is the storage of one Huffman construction: at most 256
// leaves and 255 internal nodes, and the min-heap over them.
type huffTree struct {
	nodes [511]huffNode
	heap  [256]*huffNode
}

// siftDown restores the heap order below h[i].
func siftDown(h []*huffNode, i int) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && h[c+1].less(h[c]) {
			c++
		}
		if !h[c].less(h[i]) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// lengths computes per-symbol code lengths from frequencies.
func (t *huffTree) lengths(freq *[256]uint64) [256]uint8 {
	var lengths [256]uint8
	n := 0
	for s, f := range freq {
		if f > 0 {
			t.nodes[n] = huffNode{freq: f, sym: s}
			t.heap[n] = &t.nodes[n]
			n++
		}
	}
	if n == 0 {
		return lengths
	}
	if n == 1 {
		lengths[t.heap[0].sym] = 1 // a single symbol still needs one bit
		return lengths
	}
	h := t.heap[:n]
	for i := n/2 - 1; i >= 0; i-- {
		siftDown(h, i)
	}
	for next := n; len(h) > 1; next++ {
		// Take the two lightest nodes; their parent replaces the second.
		a := h[0]
		h[0] = h[len(h)-1]
		h = h[:len(h)-1]
		siftDown(h, 0)
		b := h[0]
		t.nodes[next] = huffNode{freq: a.freq + b.freq, sym: 256 + next - n, left: a, right: b}
		h[0] = &t.nodes[next]
		siftDown(h, 0)
	}
	h[0].depths(0, &lengths)
	return lengths
}

// depths records the depth of every leaf under n as its code length.
func (n *huffNode) depths(depth uint8, lengths *[256]uint8) {
	if n.left == nil {
		lengths[n.sym] = depth
		return
	}
	n.left.depths(depth+1, lengths)
	n.right.depths(depth+1, lengths)
}

// canonicalCodes assigns canonical codes (shorter lengths first, then
// symbol order) from lengths.
func canonicalCodes(lengths *[256]uint8) [256]uint64 {
	// Counting sort of the used symbols by (length, symbol).
	var start [257]int
	for _, l := range lengths {
		start[int(l)+1]++
	}
	used := 256 - start[1]
	start[1] = 0 // length 0 is "unused": those symbols are not placed
	for l := 2; l < len(start); l++ {
		start[l] += start[l-1]
	}
	var order [256]uint8
	for s, l := range lengths {
		if l > 0 {
			order[start[l]] = uint8(s)
			start[l]++
		}
	}
	var codes [256]uint64
	code := uint64(0)
	prevLen := uint8(0)
	for _, s := range order[:used] {
		l := lengths[s]
		code <<= (l - prevLen)
		codes[s] = code
		code++
		prevLen = l
	}
	return codes
}

// HuffmanEncode compresses data with a canonical Huffman code built
// from its byte histogram.
func (s *Scratch) HuffmanEncode(data []byte) []byte {
	s.out = s.huffAppend(s.out[:0], data)
	return s.out
}

// huffAppend appends HuffmanEncode's encoding of data to out. data may
// be s.syms but not s.out.
func (s *Scratch) huffAppend(out, data []byte) []byte {
	var freq [256]uint64
	for _, b := range data {
		freq[b]++
	}
	lengths := s.huff.lengths(&freq)
	codes := canonicalCodes(&lengths)

	out = binary.LittleEndian.AppendUint32(out, uint32(len(data)))
	out = append(out, lengths[:]...)
	w := bitWriter{out: out}
	for _, b := range data {
		w.write64(codes[b], uint(lengths[b]))
	}
	w.flush()
	return w.out
}

// write64 emits up to 64 bits MSB-first (bitWriter.write handles ≤ 32).
func (w *bitWriter) write64(code uint64, width uint) {
	if width > 32 {
		w.write(uint32(code>>32), width-32)
		width = 32
		code &= (1 << 32) - 1
	}
	w.write(uint32(code), width)
}
