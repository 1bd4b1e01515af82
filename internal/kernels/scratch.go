package kernels

import (
	"bytes"
	"sync"
)

// Scratch is the working memory of the compression kernels: the
// bit-packed output buffer, the LZW dictionary, the DMC state slab and
// probability block, the JE symbol stream and the Huffman tree nodes. A kernel resets what the
// last run left in it instead of allocating its own, so a warm Scratch
// runs every kernel without touching the allocator.
//
// The kernels are its methods. What a method returns aliases the
// Scratch and is valid until the Scratch's next use; the package-level
// functions of the same names (LZWCompress, …) take a Scratch from the
// package pool, run the method and return a copy. The zero value is
// ready to use; a Scratch is not safe for concurrent use.
type Scratch struct {
	out  []byte     // every kernel's output
	syms []byte     // JE symbol stream, before entropy coding
	dmc  []dmcState // DMC state slab
	lzw  *lzwTable  // built by the first LZW run
	huff huffTree
	// p1 holds DMC's predictions for one block of bits, between the
	// model pass and the coder pass. It lives here rather than in a
	// 4 KiB stack frame: rt runs each batch on fresh goroutines, whose
	// stacks would have to grow to hold it.
	p1 [dmcBlockBits]uint16
}

// maxPooledScratch bounds the buffer capacity a pooled Scratch may
// retain. DMC's slab grows by up to 16 B per input bit, to 16 MiB, and
// a pool must not pin what one large request needed; 2 MiB keeps every
// few-KiB shape warm (dmc over 4 KiB of StructuredCorpus retains
// ≈0.1 MiB).
const maxPooledScratch = 2 << 20

var scratchPool = sync.Pool{New: func() any { return new(Scratch) }}

// GetScratch takes a Scratch from the package pool.
func GetScratch() *Scratch { return scratchPool.Get().(*Scratch) }

// PutScratch returns s to the pool — or drops it, when its buffers have
// grown past maxPooledScratch. Results obtained from s are dead after
// this call.
func PutScratch(s *Scratch) {
	if s.retained() <= maxPooledScratch {
		scratchPool.Put(s)
	}
}

// retained is the capacity, in bytes, of the buffers that grow with the
// input (the LZW table and the Huffman nodes are fixed-size).
func (s *Scratch) retained() int {
	return cap(s.out) + cap(s.syms) + cap(s.dmc)*16
}

// LZWCompress encodes data. Empty input yields an empty output.
func LZWCompress(data []byte) []byte {
	s := GetScratch()
	out := bytes.Clone(s.LZWCompress(data))
	PutScratch(s)
	return out
}

// DMCCompress encodes data with dynamic Markov coding.
// Format: [4 bytes LE length][arithmetic-coded bits].
func DMCCompress(data []byte) []byte {
	s := GetScratch()
	out := bytes.Clone(s.DMCCompress(data))
	PutScratch(s)
	return out
}

// HuffmanEncode compresses data with a canonical Huffman code built
// from its byte histogram.
func HuffmanEncode(data []byte) []byte {
	s := GetScratch()
	out := bytes.Clone(s.HuffmanEncode(data))
	PutScratch(s)
	return out
}

// EncodeJPEGish compresses im at the given quality (1–100); see
// Scratch.EncodeJPEGish for the container.
func EncodeJPEGish(im *Image, quality int) ([]byte, error) {
	s := GetScratch()
	out, err := s.EncodeJPEGish(im, quality)
	out = bytes.Clone(out)
	PutScratch(s)
	return out, err
}
