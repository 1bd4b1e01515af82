// Package kernels contains from-scratch Go implementations of the
// algorithm families behind the paper's Table II benchmarks:
//
//	BWC    — Burrows-Wheeler transform + move-to-front + run-length +
//	         canonical Huffman (bwt.go holds the BWT, MTF and RLE stages,
//	         huffman.go the coder, bwc.go the pipeline)
//	Bzip-2 — the same pipeline applied block-wise with a container
//	         format and per-block checksums (Bzip2Like, also in bwc.go)
//	DMC    — dynamic Markov coding over a cloning bit-predictor with a
//	         binary arithmetic coder (dmc.go)
//	JE     — JPEG-style grayscale encoder: 8×8 DCT, quantization,
//	         zigzag, RLE + Huffman (jpegish.go)
//	LZW    — Lempel-Ziv-Welch with variable-width codes (lzw.go)
//	MD5    — RFC 1321 message digest (md5.go)
//	SHA-1  — RFC 3174 secure hash (sha1.go)
//
// Nothing here imports the standard library's crypto or compress
// packages: the point of the reproduction is to own every substrate
// (see the system inventory in DESIGN.md §3). The implementations are
// deliberately straightforward and CPU-bound — they are the task
// payloads of the live work-stealing runtime (internal/rt) and the
// calibration source for the simulator's workload mixes, and EEWA plans
// from their measured time on the assumption that it is CPU work. So a
// kernel's time is its algorithm's arithmetic and nothing else: the
// constants it reads live in package tables built once (the DCT basis,
// the padded corpus words), and the encoders do not allocate per call.
// LZW, DMC, Huffman and JE are methods of Scratch (scratch.go), which
// owns their output buffer, dictionary, state slab and tree and is
// reset, not rebuilt, between runs; the package-level functions of the
// same names run the method on a pooled Scratch and return a copy. The
// digests need no scratch: they hash whole blocks from the input and
// pad the tail on the stack.
//
// Only the encoders and digests are here: a served job compresses,
// encodes or hashes, and nothing a program runs decodes. The inverse
// of every kernel, which the round-trip tests check the encoders
// against, is in decode_test.go.
package kernels

import "sync/atomic"

// Sink prevents dead-code elimination of benchmark payloads; the live
// runtime accumulates digest bytes here-through. It is atomic because
// payloads run concurrently on the runtime's workers.
var Sink atomic.Uint64

// KeepAlive folds b into Sink so the compiler cannot elide the
// computation that produced it. Safe for concurrent use.
func KeepAlive(b []byte) {
	var acc uint64
	for _, x := range b {
		acc = acc*131 + uint64(x)
	}
	Sink.Add(acc)
}
