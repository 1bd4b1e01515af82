package kernels

import "repro/internal/xrand"

// Deterministic corpus generators shared by the examples, tests and
// benches. The three profiles bracket the benchmark suite's input
// space: natural-language-like (highly compressible), binary-random
// (incompressible) and structured (periodic, mid-compressible).

// corpusWords is the vocabulary of TextCorpus. It is an array, so
// Intn(len(corpusWords)) divides by a constant.
var corpusWords = [...]string{
	"energy ", "efficient ", "workload ", "aware ", "task ",
	"stealing ", "scheduler ", "frequency ", "multicore ", "dvfs ",
	"the ", "of ", "and ", "batch ", "profile ",
}

// corpusPadded[k] is corpusWords[k] zero-padded to one 16-byte store;
// every word is shorter than that.
var corpusPadded = func() (t [len(corpusWords)][16]byte) {
	for k, w := range corpusWords {
		copy(t[k][:], w)
	}
	return t
}()

// TextCorpus returns n bytes of compressible pseudo-text,
// deterministic in seed.
func TextCorpus(seed uint64, n int) []byte {
	out := make([]byte, n)
	TextCorpusInto(out, seed)
	return out
}

// TextCorpusInto fills dst with the same bytes TextCorpus(seed,
// len(dst)) would return, without allocating — the serve ingest path
// reuses one corpus slab across pooled jobs.
//
// While 16 bytes remain, each word goes down as one 16-byte store of
// its padded copy: the zeros past the word land where the next word
// starts, and that word's store overwrites them. Only the last store's
// padding survives the loop, and the tail, copied one word at a time,
// overwrites it up to len(dst). The words are drawn in the same order
// either way, so the bytes are those of copying every word.
func TextCorpusInto(dst []byte, seed uint64) {
	rng := xrand.New(seed)
	i := 0
	for i+16 <= len(dst) {
		k := rng.Intn(len(corpusWords))
		*(*[16]byte)(dst[i:]) = corpusPadded[k]
		i += len(corpusWords[k])
	}
	for i < len(dst) {
		i += copy(dst[i:], corpusWords[rng.Intn(len(corpusWords))])
	}
}

// StructuredCorpus returns n bytes of periodic data with short runs —
// the profile of tabular or sensor-log inputs.
func StructuredCorpus(seed uint64, n int) []byte {
	out := make([]byte, n)
	StructuredCorpusInto(out, seed)
	return out
}

// StructuredCorpusInto fills dst with the same bytes
// StructuredCorpus(seed, len(dst)) would return, without allocating.
func StructuredCorpusInto(dst []byte, seed uint64) {
	rng := xrand.New(seed)
	i := 0
	for i < len(dst) {
		b := byte(rng.Intn(16) * 13)
		run := rng.Intn(7) + 1
		for r := 0; r < run && i < len(dst); r++ {
			dst[i] = b
			i++
		}
	}
}

// GradientImage returns a w×h grayscale test image with smooth
// gradients and mild texture — the JPEG-ish kernels' standard input.
func GradientImage(seed uint64, w, h int) *Image {
	im := NewImage(w, h)
	GradientImageInto(im.Pix, seed, w, h)
	return im
}

// GradientImageInto fills pix (len w*h, row-major) with the pixels
// GradientImage(seed, w, h) would return, without allocating.
func GradientImageInto(pix []byte, seed uint64, w, h int) {
	rng := xrand.New(seed)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			v := 96 + 64*((x+y)%32)/32 + rng.Intn(12)
			if v > 255 {
				v = 255
			}
			pix[y*w+x] = byte(v)
		}
	}
}
