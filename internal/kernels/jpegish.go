package kernels

import (
	"encoding/binary"
	"fmt"
	"math"
)

// JPEG-style grayscale encoder (the paper's JE benchmark family):
// 8×8 blocks → level shift → forward DCT → quantization → zigzag →
// DC delta + AC zero-run coding → canonical Huffman. The tests'
// decoder (decode_test.go) inverts everything back to pixels, so they
// measure reconstruction quality (PSNR) exactly as a JPEG pipeline
// would.
//
// The bitstream is our own container, not ITU T.81 interchange format:
// the goal is the computational kernel, not file compatibility.

// Image is a simple grayscale raster.
type Image struct {
	W, H int
	Pix  []byte // len = W*H, row-major
}

// NewImage allocates a W×H image.
func NewImage(w, h int) *Image {
	return &Image{W: w, H: h, Pix: make([]byte, w*h)}
}

// At returns the pixel at (x, y), clamping coordinates to the border
// (JPEG edge extension for partial blocks).
func (im *Image) At(x, y int) byte {
	if x >= im.W {
		x = im.W - 1
	}
	if y >= im.H {
		y = im.H - 1
	}
	return im.Pix[y*im.W+x]
}

// quantLuma is the Annex K luminance quantization table (quality 50).
var quantLuma = [64]int32{
	16, 11, 10, 16, 24, 40, 51, 61,
	12, 12, 14, 19, 26, 58, 60, 55,
	14, 13, 16, 24, 40, 57, 69, 56,
	14, 17, 22, 29, 51, 87, 80, 62,
	18, 22, 37, 56, 68, 109, 103, 77,
	24, 35, 55, 64, 81, 104, 113, 92,
	49, 64, 78, 87, 103, 121, 120, 101,
	72, 92, 95, 98, 112, 100, 103, 99,
}

// zigzag maps scan order → block index.
var zigzag = [64]int{
	0, 1, 8, 16, 9, 2, 3, 10,
	17, 24, 32, 25, 18, 11, 4, 5,
	12, 19, 26, 33, 40, 48, 41, 34,
	27, 20, 13, 6, 7, 14, 21, 28,
	35, 42, 49, 56, 57, 50, 43, 36,
	29, 22, 15, 23, 30, 37, 44, 51,
	58, 59, 52, 45, 38, 31, 39, 46,
	53, 60, 61, 54, 47, 55, 62, 63,
}

// scaledQuant returns the quantization table scaled to quality q
// (1–100), per the IJG formula.
func scaledQuant(quality int) [64]int32 {
	if quality < 1 {
		quality = 1
	}
	if quality > 100 {
		quality = 100
	}
	var scale int32
	if quality < 50 {
		scale = int32(5000 / quality)
	} else {
		scale = int32(200 - 2*quality)
	}
	var out [64]int32
	for i, v := range quantLuma {
		x := (v*scale + 50) / 100
		if x < 1 {
			x = 1
		}
		if x > 255 {
			x = 255
		}
		out[i] = x
	}
	return out
}

// dctCos[x][u] is the DCT-II basis cos((2x+1)uπ/16), a row per sample
// x, the order fdct8 reads it in. Its argument is float64 arithmetic on
// loop variables, rounded step by step as in the reference transforms
// that TestDCTMatchesReference holds fdct8 and idct8 to bit for bit;
// written as a constant expression it would be rounded once and could
// differ in the last bit.
var dctCos = func() (t [8][8]float64) {
	for x := 0; x < 8; x++ {
		for u := 0; u < 8; u++ {
			t[x][u] = math.Cos((2*float64(x) + 1) * float64(u) * math.Pi / 16)
		}
	}
	return t
}()

// fdct8 performs a separable 8-point forward DCT-II on rows and
// columns of the 8×8 block. The float multiply-adds are the kernel's
// CPU work; the basis is read from dctCos, not recomputed.
func fdct8(block *[64]float64) {
	// Rows into tmp's columns, then tmp's rows (the block's columns)
	// into the block's columns.
	var tmp [64]float64
	for r := 0; r < 8; r++ {
		dct8(&tmp, r, (*[8]float64)(block[r*8:]))
	}
	for c := 0; c < 8; c++ {
		dct8(block, c, (*[8]float64)(tmp[c*8:]))
	}
}

// dct8 writes the 8-point DCT-II of in to column col of out. The eight
// outputs accumulate side by side, so their multiply-adds overlap; each
// still sums its products in x order, starting from zero, which keeps
// every bit equal to the reference transform's.
func dct8(out *[64]float64, col int, in *[8]float64) {
	var s0, s1, s2, s3, s4, s5, s6, s7 float64
	for x, v := range in {
		k := &dctCos[x]
		s0 += v * k[0]
		s1 += v * k[1]
		s2 += v * k[2]
		s3 += v * k[3]
		s4 += v * k[4]
		s5 += v * k[5]
		s6 += v * k[6]
		s7 += v * k[7]
	}
	o := out[col:]
	o[0] = s0 * (1 / (2 * math.Sqrt2))
	o[8] = s1 * 0.5
	o[16] = s2 * 0.5
	o[24] = s3 * 0.5
	o[32] = s4 * 0.5
	o[40] = s5 * 0.5
	o[48] = s6 * 0.5
	o[56] = s7 * 0.5
}

// EncodeJPEGish compresses im at the given quality (1–100).
// Container: [W][H][quality] (4-byte LE each) + Huffman-coded symbol
// stream of DC deltas and AC (run, level) pairs, byte-serialized with
// zigzag order per block.
func (s *Scratch) EncodeJPEGish(im *Image, quality int) ([]byte, error) {
	if im == nil || im.W <= 0 || im.H <= 0 || len(im.Pix) != im.W*im.H {
		return nil, fmt.Errorf("jpegish: invalid image")
	}
	quant := scaledQuant(quality)
	syms := s.syms[:0] // symbol stream before entropy coding

	prevDC := int32(0)
	for by := 0; by < im.H; by += 8 {
		for bx := 0; bx < im.W; bx += 8 {
			var blk [64]float64
			for y := 0; y < 8; y++ {
				for x := 0; x < 8; x++ {
					blk[y*8+x] = float64(im.At(bx+x, by+y)) - 128
				}
			}
			fdct8(&blk)
			var q [64]int32
			for i := 0; i < 64; i++ {
				q[i] = int32(math.Round(blk[i] / float64(quant[i])))
			}
			// DC delta.
			dc := q[0]
			syms = binary.AppendVarint(syms, int64(dc-prevDC))
			prevDC = dc
			// AC: (zero-run, value) pairs in zigzag order; 0xFF run
			// marks end-of-block.
			run := 0
			for z := 1; z < 64; z++ {
				v := q[zigzag[z]]
				if v == 0 {
					run++
					continue
				}
				for run > 62 {
					syms = append(syms, 62)
					syms = binary.AppendVarint(syms, 0) // long-run continuation
					run -= 63
				}
				syms = append(syms, byte(run))
				syms = binary.AppendVarint(syms, int64(v))
				run = 0
			}
			syms = append(syms, 0xFF) // end of block
		}
	}
	s.syms = syms

	out := binary.LittleEndian.AppendUint32(s.out[:0], uint32(im.W))
	out = binary.LittleEndian.AppendUint32(out, uint32(im.H))
	out = binary.LittleEndian.AppendUint32(out, uint32(quality))
	s.out = s.huffAppend(out, syms)
	return s.out, nil
}
