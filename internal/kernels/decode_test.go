package kernels

// The inverse of every kernel: the decoders the round-trip tests run
// against the encoders, which are all a program runs (a served job
// only compresses, encodes or digests).

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/xrand"
)

// HuffmanDecode inverts HuffmanEncode.
func HuffmanDecode(data []byte) ([]byte, error) {
	if len(data) < 4+256 {
		return nil, fmt.Errorf("huffman: header truncated (%d bytes)", len(data))
	}
	n := binary.LittleEndian.Uint32(data[:4])
	var lengths [256]uint8
	copy(lengths[:], data[4:260])
	payload := data[260:]
	if n == 0 {
		return nil, nil
	}

	// Canonical decode tables: for each length, the first code and the
	// symbols in canonical order. Lengths come from the (untrusted)
	// header, so all arithmetic is done in int — a length of 255 must
	// not wrap the uint8 table sizes.
	maxLen := 0
	for _, l := range lengths {
		if int(l) > maxLen {
			maxLen = int(l)
		}
	}
	if maxLen == 0 {
		return nil, fmt.Errorf("huffman: no symbols for %d bytes of output", n)
	}
	count := make([]uint32, maxLen+1)
	for _, l := range lengths {
		if l > 0 {
			count[l]++
		}
	}
	firstCode := make([]uint64, maxLen+2)
	symIndex := make([]uint32, maxLen+2) // offset into symsByLen
	var symsByLen []byte
	{
		code := uint64(0)
		offset := uint32(0)
		for l := 1; l <= maxLen; l++ {
			firstCode[l] = code
			symIndex[l] = offset
			for s := 0; s < 256; s++ {
				if int(lengths[s]) == l {
					symsByLen = append(symsByLen, byte(s))
					offset++
				}
			}
			code = (code + uint64(count[l])) << 1
		}
	}

	// Cap the preallocation: n comes from the (untrusted) header, and a
	// corrupted length must not allocate gigabytes up front. The slice
	// still grows to n if the payload really decodes that far.
	capHint := n
	if capHint > 1<<20 {
		capHint = 1 << 20
	}
	out := make([]byte, 0, capHint)
	r := bitReader{in: payload}
	for uint32(len(out)) < n {
		code := uint64(0)
		matched := false
		for l := 1; l <= maxLen; l++ {
			bit, ok := r.read(1)
			if !ok {
				return nil, fmt.Errorf("huffman: truncated payload at symbol %d/%d", len(out), n)
			}
			code = (code << 1) | uint64(bit)
			if count[l] > 0 && code < firstCode[l]+uint64(count[l]) && code >= firstCode[l] {
				idx := symIndex[l] + uint32(code-firstCode[l])
				out = append(out, symsByLen[idx])
				matched = true
				break
			}
		}
		if !matched {
			return nil, fmt.Errorf("huffman: invalid code at symbol %d/%d", len(out), n)
		}
	}
	return out, nil
}

// InverseBWT reconstructs the original data from a BWT string and its
// primary index using the standard LF-mapping walk.
func InverseBWT(bwt []byte, primary int) ([]byte, error) {
	n := len(bwt)
	if n == 0 {
		return nil, nil
	}
	if primary < 0 || primary >= n {
		return nil, fmt.Errorf("bwt: primary index %d out of range [0,%d)", primary, n)
	}
	// count[b]: number of bytes < b in bwt; next[i]: LF mapping.
	var count [257]int
	for _, b := range bwt {
		count[int(b)+1]++
	}
	for i := 1; i < 257; i++ {
		count[i] += count[i-1]
	}
	next := make([]int, n)
	occ := [256]int{}
	for i, b := range bwt {
		next[count[b]+occ[b]] = i
		occ[b]++
	}
	out := make([]byte, n)
	p := next[primary]
	for i := 0; i < n; i++ {
		out[i] = bwt[p]
		p = next[p]
	}
	return out, nil
}

// InverseMTF inverts MTF.
func InverseMTF(data []byte) []byte {
	var alphabet [256]byte
	for i := range alphabet {
		alphabet[i] = byte(i)
	}
	out := make([]byte, len(data))
	for i, idx := range data {
		b := alphabet[idx]
		out[i] = b
		copy(alphabet[1:int(idx)+1], alphabet[:idx])
		alphabet[0] = b
	}
	return out
}

// InverseRLE inverts RLE.
func InverseRLE(data []byte) ([]byte, error) {
	out := make([]byte, 0, len(data)*2)
	i := 0
	for i < len(data) {
		b := data[i]
		run := 1
		for i+run < len(data) && data[i+run] == b && run < 4 {
			run++
		}
		if run == 4 {
			if i+4 >= len(data) {
				return nil, fmt.Errorf("rle: run of 4 at end without count byte")
			}
			extra := int(data[i+4])
			for j := 0; j < 4+extra; j++ {
				out = append(out, b)
			}
			i += 5
			continue
		}
		for j := 0; j < run; j++ {
			out = append(out, b)
		}
		i += run
	}
	return out, nil
}

// UnBWC inverts BWC.
func UnBWC(data []byte) ([]byte, error) {
	if len(data) < 4 {
		return nil, fmt.Errorf("bwc: truncated header")
	}
	primary := int(binary.LittleEndian.Uint32(data))
	rle, err := HuffmanDecode(data[4:])
	if err != nil {
		return nil, fmt.Errorf("bwc: %w", err)
	}
	mtf, err := InverseRLE(rle)
	if err != nil {
		return nil, fmt.Errorf("bwc: %w", err)
	}
	bwt := InverseMTF(mtf)
	if len(bwt) == 0 {
		if primary != 0 {
			return nil, fmt.Errorf("bwc: empty payload with primary %d", primary)
		}
		return nil, nil
	}
	return InverseBWT(bwt, primary)
}

// UnBzip2Like decompresses a Bzip2Like container, verifying every
// block's checksum.
func UnBzip2Like(data []byte) ([]byte, error) {
	if len(data) < 4 {
		return nil, fmt.Errorf("bzip2: truncated container")
	}
	nblocks := binary.LittleEndian.Uint32(data)
	pos := 4
	var out []byte
	for i := uint32(0); i < nblocks; i++ {
		if pos+12 > len(data) {
			return nil, fmt.Errorf("bzip2: block %d header truncated", i)
		}
		plainLen := binary.LittleEndian.Uint32(data[pos:])
		crc := binary.LittleEndian.Uint32(data[pos+4:])
		compLen := binary.LittleEndian.Uint32(data[pos+8:])
		pos += 12
		if pos+int(compLen) > len(data) {
			return nil, fmt.Errorf("bzip2: block %d payload truncated", i)
		}
		block, err := UnBWC(data[pos : pos+int(compLen)])
		if err != nil {
			return nil, fmt.Errorf("bzip2: block %d: %w", i, err)
		}
		pos += int(compLen)
		if uint32(len(block)) != plainLen {
			return nil, fmt.Errorf("bzip2: block %d length %d, want %d", i, len(block), plainLen)
		}
		if CRC32(block) != crc {
			return nil, fmt.Errorf("bzip2: block %d checksum mismatch", i)
		}
		out = append(out, block...)
	}
	if pos != len(data) {
		return nil, fmt.Errorf("bzip2: %d trailing bytes", len(data)-pos)
	}
	return out, nil
}

// bitReader unpacks MSB-first variable-width codes.
type bitReader struct {
	in   []byte
	pos  int
	cur  uint64
	bits uint
}

func (r *bitReader) read(width uint) (uint32, bool) {
	for r.bits < width {
		if r.pos >= len(r.in) {
			return 0, false
		}
		r.cur = (r.cur << 8) | uint64(r.in[r.pos])
		r.pos++
		r.bits += 8
	}
	r.bits -= width
	code := uint32(r.cur>>r.bits) & ((1 << width) - 1)
	return code, true
}

// LZWDecompress decodes a stream produced by LZWCompress.
func LZWDecompress(data []byte) ([]byte, error) {
	if len(data) == 0 {
		return nil, nil
	}
	r := bitReader{in: data}
	width := uint(lzwMinBits)

	// Dictionary as (prefix code, appended byte) pairs; entries < 256
	// are literals.
	prefixes := make([]uint32, lzwFirstCode, 1<<lzwMaxBits)
	suffixes := make([]byte, lzwFirstCode, 1<<lzwMaxBits)
	reset := func() {
		prefixes = prefixes[:lzwFirstCode]
		suffixes = suffixes[:lzwFirstCode]
		width = lzwMinBits
	}

	expand := func(code uint32, buf []byte) ([]byte, error) {
		start := len(buf)
		for code >= 256 {
			if int(code) >= len(prefixes) {
				return nil, fmt.Errorf("lzw: invalid code %d", code)
			}
			buf = append(buf, suffixes[code])
			code = prefixes[code]
		}
		buf = append(buf, byte(code))
		// Reverse the appended segment (we walked leaf→root).
		for i, j := start, len(buf)-1; i < j; i, j = i+1, j-1 {
			buf[i], buf[j] = buf[j], buf[i]
		}
		return buf, nil
	}

	var out []byte
	prev, ok := r.read(width)
	if !ok {
		return nil, fmt.Errorf("lzw: truncated stream")
	}
	if prev == lzwClearCode || prev >= lzwFirstCode {
		return nil, fmt.Errorf("lzw: stream starts with non-literal code %d", prev)
	}
	out = append(out, byte(prev))

	for {
		// Mirror the encoder's widening bookkeeping: after the encoder
		// has allocated entry (len(prefixes)), its `next` counter is
		// len(prefixes)+1 relative to our state at read time.
		if uint32(len(prefixes)+1) > (1<<width)-1 && width < lzwMaxBits {
			width++
		}
		code, more := r.read(width)
		if !more {
			break
		}
		if code == lzwClearCode {
			reset()
			c, more2 := r.read(width)
			if !more2 {
				break
			}
			if c >= 256 {
				return nil, fmt.Errorf("lzw: non-literal %d after reset", c)
			}
			out = append(out, byte(c))
			prev = c
			continue
		}
		var firstByte byte
		if int(code) < len(prefixes) {
			segStart := len(out)
			var err error
			out, err = expand(code, out)
			if err != nil {
				return nil, err
			}
			firstByte = out[segStart]
		} else if int(code) == len(prefixes) {
			// The KwKwK case: the code being defined right now.
			segStart := len(out)
			var err error
			out, err = expand(prev, out)
			if err != nil {
				return nil, err
			}
			firstByte = out[segStart]
			out = append(out, firstByte)
		} else {
			return nil, fmt.Errorf("lzw: code %d ahead of dictionary (size %d)", code, len(prefixes))
		}
		prefixes = append(prefixes, prev)
		suffixes = append(suffixes, firstByte)
		if uint32(len(prefixes)) >= (1<<lzwMaxBits)-1 {
			// Encoder emitted a clear code here; it arrives next.
			continue
		}
		prev = code
	}
	return out, nil
}

// arithDecoder mirrors arithEncoder.
type arithDecoder struct {
	low, high, code uint32
	r               bitReader
}

func newArithDecoder(data []byte) *arithDecoder {
	d := &arithDecoder{low: 0, high: ^uint32(0), r: bitReader{in: data}}
	for i := 0; i < 32; i++ {
		d.code = d.code<<1 | d.readBit()
	}
	return d
}

func (d *arithDecoder) readBit() uint32 {
	b, ok := d.r.read(1)
	if !ok {
		return 0 // zero-padding past the end is part of the format
	}
	return b
}

func (d *arithDecoder) decode(p1 uint32) int {
	span := uint64(d.high) - uint64(d.low)
	split := d.low + uint32((span*uint64(p1))>>16)
	var bit int
	if d.code <= split {
		bit = 1
		d.high = split
	} else {
		d.low = split + 1
	}
	for {
		switch {
		case d.high < 1<<31:
			// nothing
		case d.low >= 1<<31:
			d.low -= 1 << 31
			d.high -= 1 << 31
			d.code -= 1 << 31
		case d.low >= 1<<30 && d.high < 3<<30:
			d.low -= 1 << 30
			d.high -= 1 << 30
			d.code -= 1 << 30
		default:
			return bit
		}
		d.low <<= 1
		d.high = d.high<<1 | 1
		d.code = d.code<<1 | d.readBit()
	}
}

// DMCDecompress inverts DMCCompress.
func DMCDecompress(data []byte) ([]byte, error) {
	if len(data) < 4 {
		return nil, fmt.Errorf("dmc: truncated header")
	}
	n := binary.LittleEndian.Uint32(data)
	// A corrupted header must not force a giant upfront allocation; the
	// slice grows on demand if the stream really is that long.
	capHint := n
	if capHint > 1<<20 {
		capHint = 1 << 20
	}
	// The encoder models a block of bits before it codes them; a
	// decoder needs each bit before the next prediction, so it steps
	// the reference's bit-at-a-time model, which predicts the same.
	model := refNewDMCModel()
	dec := newArithDecoder(data[4:])
	out := make([]byte, 0, capHint)
	for len(out) < int(n) {
		var b byte
		for i := 0; i < 8; i++ {
			bit := dec.decode(model.p1())
			model.update(bit)
			b = b<<1 | byte(bit)
		}
		out = append(out, b)
	}
	return out, nil
}

// idct8 inverts fdct8.
func idct8(block *[64]float64) {
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
				sum += c * block[v*8+cidx] * dctCos[y][v]
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
				sum += c * tmp[r*8+u] * dctCos[x][u]
			}
			block[r*8+x] = sum
		}
	}
}

// DecodeJPEGish reconstructs the image from EncodeJPEGish output.
func DecodeJPEGish(data []byte) (*Image, error) {
	if len(data) < 12 {
		return nil, fmt.Errorf("jpegish: truncated header")
	}
	w := int(binary.LittleEndian.Uint32(data[0:]))
	h := int(binary.LittleEndian.Uint32(data[4:]))
	quality := int(binary.LittleEndian.Uint32(data[8:]))
	if w <= 0 || h <= 0 || w > 1<<16 || h > 1<<16 {
		return nil, fmt.Errorf("jpegish: bad dimensions %d×%d", w, h)
	}
	syms, err := HuffmanDecode(data[12:])
	if err != nil {
		return nil, fmt.Errorf("jpegish: %w", err)
	}
	quant := scaledQuant(quality)
	im := NewImage(w, h)

	pos := 0
	getVarint := func() (int32, error) {
		v, n := binary.Varint(syms[pos:])
		if n <= 0 {
			return 0, fmt.Errorf("jpegish: bad varint at %d", pos)
		}
		pos += n
		return int32(v), nil
	}

	prevDC := int32(0)
	for by := 0; by < h; by += 8 {
		for bx := 0; bx < w; bx += 8 {
			var q [64]int32
			delta, err := getVarint()
			if err != nil {
				return nil, err
			}
			prevDC += delta
			q[0] = prevDC
			s := 1
			for {
				if pos >= len(syms) {
					return nil, fmt.Errorf("jpegish: truncated block stream")
				}
				run := syms[pos]
				pos++
				if run == 0xFF {
					break
				}
				v, err := getVarint()
				if err != nil {
					return nil, err
				}
				s += int(run)
				if v == 0 { // long-run continuation marker
					s++
					continue
				}
				if s >= 64 {
					return nil, fmt.Errorf("jpegish: AC index %d out of block", s)
				}
				q[zigzag[s]] = v
				s++
			}
			var blk [64]float64
			for i := 0; i < 64; i++ {
				blk[i] = float64(q[i] * quant[i])
			}
			idct8(&blk)
			for y := 0; y < 8; y++ {
				for x := 0; x < 8; x++ {
					if bx+x >= w || by+y >= h {
						continue
					}
					v := math.Round(blk[y*8+x] + 128)
					if v < 0 {
						v = 0
					}
					if v > 255 {
						v = 255
					}
					im.Pix[(by+y)*w+bx+x] = byte(v)
				}
			}
		}
	}
	return im, nil
}

// PSNR returns the peak signal-to-noise ratio between two same-size
// images, in dB (+Inf for identical images).
func PSNR(a, b *Image) (float64, error) {
	if a.W != b.W || a.H != b.H {
		return 0, fmt.Errorf("jpegish: size mismatch %dx%d vs %dx%d", a.W, a.H, b.W, b.H)
	}
	var mse float64
	for i := range a.Pix {
		d := float64(a.Pix[i]) - float64(b.Pix[i])
		mse += d * d
	}
	mse /= float64(len(a.Pix))
	if mse == 0 {
		return math.Inf(1), nil
	}
	return 20*math.Log10(255) - 10*math.Log10(mse), nil
}

// RandomCorpus returns n bytes of incompressible pseudo-random data.
func RandomCorpus(seed uint64, n int) []byte {
	rng := xrand.New(seed)
	out := make([]byte, n)
	for i := range out {
		out[i] = byte(rng.Uint64())
	}
	return out
}
