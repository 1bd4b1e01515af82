package kernels

import "fmt"

// LZW implements Lempel-Ziv-Welch compression with variable-width
// codes (9 → lzwMaxBits bits, MSB-first), dictionary reset on
// overflow. The format is self-contained: LZWDecompress inverts
// LZWCompress exactly.

const (
	lzwMinBits   = 9
	lzwMaxBits   = 14
	lzwClearCode = 256 // emitted before a dictionary reset
	lzwFirstCode = 257
)

// bitWriter packs MSB-first variable-width codes.
type bitWriter struct {
	out  []byte
	cur  uint64
	bits uint
}

func (w *bitWriter) write(code uint32, width uint) {
	w.cur = (w.cur << width) | uint64(code)
	w.bits += width
	for w.bits >= 8 {
		w.bits -= 8
		w.out = append(w.out, byte(w.cur>>w.bits))
	}
}

func (w *bitWriter) flush() {
	if w.bits > 0 {
		w.out = append(w.out, byte(w.cur<<(8-w.bits)))
		w.bits = 0
	}
	w.cur = 0
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

// lzwTable is the encoder's dictionary: an open-addressed
// (prefix code, byte) → code table with linear probing. A dictionary
// epoch holds fewer than 1<<lzwMaxBits entries, so the table is never
// more than half full. reset clears only the slots filled since the
// last reset — a 4 KiB input touches about a thousand of the 32 Ki.
type lzwTable struct {
	keys   [lzwSlots]uint32 // prefix<<8 | byte, plus one; 0 = empty
	codes  [lzwSlots]uint16
	filled [1 << lzwMaxBits]uint16 // the slots in use, in insertion order
	n      int
}

const (
	lzwSlotBits = lzwMaxBits + 1
	lzwSlots    = 1 << lzwSlotBits
)

func (t *lzwTable) reset() {
	for _, slot := range t.filled[:t.n] {
		t.keys[slot] = 0
	}
	t.n = 0
}

// slot returns where key is, or where it would be inserted (an empty
// slot).
func (t *lzwTable) slot(key uint32) uint32 {
	h := (key * 2654435761) >> (32 - lzwSlotBits)
	for t.keys[h] != 0 && t.keys[h] != key {
		h = (h + 1) & (lzwSlots - 1)
	}
	return h
}

// LZWCompress encodes data. Empty input yields an empty output.
func (s *Scratch) LZWCompress(data []byte) []byte {
	if len(data) == 0 {
		return nil
	}
	if s.lzw == nil {
		s.lzw = new(lzwTable)
	}
	dict := s.lzw
	dict.reset()
	next := uint32(lzwFirstCode)
	width := uint(lzwMinBits)

	w := bitWriter{out: s.out[:0]}
	cur := uint32(data[0])
	for _, b := range data[1:] {
		key := (cur<<8 | uint32(b)) + 1
		slot := dict.slot(key)
		if dict.keys[slot] == key {
			cur = uint32(dict.codes[slot])
			continue
		}
		w.write(cur, width)
		dict.keys[slot], dict.codes[slot] = key, uint16(next)
		dict.filled[dict.n] = uint16(slot)
		dict.n++
		next++
		// Widen when the next code would not fit.
		if next > (1<<width)-1 && width < lzwMaxBits {
			width++
		}
		if next >= (1<<lzwMaxBits)-1 {
			// Dictionary full: signal a reset.
			w.write(lzwClearCode, width)
			dict.reset()
			next = lzwFirstCode
			width = lzwMinBits
		}
		cur = uint32(b)
	}
	w.write(cur, width)
	w.flush()
	s.out = w.out
	return w.out
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
