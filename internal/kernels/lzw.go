package kernels

// LZW implements Lempel-Ziv-Welch compression with variable-width
// codes (9 → lzwMaxBits bits, MSB-first), dictionary reset on
// overflow. The format is self-contained: the tests' LZWDecompress
// (decode_test.go) inverts LZWCompress exactly.

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
