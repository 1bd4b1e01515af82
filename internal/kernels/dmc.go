package kernels

import (
	"encoding/binary"
	"math/bits"
	"slices"
)

// Dynamic Markov Coding (Cormack & Horspool, 1987): a bit-level
// adaptive model — a finite-state machine whose states hold 0/1
// transition counts and which *clones* heavily-used states to grow
// context — driving a binary arithmetic coder. This is the paper's DMC
// benchmark kernel, implemented from the original description.

// --- binary arithmetic coder -------------------------------------------

// arithEncoder is a classic 32-bit binary arithmetic encoder with
// underflow (E3) handling.
type arithEncoder struct {
	low, high uint32
	pending   int
	w         bitWriter
}

// newArithEncoder returns an encoder that appends its bits to out.
func newArithEncoder(out []byte) arithEncoder {
	return arithEncoder{high: ^uint32(0), w: bitWriter{out: out}}
}

// encodeBlock codes the bits of blk, most significant first, bit i
// with P(bit=1) = p1[i] in 1/65536 units, clamped to (0, 1).
//
// Each bit narrows the interval to its side of the split — bit 1 takes
// [low, split], bit 0 (split, high] — selected by mask arithmetic, not
// a branch. Renormalisation then shifts out, in one step, the run of
// leading bits low and high share (E1/E2: emitted, the first one
// followed by the pending underflow bits), and after it the run of
// underflow steps (E3: low = 01…, high = 10…, deferred as pending). An
// E3 step leaves low's top bit 0 and high's 1, so no E1/E2 step can
// follow it, and the two runs in that order are exactly the steps of
// renormalising one bit at a time.
func (e *arithEncoder) encodeBlock(blk []byte, p1 *[dmcBlockBits]uint16) {
	low, high := e.low, e.high
	for i, b := range blk {
		for _, p := range (*[8]uint16)(p1[i*8:]) {
			bit := uint32(b >> 7)
			b <<= 1
			split := low + uint32((uint64(high-low)*uint64(p))>>16)
			one := -bit // all ones when bit is 1
			high ^= (high ^ split) & one
			low ^= (low ^ (split + 1)) &^ one

			if low^high < 1<<31 {
				n := uint(bits.LeadingZeros32(low ^ high))
				e.emit(low>>(32-n), n)
				low <<= n
				high = high<<n | (1<<n - 1)
			}
			// Bit 30 is 1 in low and 0 in high for every E3 step.
			if under := (low &^ high) << 1; under >= 1<<31 {
				n := uint(bits.LeadingZeros32(^under))
				e.pending += int(n)
				low = (low << n) &^ (1 << 31)
				high = high<<n | 1<<31 | (1<<n - 1)
			}
		}
	}
	e.low, e.high = low, high
}

// emit writes the low n (≥ 1) bits of run, most significant first,
// and right after the first of them the pending underflow bits, each
// that first bit's opposite.
func (e *arithEncoder) emit(run uint32, n uint) {
	if e.pending > 0 {
		top := run >> (n - 1)
		e.w.write(top, 1)
		e.w.writeRun(top^1, e.pending)
		e.pending = 0
		n--
		run &= 1<<n - 1
	}
	e.w.write(run, n)
}

// writeRun writes n copies of bit.
func (w *bitWriter) writeRun(bit uint32, n int) {
	word := -bit
	for ; n > 32; n -= 32 {
		w.write(word, 32)
	}
	w.write(word>>(32-uint(n)), uint(n))
}

// finish flushes the interval: two disambiguating bits plus padding.
func (e *arithEncoder) finish() []byte {
	e.pending++
	if e.low >= 1<<30 {
		e.emit(1, 1)
	} else {
		e.emit(0, 1)
	}
	e.w.flush()
	return e.w.out
}

// --- DMC model ----------------------------------------------------------

type dmcState struct {
	next  [2]int32
	count [2]float32
}

// dmcModel is the cloning finite-state machine. The initial machine is
// the standard byte-structured braid: 255 tree nodes per 256 chains is
// overkill for this corpus, so we use the common compact variant — a
// complete binary tree of depth 8 whose leaves feed back to the root.
type dmcModel struct {
	states []dmcState
	cur    int32
}

const (
	// The cloning thresholds (Cormack & Horspool's C1/C2): a target
	// is cloned when the edge into it has been taken more than
	// dmcBigThresh times and its other visitors more than
	// dmcSmallThresh times, until the machine has dmcMaxStates states.
	dmcBigThresh   = 2
	dmcSmallThresh = 2
	dmcMaxStates   = 1 << 20
)

// newDMCModel builds the initial machine in slab's memory (nil is
// fine), which the model then grows as it clones.
func newDMCModel(slab []dmcState) dmcModel {
	var m dmcModel
	// Depth-8 binary tree: node i has children 2i+1, 2i+2; leaves wrap
	// to the root, giving an order-1 (within byte) initial machine.
	const depth = 8
	n := (1 << depth) - 1
	m.states = slab[:0]
	for i := 0; i < n; i++ {
		l, r := int32(2*i+1), int32(2*i+2)
		if int(l) >= n {
			l = 0
		}
		if int(r) >= n {
			r = 0
		}
		m.states = append(m.states, dmcState{next: [2]int32{l, r}, count: [2]float32{0.2, 0.2}})
	}
	return m
}

// predict runs the machine over the bits of blk. For each bit it
// writes P(bit=1) to p1, in 1/65536 units clamped away from 0 and 65536
// so the coder interval never collapses, then advances over the bit,
// cloning the target state when both the traversed edge and the target
// are heavy. The path depends on the input alone, never on the coder,
// so the coder runs over the block afterwards.
//
// A bit clones at most one state, so the slab grows once per byte, by
// the eight a byte can add, and a clone goes into that spare room.
func (m *dmcModel) predict(blk []byte, p1 *[dmcBlockBits]uint16) {
	states, cur := m.states, m.cur
	n := int32(len(states))
	for i, b := range blk {
		if room := min(8, dmcMaxStates-int(n)); cap(states)-int(n) < room {
			states = slices.Grow(states[:n], room)
		}
		states = states[:cap(states)]
		p := (*[8]uint16)(p1[i*8:])
		for j := range p {
			bit := b >> 7
			b <<= 1
			s := &states[cur]
			v := uint32(float64(s.count[1]) / float64(s.count[0]+s.count[1]) * 65536)
			p[j] = uint16(min(max(v, 1), 65535))

			target := s.next[bit]
			t := &states[target]
			edgeCount := s.count[bit]
			targetTotal := t.count[0] + t.count[1]
			if edgeCount > dmcBigThresh && targetTotal-edgeCount > dmcSmallThresh && n < dmcMaxStates {
				// Clone: the new state inherits the target's
				// transitions and a share of its counts proportional
				// to the edge usage.
				frac := edgeCount / targetTotal
				c0, c1 := t.count[0]*frac, t.count[1]*frac
				clone := &states[n]
				clone.next, clone.count[0], clone.count[1] = t.next, c0, c1
				t.count[0] -= c0
				t.count[1] -= c1
				target = n
				n++
				s.next[bit] = target
			}
			s.count[bit] += 1
			cur = target
		}
	}
	m.states, m.cur = states[:n], cur
}

// dmcBlockBits is how many bits DMCCompress models before it codes
// them: 256 input bytes.
const dmcBlockBits = 256 * 8

// DMCCompress encodes data with dynamic Markov coding.
// Format: [4 bytes LE length][arithmetic-coded bits].
func (s *Scratch) DMCCompress(data []byte) []byte {
	model := newDMCModel(s.dmc)
	enc := newArithEncoder(binary.LittleEndian.AppendUint32(s.out[:0], uint32(len(data))))
	for len(data) > 0 {
		blk := data[:min(len(data), dmcBlockBits/8)]
		data = data[len(blk):]
		model.predict(blk, &s.p1)
		enc.encodeBlock(blk, &s.p1)
	}
	s.dmc = model.states
	s.out = enc.finish()
	return s.out
}
