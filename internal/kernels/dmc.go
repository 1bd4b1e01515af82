package kernels

import "encoding/binary"

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

// encode narrows the interval for one bit. p1 is P(bit=1) in 1/65536
// units, clamped to (0, 1).
func (e *arithEncoder) encode(bit int, p1 uint32) {
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

func (e *arithEncoder) emit(bit uint32) {
	e.w.write(bit, 1)
	for ; e.pending > 0; e.pending-- {
		e.w.write(bit^1, 1)
	}
}

// finish flushes the interval: two disambiguating bits plus padding.
func (e *arithEncoder) finish() []byte {
	e.pending++
	if e.low >= 1<<30 {
		e.emit(1)
	} else {
		e.emit(0)
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
	// cloning thresholds (Cormack & Horspool's C1/C2).
	bigThresh   float32
	smallThresh float32
	maxStates   int
}

// newDMCModel builds the initial machine in slab's memory (nil is
// fine), which the model then grows by appending clones.
func newDMCModel(slab []dmcState) dmcModel {
	m := dmcModel{bigThresh: 2, smallThresh: 2, maxStates: 1 << 20}
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

// p1 returns P(next bit = 1) in 1/65536 units, clamped away from 0 and
// 65536 so the coder interval never collapses.
func (m *dmcModel) p1() uint32 {
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
func (m *dmcModel) update(bit int) {
	s := &m.states[m.cur]
	target := s.next[bit]
	t := &m.states[target]
	edgeCount := s.count[bit]
	targetTotal := t.count[0] + t.count[1]

	if edgeCount > m.bigThresh && targetTotal-edgeCount > m.smallThresh && len(m.states) < m.maxStates {
		// Clone: the new state inherits the target's transitions and a
		// share of its counts proportional to the edge usage.
		frac := edgeCount / targetTotal
		clone := dmcState{
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

// DMCCompress encodes data with dynamic Markov coding.
// Format: [4 bytes LE length][arithmetic-coded bits].
func (s *Scratch) DMCCompress(data []byte) []byte {
	model := newDMCModel(s.dmc)
	enc := newArithEncoder(binary.LittleEndian.AppendUint32(s.out[:0], uint32(len(data))))
	for _, b := range data {
		for i := 7; i >= 0; i-- {
			bit := int(b>>uint(i)) & 1
			enc.encode(bit, model.p1())
			model.update(bit)
		}
	}
	s.dmc = model.states
	s.out = enc.finish()
	return s.out
}
