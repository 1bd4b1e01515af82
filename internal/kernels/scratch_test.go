package kernels

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/xrand"
)

// refSizes brackets the digests' padding boundaries (55/56, 63/64/65,
// 119/120, 127/128), the serve shapes (4 and 16 KiB) and one input long
// enough to fill the LZW dictionary and force a reset.
var refSizes = []int{0, 1, 55, 56, 63, 64, 65, 119, 120, 127, 128, 4 << 10, 16 << 10, 300_000}

func refCorpora(seed uint64, n int) map[string][]byte {
	return map[string][]byte{
		"text":       TextCorpus(seed, n),
		"structured": StructuredCorpus(seed, n),
		"random":     RandomCorpus(seed, n),
	}
}

// dirty returns a scratch that has just run every kernel over n bytes
// of noise, unlike anything the tests feed it next, so every buffer and
// table holds another run's leftovers.
func dirty(t testing.TB, n int) *Scratch {
	t.Helper()
	s := new(Scratch)
	junk := RandomCorpus(99, n)
	s.LZWCompress(junk)
	s.DMCCompress(junk[:n/4])
	s.HuffmanEncode(junk)
	if _, err := s.EncodeJPEGish(&Image{W: 64, H: n / 64, Pix: junk[:n/64*64]}, 40); err != nil {
		t.Fatal(err)
	}
	return s
}

// checkAgainstReference runs every byte kernel over data — through s
// and through the exported wrappers — and compares with the reference.
func checkAgainstReference(t *testing.T, s *Scratch, data []byte) {
	t.Helper()
	if got, want := SHA1(data), refSHA1(data); got != want {
		t.Errorf("SHA1: %x, reference %x", got, want)
	}
	if got, want := MD5(data), refMD5(data); got != want {
		t.Errorf("MD5: %x, reference %x", got, want)
	}
	for _, k := range []struct {
		name          string
		ref, wrap, on func([]byte) []byte
	}{
		{"LZWCompress", refLZWCompress, LZWCompress, s.LZWCompress},
		{"DMCCompress", refDMCCompress, DMCCompress, s.DMCCompress},
		{"HuffmanEncode", refHuffmanEncode, HuffmanEncode, s.HuffmanEncode},
	} {
		want := k.ref(data)
		if got := k.on(data); !bytes.Equal(got, want) {
			t.Errorf("Scratch.%s: %d bytes differ from the reference's %d", k.name, len(got), len(want))
		}
		if got := k.wrap(data); !bytes.Equal(got, want) {
			t.Errorf("%s: %d bytes differ from the reference's %d", k.name, len(got), len(want))
		}
	}
}

func checkImageAgainstReference(t *testing.T, s *Scratch, im *Image, quality int) {
	t.Helper()
	want, wantErr := refEncodeJPEGish(im, quality)
	got, err := s.EncodeJPEGish(im, quality)
	if (err == nil) != (wantErr == nil) || !bytes.Equal(got, want) {
		t.Errorf("Scratch.EncodeJPEGish %dx%d q%d: %d bytes, err %v; reference %d bytes, err %v",
			im.W, im.H, quality, len(got), err, len(want), wantErr)
	}
	got, err = EncodeJPEGish(im, quality)
	if (err == nil) != (wantErr == nil) || !bytes.Equal(got, want) {
		t.Errorf("EncodeJPEGish %dx%d q%d differs from the reference", im.W, im.H, quality)
	}
}

// TestKernelsMatchReference pins bytes, not round trips: every kernel's
// output over three corpora and the boundary sizes equals what the
// pre-Scratch implementation produced, on one scratch carried dirty
// from input to input.
func TestKernelsMatchReference(t *testing.T) {
	s := dirty(t, 40_000)
	for _, n := range refSizes {
		if n > 16<<10 && testing.Short() {
			continue
		}
		for name, data := range refCorpora(uint64(n)+1, n) {
			if n > 16<<10 && name != "text" {
				// DMC costs ≈1 µs a bit; one long input is enough to
				// force the LZW reset and regrow every buffer.
				data = data[:32<<10]
			}
			checkAgainstReference(t, s, data)
		}
	}
	// A large input followed by small ones is the order that exposes a
	// buffer or table not reset.
	for _, n := range []int{128, 1, 0, 4 << 10} {
		checkAgainstReference(t, s, TextCorpus(7, n))
	}
}

// TestDMCAtStateCapMatchesReference: TestKernelsMatchReference trims
// DMC inputs to 32 KiB, far below the model's state cap. A MiB of text
// or of random bytes fills the slab to the cap, so every clone past it
// is refused, and the bytes must still be the reference's.
func TestDMCAtStateCapMatchesReference(t *testing.T) {
	if testing.Short() {
		t.Skip("compresses 2 MiB with DMC, twice")
	}
	s := dirty(t, 40_000)
	for name, data := range map[string][]byte{"text": TextCorpus(1, 1<<20), "random": RandomCorpus(1, 1<<20)} {
		got := s.DMCCompress(data)
		if len(s.dmc) != dmcMaxStates {
			t.Errorf("%s: the model ended with %d states, not at its cap of %d: the test no longer reaches it", name, len(s.dmc), dmcMaxStates)
		}
		if want := refDMCCompress(data); !bytes.Equal(got, want) {
			t.Errorf("%s: %d bytes differ from the reference's %d", name, len(got), len(want))
		}
	}
}

func TestJPEGishMatchesReference(t *testing.T) {
	s := dirty(t, 40_000)
	for _, d := range [][2]int{{16, 16}, {17, 23}, {64, 64}, {100, 60}, {8, 200}, {199, 13}, {200, 200}, {1, 1}} {
		for _, q := range []int{75, 20, 95} {
			seed := uint64(d[0]*1000 + d[1])
			checkImageAgainstReference(t, s, refGradientImage(seed, d[0], d[1]), q)
			checkImageAgainstReference(t, s, testImage(d[0], d[1]), q)
		}
	}
	checkImageAgainstReference(t, s, &Image{W: 3, H: 3, Pix: make([]byte, 8)}, 75) // invalid: both refuse
}

func TestGradientImageIntoMatchesReference(t *testing.T) {
	for _, d := range [][2]int{{16, 16}, {64, 64}, {48, 32}, {1, 5}, {512, 3}} {
		want := refGradientImage(11, d[0], d[1])
		if got := GradientImage(11, d[0], d[1]); got.W != want.W || got.H != want.H || !bytes.Equal(got.Pix, want.Pix) {
			t.Errorf("GradientImage %dx%d differs from the reference", d[0], d[1])
		}
		pix := bytes.Repeat([]byte{0xAA}, d[0]*d[1])
		GradientImageInto(pix, 11, d[0], d[1])
		if !bytes.Equal(pix, want.Pix) {
			t.Errorf("GradientImageInto %dx%d differs from the reference", d[0], d[1])
		}
	}
}

// TestDCTMatchesReference pins the transforms bit for bit against the
// ones that evaluated the cosine per multiply, over three input ranges:
// level-shifted pixels (what the encoder feeds fdct8), floats across
// many binades, and int32-range values (what the decoder's dequantized
// coefficients can reach).
func TestDCTMatchesReference(t *testing.T) {
	rng := xrand.New(29)
	inputs := []struct {
		name string
		gen  func() float64
	}{
		{"pixels", func() float64 { return float64(byte(rng.Uint64())) - 128 }},
		{"wide", func() float64 {
			v := math.Ldexp(float64(rng.Uint64()>>11)/(1<<53), rng.Intn(121)-60)
			if rng.Uint64()&1 == 1 {
				v = -v
			}
			return v
		}},
		{"int32", func() float64 { return float64(int32(rng.Uint64())) }},
	}
	const blocksPerInput = 35_000
	for _, in := range inputs {
		bad := 0
		for n := 0; n < blocksPerInput; n++ {
			var blk [64]float64
			for i := range blk {
				blk[i] = in.gen()
			}
			for _, tr := range []struct {
				name      string
				live, ref func(*[64]float64)
			}{{"fdct8", fdct8, refFdct8}, {"idct8", idct8, refIdct8}} {
				got, want := blk, blk
				tr.live(&got)
				tr.ref(&want)
				for i := range got {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						if bad++; bad <= 3 {
							t.Errorf("%s %s block %d coefficient %d: %v, reference %v", tr.name, in.name, n, i, got[i], want[i])
						}
						break
					}
				}
			}
		}
		if bad > 3 {
			t.Errorf("%s: %d transforms differ in all", in.name, bad)
		}
	}
}

// TestTextCorpusMatchesReference: the 16-byte stores write the bytes
// copying word by word did, at every length across the store/tail
// boundary, and nothing past dst — which starts as 0xAA, so a byte the
// fill misses shows.
func TestTextCorpusMatchesReference(t *testing.T) {
	lengths := []int{16 << 10, 64 << 10, 64<<10 + 7}
	for n := 0; n <= 4096; n++ {
		lengths = append(lengths, n)
	}
	const guard = 32 // bytes past dst that must stay 0xAA
	buf := make([]byte, 64<<10+7+guard)
	want := make([]byte, len(buf))
	for _, n := range lengths {
		for seed := uint64(1); seed <= 5; seed++ {
			for i := range buf[:n+guard] {
				buf[i] = 0xAA
			}
			TextCorpusInto(buf[:n], seed)
			refTextCorpusInto(want[:n], seed)
			if !bytes.Equal(buf[:n], want[:n]) {
				t.Fatalf("TextCorpusInto len %d seed %d differs from the reference", n, seed)
			}
			for i := n; i < n+guard; i++ {
				if buf[i] != 0xAA {
					t.Fatalf("TextCorpusInto len %d seed %d wrote byte %d, past dst", n, seed, i)
				}
			}
		}
	}
}

// FuzzScratchKernels feeds fuzzer-chosen bytes (the first 4 KiB of
// them: DMC costs a microsecond a bit) through a dirty scratch — one
// that last ran a different, larger input of every kernel — and requires
// the reference's bytes. The image is the same bytes read as rows of a
// fuzzer-chosen width.
func FuzzScratchKernels(f *testing.F) {
	f.Add([]byte{}, uint8(1))
	f.Add([]byte("a"), uint8(8))
	f.Add(TextCorpus(3, 700), uint8(17))
	f.Add(StructuredCorpus(4, 4096), uint8(64))
	f.Add(RandomCorpus(5, 333), uint8(9))
	f.Add(bytes.Repeat([]byte{0}, 5000), uint8(200))
	f.Fuzz(func(t *testing.T, data []byte, width uint8) {
		if len(data) > 4<<10 {
			data = data[:4<<10]
		}
		s := dirty(t, 8<<10)
		checkAgainstReference(t, s, data)
		if w := int(width); w > 0 && len(data) >= w {
			h := len(data) / w
			checkImageAgainstReference(t, s, &Image{W: w, H: h, Pix: data[:w*h]}, 75)
		}
	})
}

// TestKernelAllocBudgets pins what a call allocates: nothing on a warm
// scratch (and nothing in the digests at all), one copy-out in each
// exported wrapper. The budgets can only fall.
func TestKernelAllocBudgets(t *testing.T) {
	text, structured := TextCorpus(1, 4<<10), StructuredCorpus(1, 4<<10)
	im := GradientImage(1, 64, 64)
	s := new(Scratch)
	fill := make([]byte, 4<<10)
	for _, c := range []struct {
		name   string
		budget float64
		fn     func()
	}{
		{"TextCorpusInto", 0, func() { TextCorpusInto(fill, 1); KeepAlive(fill) }},
		{"SHA1", 0, func() { d := SHA1(text); KeepAlive(d[:]) }},
		{"MD5", 0, func() { d := MD5(text); KeepAlive(d[:]) }},
		{"Scratch.LZWCompress", 0, func() { KeepAlive(s.LZWCompress(text)) }},
		{"Scratch.DMCCompress", 0, func() { KeepAlive(s.DMCCompress(structured)) }},
		{"Scratch.HuffmanEncode", 0, func() { KeepAlive(s.HuffmanEncode(text)) }},
		{"Scratch.EncodeJPEGish", 0, func() { b, _ := s.EncodeJPEGish(im, 75); KeepAlive(b) }},
		{"LZWCompress", 1, func() { KeepAlive(LZWCompress(text)) }},
		{"DMCCompress", 1, func() { KeepAlive(DMCCompress(structured)) }},
		{"HuffmanEncode", 1, func() { KeepAlive(HuffmanEncode(text)) }},
		{"EncodeJPEGish", 1, func() { b, _ := EncodeJPEGish(im, 75); KeepAlive(b) }},
	} {
		if raceEnabled && c.budget > 0 {
			continue // a pooled wrapper
		}
		c.fn() // warm: grow the buffers, fill the pool
		if got := testing.AllocsPerRun(20, c.fn); got > c.budget {
			t.Errorf("%s: %.1f allocs per call, budget %.0f", c.name, got, c.budget)
		}
	}
}

// TestPutScratchBoundsWhatThePoolPins: a 1 MiB dmc grows the state slab
// to its 16 MiB ceiling; that scratch must be dropped, not pooled, so
// the 4 KiB job after it — and every later one — runs on a small one.
func TestPutScratchBoundsWhatThePoolPins(t *testing.T) {
	if testing.Short() {
		t.Skip("compresses 1 MiB with DMC")
	}
	big := new(Scratch)
	big.DMCCompress(StructuredCorpus(1, 1<<20))
	if big.retained() <= maxPooledScratch {
		t.Fatalf("a 1 MiB dmc retained only %d bytes: the test no longer exercises the bound", big.retained())
	}
	PutScratch(big)
	DMCCompress(StructuredCorpus(1, 4<<10))
	// Whatever the pool now hands out — it may be holding several — is
	// under the bound.
	var held []*Scratch
	for i := 0; i < 16; i++ {
		s := GetScratch()
		if s == big || s.retained() > maxPooledScratch {
			t.Fatalf("pool handed out a scratch retaining %d bytes (bound %d)", s.retained(), maxPooledScratch)
		}
		held = append(held, s)
	}
	for _, s := range held {
		PutScratch(s)
	}
	small := new(Scratch)
	small.DMCCompress(StructuredCorpus(1, 4<<10))
	if small.retained() > maxPooledScratch {
		t.Errorf("dmc over 4 KiB retains %d bytes, over the pooling bound %d: the benchmark's shapes would never be pooled", small.retained(), maxPooledScratch)
	}
}
