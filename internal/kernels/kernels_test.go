package kernels

import (
	"bytes"
	"crypto/md5"
	"crypto/sha1"
	"encoding/hex"
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

// --- digest vectors ------------------------------------------------------

func TestMD5Vectors(t *testing.T) {
	// RFC 1321 appendix A.5 test suite.
	vectors := map[string]string{
		"":                           "d41d8cd98f00b204e9800998ecf8427e",
		"a":                          "0cc175b9c0f1b6a831c399e269772661",
		"abc":                        "900150983cd24fb0d6963f7d28e17f72",
		"message digest":             "f96b697d7cb7938d525a2f31aaf161d0",
		"abcdefghijklmnopqrstuvwxyz": "c3fcd3d76192e4007dfb496cca67e13b",
		"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789":                   "d174ab98d277d9f5a5611c2c9f419d9f",
		"12345678901234567890123456789012345678901234567890123456789012345678901234567890": "57edf4a22be3c955ac49da2e2107b67a",
	}
	for msg, want := range vectors {
		got := MD5([]byte(msg))
		if hex.EncodeToString(got[:]) != want {
			t.Errorf("MD5(%q) = %x, want %s", msg, got, want)
		}
	}
}

func TestSHA1Vectors(t *testing.T) {
	// RFC 3174 / FIPS 180-1 test vectors.
	vectors := map[string]string{
		"":    "da39a3ee5e6b4b0d3255bfef95601890afd80709",
		"abc": "a9993e364706816aba3e25717850c26c9cd0d89d",
		"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq": "84983e441c3bd26ebaae4aa1f95129e5e54670f1",
		"The quick brown fox jumps over the lazy dog":              "2fd4e1c67a2d28fced849ee1bb76e7391b93eb12",
	}
	for msg, want := range vectors {
		got := SHA1([]byte(msg))
		if hex.EncodeToString(got[:]) != want {
			t.Errorf("SHA1(%q) = %x, want %s", msg, got, want)
		}
	}
}

func TestSHA1MillionA(t *testing.T) {
	if testing.Short() {
		t.Skip("million-a vector in -short mode")
	}
	msg := bytes.Repeat([]byte("a"), 1000000)
	got := SHA1(msg)
	want := "34aa973cd4c4daa4f61eeb2bdbad27316534016f"
	if hex.EncodeToString(got[:]) != want {
		t.Errorf("SHA1(1M×'a') = %x, want %s", got, want)
	}
}

func TestMD5BlockBoundaries(t *testing.T) {
	// Lengths around the 64-byte block and 56-byte padding boundary are
	// the classic off-by-one sites.
	for _, n := range []int{54, 55, 56, 57, 63, 64, 65, 119, 120, 128} {
		msg := bytes.Repeat([]byte{0xA5}, n)
		got := MD5(msg)
		// Self-consistency: a second evaluation must match, and
		// changing one byte must change the digest.
		if got != MD5(msg) {
			t.Errorf("len %d: nondeterministic digest", n)
		}
		msg[0] ^= 1
		if got == MD5(msg) {
			t.Errorf("len %d: digest ignores first byte", n)
		}
	}
}

// TestDigestsMatchStdlib holds both hand-written digests to the
// standard library's at every length up to 16 blocks, so every padding
// shape (one tail block or two) is met at every block count, over
// compressible text and over random bytes.
func TestDigestsMatchStdlib(t *testing.T) {
	for name, data := range map[string][]byte{
		"text":   TextCorpus(11, 1024),
		"random": RandomCorpus(12, 1024),
	} {
		for n := 0; n <= len(data); n++ {
			if !checkDigests(t, fmt.Sprintf("%s[:%d]", name, n), data[:n]) {
				break // the shortest failing length says enough
			}
		}
	}
}

// FuzzDigests compares both digests with the standard library's on
// fuzzer-chosen bytes, up to 64 KiB of them (FuzzScratchKernels stops at
// 4 KiB and compares with the in-package reference only).
func FuzzDigests(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("abc"))
	f.Add(bytes.Repeat([]byte{0xFF}, 55))
	f.Add(bytes.Repeat([]byte{0x80}, 64))
	f.Add(RandomCorpus(13, 119))
	f.Add(TextCorpus(14, 16<<10))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 64<<10 {
			data = data[:64<<10]
		}
		checkDigests(t, fmt.Sprintf("%d bytes", len(data)), data)
	})
}

// checkDigests reports whether SHA1 and MD5 of data equal the standard
// library's, failing t for each that does not.
func checkDigests(t *testing.T, name string, data []byte) bool {
	t.Helper()
	ok := true
	if got, want := SHA1(data), sha1.Sum(data); got != want {
		t.Errorf("SHA1(%s) = %x, crypto/sha1 %x", name, got, want)
		ok = false
	}
	if got, want := MD5(data), md5.Sum(data); got != want {
		t.Errorf("MD5(%s) = %x, crypto/md5 %x", name, got, want)
		ok = false
	}
	return ok
}

// --- corpora --------------------------------------------------------------

// corpus returns a mix of compressible and incompressible test inputs.
func corpus() map[string][]byte {
	rng := xrand.New(2024)
	random := make([]byte, 8192)
	for i := range random {
		random[i] = byte(rng.Uint64())
	}
	text := bytes.Repeat([]byte("the quick brown fox jumps over the lazy dog. "), 200)
	runs := bytes.Repeat([]byte{0, 0, 0, 0, 0, 0, 7, 7, 7, 1}, 500)
	structured := make([]byte, 4096)
	for i := range structured {
		structured[i] = byte(i % 17 * 13)
	}
	return map[string][]byte{
		"empty":      {},
		"single":     {42},
		"pair":       {1, 2},
		"text":       text,
		"random":     random,
		"runs":       runs,
		"structured": structured,
		"allsame":    bytes.Repeat([]byte{9}, 2000),
	}
}

// --- LZW -------------------------------------------------------------------

func TestLZWRoundTrip(t *testing.T) {
	for name, data := range corpus() {
		t.Run(name, func(t *testing.T) {
			comp := LZWCompress(data)
			got, err := LZWDecompress(comp)
			if err != nil {
				t.Fatalf("decompress: %v", err)
			}
			if !bytes.Equal(got, data) {
				t.Fatalf("round-trip mismatch: %d bytes in, %d out", len(data), len(got))
			}
		})
	}
}

func TestLZWCompressesText(t *testing.T) {
	text := bytes.Repeat([]byte("abcabcabcabc"), 1000)
	comp := LZWCompress(text)
	if len(comp) >= len(text)/2 {
		t.Errorf("LZW on repetitive text: %d -> %d bytes, expected >2x compression", len(text), len(comp))
	}
}

func TestLZWDictionaryReset(t *testing.T) {
	// Enough distinct digrams to overflow a 14-bit dictionary.
	rng := xrand.New(7)
	data := make([]byte, 200000)
	for i := range data {
		data[i] = byte(rng.Uint64())
	}
	comp := LZWCompress(data)
	got, err := LZWDecompress(comp)
	if err != nil {
		t.Fatalf("decompress after reset: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("round-trip through dictionary reset failed")
	}
}

func TestLZWRoundTripProperty(t *testing.T) {
	f := func(data []byte) bool {
		got, err := LZWDecompress(LZWCompress(data))
		return err == nil && bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestLZWRejectsGarbage(t *testing.T) {
	if _, err := LZWDecompress([]byte{0xFF, 0xFF, 0xFF, 0xFF}); err == nil {
		t.Error("garbage stream should error (starts with non-literal)")
	}
}

// --- Huffman ----------------------------------------------------------------

func TestHuffmanRoundTrip(t *testing.T) {
	for name, data := range corpus() {
		t.Run(name, func(t *testing.T) {
			comp := HuffmanEncode(data)
			got, err := HuffmanDecode(comp)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			if !bytes.Equal(got, data) {
				t.Fatalf("round-trip mismatch (%d in, %d out)", len(data), len(got))
			}
		})
	}
}

func TestHuffmanSkewedHistogram(t *testing.T) {
	// Heavily skewed frequencies produce long codes.
	var data []byte
	for s := 0; s < 16; s++ {
		data = append(data, bytes.Repeat([]byte{byte(s)}, 1<<s)...)
	}
	got, err := HuffmanDecode(HuffmanEncode(data))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("skewed round-trip failed")
	}
}

func TestHuffmanCompressesBiasedData(t *testing.T) {
	data := bytes.Repeat([]byte{'a', 'a', 'a', 'b'}, 4096)
	comp := HuffmanEncode(data)
	if len(comp) >= len(data)/2 {
		t.Errorf("biased data %d -> %d bytes, expected >2x compression", len(data), len(comp))
	}
}

func TestHuffmanTruncatedErrors(t *testing.T) {
	comp := HuffmanEncode([]byte("hello world hello world"))
	if _, err := HuffmanDecode(comp[:len(comp)-1]); err == nil {
		t.Error("truncated payload should error")
	}
	if _, err := HuffmanDecode(comp[:100]); err == nil {
		t.Error("truncated header should error")
	}
}

func TestHuffmanRoundTripProperty(t *testing.T) {
	f := func(data []byte) bool {
		got, err := HuffmanDecode(HuffmanEncode(data))
		return err == nil && bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// --- BWT / MTF / RLE ---------------------------------------------------------

func TestBWTKnownVector(t *testing.T) {
	// Classic example: "banana" rotations sorted give BWT "nnbaaa"
	// with primary index 3.
	bwt, primary := BWT([]byte("banana"))
	if string(bwt) != "nnbaaa" {
		t.Errorf("BWT(banana) = %q, want nnbaaa", bwt)
	}
	if primary != 3 {
		t.Errorf("primary = %d, want 3", primary)
	}
}

func TestBWTRoundTrip(t *testing.T) {
	for name, data := range corpus() {
		t.Run(name, func(t *testing.T) {
			bwt, primary := BWT(data)
			got, err := InverseBWT(bwt, primary)
			if err != nil {
				t.Fatalf("inverse: %v", err)
			}
			if !bytes.Equal(got, data) {
				t.Fatal("BWT round-trip failed")
			}
		})
	}
}

func TestBWTPeriodicInput(t *testing.T) {
	// Periodic strings have equal rotations — the tie-handling case.
	data := bytes.Repeat([]byte("ab"), 64)
	bwt, primary := BWT(data)
	got, err := InverseBWT(bwt, primary)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("periodic BWT round-trip failed")
	}
}

func TestInverseBWTBadPrimary(t *testing.T) {
	if _, err := InverseBWT([]byte("abc"), 5); err == nil {
		t.Error("out-of-range primary should error")
	}
}

func TestMTFRoundTrip(t *testing.T) {
	for name, data := range corpus() {
		t.Run(name, func(t *testing.T) {
			if got := InverseMTF(MTF(data)); !bytes.Equal(got, data) {
				t.Fatal("MTF round-trip failed")
			}
		})
	}
}

func TestMTFFrontLoading(t *testing.T) {
	// After BWT, repeated characters should yield many zeros.
	out := MTF([]byte("aaaabbbbaaaa"))
	zeros := 0
	for _, v := range out {
		if v == 0 {
			zeros++
		}
	}
	if zeros < 8 {
		t.Errorf("MTF produced %d zeros of 12, want ≥ 8", zeros)
	}
}

func TestRLERoundTrip(t *testing.T) {
	for name, data := range corpus() {
		t.Run(name, func(t *testing.T) {
			got, err := InverseRLE(RLE(data))
			if err != nil {
				t.Fatalf("inverse: %v", err)
			}
			if !bytes.Equal(got, data) {
				t.Fatal("RLE round-trip failed")
			}
		})
	}
}

func TestRLELongRuns(t *testing.T) {
	for _, n := range []int{4, 5, 258, 259, 260, 1000} {
		data := bytes.Repeat([]byte{7}, n)
		got, err := InverseRLE(RLE(data))
		if err != nil || !bytes.Equal(got, data) {
			t.Errorf("run of %d failed (err=%v)", n, err)
		}
	}
}

func TestRLETruncatedErrors(t *testing.T) {
	if _, err := InverseRLE([]byte{5, 5, 5, 5}); err == nil {
		t.Error("run of 4 without count byte should error")
	}
}

func TestBWTMTFRLEProperty(t *testing.T) {
	f := func(data []byte) bool {
		bwt, primary := BWT(data)
		rt, err := InverseBWT(bwt, primary)
		if err != nil || !bytes.Equal(rt, data) {
			return false
		}
		rle, err := InverseRLE(RLE(data))
		if err != nil || !bytes.Equal(rle, data) {
			return false
		}
		return bytes.Equal(InverseMTF(MTF(data)), data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// --- BWC and Bzip2-like -------------------------------------------------------

func TestBWCRoundTrip(t *testing.T) {
	for name, data := range corpus() {
		t.Run(name, func(t *testing.T) {
			got, err := UnBWC(BWC(data))
			if err != nil {
				t.Fatalf("UnBWC: %v", err)
			}
			if !bytes.Equal(got, data) {
				t.Fatal("BWC round-trip failed")
			}
		})
	}
}

func TestBWCCompressesText(t *testing.T) {
	text := bytes.Repeat([]byte("the quick brown fox jumps over the lazy dog. "), 100)
	comp := BWC(text)
	if len(comp) >= len(text)/2 {
		t.Errorf("BWC on text: %d -> %d, expected >2x compression", len(text), len(comp))
	}
}

func TestBzip2LikeRoundTrip(t *testing.T) {
	for name, data := range corpus() {
		t.Run(name, func(t *testing.T) {
			comp, err := Bzip2Like(data, 1024)
			if err != nil {
				t.Fatal(err)
			}
			got, err := UnBzip2Like(comp)
			if err != nil {
				t.Fatalf("decompress: %v", err)
			}
			if !bytes.Equal(got, data) {
				t.Fatal("bzip2-like round-trip failed")
			}
		})
	}
}

func TestBzip2LikeDetectsCorruption(t *testing.T) {
	data := bytes.Repeat([]byte("checksum me "), 500)
	comp, err := Bzip2Like(data, 1024)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte past the headers; the CRC must catch it.
	comp[len(comp)/2] ^= 0x40
	if _, err := UnBzip2Like(comp); err == nil {
		t.Error("corrupted container decompressed cleanly")
	}
}

func TestBzip2LikeBadBlockSize(t *testing.T) {
	if _, err := Bzip2Like([]byte("x"), 0); err == nil {
		t.Error("zero block size should error")
	}
}

func TestCRC32KnownVector(t *testing.T) {
	// The canonical "123456789" check value for CRC-32/IEEE.
	if got := CRC32([]byte("123456789")); got != 0xCBF43926 {
		t.Errorf("CRC32(123456789) = %08x, want CBF43926", got)
	}
	if got := CRC32(nil); got != 0 {
		t.Errorf("CRC32(nil) = %08x, want 0", got)
	}
}

// --- DMC ------------------------------------------------------------------------

func TestDMCRoundTrip(t *testing.T) {
	for name, data := range corpus() {
		t.Run(name, func(t *testing.T) {
			got, err := DMCDecompress(DMCCompress(data))
			if err != nil {
				t.Fatalf("decompress: %v", err)
			}
			if !bytes.Equal(got, data) {
				t.Fatalf("DMC round-trip failed (%d in, %d out)", len(data), len(got))
			}
		})
	}
}

func TestDMCCompressesText(t *testing.T) {
	text := bytes.Repeat([]byte("dynamic markov coding adapts to its input. "), 300)
	comp := DMCCompress(text)
	if len(comp) >= len(text)/2 {
		t.Errorf("DMC on text: %d -> %d, expected >2x compression", len(text), len(comp))
	}
}

func TestDMCRoundTripProperty(t *testing.T) {
	f := func(data []byte) bool {
		got, err := DMCDecompress(DMCCompress(data))
		return err == nil && bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestDMCTruncatedHeader(t *testing.T) {
	if _, err := DMCDecompress([]byte{1, 2}); err == nil {
		t.Error("truncated header should error")
	}
}

// --- JPEG-ish ---------------------------------------------------------------------

// testImage builds a smooth gradient with some texture — a realistic
// photographic stand-in.
func testImage(w, h int) *Image {
	im := NewImage(w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			v := 128 + 64*((x+y)%32)/32 + (x*y)%17 - 8
			if v < 0 {
				v = 0
			}
			if v > 255 {
				v = 255
			}
			im.Pix[y*w+x] = byte(v)
		}
	}
	return im
}

func TestJPEGishRoundTripQuality(t *testing.T) {
	im := testImage(64, 48)
	for _, q := range []int{30, 50, 80, 95} {
		comp, err := EncodeJPEGish(im, q)
		if err != nil {
			t.Fatalf("q=%d: %v", q, err)
		}
		dec, err := DecodeJPEGish(comp)
		if err != nil {
			t.Fatalf("q=%d decode: %v", q, err)
		}
		psnr, err := PSNR(im, dec)
		if err != nil {
			t.Fatal(err)
		}
		if psnr < 28 {
			t.Errorf("q=%d: PSNR %.1f dB, want ≥ 28 dB", q, psnr)
		}
	}
}

func TestJPEGishQualityMonotonicity(t *testing.T) {
	im := testImage(64, 64)
	lo, _ := EncodeJPEGish(im, 20)
	hi, _ := EncodeJPEGish(im, 90)
	if len(hi) <= len(lo) {
		t.Errorf("higher quality should cost more bytes: q20=%d q90=%d", len(lo), len(hi))
	}
	decLo, _ := DecodeJPEGish(lo)
	decHi, _ := DecodeJPEGish(hi)
	psnrLo, _ := PSNR(im, decLo)
	psnrHi, _ := PSNR(im, decHi)
	if psnrHi <= psnrLo {
		t.Errorf("higher quality should reconstruct better: %.1f vs %.1f dB", psnrLo, psnrHi)
	}
}

func TestJPEGishNonMultipleOf8(t *testing.T) {
	im := testImage(37, 29) // partial edge blocks
	comp, err := EncodeJPEGish(im, 75)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeJPEGish(comp)
	if err != nil {
		t.Fatal(err)
	}
	if dec.W != 37 || dec.H != 29 {
		t.Errorf("decoded size %dx%d, want 37x29", dec.W, dec.H)
	}
	psnr, _ := PSNR(im, dec)
	if psnr < 25 {
		t.Errorf("edge-block PSNR %.1f dB too low", psnr)
	}
}

func TestJPEGishFlatImage(t *testing.T) {
	im := NewImage(16, 16)
	for i := range im.Pix {
		im.Pix[i] = 100
	}
	comp, err := EncodeJPEGish(im, 50)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeJPEGish(comp)
	if err != nil {
		t.Fatal(err)
	}
	psnr, _ := PSNR(im, dec)
	if psnr < 40 {
		t.Errorf("flat image PSNR %.1f dB, want ≥ 40", psnr)
	}
}

func TestJPEGishErrors(t *testing.T) {
	if _, err := EncodeJPEGish(nil, 50); err == nil {
		t.Error("nil image should error")
	}
	if _, err := EncodeJPEGish(&Image{W: 3, H: 3, Pix: []byte{1}}, 50); err == nil {
		t.Error("inconsistent image should error")
	}
	if _, err := DecodeJPEGish([]byte{1, 2, 3}); err == nil {
		t.Error("truncated data should error")
	}
	a, b := NewImage(2, 2), NewImage(3, 3)
	if _, err := PSNR(a, b); err == nil {
		t.Error("size mismatch should error")
	}
}

func TestDCTInverseIsIdentity(t *testing.T) {
	var blk, orig [64]float64
	rng := xrand.New(55)
	for i := range blk {
		blk[i] = rng.Range(-128, 128)
		orig[i] = blk[i]
	}
	fdct8(&blk)
	idct8(&blk)
	for i := range blk {
		if diff := blk[i] - orig[i]; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("DCT/IDCT not inverse at %d: %g vs %g", i, blk[i], orig[i])
		}
	}
}

// --- package-level helpers ---------------------------------------------------------

func TestKeepAlive(t *testing.T) {
	before := Sink.Load()
	KeepAlive([]byte{1, 2, 3})
	if Sink.Load() == before {
		t.Error("KeepAlive should fold into Sink")
	}
}

// --- corpus generators -------------------------------------------------------

func TestCorpusDeterminismAndSize(t *testing.T) {
	for name, gen := range map[string]func(uint64, int) []byte{
		"text":       TextCorpus,
		"random":     RandomCorpus,
		"structured": StructuredCorpus,
	} {
		t.Run(name, func(t *testing.T) {
			a := gen(5, 4096)
			b := gen(5, 4096)
			if len(a) != 4096 {
				t.Fatalf("len = %d, want 4096", len(a))
			}
			if !bytes.Equal(a, b) {
				t.Error("same seed must give identical corpus")
			}
			c := gen(6, 4096)
			if bytes.Equal(a, c) {
				t.Error("different seeds should differ")
			}
		})
	}
}

func TestCorpusCompressibilityOrdering(t *testing.T) {
	// Text compresses well, structured moderately, random not at all —
	// the property that makes them useful as benchmark inputs.
	n := 16 << 10
	text := len(BWC(TextCorpus(1, n)))
	structured := len(BWC(StructuredCorpus(1, n)))
	random := len(BWC(RandomCorpus(1, n)))
	if !(text < structured && structured < random) {
		t.Errorf("compressed sizes text=%d structured=%d random=%d — expected strictly increasing", text, structured, random)
	}
	if random < n {
		t.Errorf("random corpus compressed below input size: %d < %d", random, n)
	}
}

func TestGradientImage(t *testing.T) {
	im := GradientImage(3, 48, 32)
	if im.W != 48 || im.H != 32 || len(im.Pix) != 48*32 {
		t.Fatalf("image shape %dx%d len %d", im.W, im.H, len(im.Pix))
	}
	comp, err := EncodeJPEGish(im, 75)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeJPEGish(comp)
	if err != nil {
		t.Fatal(err)
	}
	psnr, _ := PSNR(im, dec)
	if psnr < 25 {
		t.Errorf("gradient image PSNR %.1f too low", psnr)
	}
}

// --- decoder robustness on garbage inputs ------------------------------------

// TestDecodersNeverPanicOnGarbage feeds random bytes to every decoder:
// each must return (possibly wrong) output or an error — never panic.
// Claimed-length headers are truncated so a corrupted length cannot
// demand gigabytes.
func TestDecodersNeverPanicOnGarbage(t *testing.T) {
	decoders := map[string]func([]byte) error{
		"lzw":     func(b []byte) error { _, err := LZWDecompress(b); return err },
		"huffman": func(b []byte) error { _, err := HuffmanDecode(b); return err },
		"bwc":     func(b []byte) error { _, err := UnBWC(b); return err },
		"bzip2":   func(b []byte) error { _, err := UnBzip2Like(b); return err },
		"rle":     func(b []byte) error { _, err := InverseRLE(b); return err },
		"jpegish": func(b []byte) error { _, err := DecodeJPEGish(b); return err },
	}
	rng := xrand.New(77)
	for name, dec := range decoders {
		t.Run(name, func(t *testing.T) {
			for trial := 0; trial < 50; trial++ {
				n := rng.Intn(600)
				data := make([]byte, n)
				for i := range data {
					data[i] = byte(rng.Uint64())
				}
				func() {
					defer func() {
						if r := recover(); r != nil {
							t.Fatalf("trial %d (len %d): decoder panicked: %v", trial, n, r)
						}
					}()
					_ = dec(data)
				}()
			}
		})
	}
}

// TestHuffmanHugeClaimedLength crafts a header claiming 4 GB of output
// with a tiny payload: the decoder must fail fast instead of allocating.
func TestHuffmanHugeClaimedLength(t *testing.T) {
	comp := HuffmanEncode([]byte("short"))
	// Overwrite the length header with MaxUint32.
	comp[0], comp[1], comp[2], comp[3] = 0xFF, 0xFF, 0xFF, 0xFF
	if _, err := HuffmanDecode(comp); err == nil {
		t.Error("truncated payload with huge claimed length should error")
	}
}

// TestDMCHugeClaimedLength: DMC's arithmetic decoder pads past the end
// with zeros, so a huge claimed length decodes garbage rather than
// erroring — but it must not pre-allocate the claimed 4 GB. We bound
// the run by checking a moderate (1 MB) claim completes.
func TestDMCModerateClaimedLength(t *testing.T) {
	comp := DMCCompress([]byte("short"))
	comp[0], comp[1], comp[2], comp[3] = 0x00, 0x00, 0x01, 0x00 // claim 64 KiB
	out, err := DMCDecompress(comp)
	if err != nil {
		t.Fatalf("unexpected error: %v", err)
	}
	if len(out) != 1<<16 {
		t.Fatalf("decoded %d bytes, want 65536", len(out))
	}
}
