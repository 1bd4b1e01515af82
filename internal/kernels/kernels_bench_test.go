package kernels

import (
	"bytes"
	"math"
	"testing"
)

// benchCorpus returns compressible pseudo-text of the given size —
// the payload profile of the paper's benchmark suite.
func benchCorpus(n int) []byte { return TextCorpus(7, n) }

func BenchmarkMD5(b *testing.B) {
	data := benchCorpus(64 << 10)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sum := MD5(data)
		KeepAlive(sum[:])
	}
}

// BenchmarkSHA1 runs the digest at the sizes the benchmark's workloads
// hash: 256 B (serve-batch), 4 KiB (rt-iter), 16 KiB (serve-mixed) and
// 64 KiB.
func BenchmarkSHA1(b *testing.B) {
	for _, n := range []struct {
		name string
		size int
	}{{"256B", 256}, {"4KiB", 4 << 10}, {"16KiB", 16 << 10}, {"64KiB", 64 << 10}} {
		b.Run(n.name, func(b *testing.B) {
			data := benchCorpus(n.size)
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sum := SHA1(data)
				KeepAlive(sum[:])
			}
		})
	}
}

func BenchmarkLZWCompress(b *testing.B) {
	data := benchCorpus(64 << 10)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		KeepAlive(LZWCompress(data))
	}
}

func BenchmarkLZWDecompress(b *testing.B) {
	comp := LZWCompress(benchCorpus(64 << 10))
	b.SetBytes(int64(len(comp)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		out, err := LZWDecompress(comp)
		if err != nil {
			b.Fatal(err)
		}
		KeepAlive(out)
	}
}

func BenchmarkBWT(b *testing.B) {
	data := benchCorpus(16 << 10)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		out, _ := BWT(data)
		KeepAlive(out)
	}
}

func BenchmarkBWC(b *testing.B) {
	data := benchCorpus(16 << 10)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		KeepAlive(BWC(data))
	}
}

func BenchmarkUnBWC(b *testing.B) {
	comp := BWC(benchCorpus(16 << 10))
	b.SetBytes(int64(len(comp)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		out, err := UnBWC(comp)
		if err != nil {
			b.Fatal(err)
		}
		KeepAlive(out)
	}
}

func BenchmarkBzip2Like(b *testing.B) {
	data := benchCorpus(64 << 10)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		out, err := Bzip2Like(data, 16<<10)
		if err != nil {
			b.Fatal(err)
		}
		KeepAlive(out)
	}
}

// BenchmarkDMCCompress runs 16 KiB of text and the shape serve runs:
// 4 KiB of StructuredCorpus, the input of bench's dmc_4k probe.
func BenchmarkDMCCompress(b *testing.B) {
	for _, c := range []struct {
		name string
		data []byte
	}{{"text16KiB", benchCorpus(16 << 10)}, {"structured4KiB", StructuredCorpus(1, 4<<10)}} {
		b.Run(c.name, func(b *testing.B) {
			b.SetBytes(int64(len(c.data)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				KeepAlive(DMCCompress(c.data))
			}
		})
	}
}

func BenchmarkDMCDecompress(b *testing.B) {
	comp := DMCCompress(benchCorpus(16 << 10))
	b.SetBytes(int64(len(comp)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		out, err := DMCDecompress(comp)
		if err != nil {
			b.Fatal(err)
		}
		KeepAlive(out)
	}
}

// BenchmarkJPEGishEncode runs a 256×256 gradient and the shape serve
// runs: a 64×64 gradient at quality 75, the input of bench's je_4k
// probe.
func BenchmarkJPEGishEncode(b *testing.B) {
	for _, c := range []struct {
		name string
		im   *Image
	}{{"256x256", GradientImage(3, 256, 256)}, {"64x64", GradientImage(1, 64, 64)}} {
		b.Run(c.name, func(b *testing.B) {
			b.SetBytes(int64(len(c.im.Pix)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				out, err := EncodeJPEGish(c.im, 75)
				if err != nil {
					b.Fatal(err)
				}
				KeepAlive(out)
			}
		})
	}
}

// BenchmarkFdct8 is the JE transform alone, on one block of
// level-shifted pixels.
func BenchmarkFdct8(b *testing.B) {
	var src [64]float64
	for i := range src {
		src[i] = float64(i*37%256) - 128
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		blk := src
		fdct8(&blk)
		Sink.Add(math.Float64bits(blk[0]))
	}
}

// The per-job input generators: serve fills every job's body with one
// of these on the handler, before admission.

func BenchmarkTextCorpusInto(b *testing.B) {
	for _, n := range []struct {
		name string
		size int
	}{{"256B", 256}, {"64KiB", 64 << 10}} {
		b.Run(n.name, func(b *testing.B) {
			dst := make([]byte, n.size)
			b.SetBytes(int64(len(dst)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				TextCorpusInto(dst, uint64(i))
			}
			KeepAlive(dst)
		})
	}
}

func BenchmarkStructuredCorpusInto(b *testing.B) {
	dst := make([]byte, 4<<10)
	b.SetBytes(int64(len(dst)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		StructuredCorpusInto(dst, uint64(i))
	}
	KeepAlive(dst)
}

func BenchmarkGradientImageInto(b *testing.B) {
	const w, h = 64, 64
	pix := make([]byte, w*h)
	b.SetBytes(int64(len(pix)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		GradientImageInto(pix, uint64(i), w, h)
	}
	KeepAlive(pix)
}

func BenchmarkCRC32(b *testing.B) {
	data := benchCorpus(64 << 10)
	b.SetBytes(int64(len(data)))
	for i := 0; i < b.N; i++ {
		Sink.Add(uint64(CRC32(data)))
	}
}

func BenchmarkHuffmanRoundTrip(b *testing.B) {
	data := benchCorpus(64 << 10)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		out, err := HuffmanDecode(HuffmanEncode(data))
		if err != nil || !bytes.Equal(out, data) {
			b.Fatal("round-trip failed")
		}
	}
}
