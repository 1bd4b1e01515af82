package kernels

import (
	"encoding/binary"
	"fmt"
)

// BWC is the Burrows-Wheeler transforming compressor of the paper's
// benchmark suite: BWT → move-to-front → run-length → canonical
// Huffman, applied to the whole input as one block.
//
// Format: [4 bytes LE primary index][huffman payload], where the
// payload decodes to RLE(MTF(BWT(data))).
func BWC(data []byte) []byte {
	bwt, primary := BWT(data)
	payload := HuffmanEncode(RLE(MTF(bwt)))
	out := make([]byte, 4, 4+len(payload))
	binary.LittleEndian.PutUint32(out, uint32(primary))
	return append(out, payload...)
}

// --- Bzip2-like block compressor ---------------------------------------

// crc32Table is the IEEE 802.3 polynomial table, built at init — we
// implement CRC-32 ourselves to keep the kernel suite self-contained.
var crc32Table [256]uint32

func init() {
	const poly = 0xEDB88320
	for i := range crc32Table {
		crc := uint32(i)
		for j := 0; j < 8; j++ {
			if crc&1 != 0 {
				crc = (crc >> 1) ^ poly
			} else {
				crc >>= 1
			}
		}
		crc32Table[i] = crc
	}
}

// CRC32 computes the IEEE CRC-32 checksum of data.
func CRC32(data []byte) uint32 {
	crc := ^uint32(0)
	for _, b := range data {
		crc = crc32Table[byte(crc)^b] ^ (crc >> 8)
	}
	return ^crc
}

// Bzip2Like compresses data block-wise: each block is independently
// BWC-compressed and carries a CRC-32 of its plaintext, so blocks can
// be compressed by parallel tasks and verified on decode — the
// structure the paper's Bzip-2 benchmark parallelizes over.
//
// Container: [4 bytes LE block count] then per block:
// [4 bytes LE plain length][4 bytes LE CRC][4 bytes LE comp length][BWC bytes].
func Bzip2Like(data []byte, blockSize int) ([]byte, error) {
	if blockSize <= 0 {
		return nil, fmt.Errorf("bzip2: block size must be positive, got %d", blockSize)
	}
	nblocks := (len(data) + blockSize - 1) / blockSize
	out := make([]byte, 4)
	binary.LittleEndian.PutUint32(out, uint32(nblocks))
	for i := 0; i < nblocks; i++ {
		lo, hi := i*blockSize, (i+1)*blockSize
		if hi > len(data) {
			hi = len(data)
		}
		block := data[lo:hi]
		comp := BWC(block)
		var hdr [12]byte
		binary.LittleEndian.PutUint32(hdr[0:], uint32(len(block)))
		binary.LittleEndian.PutUint32(hdr[4:], CRC32(block))
		binary.LittleEndian.PutUint32(hdr[8:], uint32(len(comp)))
		out = append(out, hdr[:]...)
		out = append(out, comp...)
	}
	return out, nil
}
