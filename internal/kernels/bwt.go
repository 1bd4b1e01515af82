package kernels

import "sort"

// BWT computes the Burrows-Wheeler transform of data by sorting all n
// cyclic rotations with prefix doubling (O(n log² n), no sentinel
// needed — ranks are compared modulo n, which orders rotations
// directly). It returns the transformed bytes and the primary index
// (the row of the original string), which the inverse needs.
func BWT(data []byte) ([]byte, int) {
	n := len(data)
	if n == 0 {
		return nil, 0
	}
	rank := make([]int, n)
	tmp := make([]int, n)
	sa := make([]int, n)
	for i := 0; i < n; i++ {
		rank[i] = int(data[i])
		sa[i] = i
	}
	for k := 1; ; k *= 2 {
		key := func(i int) (int, int) {
			return rank[i], rank[(i+k)%n]
		}
		sort.Slice(sa, func(a, b int) bool {
			r1a, r2a := key(sa[a])
			r1b, r2b := key(sa[b])
			if r1a != r1b {
				return r1a < r1b
			}
			return r2a < r2b
		})
		tmp[sa[0]] = 0
		for i := 1; i < n; i++ {
			r1p, r2p := key(sa[i-1])
			r1c, r2c := key(sa[i])
			tmp[sa[i]] = tmp[sa[i-1]]
			if r1p != r1c || r2p != r2c {
				tmp[sa[i]]++
			}
		}
		copy(rank, tmp)
		if rank[sa[n-1]] == n-1 || k >= n {
			break
		}
	}

	out := make([]byte, n)
	primary := 0
	for i, rot := range sa {
		// Last column: the byte preceding the rotation start.
		out[i] = data[(rot+n-1)%n]
		if rot == 0 {
			primary = i
		}
	}
	return out, primary
}

// MTF applies the move-to-front transform: each byte is replaced by
// its current index in a self-organizing list, so recently seen bytes
// map to small values — the property the post-BWT entropy coder
// exploits.
func MTF(data []byte) []byte {
	var alphabet [256]byte
	for i := range alphabet {
		alphabet[i] = byte(i)
	}
	out := make([]byte, len(data))
	for i, b := range data {
		var idx int
		for j, a := range alphabet {
			if a == b {
				idx = j
				break
			}
		}
		out[i] = byte(idx)
		copy(alphabet[1:idx+1], alphabet[:idx])
		alphabet[0] = b
	}
	return out
}

// RLE encodes runs: any four consecutive identical bytes are followed
// by one count byte holding the number (0–255) of further repeats —
// the scheme bzip2 uses ahead of its BWT. It is unambiguous because
// the decoder, after seeing four identical bytes, always interprets
// the next byte as a count.
func RLE(data []byte) []byte {
	out := make([]byte, 0, len(data))
	i := 0
	for i < len(data) {
		b := data[i]
		run := 1
		for i+run < len(data) && data[i+run] == b && run < 4+255 {
			run++
		}
		if run < 4 {
			for j := 0; j < run; j++ {
				out = append(out, b)
			}
		} else {
			out = append(out, b, b, b, b, byte(run-4))
		}
		i += run
	}
	return out
}
