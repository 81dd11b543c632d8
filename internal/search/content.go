package search

import (
	"encoding/binary"

	"s3asim/internal/stats"
)

// Output-file content is a pure, seekable function of (workload seed, file
// offset): byte x is byte x&7 (little-endian) of
// SplitMix64(key ^ (x>>3)·contentMul), with key derived from Spec.Seed.
// Because the file layout is identical for every strategy (§3.3), any
// extent can be generated or checked on its own, word by word, without
// knowing which results it spans.

// contentMul spreads consecutive word indices across the generator's input.
const contentMul = 0xD6E8FEB86659FD93

// contentKey is the workload's content key.
func (w *Workload) contentKey() uint64 {
	return uint64(stats.DeriveSeed(w.Spec.Seed ^ 0x5EED))
}

// contentWord returns the 8 content bytes of file word i (offsets 8i..8i+7).
func contentWord(key, i uint64) uint64 {
	return stats.SplitMix64(key ^ i*contentMul)
}

// FillContent writes the output-file content of [off, off+len(dst)) into
// dst. It does not allocate.
func (w *Workload) FillContent(dst []byte, off int64) {
	key := w.contentKey()
	x := uint64(off)
	for len(dst) > 0 && x&7 != 0 {
		dst[0] = byte(contentWord(key, x>>3) >> (8 * (x & 7)))
		dst, x = dst[1:], x+1
	}
	i := x >> 3
	for ; len(dst) >= 8; dst, i = dst[8:], i+1 {
		binary.LittleEndian.PutUint64(dst, contentWord(key, i))
	}
	if len(dst) > 0 {
		v := contentWord(key, i)
		for k := range dst {
			dst[k] = byte(v >> (8 * k))
		}
	}
}

// ContentEqual reports whether got holds the output-file content of
// [off, off+len(got)). It does not allocate.
func (w *Workload) ContentEqual(got []byte, off int64) bool {
	key := w.contentKey()
	x := uint64(off)
	for len(got) > 0 && x&7 != 0 {
		if got[0] != byte(contentWord(key, x>>3)>>(8*(x&7))) {
			return false
		}
		got, x = got[1:], x+1
	}
	i := x >> 3
	// Four words per branch: the differences are OR-ed so the generator's
	// independent multiply chains overlap. On a 2-CPU Xeon this cut the
	// perfbench verify wall_cal by about 10% against a one-word loop.
	for ; len(got) >= 32; got, i = got[32:], i+4 {
		d := binary.LittleEndian.Uint64(got) ^ contentWord(key, i)
		d |= binary.LittleEndian.Uint64(got[8:]) ^ contentWord(key, i+1)
		d |= binary.LittleEndian.Uint64(got[16:]) ^ contentWord(key, i+2)
		d |= binary.LittleEndian.Uint64(got[24:]) ^ contentWord(key, i+3)
		if d != 0 {
			return false
		}
	}
	for ; len(got) >= 8; got, i = got[8:], i+1 {
		if binary.LittleEndian.Uint64(got) != contentWord(key, i) {
			return false
		}
	}
	if len(got) > 0 {
		v := contentWord(key, i)
		for k := range got {
			if got[k] != byte(v>>(8*k)) {
				return false
			}
		}
	}
	return true
}
