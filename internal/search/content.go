package search

import (
	"encoding/binary"

	"s3asim/internal/stats"
)

// Output-file content is a pure, seekable function of (workload seed, file
// offset): byte x is byte x&7 (little-endian) of
// SplitMix64(key ^ (x>>3)·contentMul), with key derived from Spec.Seed.
// Because the file layout is identical for every strategy (§3.3), any
// extent can be generated on its own, word by word, without knowing which
// results it spans. The simulation path never generates it: pvfs moves and
// stores descriptors of this stream (pvfs.Segment.Src) and verification
// compares descriptors. FillContent is the export function that turns a
// descriptor into bytes (pvfs.Bytes).

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
