// Package romio implements a simulated MPI-IO layer in the spirit of
// ROMIO/ADIO over the simulated MPI (internal/mpi) and PVFS2
// (internal/pvfs) substrates. It provides:
//
//   - individual contiguous writes (MPI_File_write_at),
//   - individual noncontiguous writes with three ADIO methods — plain POSIX
//     (one file-system request per segment, issued sequentially), PVFS2
//     native list I/O (one batched request per server, issued in parallel),
//     and generic data sieving (read-modify-write of a sieve buffer),
//   - collective writes (MPI_File_write_at_all) using the two-phase
//     algorithm: entry synchronization, redistribution of data to
//     aggregator-owned file domains over the simulated network, aggregator
//     writes, and exit synchronization,
//   - MPI_File_sync.
//
// The hints structure mirrors the ROMIO hints the paper manipulates
// (cb_nodes, buffer sizes, individual-write method).
package romio

import (
	"fmt"

	"s3asim/internal/des"
	"s3asim/internal/mpi"
	"s3asim/internal/pvfs"
)

// Method selects the ADIO implementation used for individual noncontiguous
// writes.
type Method int

const (
	// Posix issues one contiguous file-system write per segment,
	// sequentially — MPI_File_write without optimization (paper §2.3).
	Posix Method = iota
	// ListIO uses PVFS2's native list interface: segments batched into one
	// request per server, all servers engaged in parallel (paper §2.3,
	// [Ching et al. 2002]).
	ListIO
	// DataSieve uses ROMIO's generic write data sieving: read a sieve
	// buffer covering the extent, overlay the segments, write it back.
	DataSieve
)

// String returns the method's conventional name.
func (m Method) String() string {
	switch m {
	case Posix:
		return "posix"
	case ListIO:
		return "list"
	case DataSieve:
		return "sieve"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// CollMethod selects the collective-write implementation.
type CollMethod int

const (
	// TwoPhase is ROMIO's default: entry synchronization, redistribution
	// of data to aggregator-owned file domains, aggregated writes, exit
	// synchronization.
	TwoPhase CollMethod = iota
	// ListSync is the collective the paper's conclusion proposes: every
	// rank writes its own segments with native list I/O, bracketed by
	// barriers — no redistribution, no aggregators. ("a collective I/O
	// method implemented with list I/O and forced synchronization may be a
	// more efficient collective I/O method than the default two phase I/O
	// method in ROMIO")
	ListSync
)

// String names the collective method.
func (m CollMethod) String() string {
	if m == ListSync {
		return "list-sync"
	}
	return "two-phase"
}

// Hints mirrors the MPI-IO hints relevant to the paper's experiments.
type Hints struct {
	// CBNodes is the number of two-phase aggregators (cb_nodes);
	// 0 means every participant aggregates.
	CBNodes int
	// CollWriteMethod selects the collective-write algorithm.
	CollWriteMethod CollMethod
	// IndWriteMethod selects the individual noncontiguous write path.
	IndWriteMethod Method
	// SieveBufferSize is the data-sieving window (ind_wr_buffer_size);
	// 0 defaults to 512 KB.
	SieveBufferSize int64
	// TwoPhasePlanPerSeg models the per-segment access-pattern processing
	// every participant performs in ROMIO's two-phase algorithm (offset
	// flattening and file-domain assignment are computed over the *union*
	// of all ranks' segments, on every rank). 0 defaults to 400 µs.
	TwoPhasePlanPerSeg des.Time
}

// DefaultHints matches ROMIO defaults as configured in the paper: two-phase
// collective I/O with all ranks aggregating, 512 KB sieve buffers.
func DefaultHints() Hints {
	return Hints{
		IndWriteMethod:     ListIO,
		SieveBufferSize:    512 * 1024,
		TwoPhasePlanPerSeg: 400 * des.Microsecond,
	}
}

// Validate bounds-checks the hints. A zero SieveBufferSize means "use the
// default"; any other value must be a power of two of at least 4 KiB, because
// the sieve window walk degenerates (zero-length read-modify-write windows
// that never consume a segment) for smaller or odd sizes.
func (h Hints) Validate() error {
	if h.CBNodes < 0 {
		return fmt.Errorf("romio: cb_nodes %d is negative", h.CBNodes)
	}
	if h.CollWriteMethod != TwoPhase && h.CollWriteMethod != ListSync {
		return fmt.Errorf("romio: unknown collective write method %d", int(h.CollWriteMethod))
	}
	if h.IndWriteMethod != Posix && h.IndWriteMethod != ListIO && h.IndWriteMethod != DataSieve {
		return fmt.Errorf("romio: unknown individual write method %d", int(h.IndWriteMethod))
	}
	if s := h.SieveBufferSize; s != 0 {
		if s < 4096 || s&(s-1) != 0 {
			return fmt.Errorf("romio: ind_wr_buffer_size %d must be 0 (default) or a power of two >= 4 KiB", s)
		}
	}
	if h.TwoPhasePlanPerSeg < 0 {
		return fmt.Errorf("romio: two-phase plan cost %v is negative", h.TwoPhasePlanPerSeg)
	}
	return nil
}

// sieveBuffer resolves the sieve window size, clamping the degenerate <= 0
// case to the 512 KB ROMIO default.
func (h Hints) sieveBuffer() int64 {
	if h.SieveBufferSize <= 0 {
		return 512 * 1024
	}
	return h.SieveBufferSize
}

// File is an MPI-IO file handle shared by all ranks of a world: the
// underlying PVFS2 file plus one storage port per node, so file traffic
// contends with message traffic on the same NICs.
type File struct {
	w     *mpi.World
	pv    *pvfs.File
	hints Hints
	ports []*pvfs.Port // indexed by rank
}

// Open collectively creates/opens name on fs for every rank of w. It must
// be called from a simulated process (typically rank 0 before the run, or
// any setup proc).
func Open(p *des.Proc, w *mpi.World, fs *pvfs.FileSystem, name string, hints Hints) *File {
	if hints.SieveBufferSize <= 0 {
		hints.SieveBufferSize = 512 * 1024
	}
	pv := fs.Lookup(name)
	if pv == nil {
		pv = fs.Create(p, name)
	}
	f := &File{w: w, pv: pv, hints: hints}
	bw := w.Config().Bandwidth
	for i := 0; i < w.Size(); i++ {
		send, recv := w.NodeNIC(i)
		f.ports = append(f.ports, &pvfs.Port{Send: send, Recv: recv, Bandwidth: bw})
	}
	return f
}

// PV exposes the underlying PVFS file for verification and reporting.
func (f *File) PV() *pvfs.File { return f.pv }

// Hints returns the hints the file was opened with.
func (f *File) Hints() Hints { return f.hints }

// port returns rank r's storage port.
func (f *File) port(r *mpi.Rank) *pvfs.Port { return f.ports[r.Rank()] }

// WriteAt performs an individual contiguous write from rank r of n bytes
// at off holding stream content from src (pvfs.Segment.Src).
func (f *File) WriteAt(r *mpi.Rank, off, n, src int64) {
	f.pv.Write(r.Proc(), f.port(r), off, n, src)
}

// ReadAt performs an individual contiguous read from rank r, returning the
// descriptor pieces tiling the range when the file system captures content
// (nil otherwise).
func (f *File) ReadAt(r *mpi.Rank, off, n int64) []pvfs.Segment {
	return f.pv.Read(r.Proc(), f.port(r), off, n)
}

// WriteSegs performs an individual noncontiguous write of segs from rank r
// using the hinted ADIO method. The methods live in WriteSegsOp (so FSM
// processes can run them resumably); this wrapper drives it to completion
// for goroutine processes.
func (f *File) WriteSegs(r *mpi.Rank, segs []pvfs.Segment) {
	var op WriteSegsOp
	op.Init(f, r, segs)
	op.Step()
}

// Sync flushes the file from rank r (MPI_File_sync).
func (f *File) Sync(r *mpi.Rank) {
	f.pv.Sync(r.Proc(), f.port(r))
}
