package obs

import (
	"fmt"

	"s3asim/internal/des"
	"s3asim/internal/stats"
)

// This file is the windowed time-series layer of the telemetry pipeline
// (DESIGN.md §15): tumbling windows over *virtual* time that turn the
// registry's counters into rates, track gauges, and keep each histogram per
// window (Snapshot folds the windows into the whole-run histogram). Windows
// are pure accumulators — nothing is sealed while the run executes, so
// recording costs an index into the current window and a few adds, and the
// series is materialized once at the end of the run.
//
// The contract mirrors causal.Check: window values must conserve exactly
// against the end-of-run Snapshot (Series.Conserve). To make the float sum
// invariant bit-exact rather than approximately true, Snapshot itself
// computes each histogram's Sum by adding the per-window sums in ascending
// window order whenever windows are enabled — the identical float operations
// Conserve performs.

// winState holds a registry's window accumulators. It is guarded by the
// owning Registry's lock; none of its methods lock.
type winState struct {
	width des.Time
	// clock supplies the virtual time for mutators without an explicit
	// timestamp (Add/Set/Observe). FreezeWindows detaches it (nil) and
	// frozenAt is used instead, so post-run backfill lands deterministically.
	clock    func() des.Time
	frozenAt des.Time
	// wins is indexed by window number; nil for windows nothing landed in.
	wins   []*winAcc
	maxIdx int64
	// cur caches the last window touched, covering [curStart, curEnd).
	cur              *winAcc
	curStart, curEnd des.Time
}

// winAcc accumulates one window's worth of metrics: counters and histograms
// indexed by handle id, gauges by name (they are set on cold paths only).
type winAcc struct {
	counters []winCounter
	hists    []winHist
	gauges   map[string]float64
}

// winCounter is one counter's delta within a window; used marks that the
// window carries the series, even at zero.
type winCounter struct {
	v    int64
	used bool
}

// winHist is a fixed-memory per-window histogram: exact count/sum/min/max
// (sum by plain accumulation, so conservation against the snapshot is a
// matter of re-adding in the same order) plus the same log-linear buckets
// as the whole-run histogram, spanning the octaves this window touched.
type winHist struct {
	count         int64
	sum, min, max float64
	b             buckets
}

func (w *winState) now() des.Time {
	if w.clock == nil {
		return w.frozenAt
	}
	return w.clock()
}

// idx maps a virtual time to its window index; window k covers
// [k·width, (k+1)·width). Negative times clamp to window 0.
func (w *winState) idx(at des.Time) int64 {
	if at < 0 {
		return 0
	}
	return int64(at) / int64(w.width)
}

// acc returns the accumulator of the window holding at, creating it on
// first use.
func (w *winState) acc(at des.Time) *winAcc {
	if at >= w.curStart && at < w.curEnd {
		return w.cur
	}
	return w.seek(at)
}

// seek is acc past the cached window.
func (w *winState) seek(at des.Time) *winAcc {
	i := w.idx(at)
	if i > w.maxIdx {
		w.maxIdx = i
	}
	if i >= int64(len(w.wins)) {
		w.wins = append(w.wins, make([]*winAcc, i+1-int64(len(w.wins)))...)
	}
	a := w.wins[i]
	if a == nil {
		a = &winAcc{}
		w.wins[i] = a
	}
	w.cur, w.curStart, w.curEnd = a, des.Time(i*int64(w.width)), des.Time((i+1)*int64(w.width))
	return a
}

// counter returns the window's slot for counter id, sizing the slots to the
// registry's n counters on first use.
func (a *winAcc) counter(id, n int) *winCounter {
	if id >= len(a.counters) {
		a.counters = append(a.counters, make([]winCounter, n-len(a.counters))...)
	}
	return &a.counters[id]
}

// hist returns the window's slot for histogram id, sizing the slots to the
// registry's n histograms on first use.
func (a *winAcc) hist(id, n int) *winHist {
	if id >= len(a.hists) {
		a.hists = append(a.hists, make([]winHist, n-len(a.hists))...)
	}
	return &a.hists[id]
}

func (c *winCounter) add(delta int64) {
	c.v += delta
	c.used = true
}

func (a *winAcc) set(name string, v float64) {
	if a.gauges == nil {
		a.gauges = make(map[string]float64)
	}
	a.gauges[name] = v
}

func (h *winHist) observe(v float64, key int32) {
	h.count++
	h.sum += v
	if h.count == 1 || v < h.min {
		h.min = v
	}
	if h.count == 1 || v > h.max {
		h.max = v
	}
	h.b.inc(key)
}

// histStat folds one histogram's windows, in ascending window order, into
// its whole-run stat: a windowed registry keeps each histogram only in its
// windows. Sum is the ascending-window re-addition of per-window sums — the
// exact computation Series.Conserve repeats, so conservation holds
// bit-exactly — and Mean is derived from it. Count is zero when no window
// holds the series.
func (w *winState) histStat(id int) HistStat {
	var (
		st HistStat
		b  buckets
	)
	for _, a := range w.wins {
		if a == nil || id >= len(a.hists) || a.hists[id].count == 0 {
			continue
		}
		h := &a.hists[id]
		if st.Count == 0 || h.min < st.Min {
			st.Min = h.min
		}
		if st.Count == 0 || h.max > st.Max {
			st.Max = h.max
		}
		st.Count += h.count
		st.Sum += h.sum
		b.addAll(&h.b)
	}
	if st.Count > 0 {
		st.Mean = st.Sum / float64(st.Count)
		st.Buckets = b.toMap()
		st.P50, st.P95, st.P99 = quantiles3(b.walk, st.Count, st.Min, st.Max)
	}
	return st
}

// EnableWindows switches the registry into windowed mode: every subsequent
// mutation is folded into the tumbling virtual-time window of the given
// width. clock supplies the current virtual time for mutators without an
// explicit timestamp (pass sim.Now). A windowed registry keeps each
// histogram only in its windows (Snapshot folds them), so windows must see
// every observation: EnableWindows panics on a registry that already holds
// data or windows (see Empty).
func (r *Registry) EnableWindows(width des.Time, clock func() des.Time) {
	if width <= 0 {
		panic("obs: EnableWindows requires a positive width")
	}
	if !r.Empty() {
		panic("obs: EnableWindows on a registry that already holds data or windows")
	}
	r.lock()
	r.win = &winState{width: width, clock: clock}
	r.unlock()
}

// Empty reports whether nothing has been recorded into the registry and its
// windows are off: the state EnableWindows requires. Resolving handles
// records nothing.
func (r *Registry) Empty() bool {
	r.lock()
	defer r.unlock()
	if r.win != nil || len(r.gauges) > 0 {
		return false
	}
	for _, c := range r.counters {
		if c.used {
			return false
		}
	}
	for _, h := range r.hists {
		if h.online.N() > 0 {
			return false
		}
	}
	return true
}

// FreezeWindows detaches the window clock at the end of a run: the series is
// extended to cover `end` (trailing quiet windows exist, so alert rules see
// the recovery), and post-run mutators without an explicit timestamp land in
// the final window. No-op when windows are disabled.
func (r *Registry) FreezeWindows(end des.Time) {
	r.lock()
	if w := r.win; w != nil {
		w.clock, w.frozenAt = nil, end
		if i := w.idx(end); i > w.maxIdx {
			w.maxIdx = i
		}
	}
	r.unlock()
}

// AddAt is Add with an explicit virtual timestamp for the window layer —
// used to backfill event-time metrics (a query that finished at t) after the
// fact. Identical to Add when windows are disabled.
func (r *Registry) AddAt(name string, delta int64, at des.Time) {
	r.lock()
	r.counter(name).add(delta, &at)
	r.unlock()
}

// SetAt is Set with an explicit virtual timestamp for the window layer.
func (r *Registry) SetAt(name string, v float64, at des.Time) {
	r.lock()
	r.gauges[name] = v
	if w := r.win; w != nil {
		w.acc(at).set(name, v)
	}
	r.unlock()
}

// ObserveAt is Observe with an explicit virtual timestamp for the window
// layer.
func (r *Registry) ObserveAt(name string, v float64, at des.Time) {
	r.observeNamed(name, v, nil, &at)
}

// Window is one materialized tumbling window covering [Start, End). Maps are
// nil for windows nothing landed in.
type Window struct {
	Index    int64
	Start    des.Time
	End      des.Time
	Counters map[string]int64    `json:",omitempty"`
	Gauges   map[string]float64  `json:",omitempty"`
	Hists    map[string]HistStat `json:",omitempty"`
}

// Series is a registry's materialized windowed time-series: contiguous
// windows from virtual time zero through the end of the run (empty windows
// included, so rates and quantile lookbacks see quiet periods as zeros).
type Series struct {
	Width   des.Time
	Windows []Window
}

// Windows materializes the registry's windowed series. Returns nil when
// windows were never enabled.
func (r *Registry) Windows() *Series {
	r.lock()
	defer r.unlock()
	w := r.win
	if w == nil {
		return nil
	}
	s := &Series{Width: w.width, Windows: make([]Window, w.maxIdx+1)}
	for i := range s.Windows {
		win := &s.Windows[i]
		win.Index = int64(i)
		win.Start = des.Time(int64(i) * int64(w.width))
		win.End = win.Start + w.width
		if i >= len(w.wins) || w.wins[i] == nil {
			continue
		}
		a := w.wins[i]
		for id, c := range a.counters {
			if !c.used {
				continue
			}
			if win.Counters == nil {
				win.Counters = make(map[string]int64)
			}
			win.Counters[r.counters[id].name] = c.v
		}
		if len(a.gauges) > 0 {
			win.Gauges = make(map[string]float64, len(a.gauges))
			for k, v := range a.gauges {
				win.Gauges[k] = v
			}
		}
		for id := range a.hists {
			h := &a.hists[id]
			if h.count == 0 {
				continue
			}
			if win.Hists == nil {
				win.Hists = make(map[string]HistStat)
			}
			win.Hists[r.hists[id].name] = h.stat()
		}
	}
	return s
}

// stat converts a window histogram into a HistStat with the exact
// accumulated sum (not the mean-derived one).
func (h *winHist) stat() HistStat {
	st := HistStat{Count: h.count, Sum: h.sum, Min: h.min, Max: h.max,
		Mean: h.sum / float64(h.count), Buckets: h.b.toMap()}
	st.P50, st.P95, st.P99 = quantiles3(h.b.walk, st.Count, st.Min, st.Max)
	return st
}

// Last returns the final window, or a zero Window for an empty series.
func (s *Series) Last() Window {
	if s == nil || len(s.Windows) == 0 {
		return Window{}
	}
	return s.Windows[len(s.Windows)-1]
}

// CounterSum adds the named counter over the window index range [from, to]
// (clamped to the series).
func (s *Series) CounterSum(name string, from, to int64) int64 {
	var sum int64
	for i := max64(from, 0); i <= to && i < int64(len(s.Windows)); i++ {
		sum += s.Windows[i].Counters[name]
	}
	return sum
}

// Rate converts the named counter's total over [from, to] into a per-second
// rate using the nominal span (windows before the series start count as
// empty, so early lookbacks aren't inflated).
func (s *Series) Rate(name string, from, to int64) float64 {
	n := to - from + 1
	if n <= 0 {
		return 0
	}
	span := des.Time(n * int64(s.Width)).Seconds()
	return float64(s.CounterSum(name, from, to)) / span
}

// HistOver merges the named histogram over the window index range [from, to]
// (clamped): exact count/sum/min/max, buckets summed, quantiles re-read from
// the merged buckets.
func (s *Series) HistOver(name string, from, to int64) HistStat {
	var m HistStat
	for i := max64(from, 0); i <= to && i < int64(len(s.Windows)); i++ {
		h, ok := s.Windows[i].Hists[name]
		if !ok || h.Count == 0 {
			continue
		}
		if m.Count == 0 {
			m = HistStat{Count: h.Count, Sum: h.Sum, Min: h.Min, Max: h.Max}
			m.Buckets = make(map[int32]int64, len(h.Buckets))
		} else {
			m.Count += h.Count
			m.Sum += h.Sum
			if h.Min < m.Min {
				m.Min = h.Min
			}
			if h.Max > m.Max {
				m.Max = h.Max
			}
		}
		for k, n := range h.Buckets {
			m.Buckets[k] += n
		}
	}
	if m.Count > 0 {
		m.Mean = m.Sum / float64(m.Count)
		m.P50, m.P95, m.P99 = quantiles3(mapWalk(m.Buckets), m.Count, m.Min, m.Max)
	}
	return m
}

// Conserve verifies the window/snapshot conservation invariant (the
// telemetry analogue of causal.Check): every counter's window values sum to
// its snapshot total; every histogram's window counts, sums, buckets, and
// min/max reproduce the snapshot exactly (sums bit-exactly, by re-adding in
// ascending window order — the same computation Snapshot performs); every
// gauge's snapshot value equals its value in the last window that set it
// (which assumes gauges are written in non-decreasing virtual time, as the
// engine does — last write wins on both sides).
// Returns nil on success, or an error naming the first violated series.
func (s *Series) Conserve(snap Snapshot) error {
	sums := map[string]int64{}
	for _, w := range s.Windows {
		for k, v := range w.Counters {
			sums[k] += v
		}
	}
	for _, k := range sortedKeys(snap.Counters) {
		if sums[k] != snap.Counters[k] {
			return fmt.Errorf("obs: counter %s: window sum %d != snapshot %d", k, sums[k], snap.Counters[k])
		}
		delete(sums, k)
	}
	for _, k := range sortedKeys(sums) {
		return fmt.Errorf("obs: counter %s: windows carry %d but snapshot lacks the series", k, sums[k])
	}

	type hsum struct {
		count   int64
		sum     float64
		min     float64
		max     float64
		buckets map[int32]int64
	}
	hsums := map[string]*hsum{}
	for _, w := range s.Windows {
		for k, h := range w.Hists {
			a := hsums[k]
			if a == nil {
				a = &hsum{min: h.Min, max: h.Max, buckets: map[int32]int64{}}
				hsums[k] = a
			}
			a.count += h.Count
			a.sum += h.Sum
			if h.Min < a.min {
				a.min = h.Min
			}
			if h.Max > a.max {
				a.max = h.Max
			}
			for bk, n := range h.Buckets {
				a.buckets[bk] += n
			}
		}
	}
	for _, k := range sortedKeys(snap.Hists) {
		sh := snap.Hists[k]
		a := hsums[k]
		if a == nil {
			if sh.Count != 0 {
				return fmt.Errorf("obs: hist %s: snapshot has %d observations but no windows", k, sh.Count)
			}
			continue
		}
		switch {
		case a.count != sh.Count:
			return fmt.Errorf("obs: hist %s: window count %d != snapshot %d", k, a.count, sh.Count)
		case a.sum != sh.Sum:
			return fmt.Errorf("obs: hist %s: window sum %v != snapshot %v", k, a.sum, sh.Sum)
		case a.min != sh.Min || a.max != sh.Max:
			return fmt.Errorf("obs: hist %s: window min/max %v/%v != snapshot %v/%v", k, a.min, a.max, sh.Min, sh.Max)
		}
		for bk, n := range a.buckets {
			if sh.Buckets[bk] != n {
				return fmt.Errorf("obs: hist %s: bucket %d window count %d != snapshot %d", k, bk, n, sh.Buckets[bk])
			}
		}
		for bk, n := range sh.Buckets {
			if a.buckets[bk] != n {
				return fmt.Errorf("obs: hist %s: bucket %d window count %d != snapshot %d", k, bk, a.buckets[bk], n)
			}
		}
		delete(hsums, k)
	}
	for _, k := range sortedKeys(hsums) {
		return fmt.Errorf("obs: hist %s: windows carry %d observations but snapshot lacks the series", k, hsums[k].count)
	}

	for _, k := range sortedKeys(snap.Gauges) {
		found := false
		var last float64
		for _, w := range s.Windows {
			if v, ok := w.Gauges[k]; ok {
				last, found = v, true
			}
		}
		if !found {
			return fmt.Errorf("obs: gauge %s: snapshot has a value but no window set it", k)
		}
		if last != snap.Gauges[k] {
			return fmt.Errorf("obs: gauge %s: last window value %v != snapshot %v", k, last, snap.Gauges[k])
		}
	}
	return nil
}

// Table renders selected metrics per window, one row per window: counters as
// per-second rates, histograms as count/mean/p99, gauges as raw values.
// Metrics absent from the series render as zeros.
func (s *Series) Table(title string, names ...string) *stats.Table {
	const (
		kindCounter = iota
		kindGauge
		kindHist
	)
	kinds := make([]int, len(names))
	for ni, name := range names {
		kinds[ni] = kindCounter
		for _, w := range s.Windows {
			if _, ok := w.Hists[name]; ok {
				kinds[ni] = kindHist
				break
			}
			if _, ok := w.Gauges[name]; ok {
				kinds[ni] = kindGauge
				break
			}
		}
	}
	headers := []string{"t (s)"}
	for ni, name := range names {
		switch kinds[ni] {
		case kindHist:
			headers = append(headers, name+" n", name+" mean", name+" p99")
		case kindGauge:
			headers = append(headers, name)
		default:
			headers = append(headers, name+" (/s)")
		}
	}
	t := stats.NewTable(title, headers...)
	for _, w := range s.Windows {
		row := []any{fmt.Sprintf("%.3f", w.End.Seconds())}
		for ni, name := range names {
			switch kinds[ni] {
			case kindHist:
				h := w.Hists[name]
				row = append(row, fmt.Sprintf("%d", h.Count),
					fmt.Sprintf("%.6g", h.Mean), fmt.Sprintf("%.6g", h.P99))
			case kindGauge:
				row = append(row, fmt.Sprintf("%.6g", w.Gauges[name]))
			default:
				row = append(row, fmt.Sprintf("%.2f", s.Rate(name, w.Index, w.Index)))
			}
		}
		t.AddRowf(row...)
	}
	return t
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
