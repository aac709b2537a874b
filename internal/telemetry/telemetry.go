// Package telemetry is Pond's distributed telemetry database (§4.2, §5):
// per-VM core-PMU counter samples recorded once per second by the
// hypervisor, per-VM untouched-memory outcomes gathered from access-bit
// scans at VM departure, and the per-customer aggregations that feed the
// prediction models' features (Figure 14's "percentiles of memory usage
// in previous VMs by same customer").
package telemetry

import (
	"math"
	"math/bits"
	"sort"
	"sync"

	"pond/internal/cluster"
	"pond/internal/pmu"
	"pond/internal/stats"
)

// maxSamplesPerVM bounds per-VM counter retention (a day of 1 Hz samples
// in production; much smaller here since the models consume means).
const maxSamplesPerVM = 256

// untouchedRecord is one completed VM's outcome. sorted is storage the
// record lends to its customer's memoized window (histWindow): over
// that window's records recs[lo:hi], the sorted fields hold the
// window's untouched values in ascending order. Appends carry it along
// with the record; State does not serialize it.
type untouchedRecord struct {
	endSec    float64
	untouched float64 // fraction of rented memory never touched
	sorted    float64
}

// histWindow memoizes one customer's last computed history: the record
// span [lo, hi) whose sorted values recs[lo:hi].sorted holds, and its
// percentiles. A later query for the same span returns h unchanged; one
// whose span only moved forward updates the sorted values in place
// (slideWindow). irregular marks a span holding a value whose place
// among equal values sort.Float64s leaves open (see regular), which only
// a fresh sort reproduces.
type histWindow struct {
	lo, hi    int
	h         History
	irregular bool
}

// maxFreeSampleBufs bounds the recycled sample-buffer freelist; buffers
// beyond it are dropped to the garbage collector.
const maxFreeSampleBufs = 256

// Store is the in-memory stand-in for the central telemetry database.
// It is safe for concurrent use.
type Store struct {
	mu        sync.Mutex
	samples   map[cluster.VMID][]pmu.Vector
	history   map[cluster.CustomerID][]untouchedRecord
	sensitive map[cluster.CustomerID]bool // QoS-confirmed latency sensitivity

	// Hot-path reuse, all guarded by mu. sampleFree recycles departed
	// VMs' sample buffers into the next RecordSample; histUnsorted marks
	// customers whose outcomes arrived out of endSec order (offline
	// replays), disabling the binary-search window; histCache memoizes
	// the last percentile window per customer; histScratch is the sort
	// buffer for window fractions.
	sampleFree   [][]pmu.Vector
	histUnsorted map[cluster.CustomerID]bool
	histCache    map[cluster.CustomerID]histWindow
	histScratch  []float64
}

// NewStore creates an empty telemetry store.
func NewStore() *Store {
	return &Store{
		samples:      make(map[cluster.VMID][]pmu.Vector),
		sampleFree:   make([][]pmu.Vector, 0, maxFreeSampleBufs),
		history:      make(map[cluster.CustomerID][]untouchedRecord),
		sensitive:    make(map[cluster.CustomerID]bool),
		histUnsorted: make(map[cluster.CustomerID]bool),
		histCache:    make(map[cluster.CustomerID]histWindow),
	}
}

// RecordSample appends a 1 Hz PMU sample for a running VM. First samples
// land in buffers recycled from departed VMs, so a churning fleet
// reaches a steady state where sampling allocates nothing.
func (s *Store) RecordSample(id cluster.VMID, v pmu.Vector) {
	s.mu.Lock()
	defer s.mu.Unlock()
	buf, ok := s.samples[id]
	if !ok {
		if n := len(s.sampleFree); n > 0 {
			buf = s.sampleFree[n-1][:0]
			s.sampleFree = s.sampleFree[:n-1]
		} else {
			// Admission records two samples; start at capacity 2 so a
			// fresh VM never pays the 1→2 growth copy of a 1.6 KB vector.
			buf = make([]pmu.Vector, 0, 2)
		}
	}
	if len(buf) >= maxSamplesPerVM {
		copy(buf, buf[1:])
		buf = buf[:len(buf)-1]
	}
	s.samples[id] = append(buf, v)
}

// MeanCounters returns the mean counter vector for a VM, if any samples
// exist.
func (s *Store) MeanCounters(id cluster.VMID) (pmu.Vector, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	buf := s.samples[id]
	if len(buf) == 0 {
		return pmu.Vector{}, false
	}
	return pmu.MeanVector(buf), true
}

// ForgetVM drops a departed VM's samples (after outcome extraction) and
// recycles the buffer for a future VM's first sample.
func (s *Store) ForgetVM(id cluster.VMID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	buf, ok := s.samples[id]
	if !ok {
		return
	}
	delete(s.samples, id)
	if cap(buf) > 0 && len(s.sampleFree) < maxFreeSampleBufs {
		s.sampleFree = append(s.sampleFree, buf[:0])
	}
}

// RecordOutcome stores a completed VM's minimum untouched-memory fraction
// (the label of Figure 14).
func (s *Store) RecordOutcome(c cluster.CustomerID, endSec, untouchedFrac float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	recs := s.history[c]
	if recs == nil {
		// Most customers accumulate a handful of outcomes quickly; start
		// at capacity 8 so the steady churn of departures does not pay a
		// growth reallocation per power of two per customer.
		recs = make([]untouchedRecord, 0, 8)
	} else if n := len(recs); n > 0 && endSec < recs[n-1].endSec {
		// Out-of-order outcome (offline trace replays): this customer's
		// windows fall back to the full scan from here on.
		s.histUnsorted[c] = true
	}
	s.history[c] = append(recs, untouchedRecord{endSec: endSec, untouched: untouchedFrac})
}

// MarkSensitive records that QoS monitoring found this customer's
// workload latency-sensitive; the scheduler consults this history first
// (§4.4 "retaining a history of VMs that have been latency sensitive").
func (s *Store) MarkSensitive(c cluster.CustomerID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sensitive[c] = true
}

// KnownSensitive reports whether the customer was ever QoS-flagged.
func (s *Store) KnownSensitive(c cluster.CustomerID) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sensitive[c]
}

// History summarizes a customer's untouched-memory record in a trailing
// window: the 0/25/50/75/100th percentiles Figure 14 lists as the
// untouched-memory model's most important features.
type History struct {
	Count                   int
	P0, P25, P50, P75, P100 float64
}

// HasHistory reports whether enough prior VMs exist to trust the
// percentiles. The paper finds ~80% of VMs have sufficient history.
func (h History) HasHistory() bool { return h.Count >= 3 }

// CustomerHistory aggregates the customer's outcomes from the window
// [beforeSec - windowSec, beforeSec). Using only strictly earlier records
// keeps training causal: the nightly model never sees the future.
//
// The online path (every fleet admission calls this) is allocation-free:
// records appended in time order are window-selected by binary search,
// a window identical to the customer's previous query returns the
// memoized result, a window that moved forward by a few records updates
// the previous window's sorted values in place, and any other window is
// sorted afresh in a store-level scratch buffer. Customers with
// out-of-order outcomes take the original scan.
func (s *Store) CustomerHistory(c cluster.CustomerID, beforeSec, windowSec float64) History {
	s.mu.Lock()
	defer s.mu.Unlock()
	recs := s.history[c]
	if s.histUnsorted[c] {
		return s.scanHistory(recs, beforeSec, windowSec)
	}
	// Records are endSec-ascending: the window is the contiguous span
	// [lo, hi) with lo the first record >= beforeSec-windowSec and hi
	// the first record >= beforeSec.
	from := beforeSec - windowSec
	lo := sort.Search(len(recs), func(i int) bool { return recs[i].endSec >= from })
	hi := sort.Search(len(recs), func(i int) bool { return recs[i].endSec >= beforeSec })
	if hi <= lo {
		return History{}
	}
	w, ok := s.histCache[c]
	if ok && w.lo == lo && w.hi == hi {
		return w.h
	}
	if !ok || w.irregular || !slideWindow(recs, w.lo, w.hi, lo, hi) {
		w.irregular = s.sortWindow(recs[lo:hi])
	}
	win := recs[lo:hi]
	w.lo, w.hi = lo, hi
	w.h = summarize(len(win), func(i int) float64 { return win[i].sorted })
	s.histCache[c] = w
	return w.h
}

// scanHistory is CustomerHistory for a customer whose outcomes arrived
// out of endSec order: a full scan and a scratch sort, never memoized.
func (s *Store) scanHistory(recs []untouchedRecord, beforeSec, windowSec float64) History {
	xs := s.histScratch[:0]
	for _, rec := range recs {
		if rec.endSec < beforeSec && rec.endSec >= beforeSec-windowSec {
			xs = append(xs, rec.untouched)
		}
	}
	s.histScratch = xs
	if len(xs) == 0 {
		return History{}
	}
	sort.Float64s(xs)
	return summarize(len(xs), func(i int) float64 { return xs[i] })
}

// sortWindow sorts the window's untouched values into its records'
// sorted fields through the scratch buffer, and reports whether any of
// them is irregular.
func (s *Store) sortWindow(win []untouchedRecord) (irregular bool) {
	xs := s.histScratch[:0]
	for _, rec := range win {
		xs = append(xs, rec.untouched)
		irregular = irregular || !regular(rec.untouched)
	}
	sort.Float64s(xs)
	for i := range win {
		win[i].sorted = xs[i]
	}
	s.histScratch = xs
	return irregular
}

// slideWindow moves a customer's sorted window from recs[oldLo:oldHi]
// to recs[lo:hi] in place, when the window only moved forward and
// kept records in common: the values of the records that left are
// deleted and the values of the records that entered are insertion-
// sorted, which leaves the same ascending values a fresh sort would. It
// reports false, touching nothing, when the window moved otherwise, an
// entering value is irregular, or more records moved than a fresh sort
// costs (each deletion or insertion shifts up to a window of values).
func slideWindow(recs []untouchedRecord, oldLo, oldHi, lo, hi int) bool {
	if lo < oldLo || hi < oldHi || lo >= oldHi {
		return false
	}
	if moved := lo - oldLo + hi - oldHi; moved > bits.Len(uint(hi-lo)) {
		return false
	}
	for _, rec := range recs[oldHi:hi] {
		if !regular(rec.untouched) {
			return false
		}
	}
	// Delete: shifting the values below a leaving one up a slot drops it
	// and advances the window's first slot.
	start := oldLo
	for i := oldLo; i < lo; i++ {
		v := recs[i].untouched
		p := start + sort.Search(oldHi-start, func(k int) bool { return recs[start+k].sorted >= v })
		for ; p > start; p-- {
			recs[p].sorted = recs[p-1].sorted
		}
		start++
	}
	// Insert: each entering record extends the window by its own slot;
	// the values above the entering one shift down into it.
	for end := oldHi; end < hi; end++ {
		v := recs[end].untouched
		p := start + sort.Search(end-start, func(k int) bool { return recs[start+k].sorted > v })
		for k := end; k > p; k-- {
			recs[k].sorted = recs[k-1].sorted
		}
		recs[p].sorted = v
	}
	return true
}

// regular reports whether sort.Float64s fixes v's bits in its output.
// Values that compare equal are bit-identical except NaNs (which sort
// first, in no fixed order among themselves) and -0 beside +0, so a
// window holding either is only ever sorted afresh, as the scratch sort
// always did.
func regular(v float64) bool {
	return v == v && !(v == 0 && math.Signbit(v))
}

// summarize reads the window percentiles off n ascending values.
func summarize(n int, at func(i int) float64) History {
	return History{
		Count: n,
		P0:    at(0),
		P25:   stats.QuantileSortedFunc(n, 0.25, at),
		P50:   stats.QuantileSortedFunc(n, 0.50, at),
		P75:   stats.QuantileSortedFunc(n, 0.75, at),
		P100:  at(n - 1),
	}
}

// UntouchedQuantiles pools every recorded outcome across customers and
// returns the requested quantiles of the fleet's untouched-memory
// distribution — the provisioning input behind Pond's §2 argument that
// untouched (and stranded) memory is what a right-sized pool absorbs.
// It returns nil when no outcomes exist.
func (s *Store) UntouchedQuantiles(qs ...float64) []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	total := 0
	for _, recs := range s.history {
		total += len(recs)
	}
	xs := make([]float64, 0, total)
	for _, recs := range s.history {
		for _, rec := range recs {
			xs = append(xs, rec.untouched)
		}
	}
	if len(xs) == 0 {
		return nil
	}
	sort.Float64s(xs)
	out := make([]float64, len(qs))
	for i, q := range qs {
		out[i] = stats.QuantileSorted(xs, q)
	}
	return out
}

// Customers returns all customers with recorded outcomes.
func (s *Store) Customers() []cluster.CustomerID {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]cluster.CustomerID, 0, len(s.history))
	for c := range s.history {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// OutcomeCount returns the number of outcomes stored for a customer.
func (s *Store) OutcomeCount(c cluster.CustomerID) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.history[c])
}
