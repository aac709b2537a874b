package telemetry

import (
	"math"
	"sort"
	"testing"

	"pond/internal/cluster"
	"pond/internal/stats"
)

// historyValues are the untouched fractions the fuzz input picks from:
// duplicates, both ends of [0, 1], and the two values whose place among
// equals sort.Float64s leaves open (-0 beside +0, and NaN).
var historyValues = [16]float64{
	0, 1, 0.25, 0.5, 0.75, 0.125, 1, 0,
	0.3, 0.7, 0.5, 0.9, 0.1, 0.6, math.Copysign(0, -1), math.NaN(),
}

// historyWindows are the query windows: short ones slide as the clock
// advances, the long one never drops a record.
var historyWindows = [3]float64{3, 10, 1e6}

// FuzzCustomerHistory drives a Store with interleaved outcomes, history
// queries and State/SetState round trips decoded from the input, and
// checks every History bit for bit against the definition: the window's
// values copied in record order, sorted with sort.Float64s and read
// with stats.QuantileSorted. Each operation takes two bytes, op and arg:
//
//	op%8 in 0..2  outcome for customer (op>>3)%3: value historyValues[arg%16];
//	              at the clock advanced by (arg>>4)&3, or, when
//	              arg>>6 == 3, 1+op>>5 s before the clock (out of order)
//	op%8 in 3..5  query: arg%4 picks repeat, forward, backward or far
//	              forward from the clock; (arg>>2)%3 picks the window
//	op%8 == 6     repeat the previous query exactly
//	op%8 == 7     replace the store by a State/SetState copy
func FuzzCustomerHistory(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		type outcome struct{ end, v float64 }
		s := NewStore()
		recorded := map[cluster.CustomerID][]outcome{}
		var clock, before, window float64 = 0, 0, historyWindows[0]
		var c cluster.CustomerID
		for i := 0; i+1 < len(data); i += 2 {
			op, arg := data[i], data[i+1]
			switch op % 8 {
			case 0, 1, 2:
				cust := cluster.CustomerID(op >> 3 % 3)
				end := clock - 1 - float64(op>>5)
				if arg>>6 != 3 {
					clock += float64(arg >> 4 & 3)
					end = clock
				}
				v := historyValues[arg%16]
				s.RecordOutcome(cust, end, v)
				recorded[cust] = append(recorded[cust], outcome{end, v})
				continue
			case 3, 4, 5:
				c = cluster.CustomerID(op >> 3 % 3)
				window = historyWindows[arg>>2%3]
				switch arg % 4 {
				case 1:
					before = clock + 1
				case 2:
					before = clock - float64(arg>>4)
				case 3:
					before = clock + 8
				}
			case 6:
			case 7:
				restored := NewStore()
				if err := restored.SetState(s.State()); err != nil {
					t.Fatal(err)
				}
				s = restored
				continue
			}
			var xs []float64
			for _, o := range recorded[c] {
				if o.end < before && o.end >= before-window {
					xs = append(xs, o.v)
				}
			}
			var want History
			if len(xs) > 0 {
				sort.Float64s(xs)
				want = History{
					Count: len(xs),
					P0:    xs[0],
					P25:   stats.QuantileSorted(xs, 0.25),
					P50:   stats.QuantileSorted(xs, 0.50),
					P75:   stats.QuantileSorted(xs, 0.75),
					P100:  xs[len(xs)-1],
				}
			}
			got := s.CustomerHistory(c, before, window)
			if !sameHistory(got, want) {
				t.Fatalf("op %d: customer %d window [%g, %g): got %+v, want %+v", i/2, c, before-window, before, got, want)
			}
		}
	})
}

// sameHistory compares two histories bit for bit.
func sameHistory(a, b History) bool {
	if a.Count != b.Count {
		return false
	}
	for _, p := range [][2]float64{{a.P0, b.P0}, {a.P25, b.P25}, {a.P50, b.P50}, {a.P75, b.P75}, {a.P100, b.P100}} {
		if math.Float64bits(p[0]) != math.Float64bits(p[1]) {
			return false
		}
	}
	return true
}
