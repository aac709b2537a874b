// Package pool implements Pond's Pool Manager (§4.2, Figure 9): the
// control entity, colocated with the EMCs, that assigns 1 GB memory
// slices to hosts on VM arrival and reclaims them after VM departure.
//
// Two timing asymmetries drive the design, both measured in the paper:
// onlining a slice on a host is near-instantaneous (microseconds per GB),
// while offlining takes 10–100 ms per GB. Pond therefore releases
// capacity asynchronously — departed VMs' slices drain back into the free
// pool in the background — and keeps a buffer of unallocated pool memory
// so VM starts never wait on offlining (Finding 10: the offlining rate
// needed stays below 1 GB/s for 99.99% of VM starts).
//
// The manager operates in simulated time: callers pass the current time
// to each operation, which lets the cluster simulator drive thousands of
// days of pool activity deterministically.
package pool

import (
	"fmt"
	"slices"
	"sort"

	"pond/internal/emc"
	"pond/internal/stats"
)

// Timing constants (§4.2).
const (
	// OnlineSecPerGB: onlining is "near instantaneous with
	// microseconds/GB".
	OnlineSecPerGB = 20e-6

	// Offline timing: "offlining 1GB slices empirically takes 10-100
	// milliseconds/GB".
	OfflineMinSecPerGB = 0.010
	OfflineMaxSecPerGB = 0.100
)

// SliceRef names one slice on one EMC.
type SliceRef struct {
	EMC   int // index into the manager's device list
	Slice emc.SliceID
}

// AddResult reports a completed add_capacity operation.
type AddResult struct {
	Slices []SliceRef
	// OnlineLatencySec is how long the host driver took to online the
	// slices (charged to, but not blocking, the VM start path).
	OnlineLatencySec float64
	// WaitedSec is how long the request had to wait for pending
	// offlines to drain because the free buffer was short. Zero for the
	// common, buffer-satisfied case.
	WaitedSec float64
	// RequiredOfflineRate is the offline throughput (GB/s) that had to
	// materialize for this start; 0 when served from the buffer
	// (Finding 10's metric).
	RequiredOfflineRate float64
}

// pendingRelease is a slice being offlined on its old host.
type pendingRelease struct {
	ref      SliceRef
	host     emc.HostID
	readySec float64
}

// Manager is the Pool Manager.
type Manager struct {
	emcs []*emc.Device
	r    *stats.Rand

	// conn[h] lists the device indices host h is physically cabled to;
	// nil means every host reaches every EMC (the flat pool group of the
	// paper). AddCapacity only assigns slices a host can actually decode.
	conn [][]int

	pending []pendingRelease // sorted by readySec

	// startRates records RequiredOfflineRate per AddCapacity call, the
	// distribution behind Finding 10.
	startRates []float64

	onlineOps  int64
	releaseOps int64

	// flat caches the all-devices index list for flat connectivity;
	// orderScratch holds AddCapacity's fill-order sort and sliceScratch
	// one device's assigned slices between calls. All three are pure
	// reuse: AddCapacity's steady state allocates only the result's
	// slice list, which the caller keeps, and a refusal's error.
	flat         []int
	orderScratch []int
	sliceScratch []emc.SliceID
}

// exhaustedError is AddCapacity's refusal when the reachable free and
// draining capacity cannot cover a request — the routine pool-exhaustion
// probe behind every fallback to all-local. Rendering the message lazily
// keeps that path (the scheduler only checks for an error) down to one
// allocation instead of fmt.Errorf's several.
type exhaustedError struct {
	gb, free, covered int
	host              emc.HostID
}

func (e *exhaustedError) Error() string {
	return fmt.Sprintf("pool: %d GB requested, %d free and %d draining reachable from host %d",
		e.gb, e.free, e.covered, e.host)
}

// NewManager creates a Pool Manager over the given EMCs with flat
// connectivity (every host reaches every device). The RNG drives the
// per-operation offline duration draw.
func NewManager(emcs []*emc.Device, r *stats.Rand) *Manager {
	return NewManagerTopo(emcs, nil, r)
}

// NewManagerTopo creates a Pool Manager with an explicit host-to-EMC
// connectivity graph: conn[h] lists the device indices host h reaches
// (see internal/topo). A nil conn means flat connectivity.
func NewManagerTopo(emcs []*emc.Device, conn [][]int, r *stats.Rand) *Manager {
	if len(emcs) == 0 {
		panic("pool: manager needs at least one EMC")
	}
	for h, devs := range conn {
		for _, di := range devs {
			if di < 0 || di >= len(emcs) {
				panic(fmt.Sprintf("pool: host %d wired to EMC %d of %d", h, di, len(emcs)))
			}
		}
	}
	return &Manager{emcs: emcs, conn: conn, r: r}
}

// devicesFor returns the device indices host h can reach, in index order.
func (m *Manager) devicesFor(h emc.HostID) []int {
	if m.conn != nil && int(h) >= 0 && int(h) < len(m.conn) {
		return m.conn[h]
	}
	if m.flat == nil {
		m.flat = make([]int, len(m.emcs))
		for i := range m.flat {
			m.flat[i] = i
		}
	}
	return m.flat
}

// reaches reports whether host h is cabled to device di.
func (m *Manager) reaches(h emc.HostID, di int) bool {
	if m.conn == nil || int(h) < 0 || int(h) >= len(m.conn) {
		return true
	}
	for _, d := range m.conn[h] {
		if d == di {
			return true
		}
	}
	return false
}

// PoolGB returns the total pool capacity across EMCs.
func (m *Manager) PoolGB() int {
	total := 0
	for _, d := range m.emcs {
		total += d.CapacityGB()
	}
	return total
}

// FreeGB returns the immediately assignable capacity at the given time
// (pending offlines that have completed are drained first).
func (m *Manager) FreeGB(now float64) int {
	m.drain(now)
	free := 0
	for _, d := range m.emcs {
		free += d.FreeSlices() * emc.SliceGB
	}
	return free
}

// FreeGBFor returns the immediately assignable capacity reachable from
// host h — under sparse topologies a strict subset of FreeGB.
func (m *Manager) FreeGBFor(h emc.HostID, now float64) int {
	m.drain(now)
	free := 0
	for _, di := range m.devicesFor(h) {
		free += m.emcs[di].FreeSlices() * emc.SliceGB
	}
	return free
}

// PendingGB returns capacity still draining through offline.
func (m *Manager) PendingGB(now float64) int {
	m.drain(now)
	return len(m.pending) * emc.SliceGB
}

// drain completes all pending releases whose offline finished by now.
func (m *Manager) drain(now float64) {
	i := 0
	for ; i < len(m.pending); i++ {
		p := m.pending[i]
		if p.readySec > now {
			break
		}
		// Release back to the device's free pool; an error here means
		// the device failed mid-offline, in which case the slice is
		// gone with the device and dropping it is correct.
		_ = m.emcs[p.ref.EMC].Release(p.ref.Slice, p.host)
	}
	if i > 0 {
		// Shift the rest to the front rather than reslicing past the
		// drained entries, so later appends reuse the array instead of
		// regrowing it.
		m.pending = m.pending[:copy(m.pending, m.pending[i:])]
	}
}

// AddCapacity implements the add_capacity(host, slice) flow: pick gb
// worth of free slices, assign them to the host on the EMC, and notify
// the host driver to online them. If the free buffer is short the request
// waits for the earliest pending offlines — the case Finding 10 shows is
// vanishingly rare with a sane buffer.
func (m *Manager) AddCapacity(h emc.HostID, gb int, now float64) (AddResult, error) {
	if gb <= 0 {
		return AddResult{}, fmt.Errorf("pool: non-positive capacity request %d GB", gb)
	}
	m.drain(now)

	res := AddResult{}
	need := gb / emc.SliceGB

	if free := m.FreeGBFor(h, now); free < gb {
		// Wait for pending offlines on reachable EMCs to cover the
		// shortfall.
		shortfall := gb - free
		covered := 0
		var waitUntil float64
		for _, p := range m.pending {
			// Pending slices on unreachable or failed devices will never
			// become assignable capacity for this host.
			if !m.reaches(h, p.ref.EMC) || m.emcs[p.ref.EMC].Failed() {
				continue
			}
			covered += emc.SliceGB
			if covered >= shortfall {
				waitUntil = p.readySec
				break
			}
		}
		if covered < shortfall {
			return AddResult{}, &exhaustedError{gb: gb, free: free, covered: covered, host: h}
		}
		res.WaitedSec = waitUntil - now
		if res.WaitedSec > 0 {
			res.RequiredOfflineRate = float64(shortfall) / res.WaitedSec
		}
		now = waitUntil
		m.drain(now)
	}
	m.startRates = append(m.startRates, res.RequiredOfflineRate)

	// Among the EMCs this host reaches, prefer filling from the one with
	// the most free slices: keeps each VM's pool memory on one EMC,
	// minimizing failure blast radius. Ties go to the lower index, so the
	// order is total and any sort algorithm yields the same one.
	order := append(m.orderScratch[:0], m.devicesFor(h)...)
	m.orderScratch = order
	slices.SortFunc(order, func(a, b int) int {
		if fa, fb := m.emcs[a].FreeSlices(), m.emcs[b].FreeSlices(); fa != fb {
			return fb - fa
		}
		return a - b
	})
	res.Slices = make([]SliceRef, 0, need)
	for _, di := range order {
		if need == 0 {
			break
		}
		d := m.emcs[di]
		take := d.FreeSlices()
		if take > need {
			take = need
		}
		if take == 0 {
			continue
		}
		assigned, err := d.AssignAny(m.sliceScratch[:0], take, h)
		m.sliceScratch = assigned
		if err != nil {
			continue // failed EMC: try the next one
		}
		for _, s := range assigned {
			res.Slices = append(res.Slices, SliceRef{EMC: di, Slice: s})
		}
		need -= take
	}
	if need > 0 {
		// Roll back partial assignment; the free pool shrank between
		// drain and assign (possible only with concurrent use).
		for _, ref := range res.Slices {
			_ = m.emcs[ref.EMC].Release(ref.Slice, h)
		}
		return AddResult{}, fmt.Errorf("pool: assignment raced; %d GB short", need)
	}
	res.OnlineLatencySec = float64(gb) * OnlineSecPerGB
	m.onlineOps++
	return res, nil
}

// ReleaseCapacity implements release_capacity: the host offlines each
// slice (10–100 ms/GB, drawn per operation) and the slice re-enters the
// free pool when the offline completes. The call itself returns
// immediately — this is the asynchronous release strategy of Figure 9.
func (m *Manager) ReleaseCapacity(h emc.HostID, refs []SliceRef, now float64) {
	for _, ref := range refs {
		perGB := m.r.Bounded(OfflineMinSecPerGB, OfflineMaxSecPerGB)
		m.pending = append(m.pending, pendingRelease{
			ref:      ref,
			host:     h,
			readySec: now + perGB*float64(emc.SliceGB),
		})
	}
	sort.Slice(m.pending, func(i, j int) bool { return m.pending[i].readySec < m.pending[j].readySec })
	m.releaseOps++
}

// GrowEMC adds gb of active capacity to one device (the elastic-pool
// grow path and the resize@… injection). Growth is near-instantaneous —
// fresh slices come up unowned and assignable, like onlining.
func (m *Manager) GrowEMC(di, gb int) error {
	if di < 0 || di >= len(m.emcs) {
		return fmt.Errorf("pool: grow targets EMC %d of %d", di, len(m.emcs))
	}
	return m.emcs[di].Grow(gb)
}

// FailEMC marks one device failed (§4.2): the memory on its slices is
// lost, and the manager assigns none of them while the device is down.
func (m *Manager) FailEMC(di int) error {
	if di < 0 || di >= len(m.emcs) {
		return fmt.Errorf("pool: fail targets EMC %d of %d", di, len(m.emcs))
	}
	m.emcs[di].Fail()
	return nil
}

// ShrinkEMC retires up to gb of free capacity on one device, returning
// the GB actually retired. Slices assigned to hosts — live or draining —
// are never revoked, so a shrink can fall short; callers re-request at
// the next planning round once departures have drained capacity back.
func (m *Manager) ShrinkEMC(di, gb int, now float64) (int, error) {
	if di < 0 || di >= len(m.emcs) {
		return 0, fmt.Errorf("pool: shrink targets EMC %d of %d", di, len(m.emcs))
	}
	if gb <= 0 {
		return 0, fmt.Errorf("pool: non-positive shrink %d GB", gb)
	}
	m.drain(now)
	return m.emcs[di].Retire(gb/emc.SliceGB) * emc.SliceGB, nil
}

// Grow spreads gb of new capacity across healthy devices, smallest
// active capacity first (ties by index), one slice at a time — growth
// rebalances the pool toward evenly-sized devices so every topology pod
// gains headroom. It returns the GB added (short only when every device
// has failed).
func (m *Manager) Grow(gb int) int {
	need := gb / emc.SliceGB
	caps := make([]int, len(m.emcs))
	alive := 0
	for i, d := range m.emcs {
		caps[i] = d.CapacityGB()
		if !d.Failed() {
			alive++
		}
	}
	if alive == 0 {
		return 0
	}
	added := 0
	for ; need > 0; need-- {
		best := -1
		for i, d := range m.emcs {
			if d.Failed() {
				continue
			}
			if best < 0 || caps[i] < caps[best] {
				best = i
			}
		}
		if err := m.emcs[best].Grow(emc.SliceGB); err != nil {
			break
		}
		caps[best] += emc.SliceGB
		added += emc.SliceGB
	}
	return added
}

// Shrink retires up to gb of free capacity across devices, taking one
// slice at a time from the device with the most free slices (ties by
// index). Levelling the shrink this way respects topology reachability:
// no device is drained to empty while its neighbours stay fat, so hosts
// wired to a strict subset of EMCs keep proportional headroom. Assigned
// and draining slices are never revoked — live VMs cannot be stranded by
// a shrink — so the result may fall short of the request; it returns the
// GB actually retired.
func (m *Manager) Shrink(gb int, now float64) int {
	m.drain(now)
	need := gb / emc.SliceGB
	free := make([]int, len(m.emcs))
	for i, d := range m.emcs {
		free[i] = d.FreeSlices()
	}
	retired := 0
	for ; need > 0; need-- {
		best := -1
		for i := range m.emcs {
			if free[i] == 0 {
				continue
			}
			if best < 0 || free[i] > free[best] {
				best = i
			}
		}
		if best < 0 {
			break
		}
		if m.emcs[best].Retire(1) == 0 {
			break
		}
		free[best]--
		retired += emc.SliceGB
	}
	return retired
}

// AssignedGB returns the capacity not immediately assignable: slices
// held by hosts, draining through pending release, or lost to failed
// devices — the floor below which a shrink cannot reach.
func (m *Manager) AssignedGB(now float64) int {
	return m.PoolGB() - m.FreeGB(now)
}

// RetiredGB returns the capacity decommissioned by shrinks and not yet
// re-activated by a grow.
func (m *Manager) RetiredGB() int {
	total := 0
	for _, d := range m.emcs {
		total += d.RetiredSlices() * emc.SliceGB
	}
	return total
}

// ReclaimHost handles a host failure (§4.2): every slice the dead host
// owned — online, in use, or draining — returns to the free pool
// immediately, since the host can no longer run the offline protocol.
// It returns the total capacity reclaimed.
func (m *Manager) ReclaimHost(h emc.HostID) int {
	// Drop the dead host's pending releases; their slices are force
	// released below.
	kept := m.pending[:0]
	for _, p := range m.pending {
		if p.host != h {
			kept = append(kept, p)
		}
	}
	m.pending = kept
	reclaimed := 0
	for _, d := range m.emcs {
		reclaimed += len(d.ForceReleaseAll(h)) * emc.SliceGB
	}
	return reclaimed
}

// StartRates returns the per-VM-start required offline rates (GB/s)
// recorded so far; the Finding 10 experiment summarizes this.
func (m *Manager) StartRates() []float64 {
	return append([]float64(nil), m.startRates...)
}

// Ops returns operation counters (onlines, releases).
func (m *Manager) Ops() (online, release int64) { return m.onlineOps, m.releaseOps }
