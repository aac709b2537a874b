// Package emc is a behavioural model of Pond's external memory controller
// ASIC (§4.1): a multi-headed CXL device exposing its entire DRAM capacity
// to every connected host through per-port HDM decoders, with ownership
// enforced at 1 GB slice granularity by an on-chip permission table.
//
// The model captures the properties the paper argues for:
//
//   - Each slice is assigned to at most one host at a time; hosts are
//     explicitly notified of changes (§4.2).
//   - The permission table is tiny: tracking 1024 slices across 64 hosts
//     takes 768 bytes of EMC state.
//   - A request whose requestor does not own the cacheline's slice is a
//     fatal memory error, never silent data exposure.
//   - EMC failures only affect VMs with memory on that EMC (blast
//     radius, §4.2 "Failure management").
package emc

import (
	"errors"
	"fmt"
	"sync"
)

// SliceGB is the granularity of pool memory assignment (§4.1).
const SliceGB = 1

// HostID identifies one CXL head (a connected CPU socket).
type HostID int

// Unowned marks a slice that belongs to the free pool.
const Unowned HostID = -1

// Retired marks a slice decommissioned by an elastic-pool shrink: it is
// not assignable, serves no accesses, and does not count toward
// capacity. Slice IDs stay stable across retire/grow cycles so in-flight
// SliceRefs never dangle; a later Grow re-activates retired slices
// before minting new ones.
const Retired HostID = -2

// SliceID indexes a 1 GB slice within one EMC.
type SliceID int

// FatalMemoryError is the outcome of an access-permission violation: the
// EMC terminates the access with a fatal (uncorrectable) memory error
// rather than serving data the requestor does not own.
type FatalMemoryError struct {
	Device string
	Slice  SliceID
	Owner  HostID // Unowned if the slice is free
	Access HostID
}

// Error implements the error interface.
func (e *FatalMemoryError) Error() string {
	return fmt.Sprintf("emc %s: fatal memory error: host %d accessed slice %d owned by %d",
		e.Device, e.Access, e.Slice, e.Owner)
}

// ErrDeviceFailed is returned for any operation on a failed EMC.
var ErrDeviceFailed = errors.New("emc: device failed")

// ErrSliceBusy is returned when assigning a slice that another host owns.
var ErrSliceBusy = errors.New("emc: slice owned by another host")

// ErrNotOwner is returned when releasing a slice the host does not own.
var ErrNotOwner = errors.New("emc: slice not owned by releasing host")

// ErrNoFreeSlice is returned when the device has no unassigned slices.
var ErrNoFreeSlice = errors.New("emc: no free slice")

// Device is one multi-headed EMC.
type Device struct {
	mu     sync.Mutex
	name   string
	heads  int
	owner  []HostID // per-slice owner
	failed bool

	// assignments counts slice (re)assignments for telemetry.
	assignments int64
}

// NewDevice creates an EMC with the given capacity (GB, one slice per GB)
// and number of CXL heads. It panics on non-positive sizes, mirroring a
// mis-specified hardware SKU.
func NewDevice(name string, capacityGB, heads int) *Device {
	if capacityGB <= 0 || heads <= 0 {
		panic(fmt.Sprintf("emc: invalid device %q: %d GB, %d heads", name, capacityGB, heads))
	}
	owner := make([]HostID, capacityGB/SliceGB)
	for i := range owner {
		owner[i] = Unowned
	}
	return &Device{name: name, heads: heads, owner: owner}
}

// Name returns the device name.
func (d *Device) Name() string { return d.name }

// Heads returns the number of CXL ports (connectable hosts).
func (d *Device) Heads() int { return d.heads }

// CapacityGB returns the device's active capacity: physical slices minus
// the ones retired by an elastic-pool shrink.
func (d *Device) CapacityGB() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := 0
	for _, o := range d.owner {
		if o != Retired {
			n++
		}
	}
	return n * SliceGB
}

// Slices returns the number of physical slices, retired ones included —
// the ID space, not the active capacity.
func (d *Device) Slices() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.owner)
}

// validHost checks that h is one of the device's heads.
func (d *Device) validHost(h HostID) error {
	if h < 0 || int(h) >= d.heads {
		return fmt.Errorf("emc %s: host %d not connected (device has %d heads)", d.name, h, d.heads)
	}
	return nil
}

// Assign gives slice s to host h, as triggered by the Pool Manager's
// add_capacity flow. Assigning a slice the host already owns is
// idempotent; assigning a slice owned by another host fails with
// ErrSliceBusy — the EMC never silently reassigns live memory.
func (d *Device) Assign(s SliceID, h HostID) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.failed {
		return ErrDeviceFailed
	}
	if err := d.validHost(h); err != nil {
		return err
	}
	if s < 0 || int(s) >= len(d.owner) {
		return fmt.Errorf("emc %s: slice %d out of range", d.name, s)
	}
	switch d.owner[s] {
	case h:
		return nil
	case Unowned:
		d.owner[s] = h
		d.assignments++
		return nil
	case Retired:
		return fmt.Errorf("emc %s: slice %d is retired", d.name, s)
	default:
		return fmt.Errorf("%w: slice %d owned by host %d", ErrSliceBusy, s, d.owner[s])
	}
}

// AssignAny assigns n free slices to host h and appends them to dst,
// returning the extended slice; a caller that passes a reused buffer
// allocates nothing. It assigns nothing, and returns dst unchanged, if
// n is 0 or fewer than n slices are free; a negative n is an error.
func (d *Device) AssignAny(dst []SliceID, n int, h HostID) ([]SliceID, error) {
	if n < 0 {
		return dst, fmt.Errorf("emc %s: cannot assign %d slices", d.name, n)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.failed {
		return dst, ErrDeviceFailed
	}
	if err := d.validHost(h); err != nil {
		return dst, err
	}
	base := len(dst)
	for i, o := range d.owner {
		if len(dst)-base == n {
			break
		}
		if o == Unowned {
			dst = append(dst, SliceID(i))
		}
	}
	free := dst[base:]
	if len(free) < n {
		return dst[:base], fmt.Errorf("%w: need %d, have %d", ErrNoFreeSlice, n, len(free))
	}
	for _, s := range free {
		d.owner[s] = h
		d.assignments++
	}
	return dst, nil
}

// Release returns slice s from host h to the free pool (the Pool
// Manager's release_capacity flow). Only the owner may release.
func (d *Device) Release(s SliceID, h HostID) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.failed {
		return ErrDeviceFailed
	}
	if s < 0 || int(s) >= len(d.owner) {
		return fmt.Errorf("emc %s: slice %d out of range", d.name, s)
	}
	if d.owner[s] != h {
		return fmt.Errorf("%w: slice %d owned by %d, released by %d", ErrNotOwner, s, d.owner[s], h)
	}
	d.owner[s] = Unowned
	return nil
}

// Owner returns the current owner of slice s (Unowned if free).
func (d *Device) Owner(s SliceID) HostID {
	d.mu.Lock()
	defer d.mu.Unlock()
	if s < 0 || int(s) >= len(d.owner) {
		return Unowned
	}
	return d.owner[s]
}

// Access models a CXL.mem request from host h to slice s: the EMC checks
// whether requestor and owner match and returns a FatalMemoryError
// otherwise (§4.1 "Disallowed accesses result in fatal memory errors").
func (d *Device) Access(s SliceID, h HostID) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.failed {
		return ErrDeviceFailed
	}
	if s < 0 || int(s) >= len(d.owner) {
		return &FatalMemoryError{Device: d.name, Slice: s, Owner: Unowned, Access: h}
	}
	if d.owner[s] != h {
		return &FatalMemoryError{Device: d.name, Slice: s, Owner: d.owner[s], Access: h}
	}
	return nil
}

// FreeSlices returns the number of assignable slices: unassigned ones on
// a healthy device, zero after a failure (a dead EMC serves nothing, so
// counting its slices as free would misroute capacity planning).
func (d *Device) FreeSlices() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.failed {
		return 0
	}
	n := 0
	for _, o := range d.owner {
		if o == Unowned {
			n++
		}
	}
	return n
}

// OwnedBy returns all slices currently assigned to host h.
func (d *Device) OwnedBy(h HostID) []SliceID {
	d.mu.Lock()
	defer d.mu.Unlock()
	var out []SliceID
	for i, o := range d.owner {
		if o == h {
			out = append(out, SliceID(i))
		}
	}
	return out
}

// ForceReleaseAll reclaims every slice owned by a host, returning the
// freed slices. This is the host-failure path of §4.2: "CPU/host failures
// are isolated and associated pool memory is reallocated to other hosts".
// The dead host cannot run the offline protocol, so the Pool Manager
// resets the permission-table entries directly.
func (d *Device) ForceReleaseAll(h HostID) []SliceID {
	d.mu.Lock()
	defer d.mu.Unlock()
	var freed []SliceID
	if d.failed {
		return nil
	}
	for i, o := range d.owner {
		if o == h {
			d.owner[i] = Unowned
			freed = append(freed, SliceID(i))
		}
	}
	return freed
}

// Grow adds gb of active capacity: retired slices are re-activated first
// (lowest IDs first, keeping the ID space compact), then fresh slices are
// appended. This is the elastic-pool grow path — in hardware terms,
// re-enabling decommissioned DIMM ranks before installing new ones.
func (d *Device) Grow(gb int) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.failed {
		return ErrDeviceFailed
	}
	if gb <= 0 {
		return fmt.Errorf("emc %s: non-positive grow %d GB", d.name, gb)
	}
	need := gb / SliceGB
	for i := 0; i < len(d.owner) && need > 0; i++ {
		if d.owner[i] == Retired {
			d.owner[i] = Unowned
			need--
		}
	}
	for ; need > 0; need-- {
		d.owner = append(d.owner, Unowned)
	}
	return nil
}

// Retire decommissions up to n free slices (highest IDs first, so fresh
// growth is unwound before original capacity) and returns how many were
// actually retired. Only Unowned slices are eligible: slices assigned to
// a host — in use or draining through offline — are never revoked, which
// is what makes an elastic shrink safe for live VMs. A failed device
// retires nothing (its slices are already gone with it).
func (d *Device) Retire(n int) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.failed || n <= 0 {
		return 0
	}
	retired := 0
	for i := len(d.owner) - 1; i >= 0 && retired < n; i-- {
		if d.owner[i] == Unowned {
			d.owner[i] = Retired
			retired++
		}
	}
	return retired
}

// RetiredSlices returns the number of retired (decommissioned) slices.
func (d *Device) RetiredSlices() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := 0
	for _, o := range d.owner {
		if o == Retired {
			n++
		}
	}
	return n
}

// Fail marks the device failed: every subsequent operation errors, which
// the host side surfaces as memory loss for exactly the VMs with slices
// on this EMC.
func (d *Device) Fail() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.failed = true
}

// Recover clears the failure (e.g. after blade replacement); ownership
// state is reset because DRAM contents did not survive. Retired slices
// stay retired — decommissioning is a capacity decision, not a DRAM one.
func (d *Device) Recover() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.failed = false
	for i := range d.owner {
		if d.owner[i] != Retired {
			d.owner[i] = Unowned
		}
	}
}

// Failed reports the failure state.
func (d *Device) Failed() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.failed
}

// Assignments returns the total number of slice assignments performed.
func (d *Device) Assignments() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.assignments
}

// PermissionTableBytes returns the size of the on-EMC ownership state:
// one owner entry per slice, each wide enough to number all heads. The
// paper's example — 1024 slices (1 TB), 64 hosts (6 bits) — comes to 768
// bytes.
func (d *Device) PermissionTableBytes() int {
	bits := bitsFor(d.heads)
	return (len(d.owner)*bits + 7) / 8
}

// bitsFor returns the number of bits needed to number n distinct hosts.
func bitsFor(n int) int {
	bits := 0
	for v := n - 1; v > 0; v >>= 1 {
		bits++
	}
	if bits == 0 {
		bits = 1
	}
	return bits
}
