package emc

import (
	"errors"
	"fmt"
	"sync"
)

// DCD implements the inband alternative to Pond's out-of-band Pool
// Manager bus (§4.2): CXL 3.0's Dynamic Capacity Device flow, where
// capacity changes travel as device events on the CXL link itself and
// the host accepts or releases extents in protocol messages. The paper
// notes this "would maintain the same functionality" — which the
// equivalence tests in this package check.
//
// Protocol shape (CXL 3.0 §9.13, simplified to slice granularity):
//
//	device --> host : AddCapacityEvent(extent)     (host must Accept)
//	host --> device : AcceptExtent(extent)
//	host --> device : ReleaseExtent(extent)        (device confirms)
type DCD struct {
	mu  sync.Mutex
	dev *Device

	// pending holds offered-but-unaccepted extents per host.
	pending map[HostID][]SliceID
}

// EventKind labels DCD events delivered to hosts.
type EventKind int

// DCD event kinds.
const (
	// EventAddCapacity offers an extent to the host.
	EventAddCapacity EventKind = iota
	// EventReleaseConfirm acknowledges a host-initiated release.
	EventReleaseConfirm
)

// Event is one inband capacity event.
type Event struct {
	Kind  EventKind
	Slice SliceID
}

// ErrNotOffered is returned when a host accepts an extent that was never
// offered to it.
var ErrNotOffered = errors.New("emc: extent not offered to host")

// NewDCD wraps a device with the inband capacity protocol.
func NewDCD(dev *Device) *DCD {
	return &DCD{dev: dev, pending: make(map[HostID][]SliceID)}
}

// Offer assigns n free slices to the host at the device and queues
// add-capacity events. The capacity is owned by the host immediately
// (accesses are legal) but the host's memory manager only uses it after
// Accept — mirroring the offered/accepted extent states of the spec.
func (d *DCD) Offer(h HostID, n int) ([]Event, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	slices, err := d.dev.AssignAny(nil, n, h)
	if err != nil {
		return nil, err
	}
	events := make([]Event, len(slices))
	for i, s := range slices {
		d.pending[h] = append(d.pending[h], s)
		events[i] = Event{Kind: EventAddCapacity, Slice: s}
	}
	return events, nil
}

// Accept completes the add-capacity handshake for one extent.
func (d *DCD) Accept(h HostID, s SliceID) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	queue := d.pending[h]
	for i, ps := range queue {
		if ps == s {
			d.pending[h] = append(queue[:i], queue[i+1:]...)
			return nil
		}
	}
	return fmt.Errorf("%w: host %d, slice %d", ErrNotOffered, h, s)
}

// Release returns an extent to the device's free pool and emits the
// confirmation event. Unaccepted (still pending) extents may also be
// released; their offer is dropped.
func (d *DCD) Release(h HostID, s SliceID) (Event, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.dev.Release(s, h); err != nil {
		return Event{}, err
	}
	queue := d.pending[h]
	for i, ps := range queue {
		if ps == s {
			d.pending[h] = append(queue[:i], queue[i+1:]...)
			break
		}
	}
	return Event{Kind: EventReleaseConfirm, Slice: s}, nil
}

// PendingFor returns extents offered to a host and not yet accepted.
func (d *DCD) PendingFor(h HostID) []SliceID {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]SliceID(nil), d.pending[h]...)
}

// Device returns the underlying device (for access checks).
func (d *DCD) Device() *Device { return d.dev }
