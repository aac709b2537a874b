package emc

import (
	"errors"
	"testing"
)

func TestDCDOfferAcceptFlow(t *testing.T) {
	dev := NewDevice("emc0", 16, 4)
	dcd := NewDCD(dev)
	events, err := dcd.Offer(1, 2)
	if err != nil || len(events) != 2 {
		t.Fatalf("offer = %v, %v", events, err)
	}
	for _, e := range events {
		if e.Kind != EventAddCapacity {
			t.Fatalf("event kind = %v", e.Kind)
		}
		// Ownership is already enforced at the device.
		if dev.Owner(e.Slice) != 1 {
			t.Fatalf("offered slice %d not owned by host", e.Slice)
		}
	}
	if got := dcd.PendingFor(1); len(got) != 2 {
		t.Fatalf("pending = %v", got)
	}
	if err := dcd.Accept(1, events[0].Slice); err != nil {
		t.Fatal(err)
	}
	if got := dcd.PendingFor(1); len(got) != 1 {
		t.Fatalf("pending after accept = %v", got)
	}
}

// TestDCDOfferZeroAndNegative: offering no slices queues nothing, and a
// negative count is refused.
func TestDCDOfferZeroAndNegative(t *testing.T) {
	dev := NewDevice("emc0", 8, 4)
	dcd := NewDCD(dev)
	if events, err := dcd.Offer(1, 0); err != nil || len(events) != 0 {
		t.Fatalf("Offer(n=0) = %v, %v; want no events", events, err)
	}
	if _, err := dcd.Offer(1, -2); err == nil {
		t.Fatal("Offer(n=-2) accepted")
	}
	if got := dcd.PendingFor(1); len(got) != 0 || dev.FreeSlices() != 8 {
		t.Fatalf("pending %v, free %d; want none pending and 8 free", got, dev.FreeSlices())
	}
}

func TestDCDAcceptUnoffered(t *testing.T) {
	dcd := NewDCD(NewDevice("emc0", 16, 4))
	if err := dcd.Accept(1, 3); !errors.Is(err, ErrNotOffered) {
		t.Fatalf("err = %v, want ErrNotOffered", err)
	}
}

func TestDCDReleaseFlow(t *testing.T) {
	dev := NewDevice("emc0", 16, 4)
	dcd := NewDCD(dev)
	events, _ := dcd.Offer(2, 1)
	s := events[0].Slice
	dcd.Accept(2, s)
	ev, err := dcd.Release(2, s)
	if err != nil || ev.Kind != EventReleaseConfirm {
		t.Fatalf("release = %v, %v", ev, err)
	}
	if dev.Owner(s) != Unowned {
		t.Fatal("slice not freed at device")
	}
}

func TestDCDReleasePendingExtent(t *testing.T) {
	dev := NewDevice("emc0", 16, 4)
	dcd := NewDCD(dev)
	events, _ := dcd.Offer(2, 1)
	s := events[0].Slice
	// Release without accepting: the offer is dropped too.
	if _, err := dcd.Release(2, s); err != nil {
		t.Fatal(err)
	}
	if got := dcd.PendingFor(2); len(got) != 0 {
		t.Fatalf("pending after release = %v", got)
	}
}

func TestDCDReleaseForeignSlice(t *testing.T) {
	dev := NewDevice("emc0", 16, 4)
	dcd := NewDCD(dev)
	events, _ := dcd.Offer(1, 1)
	if _, err := dcd.Release(2, events[0].Slice); err == nil {
		t.Fatal("foreign release accepted")
	}
}

func TestDCDOfferExhausted(t *testing.T) {
	dcd := NewDCD(NewDevice("emc0", 2, 4))
	if _, err := dcd.Offer(0, 3); !errors.Is(err, ErrNoFreeSlice) {
		t.Fatalf("err = %v", err)
	}
}

// TestDCDEquivalentToPoolManagerPath verifies the paper's claim that the
// inband DCD flow "maintains the same functionality" as the out-of-band
// Pool Manager bus: the same sequence of capacity changes yields the same
// device ownership state.
func TestDCDEquivalentToPoolManagerPath(t *testing.T) {
	oob := NewDevice("oob", 8, 2) // out-of-band path: direct Assign/Release
	ib := NewDevice("ib", 8, 2)   // inband path: DCD protocol
	dcd := NewDCD(ib)

	// Host 0 obtains 2 GB, host 1 obtains 1 GB, host 0 releases one.
	s0, err := oob.AssignAny(nil, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := oob.AssignAny(nil, 1, 1); err != nil {
		t.Fatal(err)
	}
	if err := oob.Release(s0[0], 0); err != nil {
		t.Fatal(err)
	}

	ev0, err := dcd.Offer(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ev0 {
		if err := dcd.Accept(0, e.Slice); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := dcd.Offer(1, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := dcd.Release(0, ev0[0].Slice); err != nil {
		t.Fatal(err)
	}

	if oob.FreeSlices() != ib.FreeSlices() {
		t.Fatalf("free slices differ: oob %d, inband %d", oob.FreeSlices(), ib.FreeSlices())
	}
	if len(oob.OwnedBy(0)) != len(ib.OwnedBy(0)) || len(oob.OwnedBy(1)) != len(ib.OwnedBy(1)) {
		t.Fatal("per-host ownership differs between paths")
	}
}

func TestRequestWalkerEndToEnd(t *testing.T) {
	dev := NewDevice("emc0", 8, 4)
	hdm := NewHDMDecoder(2, dev, 1<<40)
	rw := NewRequestWalker(dev, hdm, NewChannelMap(6))

	// Assign and online slice 3 for host 2.
	if err := dev.Assign(3, 2); err != nil {
		t.Fatal(err)
	}
	if err := hdm.Online(3); err != nil {
		t.Fatal(err)
	}
	addr := hdm.SliceAddr(3) + 4096
	res, err := rw.Walk(addr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Slice != 3 {
		t.Fatalf("walked to slice %d", res.Slice)
	}
	if res.Channel < 0 || res.Channel >= 6 {
		t.Fatalf("channel %d out of range", res.Channel)
	}
	// Consecutive granules rotate channels.
	res2, err := rw.Walk(addr + InterleaveGranuleBytes)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Channel == res.Channel {
		t.Fatal("interleaving not applied")
	}
}

func TestRequestWalkerRejections(t *testing.T) {
	dev := NewDevice("emc0", 8, 4)
	hdm := NewHDMDecoder(2, dev, 1<<40)
	rw := NewRequestWalker(dev, hdm, NewChannelMap(6))

	// Outside the window.
	if _, err := rw.Walk(1 << 39); err == nil {
		t.Fatal("out-of-window access accepted")
	}
	// In the window, but offline.
	if _, err := rw.Walk(hdm.SliceAddr(0)); err == nil {
		t.Fatal("offline slice access accepted")
	}
	// Online but owned by another host: fatal memory error.
	if err := dev.Assign(1, 3); err != nil {
		t.Fatal(err)
	}
	if err := hdm.Online(1); err != nil {
		t.Fatal(err)
	}
	var fatal *FatalMemoryError
	if _, err := rw.Walk(hdm.SliceAddr(1)); !errors.As(err, &fatal) {
		t.Fatalf("foreign access = %v, want fatal memory error", err)
	}
}
