package emc

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

func newTestDevice() *Device { return NewDevice("emc0", 64, 16) }

func TestNewDevicePanicsOnBadSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewDevice("bad", 0, 8)
}

func TestDeviceAccessors(t *testing.T) {
	d := newTestDevice()
	if d.Name() != "emc0" || d.CapacityGB() != 64 || d.Heads() != 16 || d.Slices() != 64 {
		t.Fatalf("accessors wrong: %s %d %d %d", d.Name(), d.CapacityGB(), d.Heads(), d.Slices())
	}
	if d.FreeSlices() != 64 {
		t.Fatalf("new device free slices = %d", d.FreeSlices())
	}
}

func TestAssignAndOwner(t *testing.T) {
	d := newTestDevice()
	if err := d.Assign(3, 2); err != nil {
		t.Fatal(err)
	}
	if got := d.Owner(3); got != 2 {
		t.Fatalf("owner = %d, want 2", got)
	}
	if d.FreeSlices() != 63 {
		t.Fatalf("free = %d, want 63", d.FreeSlices())
	}
}

func TestAssignIdempotentForSameHost(t *testing.T) {
	d := newTestDevice()
	if err := d.Assign(3, 2); err != nil {
		t.Fatal(err)
	}
	if err := d.Assign(3, 2); err != nil {
		t.Fatalf("re-assign to same host should be idempotent: %v", err)
	}
}

func TestAssignConflictFails(t *testing.T) {
	d := newTestDevice()
	if err := d.Assign(3, 2); err != nil {
		t.Fatal(err)
	}
	err := d.Assign(3, 5)
	if !errors.Is(err, ErrSliceBusy) {
		t.Fatalf("conflicting assign = %v, want ErrSliceBusy", err)
	}
	if d.Owner(3) != 2 {
		t.Fatal("conflict mutated ownership")
	}
}

func TestAssignValidation(t *testing.T) {
	d := newTestDevice()
	if err := d.Assign(999, 0); err == nil {
		t.Fatal("out-of-range slice accepted")
	}
	if err := d.Assign(0, 99); err == nil {
		t.Fatal("unconnected host accepted")
	}
	if err := d.Assign(0, -2); err == nil {
		t.Fatal("negative host accepted")
	}
}

func TestAssignAny(t *testing.T) {
	d := newTestDevice()
	slices, err := d.AssignAny(nil, 5, 1)
	if err != nil || len(slices) != 5 {
		t.Fatalf("AssignAny = %v, %v", slices, err)
	}
	for _, s := range slices {
		if d.Owner(s) != 1 {
			t.Fatalf("slice %d owner = %d", s, d.Owner(s))
		}
	}
	if d.FreeSlices() != 59 {
		t.Fatalf("free = %d", d.FreeSlices())
	}
}

// TestAssignAnyAppendsToCallerBuffer pins the buffer contract the Pool
// Manager's hot path relies on: slices are appended after dst's
// contents in dst's own backing array, a refusal returns dst unchanged,
// and a reused buffer makes assignment allocation-free.
func TestAssignAnyAppendsToCallerBuffer(t *testing.T) {
	d := NewDevice("buf", 8, 4)
	buf := append(make([]SliceID, 0, 8), 99)
	got, err := d.AssignAny(buf, 3, 1)
	if err != nil || len(got) != 4 || got[0] != 99 || &got[0] != &buf[0] {
		t.Fatalf("AssignAny(buf) = %v, %v; want 99 then 3 slices in buf's array", got, err)
	}
	if got, err := d.AssignAny(buf[:1], 6, 2); err == nil || len(got) != 1 || got[0] != 99 {
		t.Fatalf("refused AssignAny = %v, %v; want buf unchanged and an error", got, err)
	}
	scratch := make([]SliceID, 0, 4)
	avg := testing.AllocsPerRun(50, func() {
		scratch, err = d.AssignAny(scratch[:0], 4, 3)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range scratch {
			if err := d.Release(s, 3); err != nil {
				t.Fatal(err)
			}
		}
	})
	if avg != 0 {
		t.Fatalf("AssignAny into a reused buffer allocates %.1f times", avg)
	}
}

// TestAssignAnyZeroAndNegative: a request for no slices assigns none,
// and a negative count is refused without touching the device.
func TestAssignAnyZeroAndNegative(t *testing.T) {
	d := NewDevice("zero", 8, 4)
	buf := []SliceID{99}
	if got, err := d.AssignAny(buf, 0, 1); err != nil || len(got) != 1 || got[0] != 99 {
		t.Fatalf("AssignAny(n=0) = %v, %v; want buf unchanged", got, err)
	}
	if got, err := d.AssignAny(buf, -1, 1); err == nil || len(got) != 1 {
		t.Fatalf("AssignAny(n=-1) = %v, %v; want buf unchanged and an error", got, err)
	}
	if d.FreeSlices() != 8 {
		t.Fatalf("free = %d after zero and negative requests, want 8", d.FreeSlices())
	}
}

func TestAssignAnyInsufficientIsAtomic(t *testing.T) {
	d := NewDevice("small", 4, 8)
	if _, err := d.AssignAny(nil, 3, 0); err != nil {
		t.Fatal(err)
	}
	_, err := d.AssignAny(nil, 2, 1)
	if !errors.Is(err, ErrNoFreeSlice) {
		t.Fatalf("err = %v, want ErrNoFreeSlice", err)
	}
	// The single free slice must not have been taken.
	if d.FreeSlices() != 1 {
		t.Fatalf("partial assignment leaked: free = %d", d.FreeSlices())
	}
}

func TestReleaseRequiresOwner(t *testing.T) {
	d := newTestDevice()
	if err := d.Assign(7, 4); err != nil {
		t.Fatal(err)
	}
	if err := d.Release(7, 5); !errors.Is(err, ErrNotOwner) {
		t.Fatalf("foreign release = %v, want ErrNotOwner", err)
	}
	if err := d.Release(7, 4); err != nil {
		t.Fatalf("owner release failed: %v", err)
	}
	if d.Owner(7) != Unowned {
		t.Fatal("slice not returned to pool")
	}
}

func TestReleaseOutOfRange(t *testing.T) {
	d := newTestDevice()
	if err := d.Release(999, 0); err == nil {
		t.Fatal("out-of-range release accepted")
	}
}

func TestAccessPermissionCheck(t *testing.T) {
	d := newTestDevice()
	if err := d.Assign(9, 3); err != nil {
		t.Fatal(err)
	}
	if err := d.Access(9, 3); err != nil {
		t.Fatalf("owner access failed: %v", err)
	}
	err := d.Access(9, 4)
	var fatal *FatalMemoryError
	if !errors.As(err, &fatal) {
		t.Fatalf("foreign access = %v, want FatalMemoryError", err)
	}
	if fatal.Owner != 3 || fatal.Access != 4 || fatal.Slice != 9 {
		t.Fatalf("fatal error fields wrong: %+v", fatal)
	}
	if !strings.Contains(fatal.Error(), "fatal memory error") {
		t.Fatalf("error text = %q", fatal.Error())
	}
}

func TestAccessUnownedSliceIsFatal(t *testing.T) {
	d := newTestDevice()
	var fatal *FatalMemoryError
	if err := d.Access(0, 0); !errors.As(err, &fatal) {
		t.Fatalf("access to unowned slice = %v, want fatal", err)
	}
}

func TestOwnedBy(t *testing.T) {
	d := newTestDevice()
	d.Assign(1, 2)
	d.Assign(5, 2)
	d.Assign(6, 3)
	got := d.OwnedBy(2)
	if len(got) != 2 || got[0] != 1 || got[1] != 5 {
		t.Fatalf("OwnedBy = %v", got)
	}
}

func TestFailureBlastRadius(t *testing.T) {
	// EMC failures affect only that EMC; a sibling device keeps working.
	d1 := NewDevice("emc0", 16, 8)
	d2 := NewDevice("emc1", 16, 8)
	d1.Assign(0, 1)
	d2.Assign(0, 1)
	d1.Fail()
	if !d1.Failed() {
		t.Fatal("d1 should be failed")
	}
	if err := d1.Access(0, 1); !errors.Is(err, ErrDeviceFailed) {
		t.Fatalf("access on failed device = %v", err)
	}
	if _, err := d1.AssignAny(nil, 1, 0); !errors.Is(err, ErrDeviceFailed) {
		t.Fatalf("assign on failed device = %v", err)
	}
	if err := d2.Access(0, 1); err != nil {
		t.Fatalf("sibling device affected by failure: %v", err)
	}
}

func TestRecoverResetsOwnership(t *testing.T) {
	d := newTestDevice()
	d.Assign(0, 1)
	d.Fail()
	d.Recover()
	if d.Failed() {
		t.Fatal("still failed after recover")
	}
	if d.Owner(0) != Unowned {
		t.Fatal("ownership survived recovery; DRAM contents do not")
	}
}

func TestPermissionTableBytesPaperExample(t *testing.T) {
	// §4.1: 1024 slices, 64 hosts (6 bits) => 768 bytes.
	d := NewDevice("big", 1024, 64)
	if got := d.PermissionTableBytes(); got != 768 {
		t.Fatalf("permission table = %d bytes, want 768", got)
	}
}

func TestPermissionTableSmall(t *testing.T) {
	d := NewDevice("tiny", 8, 2)
	if got := d.PermissionTableBytes(); got != 1 {
		t.Fatalf("8 slices x 1 bit = %d bytes, want 1", got)
	}
}

func TestAssignmentsCounter(t *testing.T) {
	d := newTestDevice()
	d.Assign(0, 1)
	d.Assign(0, 1) // idempotent, not counted
	d.AssignAny(nil, 2, 2)
	if got := d.Assignments(); got != 3 {
		t.Fatalf("assignments = %d, want 3", got)
	}
}

func TestConcurrentAssignNoDoubleOwnership(t *testing.T) {
	d := NewDevice("emc0", 128, 16)
	var wg sync.WaitGroup
	owners := make([][]SliceID, 16)
	for h := 0; h < 16; h++ {
		wg.Add(1)
		go func(h int) {
			defer wg.Done()
			s, err := d.AssignAny(nil, 8, HostID(h))
			if err != nil {
				t.Errorf("host %d: %v", h, err)
				return
			}
			owners[h] = s
		}(h)
	}
	wg.Wait()
	seen := map[SliceID]int{}
	for h, ss := range owners {
		for _, s := range ss {
			if prev, dup := seen[s]; dup {
				t.Fatalf("slice %d assigned to hosts %d and %d", s, prev, h)
			}
			seen[s] = h
		}
	}
	if len(seen) != 128 {
		t.Fatalf("assigned %d slices, want 128", len(seen))
	}
}

// Property: any interleaving of assigns/releases keeps the invariant
// that each slice has at most one owner and free count is consistent.
func TestOwnershipInvariantProperty(t *testing.T) {
	f := func(ops []struct {
		Slice uint8
		Host  uint8
		Rel   bool
	}) bool {
		d := NewDevice("prop", 32, 8)
		owned := map[SliceID]HostID{}
		for _, op := range ops {
			s := SliceID(op.Slice % 32)
			h := HostID(op.Host % 8)
			if op.Rel {
				if d.Release(s, h) == nil {
					delete(owned, s)
				}
			} else {
				if d.Assign(s, h) == nil {
					owned[s] = h
				}
			}
		}
		for s, h := range owned {
			if d.Owner(s) != h {
				return false
			}
		}
		return d.FreeSlices() == 32-len(owned)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestHDMDecoderAddressing(t *testing.T) {
	d := newTestDevice()
	hd := NewHDMDecoder(2, d, 1<<40)
	if hd.SizeGB != 64 {
		t.Fatalf("window size = %d", hd.SizeGB)
	}
	addr := hd.SliceAddr(3)
	if addr != 1<<40+3<<30 {
		t.Fatalf("slice 3 addr = %#x", addr)
	}
	s, ok := hd.SliceForAddr(addr + 123)
	if !ok || s != 3 {
		t.Fatalf("reverse map = %d, %v", s, ok)
	}
	if _, ok := hd.SliceForAddr(1 << 39); ok {
		t.Fatal("address below window mapped")
	}
	if _, ok := hd.SliceForAddr(1<<40 + 64<<30); ok {
		t.Fatal("address above window mapped")
	}
}

func TestHDMOnlineOffline(t *testing.T) {
	d := newTestDevice()
	hd := NewHDMDecoder(0, d, 0)
	if hd.IsOnline(1) {
		t.Fatal("slices must start offline (§4.2)")
	}
	if err := hd.Online(1); err != nil {
		t.Fatal(err)
	}
	if !hd.IsOnline(1) || hd.OnlineGB() != 1 {
		t.Fatal("online state wrong")
	}
	if err := hd.Offline(1); err != nil {
		t.Fatal(err)
	}
	if err := hd.Offline(1); err == nil {
		t.Fatal("double offline should error")
	}
	if err := hd.Online(9999); err == nil {
		t.Fatal("online outside window should error")
	}
	if hd.IsOnline(9999) {
		t.Fatal("out-of-window slice reported online")
	}
}

func TestChannelMapRoundRobin(t *testing.T) {
	m := NewChannelMap(6)
	// Consecutive granules hit consecutive channels.
	for g := 0; g < 12; g++ {
		addr := uint64(g) * InterleaveGranuleBytes
		if got := m.ChannelFor(addr); got != g%6 {
			t.Fatalf("granule %d -> channel %d, want %d", g, got, g%6)
		}
	}
	// Addresses within one granule share a channel.
	if m.ChannelFor(0) != m.ChannelFor(InterleaveGranuleBytes-1) {
		t.Fatal("granule split across channels")
	}
}

func TestChannelMapPanicsOnBadCount(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewChannelMap(0)
}

func TestSliceTouchesAllChannels(t *testing.T) {
	for _, ch := range []int{6, 12} {
		m := NewChannelMap(ch)
		if got := m.SliceChannels(0); got != ch {
			t.Fatalf("%d-channel slice spread = %d", ch, got)
		}
	}
}

func TestChannelShare(t *testing.T) {
	m := NewChannelMap(6)
	if m.ChannelShare(0) != 0 {
		t.Fatal("zero streams")
	}
	if m.ChannelShare(1) != 1 {
		t.Fatal("single stream should get the device")
	}
	if m.ChannelShare(12) != 1.0/12 {
		t.Fatal("contended share wrong")
	}
}

func TestFailChannelBlastIsWholeDevice(t *testing.T) {
	m := NewChannelMap(12)
	if got := m.FailChannelBlastGB(1024); got != 1024 {
		t.Fatalf("channel failure blast = %d GB, want full device", got)
	}
}

func TestFreeSlicesZeroAfterFailure(t *testing.T) {
	d := NewDevice("emc0", 8, 2)
	if d.FreeSlices() != 8 {
		t.Fatalf("FreeSlices = %d, want 8", d.FreeSlices())
	}
	d.Fail()
	if d.FreeSlices() != 0 {
		t.Fatalf("failed device reports %d free slices, want 0", d.FreeSlices())
	}
	d.Recover()
	if d.FreeSlices() != 8 {
		t.Fatalf("recovered device reports %d free slices, want 8", d.FreeSlices())
	}
}

func TestGrowAndRetire(t *testing.T) {
	d := NewDevice("emc0", 8, 4)

	// Retire is capped by the free slices and never touches owned ones.
	slices, err := d.AssignAny(nil, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := d.Retire(100); got != 5 {
		t.Fatalf("retired %d, want the 5 free slices", got)
	}
	if d.CapacityGB() != 3 || d.FreeSlices() != 0 || d.RetiredSlices() != 5 {
		t.Fatalf("after retire: cap=%d free=%d retired=%d", d.CapacityGB(), d.FreeSlices(), d.RetiredSlices())
	}
	for _, s := range slices {
		if d.Owner(s) != 1 {
			t.Fatalf("retire revoked owned slice %d", s)
		}
	}

	// Assigning a retired slice is an error, not a silent grant.
	var retired SliceID = -1
	for s := SliceID(0); int(s) < d.Slices(); s++ {
		if d.Owner(s) == Retired {
			retired = s
			break
		}
	}
	if retired < 0 {
		t.Fatal("no retired slice found")
	}
	if err := d.Assign(retired, 2); err == nil {
		t.Fatal("assigning a retired slice should fail")
	}
	if err := d.Access(retired, 2); err == nil {
		t.Fatal("accessing a retired slice should fail")
	}

	// Grow re-activates retired slices before minting new ones: the
	// physical slice count is unchanged until the retired pool is spent.
	if err := d.Grow(3); err != nil {
		t.Fatal(err)
	}
	if d.Slices() != 8 || d.CapacityGB() != 6 || d.RetiredSlices() != 2 {
		t.Fatalf("after grow 3: physical=%d cap=%d retired=%d", d.Slices(), d.CapacityGB(), d.RetiredSlices())
	}
	if err := d.Grow(4); err != nil {
		t.Fatal(err)
	}
	if d.Slices() != 10 || d.CapacityGB() != 10 || d.RetiredSlices() != 0 {
		t.Fatalf("after grow 4: physical=%d cap=%d retired=%d", d.Slices(), d.CapacityGB(), d.RetiredSlices())
	}

	// Failed devices neither grow nor retire.
	d.Fail()
	if err := d.Grow(1); err == nil {
		t.Fatal("growing a failed device should fail")
	}
	if got := d.Retire(1); got != 0 {
		t.Fatalf("failed device retired %d slices", got)
	}
}

func TestRecoverPreservesRetirement(t *testing.T) {
	d := NewDevice("emc0", 4, 2)
	if got := d.Retire(2); got != 2 {
		t.Fatalf("retired %d", got)
	}
	d.Fail()
	d.Recover()
	if d.CapacityGB() != 2 || d.RetiredSlices() != 2 {
		t.Fatalf("recover resurrected retired capacity: cap=%d retired=%d", d.CapacityGB(), d.RetiredSlices())
	}
	if d.FreeSlices() != 2 {
		t.Fatalf("free = %d after recover", d.FreeSlices())
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
