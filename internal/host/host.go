package host

import (
	"errors"
	"fmt"

	"pond/internal/cluster"
	"pond/internal/emc"
	"pond/internal/pool"
)

// ReconfigSecPerGB is the cost of Pond's one-time memory reconfiguration:
// disabling the virtualization accelerator, copying pool memory to local
// DRAM, and re-enabling — about 50 ms per GB of pool memory (§4.2).
const ReconfigSecPerGB = 0.050

// CommitOverestimate inflates the guest-committed memory counter relative
// to truly touched memory; the paper notes the counter "overestimates
// used memory" (§4.2).
const CommitOverestimate = 1.15

// Errors returned by placement operations.
var (
	ErrNoCapacity     = errors.New("host: insufficient NUMA-node capacity")
	ErrNoPoolCapacity = errors.New("host: insufficient online pool memory")
	ErrUnknownVM      = errors.New("host: unknown VM")
	ErrPartition      = errors.New("host: pool partition is hypervisor-only")
)

// noCapacityError is the rejection PlaceVM returns when no NUMA node
// fits. The scheduler probes hosts until one accepts, so rejections are
// routine on a loaded fleet; rendering the message lazily keeps each
// probe to a single allocation where fmt.Errorf pays several.
type noCapacityError struct {
	id      cluster.VMID
	cores   int
	localGB float64
}

func (e *noCapacityError) Error() string {
	return fmt.Sprintf("%v: VM %d needs %d cores / %g GB local", ErrNoCapacity, e.id, e.cores, e.localGB)
}

func (e *noCapacityError) Unwrap() error { return ErrNoCapacity }

// Placement records where one VM's resources live.
type Placement struct {
	VM      cluster.VMRequest
	Node    int     // physical NUMA node hosting cores and local memory
	LocalGB float64 // socket-local DRAM
	PoolGB  float64 // pool DRAM behind the zNUMA node
	Slices  []pool.SliceRef

	// Topology is the guest-visible vNUMA/zNUMA layout.
	Topology Topology

	// AccelEnabled tracks the virtualization accelerator state; it is
	// only disabled transiently during reconfiguration (G2).
	AccelEnabled bool

	// Reconfigured is set after the one-time pool-to-local migration.
	Reconfigured bool

	// SpannedGB is local memory sourced from the remote socket when the
	// placement had to span NUMA nodes (rare; §3.1).
	SpannedGB float64
	// SpanNode is the node providing SpannedGB (-1 when not spanning).
	SpanNode int

	// PageTable carries access bits when telemetry is enabled.
	PageTable *PageTable
}

// IsSpanning reports whether the placement crosses NUMA nodes.
func (p *Placement) IsSpanning() bool { return p.SpannedGB > 0 }

// Config controls optional host behaviour.
type Config struct {
	// PoolLatencyRatio sets the SLIT distance guests see for zNUMA.
	PoolLatencyRatio float64

	// EnablePageTables allocates per-VM access-bit tracking. The
	// cluster simulator disables it for speed; the zNUMA experiments
	// enable it.
	EnablePageTables bool

	// AllowSpanning lets a VM keep all cores on one socket while
	// sourcing part of its local memory from the other socket when no
	// single node has room. The paper observes this for 2-3% of VMs
	// and under 1% of memory pages (§3.1 "NUMA spanning").
	AllowSpanning bool

	// SkipGuestTopology leaves Placement.Topology zero instead of
	// building the vNUMA/zNUMA SRAT/SLIT view on every placement. The
	// fleet simulator sets it — its event loop never boots guests, so
	// the per-placement topology (several slice allocations per VM)
	// would be pure garbage. Facades that hand placements to
	// internal/guest must leave it off.
	SkipGuestTopology bool
}

// numaNode is the host-side accounting for one physical socket.
type numaNode struct {
	coresFree int
	memFreeGB float64
}

// Host is one dual-socket server participating in a Pond pool.
type Host struct {
	ID   emc.HostID
	Spec cluster.ServerSpec
	cfg  Config

	nodes []numaNode

	// Pool memory online on this host, split into the hypervisor-only
	// partition (usable for VM zNUMA backing) — Pond's fragmentation
	// containment (§4.2): host agents and drivers may only allocate
	// from local memory, so 1 GB slices stay whole and offlinable.
	poolFreeGB   float64
	poolOnlineGB float64

	vms map[cluster.VMID]*Placement

	// free recycles Placement records between ReleaseVM and the next
	// PlaceVM (see RecyclePlacement); the fleet loop drains it so
	// steady-state admission allocates nothing.
	free []*Placement
}

// New creates a host with all cores and memory free.
func New(id emc.HostID, spec cluster.ServerSpec, cfg Config) *Host {
	if cfg.PoolLatencyRatio == 0 {
		cfg.PoolLatencyRatio = 1.82
	}
	h := &Host{ID: id, Spec: spec, cfg: cfg, vms: make(map[cluster.VMID]*Placement)}
	h.nodes = make([]numaNode, spec.Sockets)
	for i := range h.nodes {
		h.nodes[i] = numaNode{coresFree: spec.CoresPerSock, memFreeGB: spec.MemGBPerSock}
	}
	return h
}

// AddPoolCapacity onlines pool slices delivered by the Pool Manager into
// the hypervisor-only partition.
func (h *Host) AddPoolCapacity(gb float64) {
	h.poolFreeGB += gb
	h.poolOnlineGB += gb
}

// RemovePoolCapacity offlines unused pool memory (before handing the
// slices back to the Pool Manager). It fails if the memory is in use.
func (h *Host) RemovePoolCapacity(gb float64) error {
	if gb > h.poolFreeGB+1e-9 {
		return fmt.Errorf("%w: %g GB requested, %g free", ErrNoPoolCapacity, gb, h.poolFreeGB)
	}
	h.poolFreeGB -= gb
	h.poolOnlineGB -= gb
	return nil
}

// AllocateHostAgent models a host agent or driver allocation. Such
// allocations are forced into host-local memory — never the pool
// partition — so they cannot fragment 1 GB slices (§4.2).
func (h *Host) AllocateHostAgent(gb float64, fromPool bool) error {
	if fromPool {
		return ErrPartition
	}
	for i := range h.nodes {
		if h.nodes[i].memFreeGB >= gb {
			h.nodes[i].memFreeGB -= gb
			return nil
		}
	}
	return ErrNoCapacity
}

// PlaceVM admits a VM with the given local/pool split. The VM's cores and
// local memory land on a single NUMA node (the paper: almost all VMs fit
// one node); pool memory comes from the hypervisor partition and surfaces
// as a zNUMA node in the guest topology.
func (h *Host) PlaceVM(vm cluster.VMRequest, localGB, poolGB float64, slices []pool.SliceRef) (*Placement, error) {
	if localGB+poolGB < vm.Type.MemoryGB-1e-9 {
		return nil, fmt.Errorf("host: allocation %g+%g GB under VM size %g", localGB, poolGB, vm.Type.MemoryGB)
	}
	if _, exists := h.vms[vm.ID]; exists {
		return nil, fmt.Errorf("host: VM %d already placed", vm.ID)
	}
	if poolGB > h.poolFreeGB+1e-9 {
		return nil, fmt.Errorf("%w: need %g GB, have %g", ErrNoPoolCapacity, poolGB, h.poolFreeGB)
	}
	node := -1
	for i := range h.nodes {
		if h.nodes[i].coresFree >= vm.Type.Cores && h.nodes[i].memFreeGB >= localGB {
			node = i
			break
		}
	}
	spannedGB := 0.0
	spanNode := -1
	if node < 0 && h.cfg.AllowSpanning {
		// Spanning fallback: cores on the node that has them, with the
		// memory shortfall sourced from the other node.
		for i := range h.nodes {
			if h.nodes[i].coresFree < vm.Type.Cores {
				continue
			}
			shortfall := localGB - h.nodes[i].memFreeGB
			if shortfall <= 0 {
				continue
			}
			for j := range h.nodes {
				if j != i && h.nodes[j].memFreeGB >= shortfall {
					node, spanNode = i, j
					spannedGB = shortfall
					break
				}
			}
			if node >= 0 {
				break
			}
		}
	}
	if node < 0 {
		return nil, &noCapacityError{id: vm.ID, cores: vm.Type.Cores, localGB: localGB}
	}
	h.nodes[node].coresFree -= vm.Type.Cores
	h.nodes[node].memFreeGB -= localGB - spannedGB
	if spanNode >= 0 {
		h.nodes[spanNode].memFreeGB -= spannedGB
	}
	h.poolFreeGB -= poolGB

	p := h.newPlacement()
	*p = Placement{
		VM:           vm,
		Node:         node,
		LocalGB:      localGB,
		PoolGB:       poolGB,
		Slices:       slices,
		AccelEnabled: true,
		SpannedGB:    spannedGB,
		SpanNode:     spanNode,
	}
	if !h.cfg.SkipGuestTopology {
		p.Topology = NewTopology(vm.Type.Cores, localGB, poolGB, h.cfg.PoolLatencyRatio)
	}
	if h.cfg.EnablePageTables {
		p.PageTable = NewPageTable(vm.Type.MemoryGB)
	}
	h.vms[vm.ID] = p
	return p, nil
}

// newPlacement takes a record from the host freelist, or allocates one.
func (h *Host) newPlacement() *Placement {
	if n := len(h.free); n > 0 {
		p := h.free[n-1]
		h.free = h.free[:n-1]
		return p
	}
	return &Placement{}
}

// RecyclePlacement returns a released placement to the host's freelist
// so the next PlaceVM reuses it. Call it only after every read of a
// ReleaseVM result is done — the record's contents are overwritten by
// the next admission. Callers that retain placements (the single-VM
// facades) simply never recycle.
func (h *Host) RecyclePlacement(p *Placement) {
	if p == nil {
		return
	}
	h.free = append(h.free, p)
}

// ReleaseVM frees a departed VM's resources and returns its pool slices
// for the Pool Manager's asynchronous release.
func (h *Host) ReleaseVM(id cluster.VMID) (*Placement, error) {
	p, ok := h.vms[id]
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrUnknownVM, id)
	}
	delete(h.vms, id)
	h.nodes[p.Node].coresFree += p.VM.Type.Cores
	h.nodes[p.Node].memFreeGB += p.LocalGB - p.SpannedGB
	if p.SpanNode >= 0 {
		h.nodes[p.SpanNode].memFreeGB += p.SpannedGB
	}
	h.poolFreeGB += p.PoolGB // freed into the partition until offlined
	return p, nil
}

// Reconfigure performs the one-time mitigation (§4.2): if local memory is
// available, the hypervisor disables the accelerator, copies the VM's
// pool memory into local DRAM, and re-enables acceleration. The freed
// pool memory stays online in the partition. It returns the copy
// duration (~50 ms/GB) and the VM's pool slices, which the placement no
// longer lists, for the caller to offline and release.
func (h *Host) Reconfigure(id cluster.VMID) (durationSec float64, slices []pool.SliceRef, err error) {
	p, ok := h.vms[id]
	if !ok {
		return 0, nil, fmt.Errorf("%w: %d", ErrUnknownVM, id)
	}
	if p.Reconfigured {
		return 0, nil, fmt.Errorf("host: VM %d already reconfigured; the mitigation is one-time", id)
	}
	if p.PoolGB == 0 {
		return 0, nil, nil
	}
	if h.nodes[p.Node].memFreeGB < p.PoolGB {
		return 0, nil, fmt.Errorf("%w: reconfiguration needs %g GB local", ErrNoCapacity, p.PoolGB)
	}
	moved := p.PoolGB
	p.AccelEnabled = false
	h.nodes[p.Node].memFreeGB -= moved
	h.poolFreeGB += moved
	p.LocalGB += moved
	p.PoolGB = 0
	p.Reconfigured = true
	if !h.cfg.SkipGuestTopology {
		p.Topology = NewTopology(p.VM.Type.Cores, p.LocalGB, 0, h.cfg.PoolLatencyRatio)
	}
	p.AccelEnabled = true
	slices, p.Slices = p.Slices, nil
	return moved * ReconfigSecPerGB, slices, nil
}

// Placement returns the placement of a VM.
func (h *Host) Placement(id cluster.VMID) (*Placement, bool) {
	p, ok := h.vms[id]
	return p, ok
}

// VMs returns the ids of all resident VMs.
func (h *Host) VMs() []cluster.VMID {
	out := make([]cluster.VMID, 0, len(h.vms))
	for id := range h.vms {
		out = append(out, id)
	}
	return out
}

// EachPlacement calls fn with every resident VM's placement, in no
// particular order, without copying the list. fn must not place or
// release VMs on this host.
func (h *Host) EachPlacement(fn func(*Placement)) {
	for _, p := range h.vms {
		fn(p)
	}
}

// FreeCores returns total free cores across nodes.
func (h *Host) FreeCores() int {
	n := 0
	for _, nd := range h.nodes {
		n += nd.coresFree
	}
	return n
}

// FreeLocalGB returns total free socket-local memory.
func (h *Host) FreeLocalGB() float64 {
	var g float64
	for _, nd := range h.nodes {
		g += nd.memFreeGB
	}
	return g
}

// FreePoolGB returns unused online pool memory.
func (h *Host) FreePoolGB() float64 { return h.poolFreeGB }

// OnlinePoolGB returns total pool memory online on this host.
func (h *Host) OnlinePoolGB() float64 { return h.poolOnlineGB }

// StrandedGB returns the local memory stranded on this host: free memory
// on NUMA nodes whose cores are fully allocated — technically rentable,
// practically not (§2).
func (h *Host) StrandedGB() float64 {
	var g float64
	for _, nd := range h.nodes {
		if nd.coresFree == 0 {
			g += nd.memFreeGB
		}
	}
	return g
}

// GuestCommittedGB returns the guest-committed memory counter for a VM:
// an overestimate of touched memory, capped at the VM size (§4.2).
func (h *Host) GuestCommittedGB(id cluster.VMID) (float64, error) {
	p, ok := h.vms[id]
	if !ok {
		return 0, fmt.Errorf("%w: %d", ErrUnknownVM, id)
	}
	touched := p.VM.TouchedGB() * CommitOverestimate
	if touched > p.VM.Type.MemoryGB {
		touched = p.VM.Type.MemoryGB
	}
	return touched, nil
}
