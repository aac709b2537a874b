package core

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	"pond/internal/cluster"
	"pond/internal/emc"
	"pond/internal/host"
	"pond/internal/pool"
)

// ClusterScheduler packs VMs onto the hosts of one pool group with pool
// memory as an additional bin-packing dimension (§5: "Azure's VM
// scheduler incorporates zNUMA requests and pool memory as an additional
// dimension into its bin packing").
//
// Placement policy: among hosts that fit the VM's cores and local memory,
// pick the one with the fewest free cores (tight packing, like the
// production Protean allocator). Pool capacity is onlined through the
// Pool Manager before the VM starts; if the pool is exhausted the VM
// falls back to an all-local allocation rather than failing (§4.3).
type ClusterScheduler struct {
	hosts   []*host.Host
	manager *pool.Manager

	// drained marks hosts excluded from new placements (maintenance
	// drain): resident VMs keep running but arrivals route elsewhere.
	drained []bool

	// fallbacks counts pool-heavy decisions downgraded to all-local
	// because the pool had no reachable capacity — the censoring signal
	// the elastic-pool controller reads as "demand exceeded capacity".
	fallbacks int64
}

// ErrNoHost is returned when no host fits the VM.
var ErrNoHost = errors.New("core: no host with sufficient capacity")

// noHostError is the rejection error Place returns. Rendering the
// message lazily keeps the fleet's reject path (which only does
// errors.Is(err, ErrNoHost) and logs its own line) down to one
// allocation instead of fmt.Errorf's several.
type noHostError struct {
	cores   int
	localGB float64
}

func (e *noHostError) Error() string {
	return fmt.Sprintf("%v: %d cores / %g GB local", ErrNoHost, e.cores, e.localGB)
}

func (e *noHostError) Unwrap() error { return ErrNoHost }

// NewClusterScheduler wires hosts and the pool manager.
func NewClusterScheduler(hosts []*host.Host, manager *pool.Manager) *ClusterScheduler {
	if len(hosts) == 0 {
		panic("core: scheduler needs at least one host")
	}
	return &ClusterScheduler{hosts: hosts, manager: manager, drained: make([]bool, len(hosts))}
}

// Hosts returns the managed hosts.
func (cs *ClusterScheduler) Hosts() []*host.Host { return cs.hosts }

// SetDrained marks a host in or out of maintenance drain.
func (cs *ClusterScheduler) SetDrained(hostIndex int, drained bool) error {
	if hostIndex < 0 || hostIndex >= len(cs.hosts) {
		return fmt.Errorf("core: host index %d out of range", hostIndex)
	}
	cs.drained[hostIndex] = drained
	return nil
}

// Drained reports whether a host is excluded from new placements.
func (cs *ClusterScheduler) Drained(hostIndex int) bool {
	return hostIndex >= 0 && hostIndex < len(cs.hosts) && cs.drained[hostIndex]
}

// Migration records one VM moved off a draining host.
type Migration struct {
	VM     cluster.VMID
	Target int
}

// DrainHost marks a host drained and live-migrates its resident VMs
// (Migrate) in VM-id order, so a seed fully determines the outcome. VMs
// that fit nowhere stay put and are returned as remaining.
func (cs *ClusterScheduler) DrainHost(hostIndex int, now float64) (migrations []Migration, remaining []cluster.VMID, err error) {
	if err := cs.SetDrained(hostIndex, true); err != nil {
		return nil, nil, err
	}
	ids := cs.hosts[hostIndex].VMs()
	slices.Sort(ids)
	for _, id := range ids {
		target, _, merr := cs.Migrate(hostIndex, id, now)
		if merr != nil {
			remaining = append(remaining, id)
			continue
		}
		migrations = append(migrations, Migration{VM: id, Target: target})
	}
	return migrations, remaining, nil
}

// Migrate live-migrates one VM to the first other host, in index order,
// that is not drained, has the cores and local memory for the whole VM,
// and accepts it with an all-local placement (§6.4); the VM's pool
// slices return to the Pool Manager. It returns the target host and the
// copy time, or ErrNoHost when no host takes the VM.
func (cs *ClusterScheduler) Migrate(hostIndex int, id cluster.VMID, now float64) (target int, copySec float64, err error) {
	if hostIndex < 0 || hostIndex >= len(cs.hosts) {
		return -1, 0, fmt.Errorf("core: host index %d out of range", hostIndex)
	}
	src := cs.hosts[hostIndex]
	p, ok := src.Placement(id)
	if !ok {
		return -1, 0, fmt.Errorf("core: migrate: %w: %d", host.ErrUnknownVM, id)
	}
	vm := p.VM
	for t, h := range cs.hosts {
		if t == hostIndex || cs.drained[t] {
			continue
		}
		if h.FreeCores() < vm.Type.Cores || h.FreeLocalGB() < vm.Type.MemoryGB {
			continue
		}
		dur, refs, merr := host.LiveMigrate(src, h, id)
		if merr != nil {
			// Aggregate capacity fit but no single NUMA node did;
			// keep trying the remaining hosts.
			continue
		}
		cs.release(hostIndex, refs, now)
		return t, dur, nil
	}
	return -1, 0, ErrNoHost
}

// Reconfigure runs the one-time QoS mitigation (§4.2, Figure 13 B) on a
// VM: the host copies its pool memory into local DRAM, then offlines the
// freed capacity and returns the slices to the Pool Manager. It returns
// the copy time; a host without the local headroom refuses with
// host.ErrNoCapacity, and Migrate is the fallback.
func (cs *ClusterScheduler) Reconfigure(hostIndex int, id cluster.VMID, now float64) (copySec float64, err error) {
	if hostIndex < 0 || hostIndex >= len(cs.hosts) {
		return 0, fmt.Errorf("core: host index %d out of range", hostIndex)
	}
	dur, refs, err := cs.hosts[hostIndex].Reconfigure(id)
	if err != nil {
		return 0, err
	}
	return dur, cs.giveBack(hostIndex, refs, refs, now)
}

// FailEMC fails one EMC (§4.2) and releases every VM with a slice on it
// — the failure's blast radius — in VM-id order. Each VM's pool capacity
// goes offline on its host; its slices on the failed device are lost,
// and those on healthy EMCs return to the Pool Manager. It hands back
// the released placements in that order.
func (cs *ClusterScheduler) FailEMC(emcIndex int, now float64) ([]*host.Placement, error) {
	if cs.manager == nil {
		return nil, fmt.Errorf("core: no pool manager to fail EMC %d in", emcIndex)
	}
	if err := cs.manager.FailEMC(emcIndex); err != nil {
		return nil, err
	}
	type resident struct {
		host int
		vm   cluster.VMID
	}
	var blast []resident
	for i, h := range cs.hosts {
		h.EachPlacement(func(p *host.Placement) {
			for _, ref := range p.Slices {
				if ref.EMC == emcIndex {
					blast = append(blast, resident{host: i, vm: p.VM.ID})
					return
				}
			}
		})
	}
	slices.SortFunc(blast, func(a, b resident) int { return cmp.Compare(a.vm, b.vm) })
	released := make([]*host.Placement, 0, len(blast))
	var alive []pool.SliceRef
	for _, r := range blast {
		p, err := cs.hosts[r.host].ReleaseVM(r.vm)
		if err != nil {
			return released, err
		}
		released = append(released, p)
		alive = alive[:0]
		for _, ref := range p.Slices {
			if ref.EMC != emcIndex {
				alive = append(alive, ref)
			}
		}
		if err := cs.giveBack(r.host, p.Slices, alive, now); err != nil {
			return released, fmt.Errorf("core: offline vm %d: %w", r.vm, err)
		}
	}
	return released, nil
}

// giveBack offlines a VM's pool slices (held) on its host and returns
// the ones still backed by a healthy EMC (alive) to the Pool Manager.
func (cs *ClusterScheduler) giveBack(hostIndex int, held, alive []pool.SliceRef, now float64) error {
	if err := cs.hosts[hostIndex].RemovePoolCapacity(float64(len(held))); err != nil {
		return err
	}
	cs.release(hostIndex, alive, now)
	return nil
}

// release hands slices a host has already offlined to the Pool Manager
// for asynchronous release. An empty list makes no call: each call
// re-sorts the manager's pending releases, whose equal offline times it
// may reorder.
func (cs *ClusterScheduler) release(hostIndex int, refs []pool.SliceRef, now float64) {
	if len(refs) > 0 && cs.manager != nil {
		cs.manager.ReleaseCapacity(emc.HostID(hostIndex), refs, now)
	}
}

// PlaceResult reports where a VM landed.
type PlaceResult struct {
	HostIndex int
	Placement *host.Placement
	// FellBackToLocal is set when the pool was exhausted and the
	// decision was downgraded to all-local.
	FellBackToLocal bool
}

// Place admits a VM under the given decision at the given time.
func (cs *ClusterScheduler) Place(vm cluster.VMRequest, d Decision, now float64) (PlaceResult, error) {
	res := PlaceResult{HostIndex: -1}

	// Host selection: tightest fit by free cores among hosts that fit
	// cores and local memory.
	bestCores := 1 << 30
	for i, h := range cs.hosts {
		if cs.drained[i] {
			continue
		}
		if h.FreeCores() >= vm.Type.Cores && h.FreeLocalGB() >= d.LocalGB && h.FreeCores() < bestCores {
			bestCores = h.FreeCores()
			res.HostIndex = i
		}
	}
	if res.HostIndex < 0 {
		// A pool-heavy decision may still fit somewhere as all-local.
		if d.PoolGB > 0 {
			return cs.Place(vm, Decision{Kind: AllLocal, LocalGB: vm.Type.MemoryGB}, now)
		}
		return res, &noHostError{cores: vm.Type.Cores, localGB: d.LocalGB}
	}

	var slices []pool.SliceRef
	localGB, poolGB := d.LocalGB, d.PoolGB
	if poolGB > 0 && cs.manager != nil {
		add, err := cs.manager.AddCapacity(emc.HostID(res.HostIndex), int(poolGB), now)
		if err != nil {
			// Pool exhausted: fall back to all-local (§4.3). The host
			// chosen above may lack the extra local memory; re-select —
			// and keep the fallback flag on the recursive result, so
			// callers (the QoS record, the capacity controller's
			// censored-demand signal) see this placement for what it is.
			cs.fallbacks++
			if cs.hosts[res.HostIndex].FreeLocalGB() < vm.Type.MemoryGB {
				r, rerr := cs.Place(vm, Decision{Kind: AllLocal, LocalGB: vm.Type.MemoryGB}, now)
				if rerr == nil {
					r.FellBackToLocal = true
				}
				return r, rerr
			}
			localGB, poolGB = vm.Type.MemoryGB, 0
			res.FellBackToLocal = true
		} else {
			slices = add.Slices
			cs.hosts[res.HostIndex].AddPoolCapacity(float64(len(slices)))
		}
	} else if poolGB > 0 {
		localGB, poolGB = vm.Type.MemoryGB, 0
		res.FellBackToLocal = true
	}

	p, err := cs.hosts[res.HostIndex].PlaceVM(vm, localGB, poolGB, slices)
	if err != nil {
		// Undo the pool grant before surfacing the error; the grant was
		// just onlined unused, so offlining it cannot fail.
		_ = cs.giveBack(res.HostIndex, slices, slices, now)
		return res, err
	}
	res.Placement = p
	return res, nil
}

// Fallbacks returns how many placements were downgraded from a pool
// split to all-local because the pool had no reachable capacity.
func (cs *ClusterScheduler) Fallbacks() int64 { return cs.fallbacks }

// Release stops a VM on the given host, returning its pool slices to the
// manager for asynchronous offline.
func (cs *ClusterScheduler) Release(hostIndex int, id cluster.VMID, now float64) (*host.Placement, error) {
	if hostIndex < 0 || hostIndex >= len(cs.hosts) {
		return nil, fmt.Errorf("core: host index %d out of range", hostIndex)
	}
	p, err := cs.hosts[hostIndex].ReleaseVM(id)
	if err != nil {
		return nil, err
	}
	if err := cs.giveBack(hostIndex, p.Slices, p.Slices, now); err != nil {
		return nil, err
	}
	return p, nil
}

// HandleHostFailure reclaims a dead host's pool memory (§4.2): its VMs
// are gone with it, and every slice it owned returns to the pool for
// reallocation to other hosts. It returns the lost VM ids and reclaimed
// capacity.
func (cs *ClusterScheduler) HandleHostFailure(hostIndex int) (lost []cluster.VMID, reclaimedGB int, err error) {
	if hostIndex < 0 || hostIndex >= len(cs.hosts) {
		return nil, 0, fmt.Errorf("core: host index %d out of range", hostIndex)
	}
	h := cs.hosts[hostIndex]
	lost = h.VMs()
	for _, id := range lost {
		if _, rerr := h.ReleaseVM(id); rerr != nil {
			return lost, 0, rerr
		}
	}
	if cs.manager != nil {
		reclaimedGB = cs.manager.ReclaimHost(emc.HostID(hostIndex))
	}
	return lost, reclaimedGB, nil
}
