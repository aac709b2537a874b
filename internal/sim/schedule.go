// Package sim is the trace-driven cluster simulator of §6.1: it packs VM
// requests onto servers at per-event accuracy, measures memory stranding
// (Figure 2), and evaluates how much DRAM each allocation policy requires
// as a function of pool size (Figures 3 and 21).
//
// Like the paper's simulator, placement is computed once (VMs stay on the
// nodes the packing chose) and policies only change how each VM's memory
// splits between socket-local and pool DRAM. Required DRAM is accounted
// bottom-up: each socket must be provisioned for its peak local demand,
// and each pool group (the K sockets sharing EMCs) for its peak aggregate
// pool demand. Pooling saves memory exactly when deviations across
// sockets do not peak together — the statistical multiplexing effect the
// paper exploits.
package sim

import (
	"sort"

	"pond/internal/cluster"
)

// Assignment places one VM on a server's NUMA node.
type Assignment struct {
	Server int
	Node   int
}

// Rejected marks a VM the packing could not place.
var Rejected = Assignment{Server: -1, Node: -1}

// Schedule is the fixed placement of a trace onto its cluster.
type Schedule struct {
	Trace     *cluster.Trace
	Placement []Assignment // parallel to Trace.VMs
	RejectedN int
}

// nodeState tracks one socket during packing.
type nodeState struct {
	coresFree int
	memFree   float64
}

// event is one arrival or departure during replay.
type event struct {
	sec     float64
	vmIndex int
	arrive  bool
}

// BuildSchedule packs the trace's VMs onto nodes with a best-fit policy:
// among nodes that fit both cores and memory, pick the one with the
// fewest cores left after placement (tight packing, like production bin
// packing). VMs that fit nowhere are rejected, mirroring the paper's
// "moved to another server" escape hatch.
func BuildSchedule(tr *cluster.Trace) Schedule {
	s := Schedule{Trace: tr, Placement: make([]Assignment, len(tr.VMs))}
	nodes := make([][]nodeState, tr.Servers)
	for i := range nodes {
		nodes[i] = make([]nodeState, tr.Spec.Sockets)
		for j := range nodes[i] {
			nodes[i][j] = nodeState{coresFree: tr.Spec.CoresPerSock, memFree: tr.Spec.MemGBPerSock}
		}
	}
	events := buildEvents(tr.VMs)
	for _, ev := range events {
		vm := &tr.VMs[ev.vmIndex]
		if !ev.arrive {
			a := s.Placement[ev.vmIndex]
			if a != Rejected {
				nodes[a.Server][a.Node].coresFree += vm.Type.Cores
				nodes[a.Server][a.Node].memFree += vm.Type.MemoryGB
			}
			continue
		}
		best := Rejected
		bestLeft := 1 << 30
		for si := range nodes {
			for ni := range nodes[si] {
				n := &nodes[si][ni]
				if n.coresFree < vm.Type.Cores || n.memFree < vm.Type.MemoryGB {
					continue
				}
				left := n.coresFree - vm.Type.Cores
				if left < bestLeft {
					bestLeft = left
					best = Assignment{Server: si, Node: ni}
				}
			}
		}
		s.Placement[ev.vmIndex] = best
		if best == Rejected {
			s.RejectedN++
			continue
		}
		nodes[best.Server][best.Node].coresFree -= vm.Type.Cores
		nodes[best.Server][best.Node].memFree -= vm.Type.MemoryGB
	}
	return s
}

// buildEvents returns the trace's arrivals and departures in time order,
// departures before arrivals at equal timestamps so capacity frees first.
func buildEvents(vms []cluster.VMRequest) []event {
	events := make([]event, 0, 2*len(vms))
	for i, vm := range vms {
		events = append(events,
			event{sec: vm.ArrivalSec, vmIndex: i, arrive: true},
			event{sec: vm.DepartureSec(), vmIndex: i, arrive: false},
		)
	}
	sort.Slice(events, func(a, b int) bool {
		if events[a].sec != events[b].sec {
			return events[a].sec < events[b].sec
		}
		return !events[a].arrive && events[b].arrive
	})
	return events
}

// RejectionRate returns the fraction of VMs the packing dropped.
func (s Schedule) RejectionRate() float64 {
	if len(s.Placement) == 0 {
		return 0
	}
	return float64(s.RejectedN) / float64(len(s.Placement))
}
