package core

import (
	"pond/internal/host"
	"pond/internal/pmu"
	"pond/internal/predict"
)

// QoSVerdict is the monitor's conclusion for one VM (Figure 13 B).
type QoSVerdict struct {
	// Overpredicted is set for zNUMA VMs whose guest has committed more
	// memory than the local vNUMA node holds — the untouched-memory
	// prediction was too optimistic and the VM is spilling.
	Overpredicted bool

	// Sensitive is set when the live counters classify the workload as
	// latency-sensitive.
	Sensitive bool

	// NeedsMitigation requests the one-time reconfiguration to
	// all-local memory.
	NeedsMitigation bool
}

// QoSMonitor implements the runtime monitoring flow (B1-B3 in Figure 11):
// it inspects hypervisor and hardware counters for every running VM and
// flags the VMs whose performance impact exceeds the PDM for the
// scheduler's one-time mitigation (ClusterScheduler.Reconfigure).
type QoSMonitor struct {
	cfg    Config
	insens predict.Insensitivity
}

// NewQoSMonitor builds a monitor sharing the pipeline's configuration.
func NewQoSMonitor(cfg Config, insens predict.Insensitivity) *QoSMonitor {
	return &QoSMonitor{cfg: cfg, insens: insens}
}

// Check evaluates one VM. committedGB is the hypervisor's guest-committed
// counter; counters are the VM's recent mean PMU telemetry.
//
// Decision logic per Figure 13 (B): a VM using no pool memory never needs
// mitigation. A zNUMA VM needs mitigation only when it both spilled
// (overpredicted untouched memory) and its workload is latency-sensitive.
// A fully pool-backed VM needs mitigation whenever it is sensitive.
func (q *QoSMonitor) Check(p *host.Placement, committedGB float64, counters pmu.Vector) QoSVerdict {
	var v QoSVerdict
	if p.PoolGB == 0 {
		return v
	}
	fullyPooled := p.LocalGB == 0
	if !fullyPooled {
		v.Overpredicted = committedGB > p.LocalGB
	}
	if q.insens != nil {
		v.Sensitive = q.insens.Score(counters) < q.cfg.InsensScoreThreshold
	}
	if fullyPooled {
		v.NeedsMitigation = v.Sensitive
	} else {
		v.NeedsMitigation = v.Overpredicted && v.Sensitive
	}
	return v
}
