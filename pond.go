// Package pond is the public API of this reproduction of "Pond: CXL-Based
// Memory Pooling Systems for Cloud Platforms" (ASPLOS 2023).
//
// The package wires the full stack together — external memory controllers
// (EMCs), the Pool Manager, hypervisor hosts with zNUMA support, guest
// memory managers, PMU telemetry, the two prediction models, and the QoS
// monitoring/mitigation pipeline — behind a System facade that admits and
// releases VMs against simulated time.
//
// A minimal session:
//
//	sys, err := pond.NewSystem(pond.DefaultConfig())
//	vm, err := sys.StartVM(pond.VMSpec{Cores: 8, MemoryGB: 32, Workload: "redis-ycsb-a"})
//	fmt.Println(vm.Topology)      // numactl-style zNUMA view
//	report := sys.RunQoSSweep()   // monitoring + mitigation pass
//	sys.StopVM(vm.ID)
//
// The experiment entry points that regenerate the paper's figures live in
// internal/experiments and are exposed through the cmd/ tools and the
// repository benchmarks.
package pond

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"pond/internal/cluster"
	"pond/internal/core"
	"pond/internal/cxl"
	"pond/internal/emc"
	"pond/internal/guest"
	"pond/internal/host"
	"pond/internal/pmu"
	"pond/internal/pool"
	"pond/internal/predict"
	"pond/internal/stats"
	"pond/internal/telemetry"
	"pond/internal/topo"
	"pond/internal/workload"
)

// Config describes a Pond deployment: a group of dual-socket hosts
// sharing one or more multi-headed EMCs.
type Config struct {
	// Hosts is the number of servers in the pool group. With two
	// sockets per server, 8 hosts form the paper's 16-socket pool.
	Hosts int

	// CoresPerSocket and MemGBPerSocket size each server's NUMA nodes.
	CoresPerSocket int
	MemGBPerSocket float64

	// PoolGB is the EMC capacity shared by the group.
	PoolGB int

	// EMCs shards the pool capacity across devices (blast-radius
	// isolation).
	EMCs int

	// Topology names the host-to-EMC connectivity graph: "flat" (every
	// host reaches every EMC — the paper's pool group; the default),
	// "sharded" (disjoint partitions, one EMC each), or "sparse"
	// (Octopus-style overlapping pods of PodDegree EMCs per host).
	Topology string

	// PodDegree is the per-host EMC connection count under the sparse
	// topology; <= 0 defaults to 2.
	PodDegree int

	// PDM is the performance degradation margin (fraction; 0.05 = 5%).
	PDM float64

	// TargetPercentile is the share of VMs that must meet the PDM.
	TargetPercentile float64

	// UsePredictions enables the ML scheduling pipeline. When false,
	// every VM is allocated entirely on local memory (the no-pooling
	// baseline).
	UsePredictions bool

	// Seed drives all stochastic components.
	Seed int64
}

// DefaultConfig returns the paper's headline deployment: an 8-host
// (16-socket) pool with PDM=5% and TP=98%.
func DefaultConfig() Config {
	return Config{
		Hosts:            8,
		CoresPerSocket:   24,
		MemGBPerSocket:   192,
		PoolGB:           1024,
		EMCs:             2,
		PDM:              0.05,
		TargetPercentile: 0.98,
		UsePredictions:   true,
		Seed:             1,
	}
}

// VMSpec is a VM start request.
type VMSpec struct {
	Cores    int
	MemoryGB float64
	// Workload names a catalogue entry (see pond.Workloads). It stands
	// in for what actually runs inside the opaque VM; the platform only
	// observes it through telemetry.
	Workload string
	// Customer groups VMs for history-based predictions.
	Customer int32
	// UntouchedFrac optionally fixes the ground-truth fraction of
	// memory the VM never touches; negative means "derive from the
	// workload footprint".
	UntouchedFrac float64
}

// VM is a running VM handle.
type VM struct {
	ID       int64
	Host     int
	Spec     VMSpec
	LocalGB  float64
	PoolGB   float64
	Decision string
	// Topology is the guest-visible NUMA layout (Figure 10).
	Topology string
	// ZNUMATrafficFrac is the fraction of the VM's memory accesses
	// served by the zNUMA node under the guest's local-preferred
	// allocation.
	ZNUMATrafficFrac float64
	// SlowdownFrac is the realized slowdown versus all-local placement.
	SlowdownFrac float64
}

// SystemStats summarizes the deployment.
type SystemStats struct {
	RunningVMs     int
	PoolFreeGB     int
	PoolUsedGB     float64
	StrandedGB     float64
	LocalFreeGB    float64
	Mitigations    int
	PoolLatency    string
	AccessLatencyN float64
}

// System is a live Pond deployment. All methods are safe for concurrent
// use: one coarse lock serializes the control plane, mirroring the
// paper's single Pool Manager per pool group.
type System struct {
	cfg       Config
	topology  *topo.Topology
	devices   []*emc.Device
	manager   *pool.Manager
	hosts     []*host.Host
	scheduler *core.ClusterScheduler
	pipeline  *core.Pipeline
	monitor   *core.QoSMonitor
	store     *telemetry.Store
	rng       *stats.Rand

	mu          sync.Mutex
	nowSec      float64
	nextVM      int64
	vms         map[int64]*vmState
	mitigations int
}

// vmState is the facade's handle on a running VM; its placement, pool
// slices included, lives only on its host.
type vmState struct {
	handle   *VM
	host     int
	workload workload.Workload
}

// NewSystem builds and boots a deployment.
func NewSystem(cfg Config) (*System, error) {
	if cfg.Hosts <= 0 || cfg.CoresPerSocket <= 0 || cfg.MemGBPerSocket <= 0 {
		return nil, fmt.Errorf("pond: invalid host configuration %+v", cfg)
	}
	if cfg.EMCs <= 0 {
		cfg.EMCs = 1
	}
	if cfg.PoolGB < cfg.EMCs {
		return nil, fmt.Errorf("pond: pool of %d GB cannot shard across %d EMCs", cfg.PoolGB, cfg.EMCs)
	}
	s := &System{
		cfg: cfg,
		rng: stats.NewRand(cfg.Seed),
		vms: make(map[int64]*vmState),
	}
	tp, err := topo.Build(cfg.Topology, cfg.Hosts, cfg.EMCs, cfg.PodDegree)
	if err != nil {
		return nil, fmt.Errorf("pond: %w", err)
	}
	s.topology = tp
	perEMC := cfg.PoolGB / cfg.EMCs
	for i := 0; i < cfg.EMCs; i++ {
		s.devices = append(s.devices, emc.NewDevice(fmt.Sprintf("emc%d", i), perEMC, cfg.Hosts))
	}
	s.manager = pool.NewManagerTopo(s.devices, tp.Conn(), s.rng.Fork(1))

	sockets := cfg.Hosts * 2
	ratio := cxl.PondLatencyRatio(sockets)
	spec := cluster.ServerSpec{Sockets: 2, CoresPerSock: cfg.CoresPerSocket, MemGBPerSock: cfg.MemGBPerSocket}
	for i := 0; i < cfg.Hosts; i++ {
		s.hosts = append(s.hosts, host.New(emc.HostID(i), spec, host.Config{
			PoolLatencyRatio: ratio,
			EnablePageTables: true,
		}))
	}

	s.store = telemetry.NewStore()
	pcfg := core.DefaultConfig()
	pcfg.Ratio = ratio
	pcfg.PDM = cfg.PDM
	pcfg.TP = cfg.TargetPercentile

	var insens predict.Insensitivity
	var um predict.Untouched
	if cfg.UsePredictions {
		insens, pcfg.InsensScoreThreshold = predict.TrainBootstrapInsensitivity(ratio, cfg.PDM, cfg.Seed)
		um = predict.HistoryQuantileUM{}
	}
	s.pipeline = core.NewPipeline(pcfg, insens, um, s.store)
	s.monitor = core.NewQoSMonitor(pcfg, insens)
	s.scheduler = core.NewClusterScheduler(s.hosts, s.manager)
	return s, nil
}

// Workloads lists the catalogue names usable in VMSpec.Workload.
func Workloads() []string {
	var out []string
	for _, w := range workload.Catalogue() {
		out = append(out, w.Name)
	}
	return out
}

// AdvanceSeconds moves simulated time forward.
func (s *System) AdvanceSeconds(sec float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if sec > 0 {
		s.nowSec += sec
	}
}

// Now returns the current simulated time in seconds.
func (s *System) Now() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.nowSec
}

// ErrNoCapacity is returned when no host can place the VM.
var ErrNoCapacity = errors.New("pond: no host with sufficient capacity")

// StartVM admits a VM: the control plane decides its local/pool split,
// the Pool Manager onlines slices, the hypervisor builds the (z)NUMA
// topology, and the guest boots its memory manager.
func (s *System) StartVM(spec VMSpec) (*VM, error) {
	w, ok := workload.ByName(spec.Workload)
	if !ok {
		if spec.Workload != "" {
			return nil, fmt.Errorf("pond: unknown workload %q (see pond.Workloads)", spec.Workload)
		}
		w, _ = workload.ByName("P5-web")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	untouched := spec.UntouchedFrac
	if untouched < 0 || untouched > 1 {
		untouched = 1 - stats.Clamp(w.FootprintGB/spec.MemoryGB, 0, 1)
	}
	s.nextVM++
	vmReq := cluster.VMRequest{
		ID:       cluster.VMID(s.nextVM),
		Customer: cluster.CustomerID(spec.Customer),
		Type:     cluster.VMType{Name: "custom", Cores: spec.Cores, MemoryGB: spec.MemoryGB},
		OS:       "linux",
		Region:   "local",
		// The facade treats every VM as first-party.
		WorkloadName: w.Name,
		ArrivalSec:   s.nowSec,
		GroundTruth: cluster.VMGroundTruth{
			UntouchedFrac: untouched,
			Workload:      w,
		},
	}

	// Scheduling decision (Figure 13 A): history counters when the
	// customer has completed VMs before.
	var counters *pmu.Vector
	h := s.store.CustomerHistory(vmReq.Customer, s.nowSec+1, predict.HistoryWindowSec)
	if h.Count > 0 {
		v := pmu.Sample(w, s.rng)
		counters = &v
	}
	decision := s.pipeline.Decide(vmReq, counters, predict.UMFeatures(vmReq, h))

	// Scheduling (A3-A4): bin packing with pool memory as an extra
	// dimension; slices are onlined before the VM starts and the
	// scheduler falls back to all-local when the pool is exhausted.
	res, err := s.scheduler.Place(vmReq, decision, s.nowSec)
	if err != nil {
		if errors.Is(err, core.ErrNoHost) {
			return nil, ErrNoCapacity
		}
		return nil, fmt.Errorf("pond: placement failed: %w", err)
	}
	hostIdx := res.HostIndex
	placement := res.Placement
	if res.FellBackToLocal {
		decision = core.Decision{Kind: core.AllLocal, LocalGB: spec.MemoryGB}
	}

	// Boot the guest and measure where its accesses land.
	mm := guest.Boot(placement.Topology, guest.LocalPreferred)
	touched := spec.MemoryGB * (1 - untouched)
	access, aerr := mm.RunWorkload(w, stats.Clamp(touched, 0, mm.TotalFreeGB()))
	if aerr != nil {
		access = guest.AccessStats{LocalFrac: 1}
	}
	outcome := s.pipeline.Evaluate(vmReq, decision)

	// Record hypervisor telemetry.
	if placement.PageTable != nil {
		placement.PageTable.TouchRange(0, touched)
	}
	s.store.RecordSample(vmReq.ID, pmu.Sample(w, s.rng))

	handle := &VM{
		ID:               int64(vmReq.ID),
		Host:             hostIdx,
		Spec:             spec,
		LocalGB:          placement.LocalGB,
		PoolGB:           placement.PoolGB,
		Decision:         decision.Kind.String(),
		Topology:         placement.Topology.String(),
		ZNUMATrafficFrac: access.ZNUMAFrac,
		SlowdownFrac:     outcome.SlowdownFrac,
	}
	s.vms[handle.ID] = &vmState{handle: handle, host: hostIdx, workload: w}
	// Callers get a snapshot: the live handle keeps changing under the
	// system lock (QoS mitigations move memory around).
	snapshot := *handle
	return &snapshot, nil
}

// StopVM releases a VM; its pool slices drain back asynchronously.
func (s *System) StopVM(id int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.vms[id]
	if !ok {
		return fmt.Errorf("pond: unknown VM %d", id)
	}
	delete(s.vms, id)
	p, err := s.scheduler.Release(st.host, cluster.VMID(id), s.nowSec)
	if err != nil {
		return err
	}
	s.store.RecordOutcome(p.VM.Customer, s.nowSec, p.VM.GroundTruth.UntouchedFrac)
	s.store.ForgetVM(cluster.VMID(id))
	return nil
}

// InjectHostFailure kills a host: its VMs are lost and its pool memory is
// reclaimed for the surviving hosts (§4.2). It returns the lost VM ids.
func (s *System) InjectHostFailure(hostIndex int) ([]int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	lost, _, err := s.scheduler.HandleHostFailure(hostIndex)
	if err != nil {
		return nil, err
	}
	out := make([]int64, 0, len(lost))
	for _, id := range lost {
		out = append(out, int64(id))
		delete(s.vms, int64(id))
		s.store.ForgetVM(id)
	}
	return out, nil
}

// MitigationReport describes one QoS sweep action.
type MitigationReport struct {
	VM            int64
	Overpredicted bool
	Sensitive     bool
	Reconfigured  bool
	// Migrated is set when the VM's own host lacked local headroom and
	// the mitigation live-migrated it to another host (§6.4).
	Migrated    bool
	TargetHost  int
	CopySeconds float64
}

// RunQoSSweep inspects every running VM with fresh counters and applies
// mitigations (Figure 11 B). It returns one report per pool-using VM.
func (s *System) RunQoSSweep() []MitigationReport {
	s.mu.Lock()
	defer s.mu.Unlock()
	// Sweep VMs in id order: map iteration order would consume the RNG
	// stream nondeterministically and break seed reproducibility.
	ids := make([]int64, 0, len(s.vms))
	for id := range s.vms {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	var out []MitigationReport
	for _, id := range ids {
		st, vid := s.vms[id], cluster.VMID(id)
		p, ok := s.hosts[st.host].Placement(vid)
		if !ok || p.PoolGB == 0 {
			continue
		}
		counters := pmu.Sample(st.workload, s.rng)
		s.store.RecordSample(vid, counters)
		committed, err := s.hosts[st.host].GuestCommittedGB(vid)
		if err != nil {
			continue
		}
		verdict := s.monitor.Check(p, committed, counters)
		rep := MitigationReport{
			VM:            id,
			Overpredicted: verdict.Overpredicted,
			Sensitive:     verdict.Sensitive,
		}
		if verdict.NeedsMitigation {
			if dur, rerr := s.scheduler.Reconfigure(st.host, vid, s.nowSec); rerr == nil {
				rep.Reconfigured, rep.CopySeconds = true, dur
				s.recordAllLocal(st, st.host)
			} else if target, mdur, merr := s.scheduler.Migrate(st.host, vid, s.nowSec); merr == nil {
				// No local headroom: the VM moved to a host that takes
				// it entirely locally (§6.4).
				rep.Migrated, rep.TargetHost, rep.CopySeconds = true, target, mdur
				s.recordAllLocal(st, target)
			}
			if rep.Reconfigured || rep.Migrated {
				s.mitigations++
				s.store.MarkSensitive(p.VM.Customer)
			}
		}
		out = append(out, rep)
	}
	return out
}

// recordAllLocal updates a VM's handle after a mitigation or a
// migration left it entirely on local memory on the given host.
func (s *System) recordAllLocal(st *vmState, hostIndex int) {
	st.host = hostIndex
	st.handle.Host = hostIndex
	st.handle.LocalGB += st.handle.PoolGB
	st.handle.PoolGB = 0
}

// DrainHost puts a host into maintenance drain: it stops receiving new
// placements and its VMs are live-migrated to hosts with all-local
// headroom (core.ClusterScheduler.DrainHost). VMs that fit nowhere stay
// on the draining host and are returned as remaining.
func (s *System) DrainHost(hostIndex int) (migrated, remaining []int64, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	migrations, left, err := s.scheduler.DrainHost(hostIndex, s.nowSec)
	if err != nil {
		return nil, nil, fmt.Errorf("pond: %w", err)
	}
	for _, m := range migrations {
		id := int64(m.VM)
		migrated = append(migrated, id)
		if st, ok := s.vms[id]; ok {
			s.recordAllLocal(st, m.Target)
		}
	}
	for _, id := range left {
		remaining = append(remaining, int64(id))
	}
	return migrated, remaining, nil
}

// UndrainHost returns a drained host to service.
func (s *System) UndrainHost(hostIndex int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.scheduler.SetDrained(hostIndex, false)
}

// BlastRadiusHosts returns the hosts wired to an EMC — the set a failure
// of that device can reach under the configured topology (§4.2).
func (s *System) BlastRadiusHosts(emcIndex int) []int {
	return append([]int(nil), s.topology.HostsFor(emcIndex)...)
}

// TopologyName returns the configured host-to-EMC topology.
func (s *System) TopologyName() string { return s.topology.Name() }

// Stats summarizes the deployment state.
func (s *System) Stats() SystemStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.statsLocked()
}

// statsLocked computes SystemStats; the caller holds s.mu.
func (s *System) statsLocked() SystemStats {
	st := SystemStats{
		RunningVMs:  len(s.vms),
		PoolFreeGB:  s.manager.FreeGB(s.nowSec),
		Mitigations: s.mitigations,
	}
	for _, h := range s.hosts {
		st.StrandedGB += h.StrandedGB()
		st.LocalFreeGB += h.FreeLocalGB()
		st.PoolUsedGB += h.OnlinePoolGB() - h.FreePoolGB()
	}
	path := cxl.PondPathClamped(s.cfg.Hosts * 2)
	st.PoolLatency = path.String()
	st.AccessLatencyN = path.TotalNanos()
	return st
}

// VMInfo returns a snapshot of a running VM's state.
func (s *System) VMInfo(id int64) (*VM, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.vms[id]
	if !ok {
		return nil, false
	}
	snapshot := *st.handle
	return &snapshot, true
}

// InjectEMCFailure fails one EMC and returns the IDs of the VMs whose
// memory was on it — the blast radius (§4.2), in id order. Affected VMs
// are stopped (core.ClusterScheduler.FailEMC).
func (s *System) InjectEMCFailure(emcIndex int) ([]int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	released, err := s.scheduler.FailEMC(emcIndex, s.nowSec)
	var affected []int64
	for _, p := range released {
		affected = append(affected, int64(p.VM.ID))
		delete(s.vms, int64(p.VM.ID))
		s.store.ForgetVM(p.VM.ID)
	}
	if err != nil {
		return affected, fmt.Errorf("pond: %w", err)
	}
	return affected, nil
}

// Describe renders a one-screen summary of the deployment: topology,
// latency, pool state, and control-plane configuration.
func (s *System) Describe() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.statsLocked()
	mode := "predictions enabled"
	if !s.cfg.UsePredictions {
		mode = "all-local (no predictions)"
	}
	return fmt.Sprintf(
		"Pond deployment: %d hosts x 2 sockets (%d cores, %.0f GB local each)\n"+
			"topology: %s\n"+
			"pool: %d GB across %d EMC(s); %d GB free\n"+
			"latency: %s\n"+
			"control plane: PDM=%.0f%%, TP=%.0f%%, %s\n"+
			"running: %d VMs, %d mitigations so far",
		s.cfg.Hosts, 2*s.cfg.CoresPerSocket, 2*s.cfg.MemGBPerSocket,
		s.topology.Describe(),
		s.cfg.PoolGB, len(s.devices), st.PoolFreeGB,
		st.PoolLatency,
		100*s.cfg.PDM, 100*s.cfg.TargetPercentile, mode,
		st.RunningVMs, st.Mitigations)
}
