package ctlplane

import (
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// period is the control interval, the paper's 30 ms worker control-loop
// period.
const period = 30 * time.Millisecond

// Pools is the single owner of a node's compute and communication
// engine-pool sizes. Once the pools are sized at boot, every resize —
// the elasticity decision, the PI core move, SetEngineCounts and the
// journal replay that calls it — happens here, under one mutex, so two
// read-modify-write sequences never interleave. It enforces:
//
//  1. Each pool has at least 1 engine.
//  2. A PI move shifts one engine between the pools and leaves
//     compute+comm unchanged. It never moves an engine toward a pool
//     whose queue is empty: a draining backlog reads as negative
//     growth, but handing its cores to an idle type would only slow
//     the drain.
//  3. While autoscale is enabled, the compute pool stays in [Min, Max]:
//     SetEngineCounts clamps into the bounds, and a PI move that would
//     take compute out of them is refused.
//  4. While autoscale is enabled, an elasticity grow is refused once
//     compute+comm reaches Max plus the comm count last set at boot or
//     by SetEngineCounts. Without PI moves comm never changes and this
//     is exactly compute < Max; with them it keeps elasticity from
//     inflating the budget while the PI controller hands the grown
//     cores to comm.
//  5. Below Min (an admin resize made with autoscale off), the compute
//     pool is not forced back up while idle; any hot observation grows
//     it at once.
//
// Controller steps are not journaled; admin changes are, by the caller.
type Pools struct {
	compute, comm Pool
	signals       func(elastic bool) Signals
	// pi and elastic are the two decisions; nil means not configured.
	pi      *Controller
	elastic *Elasticity
	// autoscale is the elasticity switch, written under mu and read
	// lock-free by AutoscaleOn.
	autoscale atomic.Bool

	mu sync.Mutex
	// budgetComm is the comm count last set at boot or by
	// SetEngineCounts (rule 4).
	budgetComm int
	// prev is the PI decision's previous observation.
	prev       Signals
	stop, done chan struct{}
}

// NewPools takes ownership of two pools already sized at boot. signals
// samples the node's load: always the two queues' counters, and the
// elasticity inputs (QueueLen, InFlight, WaitP99) only when asked, so a
// tick with autoscale off skips that walk of the scheduling plane. pi
// (the Balance option) and elastic (the Autoscale option) may each be
// nil. signals and the pools' methods run under the actuator's mutex —
// that is what makes each tick's observation and resize one step — so
// they must not call back into Pools.
func NewPools(compute, comm Pool, signals func(elastic bool) Signals, pi *Controller, elastic *Elasticity) *Pools {
	p := &Pools{
		compute: compute, comm: comm, signals: signals,
		pi: pi, elastic: elastic,
		budgetComm: comm.Count(),
	}
	p.autoscale.Store(elastic != nil)
	return p
}

// AutoscaleOn reports whether the elasticity decision is configured and
// enabled.
func (p *Pools) AutoscaleOn() bool { return p.autoscale.Load() }

// SetAutoscale toggles the elasticity decision; a no-op without one.
// Sizes are left as they are: a pool outside [Min, Max] is walked back
// by the decision itself (rule 5).
func (p *Pools) SetAutoscale(on bool) {
	if p.elastic == nil {
		return
	}
	p.mu.Lock()
	p.autoscale.Store(on)
	p.mu.Unlock()
}

// Resizes reports the elasticity decision's cumulative resizes (0
// without one).
func (p *Pools) Resizes() uint64 {
	if p.elastic == nil {
		return 0
	}
	return p.elastic.Resizes()
}

// Counts reports the current pool sizes.
func (p *Pools) Counts() (compute, comm int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.compute.Count(), p.comm.Count()
}

// SetEngineCounts resizes both pools and returns the sizes applied:
// counts below 1 are clamped to 1 (rule 1) and, while autoscale is
// enabled, compute is clamped into [Min, Max] (rule 3), so a manual
// resize and the control loop never fight. The comm count becomes the
// budget rule 4 measures elasticity grows against.
func (p *Pools) SetEngineCounts(compute, comm int) (int, int) {
	compute, comm = max(compute, 1), max(comm, 1)
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.AutoscaleOn() {
		lo, hi := p.elastic.Bounds()
		compute = min(max(compute, lo), hi)
	}
	p.compute.SetCount(compute)
	p.comm.SetCount(comm)
	p.budgetComm = comm
	return compute, comm
}

// StepOnce runs one control tick: the elasticity decision if autoscale
// is enabled, then the PI decision if configured. Exposed so tests can
// drive the loop deterministically.
func (p *Pools) StepOnce() {
	p.mu.Lock()
	defer p.mu.Unlock()
	auto := p.AutoscaleOn()
	if !auto && p.pi == nil {
		return
	}
	s := p.signals(auto)
	c, m := p.compute.Count(), p.comm.Count()
	lo, hi := 1, math.MaxInt
	if auto {
		lo, hi = p.elastic.Bounds()
		if d := p.elastic.step(c, s, c+m < hi+p.budgetComm); d != 0 {
			c += d
			p.compute.SetCount(c)
		}
	}
	if p.pi == nil {
		return
	}
	move := p.pi.Step(growth(s.Compute, p.prev.Compute), growth(s.Comm, p.prev.Comm))
	p.prev = s
	switch {
	case move > 0 && s.Compute.Len > 0 && m > 1 && c < hi:
		p.comm.SetCount(m - 1)
		p.compute.SetCount(c + 1)
	case move < 0 && s.Comm.Len > 0 && c > lo:
		p.compute.SetCount(c - 1)
		p.comm.SetCount(m + 1)
	}
}

// growth is a queue's pushed − popped delta since the previous
// observation.
func growth(now, prev QueueCounts) float64 {
	return float64(now.Pushed-prev.Pushed) - float64(now.Popped-prev.Popped)
}

// Start launches the control loop if either decision is configured;
// it is idempotent.
func (p *Pools) Start() {
	if p.pi == nil && p.elastic == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.stop != nil {
		return
	}
	p.stop, p.done = make(chan struct{}), make(chan struct{})
	go p.loop(p.stop, p.done)
}

func (p *Pools) loop(stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	ticker := time.NewTicker(period)
	defer ticker.Stop()
	for {
		select {
		case <-stop:
			return
		case <-ticker.C:
			p.StepOnce()
		}
	}
}

// Stop halts the control loop and waits for it to exit; it is
// idempotent.
func (p *Pools) Stop() {
	p.mu.Lock()
	stop, done := p.stop, p.done
	p.stop, p.done = nil, nil
	p.mu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
}
