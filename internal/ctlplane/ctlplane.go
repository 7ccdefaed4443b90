// Package ctlplane is the dynamic control plane of a Dandelion worker:
// the layer that turns boot-time configuration into runtime
// reconfiguration. It owns two things.
//
// First, the Reconfigurer interface — the contract every layer above
// the dispatcher programs against when it wants to change a running
// node: per-tenant DRR weights (applied through internal/sched),
// engine-pool sizes (applied through Pools), batch admission-window
// clamps (applied through internal/autoscale), the elasticity
// controller's on/off switch, and drain/resume. core.Platform
// implements it; the frontend's authenticated /admin routes and the
// cluster manager's fan-out both speak it, so a weight update entered
// over HTTP reaches the same code path an SDK caller uses.
//
// Second, Pools — the single owner of a node's two engine-pool sizes.
// After boot it is the only code that resizes the compute and
// communication pools. One 30 ms control loop per node runs two
// decisions against one mutex-guarded pair of sizes: the Elasticity
// decision, which grows or shrinks the compute pool one engine at a
// time within [Min, Max] from backlog and dispatch-wait p99 with
// hysteresis on both edges, and the §5 PI Controller, which moves one
// core at a time between the pools from their queues' growth rates.
// Manual SetEngineCounts calls and journal replay apply through the
// same rules (see Pools).
package ctlplane

import (
	"sync/atomic"
	"time"
)

// Reconfigurer is the runtime-reconfiguration surface of one worker
// node. All methods are safe for concurrent use and take effect without
// a restart; setters apply from the next scheduling/admission decision.
type Reconfigurer interface {
	// SetTenantWeight sets a tenant's DRR dispatch weight on every
	// scheduling plane of the node (non-positive weights are clamped to
	// 1 by the scheduler); TenantWeight reads it back (1 for tenants the
	// node has never seen).
	SetTenantWeight(tenant string, weight int)
	TenantWeight(tenant string) int
	// TenantShare reports the tenant's current weighted dispatch share
	// in (0, 1] among the compute plane's active tenants.
	TenantShare(tenant string) float64
	// SetEngineCounts resizes the compute and communication engine
	// pools through Pools (values < 1 are clamped to 1; with autoscale
	// enabled, compute is clamped into its bounds); EngineCounts reads
	// the current sizes.
	SetEngineCounts(compute, comm int)
	EngineCounts() (compute, comm int)
	// SetAutoscale toggles the elasticity controller at runtime; it is a
	// no-op on nodes booted without one. AutoscaleOn reports the switch.
	SetAutoscale(on bool)
	AutoscaleOn() bool
	// SetAdmissionClamp overrides the batch admission-window clamp
	// [min, max] applied to every tenant's window; AdmissionClamp reads
	// the current clamp.
	SetAdmissionClamp(min, max int)
	AdmissionClamp() (min, max int)
	// Drain makes the node reject new invocations (in-flight work
	// completes); Resume re-admits; Draining reports the state.
	Drain()
	Resume()
	Draining() bool
}

// Pool is the slice of engine.Pool the actuator resizes.
type Pool interface {
	Count() int
	SetCount(n int)
}

// QueueCounts is one engine queue's counters: cumulative pushes and
// pops (the PI controller differentiates them into a growth rate) and
// the current length.
type QueueCounts struct {
	Pushed, Popped uint64
	Len            int
}

// Signals is one observation of the load the control loop acts on.
type Signals struct {
	// QueueLen is the backlog feeding the compute pool: tasks parked in
	// the scheduling plane plus tasks in the engine queue.
	QueueLen int
	// InFlight is the number of tasks currently executing on compute
	// engines.
	InFlight int
	// WaitP99 is the scheduling plane's worst per-tenant dispatch-wait
	// p99 — the fairness-facing latency signal.
	WaitP99 time.Duration
	// Compute and Comm are the two engine queues' counters, the PI
	// controller's input.
	Compute, Comm QueueCounts
}

// Config parameterizes the Elasticity decision. The zero value selects
// the documented defaults.
type Config struct {
	// Min and Max bound the compute pool size. Min defaults to 1; Max
	// unset (≤ 0) defaults to 4×Min, and an explicit Max below Min is
	// raised to Min (a fixed-size pool), never silently widened.
	Min, Max int
	// GrowBacklogPerEngine is the queue backlog per engine that reads as
	// pressure (default 4).
	GrowBacklogPerEngine int
	// GrowWaitP99 is the dispatch-wait p99 that reads as pressure
	// (default 5ms).
	GrowWaitP99 time.Duration
	// GrowHoldSteps is the number of consecutive hot observations before
	// a grow (default 2); ShrinkHoldSteps the consecutive calm
	// observations before a shrink (default 10). Shrinking deliberately
	// needs a longer run of evidence than growing, mirroring the
	// conservative scale-down of internal/autoscale.
	GrowHoldSteps   int
	ShrinkHoldSteps int
}

func (c Config) withDefaults() Config {
	if c.Min < 1 {
		c.Min = 1
	}
	if c.Max <= 0 {
		c.Max = 4 * c.Min
	} else if c.Max < c.Min {
		c.Max = c.Min
	}
	if c.GrowBacklogPerEngine < 1 {
		c.GrowBacklogPerEngine = 4
	}
	if c.GrowWaitP99 <= 0 {
		c.GrowWaitP99 = 5 * time.Millisecond
	}
	if c.GrowHoldSteps < 1 {
		c.GrowHoldSteps = 2
	}
	if c.ShrinkHoldSteps < 1 {
		c.ShrinkHoldSteps = 10
	}
	return c
}

// Elasticity is the hysteresis decision that grows and shrinks the
// compute pool from load signals. It holds no pool and runs no loop:
// Pools asks it for a decision each tick and applies it.
type Elasticity struct {
	cfg     Config
	grows   atomic.Uint64
	shrinks atomic.Uint64

	// The hysteresis streaks, guarded by the owning Pools' mutex.
	hotSteps, calmSteps int
}

// NewElasticity returns a decision with cfg's defaults filled in.
func NewElasticity(cfg Config) *Elasticity { return &Elasticity{cfg: cfg.withDefaults()} }

// Resizes reports the cumulative number of pool resizes (grows plus
// shrinks) the decision has made — the EngineResizes stats gauge.
func (e *Elasticity) Resizes() uint64 { return e.grows.Load() + e.shrinks.Load() }

// Grows and Shrinks split Resizes by direction.
func (e *Elasticity) Grows() uint64   { return e.grows.Load() }
func (e *Elasticity) Shrinks() uint64 { return e.shrinks.Load() }

// Bounds reports the configured [Min, Max] pool-size bounds.
func (e *Elasticity) Bounds() (min, max int) { return e.cfg.Min, e.cfg.Max }

// step decides for a compute pool of n engines: +1 grow, -1 shrink,
// 0 hold. canGrow false refuses a grow the way reaching Max does (the
// hot streak keeps counting).
//
// Hot (backlog ≥ GrowBacklogPerEngine×n, or dispatch-wait p99 ≥
// GrowWaitP99) for GrowHoldSteps consecutive steps grows the pool by
// one engine, up to Max. Calm (empty backlog and an idle engine) for
// ShrinkHoldSteps consecutive steps shrinks by one, down to Min. Any
// observation that is neither resets both streaks — the hysteresis that
// keeps a pool from thrashing between sizes under oscillating load.
//
// A pool found below Min (an admin resize made with autoscale off) is
// NOT forced back up outside the load signals: shrinking stops and any
// hot observation grows immediately, so Min is re-approached exactly as
// fast as load justifies it.
func (e *Elasticity) step(n int, s Signals, canGrow bool) int {
	hot := s.QueueLen >= e.cfg.GrowBacklogPerEngine*max(n, 1) || s.WaitP99 >= e.cfg.GrowWaitP99
	calm := s.QueueLen == 0 && s.InFlight < n
	switch {
	case hot:
		e.calmSteps = 0
		e.hotSteps++
		hold := e.cfg.GrowHoldSteps
		if n < e.cfg.Min {
			hold = 1 // below the floor, any pressure grows immediately
		}
		if e.hotSteps >= hold && n < e.cfg.Max && canGrow {
			e.grows.Add(1)
			e.hotSteps = 0
			return 1
		}
	case calm:
		e.hotSteps = 0
		e.calmSteps++
		if e.calmSteps >= e.cfg.ShrinkHoldSteps && n > e.cfg.Min {
			e.shrinks.Add(1)
			e.calmSteps = 0
			return -1
		}
	default:
		e.hotSteps, e.calmSteps = 0, 0
	}
	return 0
}
