package faas

import (
	"dandelion/internal/ctlplane"
	"dandelion/internal/isolation"
	"dandelion/internal/sim"
)

// DandelionConfig parameterizes the Dandelion platform model.
type DandelionConfig struct {
	// Cores is the node's total physical core count.
	Cores int
	// CommCores is the initial communication-engine allocation; the
	// paper starts with one I/O core and lets the controller grow it.
	CommCores int
	// Profile is the isolation backend cost model (Table 1).
	Profile isolation.CostProfile
	// Cached selects the in-memory binary cache (§7.4 "cached").
	Cached bool
	// Balance enables the PI-controller core reallocation (§5).
	Balance bool
	// CommConcurrency is green threads per communication core.
	CommConcurrency int
	// WarmCache, when set, keeps per-request sandbox state warm and
	// skips creation for requests that find an idle cached sandbox —
	// the anti-Dandelion ablation (the paper always cold-starts).
	WarmCache bool
}

func (c DandelionConfig) withDefaults() DandelionConfig {
	if c.Cores <= 0 {
		c.Cores = 16
	}
	if c.CommCores <= 0 {
		c.CommCores = 1
	}
	if c.CommCores >= c.Cores {
		c.CommCores = c.Cores - 1
	}
	if c.Profile.TotalUS() == 0 {
		c.Profile = isolation.X86KVM
	}
	if c.CommConcurrency <= 0 {
		c.CommConcurrency = 64
	}
	return c
}

// Dandelion simulates a Dandelion worker node: per-request lightweight
// sandboxes on dedicated compute cores, cooperative communication
// engines, and the PI controller moving cores between the two.
type Dandelion struct {
	cfg     DandelionConfig
	eng     *sim.Engine
	compute *sim.Resource
	// commSlots bounds concurrent green threads; commCPU models the
	// communication engines' per-request CPU work.
	commSlots *sim.Resource
	commCPU   *sim.Resource

	computeCores int
	commCores    int
	// controller state: the §5 PI controller the live node runs, and
	// the queue lengths it differentiates.
	pi         *ctlplane.Controller
	prevCompQ  int
	prevCommQ  int
	warmIdle   int // idle warm sandboxes (WarmCache ablation)
	ColdStarts int
	Requests   int
}

// NewDandelion builds the model on the given engine and starts the
// control loop if enabled.
func NewDandelion(eng *sim.Engine, cfg DandelionConfig) *Dandelion {
	cfg = cfg.withDefaults()
	d := &Dandelion{
		cfg:          cfg,
		eng:          eng,
		computeCores: cfg.Cores - cfg.CommCores,
		commCores:    cfg.CommCores,
	}
	d.compute = sim.NewResource(eng, d.computeCores)
	d.commSlots = sim.NewResource(eng, d.commCores*cfg.CommConcurrency)
	d.commCPU = sim.NewResource(eng, d.commCores)
	if cfg.Balance {
		d.pi = ctlplane.NewController()
		// Defer the first control step one period so the experiment's
		// pre-scheduled arrivals exist before the loop decides whether
		// the node is drained.
		eng.After(sim.Millis(30), d.controlStep)
	}
	return d
}

// CoreSplit reports the current (compute, comm) core allocation.
func (d *Dandelion) CoreSplit() (int, int) { return d.computeCores, d.commCores }

// controlStep runs the PI controller (§5): every 30 ms it compares the
// queue growth of the two engine types and moves one core, with the
// live actuator's floor and empty-queue guard.
func (d *Dandelion) controlStep() {
	compQ := d.compute.QueueLen()
	commQ := d.commCPU.QueueLen() + d.commSlots.QueueLen()
	move := d.pi.Step(float64(compQ-d.prevCompQ), float64(commQ-d.prevCommQ))
	d.prevCompQ, d.prevCommQ = compQ, commQ
	switch {
	case move > 0 && d.commCores > 1 && compQ > 0:
		d.commCores--
		d.computeCores++
	case move < 0 && d.computeCores > 1 && commQ > 0:
		d.computeCores--
		d.commCores++
	}
	d.compute.SetCapacity(d.computeCores)
	d.commCPU.SetCapacity(d.commCores)
	d.commSlots.SetCapacity(d.commCores * d.cfg.CommConcurrency)
	// Stop the control loop once the node is fully drained and no
	// further events are scheduled; otherwise RunAll would never
	// terminate. Arrival processes are pre-scheduled, so pending==0
	// means the experiment is over.
	if d.eng.Pending() == 0 && d.compute.InUse() == 0 && d.compute.QueueLen() == 0 &&
		d.commCPU.InUse() == 0 && d.commSlots.QueueLen() == 0 && d.commCPU.QueueLen() == 0 {
		return
	}
	d.eng.After(sim.Millis(30), d.controlStep)
}

// Submit schedules one request.
func (d *Dandelion) Submit(app App, done func(latencyMS float64, cold bool)) {
	start := d.eng.Now()
	d.Requests++
	finish := func(cold bool) {
		done(sim.Duration(d.eng.Now()-start).Millis(), cold)
	}
	if app.Phases <= 0 {
		d.computePhase(app.ComputeMS, func(cold bool) { finish(cold) })
		return
	}
	// Phase chain: fetch (communication) then compute, repeated.
	var anyCold bool
	var phase func(k int)
	phase = func(k int) {
		if k >= app.Phases {
			finish(anyCold)
			return
		}
		d.commPhase(app, func() {
			d.computePhase(app.PhaseComputeMS, func(cold bool) {
				anyCold = anyCold || cold
				phase(k + 1)
			})
		})
	}
	phase(0)
}

// computePhase creates a sandbox (unless a warm one is cached in the
// ablation) and runs the compute function to completion on a compute
// core.
func (d *Dandelion) computePhase(computeMS float64, done func(cold bool)) {
	cold := true
	if d.cfg.WarmCache && d.warmIdle > 0 {
		d.warmIdle--
		cold = false
	}
	if cold {
		d.ColdStarts++
	}
	serviceUS := computeMS * 1000 * d.cfg.Profile.ComputeFactor
	if cold {
		serviceUS += d.cfg.Profile.ColdStartUS(d.cfg.Cached)
	} else {
		// Warm path still marshals and transfers I/O.
		serviceUS += d.cfg.Profile.MarshalUS + d.cfg.Profile.TransferUS + d.cfg.Profile.OutputUS
	}
	d.compute.Use(sim.Micros(serviceUS), func() {
		if d.cfg.WarmCache {
			d.warmIdle++
		}
		done(cold)
	})
}

// commPhase runs one fetch on the communication engines: a green-thread
// slot held across the network wait, with a small CPU slice before and
// after.
func (d *Dandelion) commPhase(app App, done func()) {
	d.commSlots.Acquire(func() {
		half := sim.Micros(app.IOCPUMS * 1000 / 2)
		d.commCPU.Use(half, func() {
			d.eng.After(sim.Millis(app.IOLatencyMS), func() {
				d.commCPU.Use(half, func() {
					d.commSlots.Release()
					done()
				})
			})
		})
	})
}
