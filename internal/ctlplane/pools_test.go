package ctlplane

import (
	"math/rand"
	"sync"
	"testing"
	"time"
)

// fakeLoad is one fake queue state both decisions read: the PI inputs
// (each engine queue's counters) and the elasticity inputs (the compute
// backlog is the compute queue's length) always agree.
type fakeLoad struct {
	mu sync.Mutex
	s  Signals
}

func (l *fakeLoad) signals(bool) Signals {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.s
}

// advance pushes and pops tasks on one queue (pops never exceed what is
// queued) and keeps the elasticity backlog in step with the compute
// queue.
func (l *fakeLoad) advance(q *QueueCounts, push, pop int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	pop = min(pop, q.Len+push)
	q.Pushed += uint64(push)
	q.Popped += uint64(pop)
	q.Len += push - pop
	l.s.QueueLen = l.s.Compute.Len
}

func newBalanced(compute, comm int) (*Pools, *fakePool, *fakePool, *fakeLoad) {
	comp, cm, load := &fakePool{n: compute}, &fakePool{n: comm}, &fakeLoad{}
	return NewPools(comp, cm, load.signals, NewController(), nil), comp, cm, load
}

func TestBalancerMovesCoreTowardComputeLoad(t *testing.T) {
	p, comp, comm, load := newBalanced(2, 2)
	total := comp.Count() + comm.Count()
	// Flood the compute queue with slow tasks so its growth dominates.
	for i := 0; i < 5; i++ {
		load.advance(&load.s.Compute, 40, 4)
		p.StepOnce()
	}
	if comp.Count() <= 2 {
		t.Fatalf("compute pool not grown: %d", comp.Count())
	}
	if comp.Count()+comm.Count() != total {
		t.Fatalf("core total changed: %d + %d != %d", comp.Count(), comm.Count(), total)
	}
	if comm.Count() < 1 {
		t.Fatalf("comm pool below floor: %d", comm.Count())
	}
}

func TestBalancerRespectsFloor(t *testing.T) {
	p, comp, comm, load := newBalanced(1, 1)
	// Huge compute pressure, but comm is already at the floor.
	load.advance(&load.s.Compute, 100, 0)
	for i := 0; i < 3; i++ {
		p.StepOnce()
	}
	if comm.Count() != 1 || comp.Count() != 1 {
		t.Fatalf("counts = (%d, %d), want (1, 1): no move past the floor", comp.Count(), comm.Count())
	}
}

func TestBalancerReverses(t *testing.T) {
	p, _, comm, load := newBalanced(3, 1)
	p.StepOnce() // baseline
	// Now flood the comm queue beyond one engine's green-thread capacity.
	for i := 0; i < 5; i++ {
		load.advance(&load.s.Comm, 40, 4)
		p.StepOnce()
	}
	if comm.Count() <= 1 {
		t.Fatalf("comm pool not grown under I/O load: %d", comm.Count())
	}
}

// TestBalancerEmptyQueueGuard: a draining comm backlog reads as negative
// comm growth, so the controller asks for a core toward compute — but
// the compute queue is empty, and handing it a core would only slow the
// drain. The move goes through once compute has queued work.
func TestBalancerEmptyQueueGuard(t *testing.T) {
	p, comp, comm, load := newBalanced(1, 2)
	load.advance(&load.s.Comm, 20, 0) // backlog builds; compute is at the floor
	p.StepOnce()
	load.advance(&load.s.Comm, 0, 10) // backlog drains
	p.StepOnce()
	if comp.Count() != 1 || comm.Count() != 2 {
		t.Fatalf("counts = (%d, %d), want (1, 2): moved toward an empty queue", comp.Count(), comm.Count())
	}
	load.advance(&load.s.Compute, 1, 0)
	load.advance(&load.s.Comm, 0, 10)
	p.StepOnce()
	if comp.Count() != 2 || comm.Count() != 1 {
		t.Fatalf("counts = (%d, %d), want (2, 1) once compute has work", comp.Count(), comm.Count())
	}
}

func TestBalancerStartStop(t *testing.T) {
	p, _, _, _ := newBalanced(2, 2)
	p.Start()
	p.Start() // double start is a no-op
	time.Sleep(2 * period)
	p.Stop()
	p.Stop() // double stop is a no-op
}

// TestPoolsRulesHoldFromAnyState is the actuator's property test. From
// random boot sizes and bounds it applies random interleavings of ticks
// (one fake queue state feeds both decisions), SetEngineCounts calls
// and SetAutoscale toggles, and checks rules 1–4 after every operation.
// Then it freezes the load and checks that the loop settles: no resize
// or move after settleTicks ticks.
func TestPoolsRulesHoldFromAnyState(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		comp, comm, load := &fakePool{n: 1 + rng.Intn(8)}, &fakePool{n: 1 + rng.Intn(8)}, &fakeLoad{}
		cfg := Config{
			Min: 1 + rng.Intn(6), Max: rng.Intn(12), // Max 0 = 4×Min; Max < Min pins at Min
			GrowHoldSteps: 1 + rng.Intn(3), ShrinkHoldSteps: 1 + rng.Intn(10),
		}
		var pi *Controller
		var el *Elasticity
		if rng.Intn(4) > 0 {
			pi = NewController()
		}
		if rng.Intn(4) > 0 {
			el = NewElasticity(cfg)
		}
		p := NewPools(comp, comm, load.signals, pi, el)
		lo, hi := NewElasticity(cfg).Bounds()
		budget := comm.Count()
		dist := func(c int) int { return max(lo-c, c-hi, 0) }

		tick := func(op int) {
			s := load.signals(true)
			auto := p.AutoscaleOn()
			c0, m0 := comp.Count(), comm.Count()
			var g0, s0 uint64
			if el != nil {
				g0, s0 = el.Grows(), el.Shrinks()
			}
			p.StepOnce()
			c1, m1 := comp.Count(), comm.Count()
			de := 0 // the elasticity resize
			if el != nil {
				de = int(el.Grows()-g0) - int(el.Shrinks()-s0)
			}
			ce := c0 + de
			dp := c1 - ce // the PI move
			fail := func(rule string) {
				t.Fatalf("seed %d op %d: %s: (%d,%d) -> (%d,%d) elastic %+d pi %+d auto=%v bounds [%d,%d] budget %d signals %+v",
					seed, op, rule, c0, m0, c1, m1, de, dp, auto, lo, hi, budget, s)
			}
			switch {
			case c1 < 1 || m1 < 1:
				fail("rule 1: a pool below 1")
			case de < -1 || de > 1 || (de != 0 && !auto):
				fail("elasticity resized by more than one or while disabled")
			case m1-m0 != -dp || dp < -1 || dp > 1 || (dp != 0 && pi == nil):
				fail("rule 2: a PI move changed compute+comm")
			case dp > 0 && s.Compute.Len == 0, dp < 0 && s.Comm.Len == 0:
				fail("rule 2: a PI move toward an empty queue")
			case auto && (dist(ce) > dist(c0) || (dp > 0 && ce+1 > hi) || (dp < 0 && ce-1 < lo)):
				fail("rule 3: compute moved out of [Min, Max]")
			case auto && de > 0 && c1+m1 > hi+budget:
				fail("rule 4: elasticity grew past the budget ceiling")
			}
		}

		for op := 0; op < 200; op++ {
			switch r := rng.Intn(10); {
			case r < 7:
				load.advance(&load.s.Compute, rng.Intn(10), rng.Intn(10))
				load.advance(&load.s.Comm, rng.Intn(10), rng.Intn(10))
				load.mu.Lock()
				load.s.InFlight = rng.Intn(comp.Count() + 1)
				load.s.WaitP99 = 0
				if rng.Intn(8) == 0 {
					load.s.WaitP99 = 10 * time.Millisecond
				}
				load.mu.Unlock()
				tick(op)
			case r < 9:
				a, b := rng.Intn(14)-2, rng.Intn(14)-2
				auto := p.AutoscaleOn()
				gc, gm := p.SetEngineCounts(a, b)
				want := max(a, 1)
				if auto {
					want = min(max(want, lo), hi)
				}
				if c, m := comp.Count(), comm.Count(); c != want || m != max(b, 1) || gc != c || gm != m {
					t.Fatalf("seed %d op %d: SetEngineCounts(%d, %d) auto=%v bounds [%d,%d] -> (%d,%d) returned (%d,%d)",
						seed, op, a, b, auto, lo, hi, c, m, gc, gm)
				}
				budget = max(b, 1)
			default:
				c, m := comp.Count(), comm.Count()
				p.SetAutoscale(rng.Intn(2) == 0)
				if comp.Count() != c || comm.Count() != m {
					t.Fatalf("seed %d op %d: SetAutoscale resized", seed, op)
				}
			}
		}

		// Freeze the load. From the second frozen tick on the PI error is
		// zero, so its integral and decision are constant, and the
		// elasticity observation changes only with the pool size; in a
		// frozen state it can only grow or only shrink. So a run of
		// hold+1 quiet ticks is quiet forever, and at most events
		// resizes and moves can happen: grows stop at the budget ceiling,
		// shrinks and moves are bounded by the engines there are.
		total := comp.Count() + comm.Count()
		hold := max(cfg.GrowHoldSteps, cfg.ShrinkHoldSteps)
		events := 1 + 2*total + 2*(hi+budget)
		settleTicks := 1 + (events+1)*(hold+1)
		for i := 0; i < settleTicks; i++ {
			tick(-1)
		}
		c, m := comp.Count(), comm.Count()
		resizes := p.Resizes()
		for i := 0; i < settleTicks; i++ {
			tick(-1)
		}
		if comp.Count() != c || comm.Count() != m || p.Resizes() != resizes {
			t.Fatalf("seed %d: not settled after %d frozen ticks: (%d,%d) -> (%d,%d), resizes %d -> %d",
				seed, settleTicks, c, m, comp.Count(), comm.Count(), resizes, p.Resizes())
		}
	}
}
