package ctlplane

import (
	"sync"
	"testing"
	"time"
)

// fakePool is a deterministic Pool for driving the actuator by hand.
type fakePool struct {
	mu sync.Mutex
	n  int
}

func (p *fakePool) Count() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.n
}

func (p *fakePool) SetCount(n int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.n = n
}

// newElastic builds an autoscale-only actuator over a fake compute pool
// of n engines and a one-engine comm pool, so the budget ceiling (rule
// 4) reduces to compute < Max.
func newElastic(cfg Config, n int, signals func() Signals) (*Pools, *fakePool, *Elasticity) {
	pool := &fakePool{n: n}
	e := NewElasticity(cfg)
	return NewPools(pool, &fakePool{n: 1}, func(bool) Signals { return signals() }, nil, e), pool, e
}

func TestElasticityGrowsUnderBacklogWithHysteresis(t *testing.T) {
	sig := Signals{QueueLen: 100}
	p, pool, e := newElastic(Config{Min: 1, Max: 3, GrowHoldSteps: 2}, 1,
		func() Signals { return sig })

	// One hot step is not enough: hysteresis demands GrowHoldSteps.
	p.StepOnce()
	if pool.Count() != 1 {
		t.Fatalf("grew after one hot step: count=%d", pool.Count())
	}
	p.StepOnce()
	if pool.Count() != 2 {
		t.Fatalf("count after 2 hot steps = %d, want 2", pool.Count())
	}
	// Sustained pressure keeps growing, but never past Max.
	for i := 0; i < 10; i++ {
		p.StepOnce()
	}
	if pool.Count() != 3 {
		t.Fatalf("count under sustained pressure = %d, want Max=3", pool.Count())
	}
	if e.Grows() != 2 || e.Resizes() != 2 {
		t.Fatalf("grows=%d resizes=%d, want 2/2", e.Grows(), e.Resizes())
	}
}

func TestElasticityGrowsOnDispatchWaitP99(t *testing.T) {
	sig := Signals{WaitP99: 50 * time.Millisecond} // empty queue, slow dispatch
	p, pool, _ := newElastic(Config{Min: 1, Max: 2, GrowHoldSteps: 1, GrowWaitP99: 10 * time.Millisecond}, 1,
		func() Signals { return sig })
	p.StepOnce()
	if pool.Count() != 2 {
		t.Fatalf("count = %d, want 2 (p99 pressure)", pool.Count())
	}
}

func TestElasticityShrinksWhenCalm(t *testing.T) {
	sig := Signals{QueueLen: 0, InFlight: 0}
	p, pool, e := newElastic(Config{Min: 1, Max: 3, ShrinkHoldSteps: 3}, 3,
		func() Signals { return sig })

	for i := 0; i < 2; i++ {
		p.StepOnce()
	}
	if pool.Count() != 3 {
		t.Fatalf("shrank before hold steps: count=%d", pool.Count())
	}
	p.StepOnce() // third consecutive calm step
	if pool.Count() != 2 {
		t.Fatalf("count after hold = %d, want 2", pool.Count())
	}
	// Keep calm long enough and it bottoms out at Min, never below.
	for i := 0; i < 20; i++ {
		p.StepOnce()
	}
	if pool.Count() != 1 {
		t.Fatalf("count = %d, want Min=1", pool.Count())
	}
	if e.Shrinks() != 2 {
		t.Fatalf("shrinks = %d, want 2", e.Shrinks())
	}
}

func TestElasticityMixedSignalsResetStreaks(t *testing.T) {
	sigs := []Signals{
		{QueueLen: 0, InFlight: 0}, // calm
		{QueueLen: 0, InFlight: 0}, // calm
		{QueueLen: 1, InFlight: 2}, // neither hot nor calm: resets
		{QueueLen: 0, InFlight: 0}, // calm again, streak restarts
		{QueueLen: 0, InFlight: 0},
	}
	i := 0
	p, pool, _ := newElastic(Config{Min: 1, Max: 4, ShrinkHoldSteps: 3}, 2,
		func() Signals { s := sigs[i]; i++; return s })
	for range sigs {
		p.StepOnce()
	}
	if pool.Count() != 2 {
		t.Fatalf("count = %d, want 2 (streak was reset)", pool.Count())
	}
}

func TestElasticityDisabledHoldsStill(t *testing.T) {
	p, pool, e := newElastic(Config{Min: 1, Max: 8, GrowHoldSteps: 1}, 1,
		func() Signals { return Signals{QueueLen: 1000} })
	p.SetAutoscale(false)
	for i := 0; i < 5; i++ {
		p.StepOnce()
	}
	if pool.Count() != 1 || e.Resizes() != 0 {
		t.Fatalf("disabled controller acted: count=%d resizes=%d", pool.Count(), e.Resizes())
	}
	p.SetAutoscale(true)
	p.StepOnce()
	if pool.Count() != 2 {
		t.Fatalf("re-enabled controller idle: count=%d", pool.Count())
	}
}

// TestElasticityBelowMinComposesWithOtherActuators: a PI move cannot
// take compute below Min (rule 3), so only an admin resize made with
// autoscale off can. Such a pool is NOT forced back while idle —
// the operator chose that size, and an unconditional restore would
// resize behind their back — but any pressure grows it immediately,
// skipping the grow hysteresis.
func TestElasticityBelowMinComposesWithOtherActuators(t *testing.T) {
	sig := Signals{}
	p, pool, e := newElastic(Config{Min: 2, Max: 4, GrowHoldSteps: 3}, 2,
		func() Signals { return sig })
	p.SetAutoscale(false)
	p.SetEngineCounts(1, 1) // admin resize below Min=2
	p.SetAutoscale(true)

	// Idle: no forced restore, no spurious resizes, no shrinking either.
	for i := 0; i < 5; i++ {
		p.StepOnce()
	}
	if pool.Count() != 1 || e.Resizes() != 0 {
		t.Fatalf("idle below Min: count=%d resizes=%d, want 1/0", pool.Count(), e.Resizes())
	}
	// Pressure: grows on the first hot step despite GrowHoldSteps=3.
	sig = Signals{QueueLen: 100}
	p.StepOnce()
	if pool.Count() != 2 {
		t.Fatalf("hot below Min: count=%d, want 2 (immediate grow)", pool.Count())
	}
}

// TestElasticityStartStop runs the actuator's own 30 ms loop with only
// the elasticity decision configured.
func TestElasticityStartStop(t *testing.T) {
	p, pool, e := newElastic(Config{Min: 1, Max: 4, GrowHoldSteps: 1}, 1,
		func() Signals { return Signals{QueueLen: 100} })
	p.Start()
	p.Start() // idempotent
	deadline := time.After(2 * time.Second)
	for pool.Count() < 4 {
		select {
		case <-deadline:
			t.Fatalf("pool never reached Max under load: count=%d", pool.Count())
		case <-time.After(time.Millisecond):
		}
	}
	p.Stop()
	p.Stop() // idempotent
	if e.Resizes() < 3 {
		t.Fatalf("resizes = %d, want >= 3", e.Resizes())
	}
}

// TestConfigBoundsNormalization: an explicit Max below Min pins the
// pool at Min (a fixed-size pool) — it is never silently widened to
// 4×Min, which would blow past the operator's ceiling.
func TestConfigBoundsNormalization(t *testing.T) {
	cases := []struct {
		in       Config
		min, max int
	}{
		{Config{}, 1, 4},
		{Config{Min: 8}, 8, 32},          // unset Max: 4×Min
		{Config{Min: 8, Max: 4}, 8, 8},   // inverted: fixed at Min
		{Config{Min: 2, Max: 16}, 2, 16}, // sane pair untouched
		{Config{Min: -3, Max: -1}, 1, 4}, // garbage: defaults
	}
	for _, c := range cases {
		if min, max := NewElasticity(c.in).Bounds(); min != c.min || max != c.max {
			t.Errorf("Config %+v → bounds [%d, %d], want [%d, %d]", c.in, min, max, c.min, c.max)
		}
	}
}
