package ctlplane

import "testing"

func TestControllerDirection(t *testing.T) {
	c := NewController()
	// Compute queue growing much faster: move cores to compute.
	if got := c.Step(10, 0); got != 1 {
		t.Fatalf("Step(10,0) = %d, want 1", got)
	}
	c.Reset()
	if got := c.Step(0, 10); got != -1 {
		t.Fatalf("Step(0,10) = %d, want -1", got)
	}
}

func TestControllerDeadband(t *testing.T) {
	c := NewController()
	if got := c.Step(0.1, 0); got != 0 {
		t.Fatalf("tiny error moved a core: %d", got)
	}
	// Balanced growth: no move even when both queues grow.
	c.Reset()
	if got := c.Step(50, 50); got != 0 {
		t.Fatalf("balanced growth moved a core: %d", got)
	}
}

func TestControllerIntegralAccumulates(t *testing.T) {
	c := &Controller{Kp: 0.1, Ki: 0.3, Deadband: 0.5, IntegralClamp: 50}
	// A persistent small error should eventually trip the deadband via
	// the integral term.
	moved := false
	for i := 0; i < 20; i++ {
		if c.Step(1, 0) == 1 {
			moved = true
			break
		}
	}
	if !moved {
		t.Fatal("integral term never acted on persistent error")
	}
}

func TestControllerAntiWindup(t *testing.T) {
	c := NewController()
	for i := 0; i < 1000; i++ {
		c.Step(100, 0)
	}
	if c.integral > c.IntegralClamp {
		t.Fatalf("integral %v exceeds clamp %v", c.integral, c.IntegralClamp)
	}
	// After the pressure reverses, the controller must recover quickly
	// instead of staying saturated.
	flips := 0
	for i := 0; i < 20; i++ {
		if c.Step(0, 100) == -1 {
			flips++
		}
	}
	if flips == 0 {
		t.Fatal("controller stuck after saturation")
	}
}
