// The §5 PI controller: every control period it compares the growth
// rates of the compute and communication engine queues and decides
// whether to move one core between the two pools. The same Controller
// drives both the live runtime (through Pools) and the discrete-event
// performance model (internal/faas).
package ctlplane

// Controller is the PI controller. It is mechanism-agnostic: callers
// feed it queue growth observations and apply the returned core moves.
type Controller struct {
	// Kp and Ki are the proportional and integral gains.
	Kp, Ki float64
	// Deadband suppresses moves for small control signals, avoiding
	// oscillation when the system is balanced.
	Deadband float64
	// IntegralClamp bounds the integral term (anti-windup).
	IntegralClamp float64

	integral float64
}

// NewController returns a controller with gains that settle within a few
// control periods for queue-growth error signals measured in tasks per
// period.
func NewController() *Controller {
	return &Controller{Kp: 0.5, Ki: 0.1, Deadband: 0.5, IntegralClamp: 50}
}

// Step consumes one observation of the two queues' growth over the last
// period (pushed − popped deltas) and returns the number of cores to
// move: positive means move that many cores from communication to
// compute, negative the reverse, zero means hold. At most one core moves
// per step, matching the paper's one-core-at-a-time reassignment.
func (c *Controller) Step(computeGrowth, commGrowth float64) int {
	err := computeGrowth - commGrowth
	c.integral += err
	if c.integral > c.IntegralClamp {
		c.integral = c.IntegralClamp
	}
	if c.integral < -c.IntegralClamp {
		c.integral = -c.IntegralClamp
	}
	u := c.Kp*err + c.Ki*c.integral
	switch {
	case u > c.Deadband:
		return 1
	case u < -c.Deadband:
		return -1
	}
	return 0
}

// Reset clears the integral state.
func (c *Controller) Reset() { c.integral = 0 }
