// Package arrivals provides open-loop load generation and latency
// recording for the performance-model layer: constant-rate and Poisson
// arrival processes, piecewise bursty load patterns (§7.6), and
// recorders that produce the statistics the paper's figures plot.
package arrivals

import (
	"dandelion/internal/sim"
	"dandelion/internal/stats"
)

// Recorder accumulates per-request results for one experiment run.
type Recorder struct {
	Latency *stats.Sample
	// ColdLatency and HotLatency split requests by start type.
	ColdLatency *stats.Sample
	HotLatency  *stats.Sample
	// Completed counts finished requests; Failed counts errors/drops.
	Completed int
	Failed    int
}

// NewRecorder creates an empty recorder.
func NewRecorder() *Recorder {
	return &Recorder{
		Latency:     &stats.Sample{},
		ColdLatency: &stats.Sample{},
		HotLatency:  &stats.Sample{},
	}
}

// Record logs one completed request. latencyMS is end-to-end latency in
// milliseconds; cold says whether a sandbox was created on the critical
// path.
func (r *Recorder) Record(latencyMS float64, cold bool) {
	r.Latency.Add(latencyMS)
	if cold {
		r.ColdLatency.Add(latencyMS)
	} else {
		r.HotLatency.Add(latencyMS)
	}
	r.Completed++
}

// RecordFailure logs one failed request.
func (r *Recorder) RecordFailure() { r.Failed++ }

// ColdFraction reports the fraction of completed requests that were cold.
func (r *Recorder) ColdFraction() float64 {
	if r.Completed == 0 {
		return 0
	}
	return float64(r.ColdLatency.Count()) / float64(r.Completed)
}

// Pattern is a piecewise-constant arrival-rate function: Rates[i] holds
// from i*StepS to (i+1)*StepS seconds.
type Pattern struct {
	// StepS is the duration of each step in seconds.
	StepS float64
	// Rates are requests/second per step.
	Rates []float64
}

// Duration reports the total pattern length in seconds.
func (p Pattern) Duration() float64 { return p.StepS * float64(len(p.Rates)) }

// RateAt reports the arrival rate at time t (seconds).
func (p Pattern) RateAt(t float64) float64 {
	if t < 0 || p.StepS <= 0 {
		return 0
	}
	i := int(t / p.StepS)
	if i >= len(p.Rates) {
		return 0
	}
	return p.Rates[i]
}

// Bursty builds the two-app bursty pattern used in §7.6: a base rate
// with periodic bursts of the given amplitude.
func Bursty(baseRPS, burstRPS float64, steps int, burstEvery, burstLen int) Pattern {
	p := Pattern{StepS: 1, Rates: make([]float64, steps)}
	for i := range p.Rates {
		if burstEvery > 0 && i%burstEvery < burstLen {
			p.Rates[i] = burstRPS
		} else {
			p.Rates[i] = baseRPS
		}
	}
	return p
}

// GeneratePattern schedules Poisson arrivals following the pattern on
// the engine, starting at the engine's current time.
func GeneratePattern(e *sim.Engine, p Pattern, fn func(i int)) {
	start := e.Now()
	idx := 0
	for step, rate := range p.Rates {
		if rate <= 0 {
			continue
		}
		t := start + sim.Time(float64(step)*p.StepS)
		end := start + sim.Time(float64(step+1)*p.StepS)
		// Exponential gaps within the step.
		for {
			t += sim.Time(e.Rand().ExpFloat64() / rate)
			if t > end {
				break
			}
			i := idx
			e.At(t, func() { fn(i) })
			idx++
		}
	}
}

// SweepPoint is one (RPS, latency summary) measurement of a
// latency-vs-throughput sweep.
type SweepPoint struct {
	RPS     float64
	Summary stats.Summary
	// ColdFraction of completed requests.
	ColdFraction float64
	// Offered and Completed counts detect saturation (completed
	// noticeably below offered means the system fell behind).
	Offered   int
	Completed int
}

// Saturated reports whether the system kept up with offered load within
// tolerance (fraction, e.g. 0.02 for 2%).
func (p SweepPoint) Saturated(tolerance float64) bool {
	if p.Offered == 0 {
		return false
	}
	return float64(p.Completed) < float64(p.Offered)*(1-tolerance)
}
