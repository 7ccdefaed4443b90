// Package faas contains the performance models that regenerate the
// paper's evaluation figures: a queueing/cost-model simulator for each
// platform — Dandelion (per-request sandboxes, compute/communication
// split, PI controller), Firecracker with and without snapshots plus a
// Knative-style hot pool, gVisor, Spin/Wasmtime, and the D-hybrid
// ablation of §7.5.
//
// Every model runs on the deterministic discrete-event kernel in
// internal/sim, so a full RPS sweep takes milliseconds and reproduces
// bit-for-bit. Cost parameters come from the paper: Table 1 backend
// breakdowns, §7.2 boot times, and §7.3 saturation points.
package faas

import (
	"dandelion/internal/arrivals"
	"dandelion/internal/sim"
)

// App describes one application's per-request work, the knobs the
// microbenchmarks vary.
type App struct {
	// Name labels results.
	Name string
	// ComputeMS is the native single-core compute time per request
	// (e.g. ~3.1 ms for 128x128 int64 matmul, ~0.005 ms for 1x1).
	ComputeMS float64
	// Phases is the number of fetch+compute phases (§7.4); zero means
	// a single pure-compute function.
	Phases int
	// IOLatencyMS is the network latency per fetch.
	IOLatencyMS float64
	// IOCPUMS is communication-engine CPU per fetch (sanitize, parse,
	// copy).
	IOCPUMS float64
	// PhaseComputeMS is compute per phase (sum/min/max over the
	// fetched array).
	PhaseComputeMS float64
}

// MatMul128 is the 128x128 int64 matrix multiplication microbenchmark.
// ~3.1 ms native on one core of the default server: 16 cores saturate
// near the paper's 4800 RPS once sandbox costs are added.
func MatMul128() App { return App{Name: "matmul128", ComputeMS: 3.1} }

// MatMul1 is the 1x1 matmul used for sandbox-creation measurements.
func MatMul1() App { return App{Name: "matmul1", ComputeMS: 0.005} }

// FetchCompute is the I/O-intensive microbenchmark of §7.4/§7.5: fetch
// a 64 KiB array, then compute sum/min/max over a sample.
func FetchCompute(phases int) App {
	return App{
		Name: "fetchcompute", Phases: phases,
		IOLatencyMS: 2.0, IOCPUMS: 0.08, PhaseComputeMS: 0.25,
	}
}

// ImageCompression approximates the QOI→PNG transcode of §7.6
// (~18 ms average on Dandelion per the paper's Figure 8 numbers).
func ImageCompression() App { return App{Name: "compression", ComputeMS: 17.5} }

// LogProcessing approximates the Figure 3 app: an auth round trip plus
// a fan-out of log fetches and a render step (~27 ms average, I/O
// dominated).
func LogProcessing() App {
	return App{
		Name: "logprocessing", Phases: 3,
		IOLatencyMS: 6.0, IOCPUMS: 0.15, PhaseComputeMS: 0.9,
	}
}

// Platform is a simulated FaaS platform: Submit schedules one request's
// lifecycle on the engine and must call done exactly once with the
// request's latency and whether it incurred a cold start.
type Platform interface {
	Submit(app App, done func(latencyMS float64, cold bool))
}

// Sweep drives an open-loop Poisson arrival process at each RPS for
// durationS seconds and collects a SweepPoint per rate.
func Sweep(mk func(eng *sim.Engine) Platform, app App, rpsList []float64, durationS float64, seed int64) []arrivals.SweepPoint {
	points := make([]arrivals.SweepPoint, 0, len(rpsList))
	for _, rps := range rpsList {
		eng := sim.NewEngine(seed)
		p := mk(eng)
		rec := arrivals.NewRecorder()
		offered := 0
		inHorizon := 0
		eng.ExpArrivals(rps, sim.Time(durationS), func(int) {
			offered++
			p.Submit(app, func(lat float64, cold bool) {
				rec.Record(lat, cold)
				// Saturation is judged by completions within the
				// offered-load horizon: a backlogged system finishes
				// late even though the drain below collects its
				// latencies.
				if eng.Now() <= sim.Time(durationS) {
					inHorizon++
				}
			})
		})
		// Run past the horizon so in-flight requests drain, but bound
		// the drain so a saturated system still terminates.
		eng.Run(sim.Time(durationS + 30))
		points = append(points, arrivals.SweepPoint{
			RPS:          rps,
			Summary:      rec.Latency.Summarize(),
			ColdFraction: rec.ColdFraction(),
			Offered:      offered,
			Completed:    inHorizon,
		})
	}
	return points
}
